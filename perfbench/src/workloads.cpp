#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_common.h"
#include "stats.h"
#include "tracing.h"

namespace perfbench {
namespace {

using seafl::obs::TraceEventKind;

constexpr double kNsPerS = 1e9;

/// A diagnostic: printed and saved with the result, never compared, so it
/// carries its own unit. Gated metrics go to RunReport::metrics by name;
/// BENCHMARK.json gives their units.
void note(RunReport& report, std::string name, double value,
          std::string unit) {
  report.diagnostics.push_back(Metric{std::move(name), value, std::move(unit)});
}

// --- process probes ------------------------------------------------------------

/// Returns freed heap to the kernel and restarts the peak-RSS watermark, so
/// the next VmHWM reading covers one repetition rather than the process
/// history. Where the kernel refuses the reset, VmHWM stays the process
/// peak.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

std::uint64_t heap_allocs() {
  return seafl::bench::g_heap_allocs.load(std::memory_order_relaxed);
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / kNsPerS;
}

/// Adds one repetition's span from its first aggregation to its last:
/// the updates aggregated at stamps 1..n-1 and the process CPU seconds
/// between stamp 0 and stamp n-1. `stamps_s[i]` is the process CPU time
/// (seconds, any origin) at the start of aggregation i and `log[i]` its
/// round statistics.
void add_span(const std::vector<double>& stamps_s,
              const std::vector<seafl::RoundStat>& log, double& updates,
              double& seconds) {
  const std::size_t n = std::min(stamps_s.size(), log.size());
  if (n < 2) return;
  for (std::size_t j = 1; j < n; ++j)
    updates += static_cast<double>(log[j].updates);
  seconds += stamps_s[n - 1] - stamps_s[0];
}

// --- result checks -------------------------------------------------------------

/// The "observation only" contract: everything a run reports, bit for bit.
bool same_result(const seafl::RunResult& a, const seafl::RunResult& b) {
  auto same_floats = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0;
  };
  if (!same_floats(a.final_weights, b.final_weights)) return false;
  if (a.curve.size() != b.curve.size() ||
      a.round_log.size() != b.round_log.size())
    return false;
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    const auto& p = a.curve[i];
    const auto& q = b.curve[i];
    if (p.time != q.time || p.round != q.round || p.accuracy != q.accuracy ||
        p.loss != q.loss)
      return false;
  }
  for (std::size_t i = 0; i < a.round_log.size(); ++i) {
    const auto& p = a.round_log[i];
    const auto& q = b.round_log[i];
    if (p.round != q.round || p.time != q.time || p.updates != q.updates ||
        p.mean_staleness != q.mean_staleness || p.partial != q.partial)
      return false;
  }
  return a.participation == b.participation &&
         a.sparse_participation == b.sparse_participation &&
         a.time_to_target == b.time_to_target &&
         a.final_accuracy == b.final_accuracy &&
         a.final_time == b.final_time && a.rounds == b.rounds &&
         a.total_updates == b.total_updates &&
         a.partial_updates == b.partial_updates &&
         a.model_downloads == b.model_downloads &&
         a.model_uploads == b.model_uploads &&
         a.notifications == b.notifications &&
         a.lost_uploads == b.lost_uploads &&
         a.aggregations == b.aggregations &&
         a.server_aggregation_work == b.server_aggregation_work &&
         a.dropped_updates == b.dropped_updates &&
         a.stale_waits == b.stale_waits &&
         a.mean_staleness == b.mean_staleness &&
         a.client_crashes == b.client_crashes &&
         a.deadline_expirations == b.deadline_expirations &&
         a.redispatches == b.redispatches &&
         a.abandoned_slots == b.abandoned_slots &&
         a.upload_retries == b.upload_retries &&
         a.degraded_aggregations == b.degraded_aggregations &&
         a.screened_updates == b.screened_updates &&
         a.clipped_updates == b.clipped_updates &&
         a.speculation_cut == b.speculation_cut &&
         a.speculation_wasted == b.speculation_wasted &&
         a.upload_wire_bytes == b.upload_wire_bytes &&
         a.upload_raw_bytes == b.upload_raw_bytes;
}

/// Adds a failure message unless `ok`.
void expect(std::vector<std::string>& failures, bool ok,
            const std::string& what) {
  if (!ok && std::find(failures.begin(), failures.end(), what) ==
                 failures.end())
    failures.push_back(what);
}

/// Checks shared by every workload: the round log, counters and budget
/// agree with each other and with the configuration.
void check_run_result(std::vector<std::string>& failures,
                      const seafl::RunResult& r, const seafl::RunConfig& c,
                      bool to_target, double accuracy_floor) {
  if (to_target) {
    expect(failures, r.time_to_target >= 0.0 && r.rounds <= c.max_rounds,
           "target accuracy not reached within the round budget");
  } else {
    expect(failures, r.rounds == c.max_rounds,
           "round count differs from the budget");
  }
  expect(failures,
         r.round_log.size() == r.rounds && r.aggregations == r.rounds,
         "round log and aggregation count disagree with the round count");
  std::size_t logged = 0;
  std::size_t short_rounds = 0;
  for (const auto& s : r.round_log) {
    logged += s.updates;
    if (s.updates < c.buffer_size) ++short_rounds;
  }
  expect(failures, logged == r.total_updates,
         "round log update total differs from total_updates");
  expect(failures, short_rounds <= r.degraded_aggregations,
         "a round aggregated fewer than K updates without degrading");
  expect(failures,
         aggregated_updates(r) + failed_sessions(r) <= r.model_downloads,
         "more sessions ended than were dispatched");
  expect(failures, r.final_accuracy >= accuracy_floor,
         "final accuracy below the workload's floor");
}

/// Seed of repetition `rep` of a run: a splitmix64 step over both, so every
/// repetition of a run builds a different world and the run's figures
/// average over them, while one --seed always yields the same worlds.
std::uint64_t rep_seed(std::uint64_t seed, std::size_t rep) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (rep + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) >> 11;  // fits a JSON number exactly
}

/// fl.round_* diagnostics: median and highest supported percentile of
/// single-round wall gaps (ms), with their sample count.
void set_round_distribution(RunReport& report,
                            const std::vector<double>& gaps) {
  auto& m = report.metrics;
  m["fl.round_samples"] = static_cast<double>(gaps.size());
  if (gaps.empty()) return;
  m["fl.round_p50_ms"] = median(gaps);
  const auto tail = highest_supported_percentile(gaps);
  m["fl.round_tail_ms"] = tail ? tail->value : 0.0;
  m["fl.round_tail_pct"] = tail ? tail->percentile : 0.0;
}

// --- simulated workloads -------------------------------------------------------

struct SimWorkload {
  seafl::TaskSpec task;
  seafl::FleetConfig fleet;
  seafl::ExperimentParams params;
  std::string algorithm;
  std::size_t mlp_hidden = 0;  ///< 0 = the task's default model
  /// Hazards and recovery knobs set on top of the preset.
  std::function<void(seafl::RunConfig&)> configure;
  bool to_target = false;      ///< each run stops at the task target
  double accuracy_floor = 0.0;
  /// Kernels run on the simulation thread (a SerialKernelScope, as
  /// exp::Runner runs simulations), so all of the run's CPU time is that
  /// thread's. False: they fan out to the global pool, the program's
  /// default path.
  bool serial_kernels = true;
  /// Wall seconds one repetition takes on the reference host; sets how many
  /// repetitions a run of --seconds makes.
  double nominal_rep_s = 1.0;
};

/// Marks one traced repetition may hold (a pop_churn repetition makes about
/// half a million).
constexpr std::size_t kTraceMarks = std::size_t{1} << 20;

SimWorkload paper_cifar(std::uint64_t seed) {
  // The paper's SEAFL arm (§VI) at CPU scale. Equal-size shards drawn from a
  // pooled Dir(0.3) label mixture keep the cost of one update independent
  // of which clients report, so the seed moves the data, not the workload.
  SimWorkload w;
  w.task.name = "synth-cifar10";
  w.task.num_clients = 100;
  w.task.samples_per_client = 40;
  w.task.pool_samples = 4000;
  w.task.test_samples = 600;
  w.task.dirichlet_alpha = 0.3;
  w.task.seed = seed;
  w.fleet.num_devices = 100;
  w.fleet.pareto_shape = 1.3;
  w.fleet.seed = seed;
  w.params.buffer_size = 10;
  w.params.concurrency = 20;
  w.params.local_epochs = 5;
  w.params.staleness_limit = 10;
  w.params.target_accuracy = seafl::task_target_accuracy("synth-cifar10");
  w.params.stop_at_target = true;
  w.params.max_rounds = 40;
  w.params.eval_every = 1;
  w.params.eval_subset = 300;
  w.params.seed = seed;
  w.algorithm = "seafl";
  w.to_target = true;
  w.accuracy_floor = w.params.target_accuracy;
  w.nominal_rep_s = 12.0;
  return w;
}

SimWorkload server_ingest(std::uint64_t seed) {
  // Server data plane: int8 uploads with error feedback into screened
  // SEAFL aggregation of a 563,722-parameter model (2.25 MB, larger than a
  // core's L2); clients do one SGD step on 4 samples, so decode, screening
  // and the Eq. 7/8 mix dominate. The only workload whose kernels fan out
  // to the pool, as the program's default path does.
  SimWorkload w;
  w.task.name = "synth-mnist";
  w.task.num_clients = 100;
  w.task.samples_per_client = 4;
  w.task.pool_samples = 4096;
  w.task.test_samples = 600;
  w.task.dirichlet_alpha = 0.3;
  w.task.seed = seed;
  w.fleet.num_devices = 100;
  w.fleet.seed = seed;
  w.params.buffer_size = 10;
  w.params.concurrency = 20;
  w.params.local_epochs = 1;
  w.params.batch_size = 4;
  w.params.staleness_limit = 10;
  w.params.stop_at_target = false;
  w.params.max_rounds = 20;
  w.params.eval_every = 10;
  w.params.eval_subset = 200;
  w.params.codec = "int8";
  w.params.error_feedback = true;
  w.params.seed = seed;
  w.algorithm = "seafl-ft";
  w.mlp_hidden = 1024;
  w.accuracy_floor = 0.3;
  w.serial_kernels = false;
  w.nominal_rep_s = 2.5;
  return w;
}

SimWorkload pop_churn(std::uint64_t seed) {
  // A million pooled lazy clients under churn, diurnal windows, 10% upload
  // loss with retries, deadline re-dispatch and round deadlines: the
  // session engine's own cost, with tiny models and tiny GEMMs.
  SimWorkload w;
  w.task.name = "synth-mnist";
  w.task.num_clients = 1'000'000;
  w.task.samples_per_client = 2;
  w.task.pool_samples = 4096;
  w.task.test_samples = 600;
  w.task.dirichlet_alpha = 0.3;
  w.task.seed = seed;
  w.fleet.num_devices = w.task.num_clients;
  w.fleet.seed = seed;
  w.params.buffer_size = 16;
  w.params.concurrency = 128;
  w.params.local_epochs = 1;
  w.params.batch_size = 2;
  w.params.staleness_limit = 10;
  w.params.stop_at_target = false;
  w.params.max_rounds = 1000;
  w.params.eval_every = 250;
  w.params.eval_subset = 200;
  w.params.seed = seed;
  w.algorithm = "seafl-ft";
  w.configure = [](seafl::RunConfig& c) {
    // Scales in virtual seconds for this fleet: a clean round lasts ~5 s
    // and a session ~11 s. About a fifth of the sessions crash.
    c.upload_loss_prob = 0.1;
    c.faults.mean_uptime = 50.0;
    c.faults.mean_downtime = 10.0;
    c.faults.diurnal_period = 400.0;
    c.faults.diurnal_online_fraction = 0.5;
    c.faults.round_deadline = 20.0;
  };
  w.accuracy_floor = 0.3;
  w.nominal_rep_s = 1.5;
  return w;
}

double work_per_sample(const seafl::FlTask& task) {
  // Virtual compute cost relative to the MLP baseline, as run_arm prices it.
  const double mlp = seafl::estimate_flops_per_sample(
      seafl::ModelKind::kMlp, seafl::InputSpec{1, 1, 32}, task.num_classes);
  return seafl::estimate_flops_per_sample(task.default_model, task.input,
                                          task.num_classes) /
         mlp;
}

/// Process CPU seconds of a repetition's set-up, by part.
struct SetupSample {
  double data = 0.0;  ///< make_task
  double sim = 0.0;   ///< Fleet
  double fl = 0.0;    ///< strategy, model init, engine construction
  double total() const { return data + sim + fl; }
};

struct SimRep {
  seafl::RunResult result;
  seafl::RunConfig config;
  SetupSample setup;
  std::int64_t setup_wall_ns = 0;  ///< the same set-up on the wall clock
  Interval run;            ///< the Simulation::run call
  Interval wall;           ///< set-up through teardown
  std::int64_t run_cpu_ns = 0;         ///< process CPU inside run()
  std::int64_t run_thread_cpu_ns = 0;  ///< this thread's CPU inside run()
  std::uint64_t allocs = 0;  ///< heap allocations inside run()
  std::vector<Mark> marks;   ///< traced: every mark; untraced: round marks
  std::size_t dropped_marks = 0;
  double peak_rss_mib = 0.0;  ///< VmHWM over this repetition
};

/// One repetition: build the world from the seed, run it, tear it down.
/// `run_it` false stops after construction (a set-up-only sample).
SimRep sim_rep(const SimWorkload& w, bool traced, bool run_it, MarkLog& log,
               CpuRotor* rotor) {
  log.clear();
  SimRep rep;
  reset_peak_rss();
  const std::int64_t t0 = now_ns();
  const std::int64_t c0 = process_cpu_ns();
  {
    seafl::FlTask task = seafl::make_task(w.task);
    const std::int64_t c1 = process_cpu_ns();
    const seafl::Fleet fleet(w.fleet);
    const std::int64_t c2 = process_cpu_ns();
    seafl::Arm arm = seafl::make_arm(w.algorithm, w.params);
    if (w.configure) w.configure(arm.config);
    rep.config = arm.config;
    if (traced)
      task.partition = std::make_shared<TimedPartition>(task.partition, log);
    const seafl::ModelFactory factory = seafl::make_model(
        task.default_model, task.input, task.num_classes, w.mlp_hidden);
    MarkSink sink(log);  // declared first: outlives the simulation
    seafl::Simulation sim(
        task, factory, fleet,
        std::make_unique<TimedStrategy>(std::move(arm.strategy), log, rotor),
        arm.config, work_per_sample(task));
    if (traced) sim.set_trace_sink(&sink);
    const std::int64_t c3 = process_cpu_ns();
    rep.setup_wall_ns = now_ns() - t0;
    rep.setup = {seconds_between(c0, c1), seconds_between(c1, c2),
                 seconds_between(c2, c3)};
    if (run_it) {
      const std::uint64_t a0 = heap_allocs();
      const std::int64_t thread0 = thread_cpu_ns();
      const std::int64_t cpu0 = process_cpu_ns();
      rep.run.begin = now_ns();
      rep.result = sim.run();
      rep.run.end = now_ns();
      rep.run_cpu_ns = process_cpu_ns() - cpu0;
      rep.run_thread_cpu_ns = thread_cpu_ns() - thread0;
      rep.allocs = heap_allocs() - a0;
    }
    rep.peak_rss_mib = peak_rss_mib();
  }
  rep.wall = Interval{t0, now_ns()};
  rep.marks.assign(log.marks().begin(), log.marks().end());
  rep.dropped_marks = log.dropped();
  return rep;
}

/// Time (s) of each strategy call's start, one stamp per aggregation: on
/// the wall clock, or on the process CPU clock.
std::vector<double> aggregation_stamps(const std::vector<Mark>& marks,
                                       bool cpu_clock) {
  std::vector<double> stamps;
  for (const Mark& m : marks)
    if (m.kind == MarkKind::kAggBegin)
      stamps.push_back(static_cast<double>(cpu_clock ? m.cpu_ns : m.ns) /
                       kNsPerS);
  return stamps;
}

/// Sums of the counters per-layer metrics normalise by, over repetitions.
struct ResultTotals {
  std::uint64_t updates = 0;     ///< total_updates
  std::uint64_t aggregated = 0;  ///< aggregated_updates
  std::uint64_t failed = 0;      ///< failed_sessions
  std::uint64_t dispatched = 0;  ///< model_downloads
  std::uint64_t uploads = 0;     ///< model_uploads
  double wire_bytes = 0.0;       ///< upload_wire_bytes
  double work = 0.0;             ///< server_aggregation_work (MACs)
  double staleness = 0.0;        ///< mean_staleness weighted by updates

  void add(const seafl::RunResult& r) {
    updates += r.total_updates;
    aggregated += aggregated_updates(r);
    failed += failed_sessions(r);
    dispatched += r.model_downloads;
    uploads += r.model_uploads;
    wire_bytes += static_cast<double>(r.upload_wire_bytes);
    work += r.server_aggregation_work;
    staleness += r.mean_staleness * static_cast<double>(r.total_updates);
  }
};

double per(double amount, double count) {
  return count > 0.0 ? amount / count : 0.0;
}
double per(double amount, std::uint64_t count) {
  return per(amount, static_cast<double>(count));
}

/// How many repetitions a run makes: the run's work is fixed by --seconds
/// and the workload (not by how fast this build is), so every build of a
/// comparison measures the same repetitions.
std::size_t repetitions(double seconds, double nominal_rep_s) {
  return static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / nominal_rep_s)));
}

/// Workers of the global pool in a simulated workload: with the simulation
/// thread, the host's four vCPUs. Serial workloads leave them idle.
constexpr std::size_t kSimPoolThreads = 3;

/// Largest share of a serial workload's run CPU that may come from threads
/// other than the simulation's. Its pool workers are idle, so the share is
/// about 0; more means work left the thread the workload is defined on.
constexpr double kMaxOffThreadShare = 0.01;

RunReport run_sim_workload(SimWorkload (*make)(std::uint64_t),
                           const RunOptions& opt) {
  RunReport report;
  auto& m = report.metrics;
  auto& failures = report.check_failures;
  const SimWorkload w = make(opt.seed);
  seafl::set_global_pool_threads(kSimPoolThreads);
  std::optional<seafl::SerialKernelScope> serial;
  std::optional<CpuRotor> rotor;  // a pooled run spreads over the vCPUs
  if (w.serial_kernels) {
    serial.emplace();
    rotor.emplace();
  }
  CpuRotor* const rotor_ptr = rotor ? &*rotor : nullptr;
  // Untraced repetitions only stamp strategy calls: two marks per round.
  MarkLog log(opt.trace ? kTraceMarks : 2 * w.params.max_rounds + 16);
  std::vector<SetupSample> setups;

  // Set-up-only samples first: they also warm the allocator and caches for
  // the timed repetitions.
  constexpr std::size_t kSetupSamples = 7;
  if (!opt.trace) {
    for (std::size_t i = 0; i < kSetupSamples; ++i)
      setups.push_back(
          sim_rep(make(rep_seed(opt.seed, i)), false, false, log, rotor_ptr)
              .setup);
  }

  // Each repetition is folded into these as soon as it ends and then freed,
  // so nothing it leaves behind is resident while the next one runs.
  double run_s = 0.0;
  double run_cpu_ns = 0.0;
  double off_thread_ns = 0.0;
  double span_updates = 0.0;
  double span_cpu_s = 0.0;
  double allocs = 0.0;
  double lowest_accuracy = 1.0;
  ResultTotals totals;
  std::vector<double> rss;
  std::vector<double> times_to_target;
  // Traced twins: the per-layer split.
  Attribution a;
  ResultTotals t;
  double traced_wall_ns = 0.0;
  double traced_run_s = 0.0;
  double setup_ns = 0.0;
  std::vector<double> round_gaps, data_s, sim_s, fl_s;
  std::size_t dropped = 0;
  std::ostringstream csv;
  csv << "repetition,round";
  for (std::size_t l = 0; l < kLayerCount; ++l)
    csv << ',' << layer_name(static_cast<Layer>(l)) << "_ns";
  csv << '\n';

  const std::size_t reps = repetitions(opt.seconds, w.nominal_rep_s);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const SimWorkload wi = make(rep_seed(opt.seed, rep));
    const SimRep r = sim_rep(wi, false, true, log, rotor_ptr);
    check_run_result(failures, r.result, r.config, w.to_target,
                     w.accuracy_floor);
    report.attempted += r.result.model_downloads;
    run_s += seconds_between(r.run.begin, r.run.end);
    run_cpu_ns += static_cast<double>(r.run_cpu_ns);
    off_thread_ns += static_cast<double>(r.run_cpu_ns - r.run_thread_cpu_ns);
    allocs += static_cast<double>(r.allocs);
    lowest_accuracy = std::min(lowest_accuracy, r.result.final_accuracy);
    totals.add(r.result);
    // Timed on the process CPU clock: it counts the work of every thread,
    // pool workers included, and leaves out what the hypervisor steals
    // (17% of a vCPU at times on the reference host).
    add_span(aggregation_stamps(r.marks, /*cpu_clock=*/true),
             r.result.round_log, span_updates, span_cpu_s);
    rss.push_back(r.peak_rss_mib);
    setups.push_back(r.setup);
    if (r.result.time_to_target >= 0.0)
      times_to_target.push_back(r.result.time_to_target);
    if (!opt.trace) continue;

    const SimRep tr = sim_rep(wi, true, true, log, rotor_ptr);
    expect(failures, same_result(tr.result, r.result),
           "traced RunResult differs from the untraced one");
    dropped += tr.dropped_marks;
    const Attribution ra = attribute(tr.marks, tr.run);
    a.add(ra);
    for (std::size_t round = 0; round < ra.by_round.size(); ++round) {
      csv << rep << ',' << round;
      for (const std::int64_t ns : ra.by_round[round]) csv << ',' << ns;
      csv << '\n';
    }
    t.add(tr.result);
    traced_wall_ns += static_cast<double>(tr.wall.length());
    traced_run_s += seconds_between(tr.run.begin, tr.run.end);
    setup_ns += static_cast<double>(tr.setup_wall_ns);
    const std::vector<double> stamps =
        aggregation_stamps(tr.marks, /*cpu_clock=*/false);
    for (std::size_t i = 1; i < stamps.size(); ++i)
      round_gaps.push_back((stamps[i] - stamps[i - 1]) * 1e3);
    data_s.push_back(tr.setup.data);
    sim_s.push_back(tr.setup.sim);
    fl_s.push_back(tr.setup.fl);
  }
  expect(failures, dropped == 0, "trace mark buffer overflowed");
  // The CPU clock counts every thread, so work moved to another thread is
  // still paid for; on a serial workload it also breaks what the workload
  // is defined to measure, and that must not pass unseen.
  const double off_thread_share = per(off_thread_ns, run_cpu_ns);
  if (w.serial_kernels)
    expect(failures, off_thread_share <= kMaxOffThreadShare,
           "CPU time left the simulation thread of a serial workload");

  // Over the whole timed run on the wall clock, stalls included.
  const double updates_per_s = totals.updates / run_s;
  note(report, "updates_per_s_overall", updates_per_s, "1/s");
  if (!times_to_target.empty())
    note(report, "time_to_target_s", median(times_to_target), "s");
  note(report, "cpu.off_thread_share", off_thread_share, "ratio");
  note(report, "repetitions", static_cast<double>(reps), "count");
  note(report, "final_accuracy_min", lowest_accuracy, "ratio");

  if (!opt.trace) {
    std::vector<double> setup_totals;
    for (const SetupSample& s : setups) setup_totals.push_back(s.total());
    expect(failures, span_cpu_s > 0.0, "too few rounds to time");
    if (span_cpu_s > 0.0) m["updates_per_s"] = span_updates / span_cpu_s;
    m["peak_rss_mib"] = median(rss);
    m["setup_s"] = median(setup_totals);
    note(report, "setup_samples", static_cast<double>(setup_totals.size()),
         "count");
    return report;
  }

  // --- traced run: per-layer split ------------------------------------------
  const double aggregations = static_cast<double>(a.aggregations);
  auto layer_ns = [&](Layer l) {
    return static_cast<double>(a.self_ns[static_cast<std::size_t>(l)]);
  };

  m["fl.train_ms_per_update"] =
      per(layer_ns(Layer::kTrain) / 1e6,
          static_cast<double>(a.trained_sessions));
  m["fl.evaluate_ms_per_eval"] =
      per(layer_ns(Layer::kEvaluate) / 1e6, static_cast<double>(a.evaluations));
  m["compress.codec_ms_per_update"] =
      per(layer_ns(Layer::kCodec) / 1e6, static_cast<double>(a.codec_uploads));
  m["core.aggregate_ms_per_round"] =
      per(layer_ns(Layer::kAggregate) / 1e6, aggregations);
  m["core.aggregate_gmacs_per_s"] =
      per(t.work / 1e9, layer_ns(Layer::kAggregate) / kNsPerS);
  m["fl.server_core_us_per_round"] =
      per(layer_ns(Layer::kServerCore) / 1e3, aggregations);
  m["sim.engine_us_per_update"] =
      per(layer_ns(Layer::kEngine) / 1e3, t.updates);
  m["compress.wire_bytes_per_update"] = per(t.wire_bytes, t.uploads);
  m["sim.events_per_update"] = per(static_cast<double>(a.events), t.updates);
  m["alloc.per_update"] = per(allocs, totals.updates);
  m["fl.useful_ratio"] = per(t.aggregated, t.dispatched);
  m["fl.session_failure_share"] = failure_share(t.dispatched, t.failed);
  m["fl.mean_staleness"] = per(t.staleness, t.updates);
  m["data.setup_s"] = median(data_s);
  m["sim.setup_s"] = median(sim_s);
  m["fl.setup_s"] = median(fl_s);
  set_round_distribution(report, round_gaps);

  std::vector<double> selfs;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const auto layer = static_cast<Layer>(i);
    selfs.push_back(layer_ns(layer));
    m[std::string("share.") + layer_name(layer)] =
        layer_ns(layer) / traced_wall_ns;
  }
  selfs.push_back(setup_ns);
  m["share.setup"] = setup_ns / traced_wall_ns;
  m["trace.unattributed_share"] = unattributed_share(traced_wall_ns, selfs);
  m["trace.overhead"] = updates_per_s / (t.updates / traced_run_s) - 1.0;
  note(report, "trace.wall_s", traced_wall_ns / kNsPerS, "s");
  note(report, "trace.dropped_marks", static_cast<double>(dropped), "count");
  report.rounds_csv = csv.str();
  return report;
}

// --- deploy_loopback -------------------------------------------------------------

struct DeployWorkload {
  seafl::TaskSpec task;
  seafl::ExperimentParams params;
  std::size_t mlp_hidden = 128;
  std::size_t clients = 2;
  double accuracy_floor = 0.0;
  double nominal_rep_s = 0.25;  ///< see SimWorkload::nominal_rep_s
};

DeployWorkload deploy_loopback(std::uint64_t seed) {
  // One DeployServer and two DeployClient threads over loopback TCP: the
  // only workload that runs net (frames, poll loop) and fl/deploy. Sessions
  // are one SGD step on 8 samples of a 13,130-parameter MLP, so a round is
  // dominated by dispatch, upload and the server's turnaround.
  DeployWorkload w;
  w.task.name = "synth-mnist";
  w.task.num_clients = w.clients;
  w.task.samples_per_client = 8;
  w.task.pool_samples = 512;
  w.task.test_samples = 600;
  // Near-uniform label mixes: with 16 training samples in all, Dir(0.3)
  // shards sometimes hold one or two classes and the model cannot beat
  // chance, which would leave the accuracy check with nothing to check.
  w.task.dirichlet_alpha = 100.0;
  w.task.seed = seed;
  w.params.buffer_size = 2;
  w.params.concurrency = 2;
  w.params.local_epochs = 1;
  w.params.batch_size = 8;
  w.params.stop_at_target = false;
  w.params.max_rounds = 1000;
  w.params.eval_every = 100;
  w.params.eval_subset = 100;
  w.params.seed = seed;
  // Runs end at 0.37 or better; chance is 0.1.
  w.accuracy_floor = 0.2;
  return w;
}

struct DeployRep {
  seafl::RunResult result;
  seafl::RunConfig config;
  /// Process CPU: data = make_task; fl = the rest until the first
  /// dispatched client starts training (server and clients constructed,
  /// connected and registered, first model sent and received).
  SetupSample setup;
  std::int64_t data_wall_ns = 0;       ///< make_task on the wall clock
  std::int64_t server_ctor_wall_ns = 0;
  std::vector<seafl::obs::TraceEvent> journal;  ///< server wall clock
  seafl::net::SocketStats sockets;
  std::vector<seafl::DeployClientStats> clients;
  std::vector<std::string> client_errors;  ///< one per client, "" = none
  std::string server_error;
  Interval wall;              ///< set-up through teardown
  Interval run_call;          ///< DeployServer::run
  std::int64_t server_cpu_ns = 0;  ///< server thread CPU inside run()
  std::uint64_t allocs = 0;   ///< whole process, inside run()
  std::vector<Mark> marks;    ///< strategy calls on the server thread
  std::size_t dim = 0;
  double peak_rss_mib = 0.0;  ///< VmHWM over this repetition
};

DeployRep deploy_rep(const DeployWorkload& w, MarkLog& log) {
  // Server and clients each keep their kernels on their own thread, as the
  // simulations do.
  const seafl::SerialKernelScope serial;
  log.clear();
  DeployRep rep;
  reset_peak_rss();
  const std::int64_t t0 = now_ns();
  const std::int64_t c0 = process_cpu_ns();
  {
    seafl::FlTask task = seafl::make_task(w.task);
    const std::int64_t c1 = process_cpu_ns();
    const std::int64_t t1 = now_ns();
    const auto first_read = std::make_shared<FirstReadStamp>(task.partition);
    task.partition = first_read;
    seafl::Arm arm = seafl::make_arm("seafl", w.params);
    rep.config = arm.config;
    const seafl::ModelFactory factory = seafl::make_mlp(
        task.input.numel(), w.mlp_hidden, task.num_classes);
    seafl::DeployServerOptions opts;
    opts.port = 0;
    opts.expected_clients = w.clients;
    opts.max_wall_seconds = 60.0;  // hang backstop, never the intended exit
    seafl::DeployServer server(
        task, factory,
        std::make_unique<TimedStrategy>(std::move(arm.strategy), log),
        arm.config, opts);
    // The server's wall clock starts inside its constructor; journal times
    // are offsets from about here.
    rep.data_wall_ns = t1 - t0;
    rep.server_ctor_wall_ns = now_ns() - t1;
    const std::uint16_t port = server.port();
    rep.clients.resize(w.clients);
    rep.client_errors.resize(w.clients);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < w.clients; ++i) {
      threads.emplace_back([&, i] {
        const seafl::SerialKernelScope client_serial;
        try {
          seafl::DeployClientOptions copt;
          copt.client_id = i;
          copt.port = port;
          seafl::DeployClient client(task, factory, rep.config, copt);
          rep.clients[i] = client.run();
        } catch (const std::exception& e) {
          rep.client_errors[i] = e.what();
        }
      });
    }
    const std::uint64_t a0 = heap_allocs();
    const std::int64_t cpu0 = thread_cpu_ns();
    rep.run_call.begin = now_ns();
    try {
      rep.result = server.run();
    } catch (const std::exception& e) {
      rep.server_error = e.what();
    }
    rep.run_call.end = now_ns();
    rep.server_cpu_ns = thread_cpu_ns() - cpu0;
    rep.allocs = heap_allocs() - a0;
    for (std::thread& t : threads) t.join();
    rep.journal = server.journal().events();
    rep.sockets = server.socket_stats();
    rep.dim = rep.result.final_weights.size();
    const std::int64_t c2 = first_read->first_cpu_ns();
    rep.setup = {seconds_between(c0, c1), 0.0,
                 c2 >= c1 ? seconds_between(c1, c2) : 0.0};
    rep.peak_rss_mib = peak_rss_mib();
  }
  rep.wall = Interval{t0, now_ns()};
  rep.marks.assign(log.marks().begin(), log.marks().end());
  return rep;
}

/// Timings of one deploy repetition from the server's journal (wall-clock
/// seconds since the server's clock started) and the strategy marks. Only
/// durations cross between the two clocks, never time points.
struct DeployTimes {
  double run_s = 0.0;  ///< first dispatch to last aggregation
  std::vector<double> round_gaps;    ///< s, between consecutive aggregations
  std::vector<double> session_rtts;  ///< s, dispatch to upload per session
  std::vector<double> turnarounds;   ///< s, last upload to next dispatch
  double aggregate_ns = 0.0;    ///< strategy calls
  /// Last upload journaled -> try_aggregate entered (kAggregate is
  /// journaled with its entry time).
  double server_core_ns = 0.0;
  /// try_aggregate entered -> kEval journaled, minus the strategy call.
  double evaluate_ns = 0.0;
  std::size_t evaluations = 0;
};

DeployTimes deploy_times(const std::vector<seafl::obs::TraceEvent>& journal,
                         std::span<const Mark> marks) {
  DeployTimes t;
  const std::vector<Interval> aggs = aggregate_intervals(marks);
  for (const Interval& i : aggs) t.aggregate_ns += static_cast<double>(i.length());
  std::map<std::size_t, double> dispatched;  // client -> dispatch time
  double first_dispatch = -1.0;
  double last_upload = -1.0;
  double last_aggregate = -1.0;
  std::size_t round = 0;  // aggregations seen so far
  bool awaiting_dispatch = false;
  for (const auto& e : journal) {
    switch (e.kind) {
      case TraceEventKind::kAssigned:
        if (first_dispatch < 0.0) first_dispatch = e.time;
        dispatched[e.client] = e.time;
        if (awaiting_dispatch) {
          t.turnarounds.push_back(e.time - last_upload);
          awaiting_dispatch = false;
        }
        break;
      case TraceEventKind::kUpload: {
        const auto it = dispatched.find(e.client);
        if (it != dispatched.end()) {
          t.session_rtts.push_back(e.time - it->second);
          dispatched.erase(it);
        }
        last_upload = e.time;
        break;
      }
      case TraceEventKind::kAggregate:
        // Journaled with the time try_aggregate was entered.
        if (last_aggregate >= 0.0)
          t.round_gaps.push_back(e.time - last_aggregate);
        if (last_upload >= 0.0)
          t.server_core_ns += (e.time - last_upload) * kNsPerS;
        last_aggregate = e.time;
        ++round;
        awaiting_dispatch = true;
        break;
      case TraceEventKind::kEval:
        if (round > 0 && round <= aggs.size()) {
          t.evaluate_ns += (e.time - last_aggregate) * kNsPerS -
                           static_cast<double>(aggs[round - 1].length());
          ++t.evaluations;
        }
        break;
      default:
        break;
    }
  }
  if (first_dispatch >= 0.0 && last_aggregate > first_dispatch)
    t.run_s = last_aggregate - first_dispatch;
  return t;
}

void check_deploy_rep(std::vector<std::string>& failures, const DeployRep& r,
                      double accuracy_floor) {
  expect(failures, r.server_error.empty(),
         "deploy server failed: " + r.server_error);
  for (const std::string& e : r.client_errors)
    expect(failures, e.empty(), "deploy client failed: " + e);
  check_run_result(failures, r.result, r.config, false, accuracy_floor);
  expect(failures,
         r.result.upload_wire_bytes ==
             r.result.model_uploads * seafl::compress::transfer_bytes(r.dim, 0),
         "upload_wire_bytes differs from uploads x container size");
  expect(failures, r.sockets.protocol_errors == 0,
         "the server saw protocol errors");
  expect(failures, r.result.client_crashes == 0,
         "a client disconnected mid-session");
  for (const auto& c : r.clients)
    expect(failures, c.shutdown_received, "a client missed Shutdown");
  expect(failures, r.setup.fl > 0.0, "no client started training");
}

RunReport run_deploy_workload(const RunOptions& opt) {
  RunReport report;
  auto& m = report.metrics;
  auto& failures = report.check_failures;
  // The server, two clients and one idle pool worker: four threads.
  seafl::set_global_pool_threads(1);
  const DeployWorkload w = deploy_loopback(opt.seed);
  MarkLog log(2 * w.params.max_rounds + 16);

  // Each repetition is folded into these as soon as it ends and then freed
  // (see run_sim_workload).
  double run_s = 0.0;
  double updates = 0.0;
  double span_updates = 0.0;
  double span_cpu_s = 0.0;
  double allocs = 0.0;
  double lowest_accuracy = 1.0;
  std::vector<double> gap_medians_ms;  // one per repetition
  std::vector<double> setup_totals;
  std::vector<double> rss;
  // Traced twins: the server thread's wall, split.
  ResultTotals totals;
  double wall_ns = 0.0, setup_ns = 0.0, agg_ns = 0.0, eval_ns = 0.0;
  double core_ns = 0.0, cpu_ns = 0.0, call_ns = 0.0, self_ns = 0.0;
  double traced_run_s = 0.0, rounds = 0.0, evals = 0.0;
  double bytes = 0.0, frames = 0.0;
  std::vector<double> rtts, turnarounds, round_gaps, data_s, fl_s;

  const std::size_t reps = repetitions(opt.seconds, w.nominal_rep_s);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const DeployWorkload wi = deploy_loopback(rep_seed(opt.seed, rep));
    {
      const DeployRep r = deploy_rep(wi, log);
      check_deploy_rep(failures, r, w.accuracy_floor);
      report.attempted += r.result.model_downloads;
      const DeployTimes t = deploy_times(r.journal, r.marks);
      run_s += t.run_s;
      updates += static_cast<double>(r.result.total_updates);
      allocs += static_cast<double>(r.allocs);
      lowest_accuracy = std::min(lowest_accuracy, r.result.final_accuracy);
      // The process CPU clock sums the server and both clients. The wall
      // clock also holds every wake-up of the three threads, which slowed
      // with the host by up to 35% between periods of the reference host.
      add_span(aggregation_stamps(r.marks, /*cpu_clock=*/true),
               r.result.round_log, span_updates, span_cpu_s);
      if (!t.round_gaps.empty())
        gap_medians_ms.push_back(median(t.round_gaps) * 1e3);
      setup_totals.push_back(r.setup.total());
      rss.push_back(r.peak_rss_mib);
    }
    if (!opt.trace) continue;

    const DeployRep r = deploy_rep(wi, log);
    check_deploy_rep(failures, r, w.accuracy_floor);
    const DeployTimes t = deploy_times(r.journal, r.marks);
    totals.add(r.result);
    wall_ns += static_cast<double>(r.wall.length());
    setup_ns += static_cast<double>(r.data_wall_ns + r.server_ctor_wall_ns);
    agg_ns += t.aggregate_ns;
    eval_ns += t.evaluate_ns;
    evals += static_cast<double>(t.evaluations);
    core_ns += t.server_core_ns;
    cpu_ns += static_cast<double>(r.server_cpu_ns);
    call_ns += static_cast<double>(r.run_call.length());
    // The run() call is the parent span and the strategy calls its
    // children; the self time is the server's waiting in poll (off CPU) plus
    // its own core, evaluation, protocol and wire work (on CPU).
    self_ns += static_cast<double>(
        self_time(r.run_call, aggregate_intervals(r.marks)));
    traced_run_s += t.run_s;
    rounds += static_cast<double>(r.result.rounds);
    bytes += static_cast<double>(r.sockets.bytes_sent + r.sockets.bytes_received);
    frames += static_cast<double>(r.sockets.frames_sent + r.sockets.frames_received);
    for (const double x : t.session_rtts) rtts.push_back(x * 1e3);
    for (const double x : t.turnarounds) turnarounds.push_back(x * 1e3);
    for (const double x : t.round_gaps) round_gaps.push_back(x * 1e3);
    data_s.push_back(r.setup.data);
    fl_s.push_back(r.setup.fl);
  }
  const double updates_per_s = updates / run_s;
  note(report, "updates_per_s_overall", updates_per_s, "1/s");
  if (!gap_medians_ms.empty())
    note(report, "round_p50_ms", median(gap_medians_ms), "ms");
  note(report, "repetitions", static_cast<double>(reps), "count");
  note(report, "final_accuracy_min", lowest_accuracy, "ratio");

  if (!opt.trace) {
    expect(failures, span_cpu_s > 0.0, "too few rounds to time");
    if (span_cpu_s > 0.0) m["updates_per_s"] = span_updates / span_cpu_s;
    m["peak_rss_mib"] = median(rss);
    m["setup_s"] = median(setup_totals);
    note(report, "setup_samples", static_cast<double>(setup_totals.size()),
         "count");
    return report;
  }

  // --- traced run: the server thread's wall, split --------------------------
  const double poll_wait_ns = call_ns - cpu_ns;
  const double deploy_ns = self_ns - poll_wait_ns - eval_ns - core_ns;
  m["fl.evaluate_ms_per_eval"] = per(eval_ns / 1e6, evals);
  m["core.aggregate_ms_per_round"] = per(agg_ns / 1e6, rounds);
  m["core.aggregate_gmacs_per_s"] = per(totals.work / 1e9, agg_ns / kNsPerS);
  m["fl.server_core_us_per_round"] = per(core_ns / 1e3, rounds);
  m["fl.deploy.session_rtt_p50_ms"] = median(rtts);
  m["fl.deploy.turnaround_p50_ms"] = median(turnarounds);
  m["fl.deploy.server_busy_share"] = cpu_ns / call_ns;
  m["net.bytes_per_update"] = per(bytes, totals.uploads);
  m["net.frames_per_update"] = per(frames, totals.uploads);
  m["compress.wire_bytes_per_update"] = per(totals.wire_bytes, totals.uploads);
  m["alloc.per_update"] = per(allocs, updates);
  m["fl.useful_ratio"] = per(totals.aggregated, totals.dispatched);
  m["fl.session_failure_share"] =
      failure_share(totals.dispatched, totals.failed);
  m["fl.mean_staleness"] = per(totals.staleness, totals.updates);
  m["data.setup_s"] = median(data_s);
  m["fl.setup_s"] = median(fl_s);
  set_round_distribution(report, round_gaps);

  const std::vector<double> selfs{setup_ns, agg_ns, eval_ns, core_ns,
                                  deploy_ns, poll_wait_ns};
  m["share.setup"] = setup_ns / wall_ns;
  m["share.core"] = agg_ns / wall_ns;
  m["share.fl.evaluate"] = eval_ns / wall_ns;
  m["share.fl.server_core"] = core_ns / wall_ns;
  m["share.fl.deploy"] = deploy_ns / wall_ns;
  m["share.net.poll_wait"] = poll_wait_ns / wall_ns;
  m["trace.unattributed_share"] = unattributed_share(wall_ns, selfs);
  m["trace.overhead"] = updates_per_s / (totals.updates / traced_run_s) - 1.0;
  note(report, "trace.wall_s", wall_ns / kNsPerS, "s");
  return report;
}

}  // namespace

std::uint64_t failed_sessions(const seafl::RunResult& r) {
  const std::uint64_t lost_for_good =
      r.lost_uploads >= r.upload_retries ? r.lost_uploads - r.upload_retries
                                         : 0;
  return r.deadline_expirations + lost_for_good + r.dropped_updates +
         r.screened_updates;
}

std::uint64_t aggregated_updates(const seafl::RunResult& r) {
  return r.total_updates - std::min(r.total_updates, r.screened_updates);
}

RunReport run_workload(const RunOptions& options) {
  if (options.workload == "paper_cifar")
    return run_sim_workload(paper_cifar, options);
  if (options.workload == "server_ingest")
    return run_sim_workload(server_ingest, options);
  if (options.workload == "pop_churn")
    return run_sim_workload(pop_churn, options);
  if (options.workload == "deploy_loopback")
    return run_deploy_workload(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
