// perfbench_driver: runs one SEAFL benchmark workload and writes its result.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --out result.json
//   perfbench_driver --selftest
//
// Exit status: 0 when every output check held, 1 when one failed (the
// result is still written, with correct=false), 2 on bad usage. run.py
// builds this binary and turns the result into the benchmark's output line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "tensor/microkernel.h"
#include "tensor/ops.h"
#include "tracing.h"
#include "workloads.h"

SEAFL_BENCH_DEFINE_ALLOC_HOOK();

namespace perfbench {
int run_selftests();
}

namespace {

using seafl::Json;
using seafl::JsonObject;

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Best-of-5 memcpy bandwidth over a 32 MiB buffer, in GB/s of bytes
/// copied: the host's large-copy ceiling, recorded next to the results.
double copy_gbs() {
  constexpr std::size_t kBytes = std::size_t{32} << 20;
  std::vector<char> src(kBytes, 1);
  std::vector<char> dst(kBytes, 0);
  double best = 0.0;
  for (int i = 0; i < 5; ++i) {
    src[static_cast<std::size_t>(i)] = static_cast<char>(i);
    const std::int64_t t0 = perfbench::now_ns();
    std::memcpy(dst.data(), src.data(), kBytes);
    const std::int64_t t1 = perfbench::now_ns();
    best = std::max(best, static_cast<double>(kBytes) /
                              static_cast<double>(t1 - t0));
  }
  if (dst[3] != 3) std::abort();  // keeps the copies observable
  return best;
}

Json diagnostics_json(const std::vector<perfbench::Metric>& diagnostics) {
  JsonObject out;
  for (const auto& m : diagnostics)
    out[m.name] = JsonObject{{"value", m.value}, {"unit", m.unit}};
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --out PATH\n       perfbench_driver --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 1 && args[0] == "--selftest")
    return perfbench::run_selftests();

  perfbench::RunOptions opt;
  std::string out_path;
  bool have_workload = false;
  for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
    const std::string& key = args[i];
    const std::string& val = args[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return usage();
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return usage();
      opt.trace = val == "1";
    } else if (key == "--out") {
      out_path = val;
    } else {
      return usage();
    }
  }
  if (args.size() % 2 != 0 || !have_workload || out_path.empty())
    return usage();

  perfbench::RunReport report;
  try {
    report = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  const bool correct = report.check_failures.empty();
  // A run whose outputs are wrong did no useful operation.
  const std::uint64_t failed = correct ? 0 : report.attempted;

  JsonObject provenance{
      {"cpu_model", cpu_model()},
      {"vector_backend", std::string(seafl::vector_backend_name())},
      {"microkernel", std::string(seafl::detail::microkernel_name())},
      {"nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency())},
      {"pool_threads", static_cast<std::uint64_t>(seafl::global_pool().size())},
      {"compiler", std::string(PERFBENCH_COMPILER)},
      {"cxx_flags", std::string(PERFBENCH_CXX_FLAGS)},
      {"build_type", std::string(PERFBENCH_BUILD_TYPE)},
      {"seed", opt.seed},
      {"host.copy_gbs", copy_gbs()},
  };
  seafl::JsonArray checks;
  for (const auto& c : report.check_failures) checks.emplace_back(c);
  JsonObject metrics;
  for (const auto& [name, value] : report.metrics) metrics[name] = value;
  const Json result = JsonObject{
      {"workload", opt.workload},
      {"trace", opt.trace},
      {"correct", correct},
      {"attempted", report.attempted},
      {"failed", failed},
      {"metrics", metrics},
      {"diagnostics", diagnostics_json(report.diagnostics)},
      {"check_failures", checks},
      {"provenance", provenance},
  };
  std::ofstream out(out_path);
  out << result.dump() << "\n";
  if (!report.rounds_csv.empty()) {
    // result.json -> result.rounds.csv
    const std::string stem =
        out_path.size() > 5 && out_path.ends_with(".json")
            ? out_path.substr(0, out_path.size() - 5)
            : out_path;
    std::ofstream(stem + ".rounds.csv") << report.rounds_csv;
  }
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 2;
  }

  std::printf("%s seed=%llu trace=%d: %s, %llu sessions, %llu failed\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, correct ? "outputs correct" : "OUTPUTS WRONG",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(failed));
  for (const auto& c : report.check_failures)
    std::printf("  check failed: %s\n", c.c_str());
  for (const auto& [name, value] : report.metrics)
    std::printf("  %-34s %14.6g\n", name.c_str(), value);
  for (const auto& m : report.diagnostics)
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  return correct ? 0 : 1;
}
