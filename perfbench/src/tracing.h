// Spans for the traced run, recorded from outside the program through three
// public seams: an obs::TraceSink (the simulator journals each event right
// after the call that produced it), a decorator around the run's
// AggregationStrategy, and a decorator around the task's PartitionView.
// Every mark is one steady_clock reading (strategy entries also read the
// process CPU clock) appended to a preallocated buffer; nothing grows or
// allocates while a run is timed.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/seafl.h"
#include "stats.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread. Unlike the wall clock it does not run
/// while the hypervisor steals the vCPU.
std::int64_t thread_cpu_ns();

/// CPU time of the whole process: every thread, pool workers included, and
/// like thread_cpu_ns() without stolen time. Exact for the calling thread;
/// another thread that is running at the moment of the read is counted up to
/// its last scheduler tick, blocked threads exactly.
std::int64_t process_cpu_ns();

/// What a mark stamps: a journaled simulator event, or one edge of a call
/// the benchmark timed through a decorator.
enum class MarkKind : std::uint8_t {
  kEvent,      ///< obs::TraceSink::record; `event` says which
  kDataBegin,  ///< PartitionView::client_indices entered
  kDataEnd,    ///< ... returned
  kAggBegin,   ///< AggregationStrategy::aggregate entered
  kAggEnd,     ///< ... returned
};

struct Mark {
  std::int64_t ns = 0;
  MarkKind kind = MarkKind::kEvent;
  seafl::obs::TraceEventKind event = seafl::obs::TraceEventKind::kAssigned;
  std::int64_t cpu_ns = 0;  ///< process_cpu_ns(); strategy entries only
};

/// Fixed-capacity mark buffer for one thread. A full buffer counts the
/// marks it drops instead of growing: reallocating mid-run made the traced
/// run slower and noisier than the run it observes.
class MarkLog {
 public:
  explicit MarkLog(std::size_t capacity) : marks_(capacity) {}

  void push(MarkKind kind,
            seafl::obs::TraceEventKind event =
                seafl::obs::TraceEventKind::kAssigned,
            std::int64_t cpu_ns = 0) {
    if (size_ == marks_.size()) {
      ++dropped_;
      return;
    }
    marks_[size_++] = Mark{now_ns(), kind, event, cpu_ns};
  }
  std::span<const Mark> marks() const { return {marks_.data(), size_}; }
  std::size_t dropped() const { return dropped_; }
  void clear() {
    size_ = 0;
    dropped_ = 0;
  }

 private:
  std::vector<Mark> marks_;
  std::size_t size_ = 0;
  std::size_t dropped_ = 0;
};

/// Stamps every journaled simulator event.
class MarkSink final : public seafl::obs::TraceSink {
 public:
  explicit MarkSink(MarkLog& log) : log_(&log) {}
  void record(const seafl::obs::TraceEvent& event) override {
    log_->push(MarkKind::kEvent, event.kind);
  }

 private:
  MarkLog* log_;
};

/// Moves the calling thread to the next CPU it may run on once it has used
/// kCpuNsPerCpu of CPU time since its last move (checked at each tick()).
/// The vCPUs of a shared host are slowed unequally by their neighbours; a
/// serial simulation that visits all of them in turn pays their mean rather
/// than the speed of whichever one it landed on. In paired paper_cifar runs
/// it cut the spread across seeds from about 20% to under 8% (README.md).
class CpuRotor {
 public:
  static constexpr std::int64_t kCpuNsPerCpu = 50'000'000;
  CpuRotor();
  void tick();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  std::int64_t last_move_ns_ = 0;  ///< thread_cpu_ns() at the last move
};

/// Forwards to the wrapped strategy, stamping each aggregate() call, and
/// ticks the rotor (when given) after it.
class TimedStrategy final : public seafl::AggregationStrategy {
 public:
  TimedStrategy(seafl::StrategyPtr inner, MarkLog& log,
                CpuRotor* rotor = nullptr)
      : inner_(std::move(inner)), log_(&log), rotor_(rotor) {}

  void aggregate(const seafl::AggregationContext& ctx,
                 std::span<const seafl::LocalUpdate> buffer,
                 seafl::ModelVector& global_out) override {
    log_->push(MarkKind::kAggBegin, seafl::obs::TraceEventKind::kAggregate,
               process_cpu_ns());
    inner_->aggregate(ctx, buffer, global_out);
    log_->push(MarkKind::kAggEnd);
    if (rotor_ != nullptr) rotor_->tick();
  }
  std::string name() const override { return inner_->name(); }
  void save_state(std::string& out) const override { inner_->save_state(out); }
  bool restore_state(const unsigned char* data, std::size_t size) override {
    return inner_->restore_state(data, size);
  }

 private:
  seafl::StrategyPtr inner_;
  MarkLog* log_;
  CpuRotor* rotor_;
};

/// Forwards to the wrapped partition, stamping each client_indices() call
/// (where a training session starts reading its data).
class TimedPartition final : public seafl::PartitionView {
 public:
  TimedPartition(std::shared_ptr<const seafl::PartitionView> inner,
                 MarkLog& log)
      : inner_(std::move(inner)), log_(&log) {}

  std::size_t num_clients() const override { return inner_->num_clients(); }
  std::size_t client_samples(std::size_t client) const override {
    return inner_->client_samples(client);
  }
  std::span<const std::size_t> client_indices(
      std::size_t client, std::vector<std::size_t>& scratch) const override {
    log_->push(MarkKind::kDataBegin);
    const auto indices = inner_->client_indices(client, scratch);
    log_->push(MarkKind::kDataEnd);
    return indices;
  }

 private:
  std::shared_ptr<const seafl::PartitionView> inner_;
  MarkLog* log_;
};

/// Forwards to the wrapped partition and reads the process CPU clock at the
/// first client_indices() call from any thread. In a deploy run only clients
/// read their shards, so that is the moment the first dispatched client
/// starts training.
class FirstReadStamp final : public seafl::PartitionView {
 public:
  explicit FirstReadStamp(std::shared_ptr<const seafl::PartitionView> inner)
      : inner_(std::move(inner)) {}

  std::size_t num_clients() const override { return inner_->num_clients(); }
  std::size_t client_samples(std::size_t client) const override {
    return inner_->client_samples(client);
  }
  std::span<const std::size_t> client_indices(
      std::size_t client, std::vector<std::size_t>& scratch) const override {
    std::int64_t unset = -1;
    if (first_cpu_ns_.load(std::memory_order_relaxed) < 0)
      first_cpu_ns_.compare_exchange_strong(unset, process_cpu_ns());
    return inner_->client_indices(client, scratch);
  }
  /// process_cpu_ns() at the first read; -1 before it.
  std::int64_t first_cpu_ns() const { return first_cpu_ns_.load(); }

 private:
  std::shared_ptr<const seafl::PartitionView> inner_;
  mutable std::atomic<std::int64_t> first_cpu_ns_{-1};
};

/// The layers a simulated run's wall time is split into. Each is the self
/// time of the code between two marks (see attribute()).
enum class Layer : std::size_t {
  kData,        ///< data: pooled/materialized partition reads
  kTrain,       ///< fl client -> nn -> tensor: local SGD
  kCodec,       ///< compress: client encode + server decode
  kAggregate,   ///< core: screening, Eq. 5 weights, Eq. 7/8 mix
  kServerCore,  ///< fl ServerCore: try_aggregate minus the strategy
  kEvaluate,    ///< fl Evaluator (+ the post-aggregation model snapshot)
  kEngine,      ///< sim + fl/simulation: Simulation::run self time
  kCount
};
inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);
const char* layer_name(Layer layer);

using LayerTimes = std::array<std::int64_t, kLayerCount>;

/// Per-layer self time of one traced simulation plus the counts the
/// per-layer metrics normalise by.
struct Attribution {
  LayerTimes self_ns{};
  /// The same split per server round: entry r holds the time spent while
  /// r aggregations had completed (round r was open).
  std::vector<LayerTimes> by_round;
  std::size_t trained_sessions = 0;  ///< train intervals
  std::size_t codec_uploads = 0;     ///< kCompressed events
  std::size_t aggregations = 0;      ///< strategy calls
  std::size_t evaluations = 0;       ///< kEval events
  std::size_t events = 0;            ///< journaled simulator events

  /// Adds another run's self times and counts (not its per-round rows).
  void add(const Attribution& other);
  std::int64_t total() const;
};

/// The layer that owns the code between two consecutive marks.
Layer classify(const Mark& prev, const Mark& next);

/// Splits `run` (the Simulation::run call) across layers: every interval
/// between consecutive marks goes to classify(prev, next); the stretches
/// before the first and after the last mark are engine time. The layer
/// self times tile `run` exactly.
Attribution attribute(std::span<const Mark> marks, Interval run);

/// Strategy-call intervals, in call order.
std::vector<Interval> aggregate_intervals(std::span<const Mark> marks);

}  // namespace perfbench
