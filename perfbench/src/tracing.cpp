#include "tracing.h"

#include <sched.h>
#include <time.h>

namespace perfbench {

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

CpuRotor::CpuRotor() : last_move_ns_(thread_cpu_ns()) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

void CpuRotor::tick() {
  const std::int64_t now = thread_cpu_ns();
  if (cpus_.size() < 2 || now - last_move_ns_ < kCpuNsPerCpu) return;
  last_move_ns_ = now;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_], &set);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof(set), &set);  // best effort
}

using seafl::obs::TraceEventKind;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kData: return "data";
    case Layer::kTrain: return "fl.train";
    case Layer::kCodec: return "compress";
    case Layer::kAggregate: return "core";
    case Layer::kServerCore: return "fl.server_core";
    case Layer::kEvaluate: return "fl.evaluate";
    case Layer::kEngine: return "sim.engine";
    case Layer::kCount: break;
  }
  return "?";
}

void Attribution::add(const Attribution& other) {
  for (std::size_t i = 0; i < kLayerCount; ++i) self_ns[i] += other.self_ns[i];
  trained_sessions += other.trained_sessions;
  codec_uploads += other.codec_uploads;
  aggregations += other.aggregations;
  evaluations += other.evaluations;
  events += other.events;
}

std::int64_t Attribution::total() const {
  std::int64_t sum = 0;
  for (const std::int64_t ns : self_ns) sum += ns;
  return sum;
}

Layer classify(const Mark& prev, const Mark& next) {
  switch (next.kind) {
    case MarkKind::kDataBegin: return Layer::kEngine;  // handler preamble
    case MarkKind::kDataEnd: return Layer::kData;
    case MarkKind::kAggBegin: return Layer::kServerCore;  // buffer, decision
    case MarkKind::kAggEnd: return Layer::kAggregate;
    case MarkKind::kEvent: break;
  }
  switch (next.event) {
    // The first epoch mark of a session is stamped right after training
    // returns; the rest follow back to back and are bookkeeping.
    case TraceEventKind::kEpochDone:
      return prev.kind == MarkKind::kDataEnd ? Layer::kTrain : Layer::kEngine;
    case TraceEventKind::kCompressed: return Layer::kCodec;  // from kUpload
    case TraceEventKind::kScreened:
    case TraceEventKind::kAggregate:
    case TraceEventKind::kDegradedAggregate: return Layer::kServerCore;
    case TraceEventKind::kEval: return Layer::kEvaluate;
    default: return Layer::kEngine;
  }
}

Attribution attribute(std::span<const Mark> marks, Interval run) {
  Attribution a;
  a.by_round.emplace_back();
  auto charge = [&](Layer layer, std::int64_t from, std::int64_t to) {
    if (to <= from) return;
    const auto l = static_cast<std::size_t>(layer);
    a.self_ns[l] += to - from;
    a.by_round.back()[l] += to - from;
  };
  if (marks.empty()) {
    charge(Layer::kEngine, run.begin, run.end);
    return a;
  }
  charge(Layer::kEngine, run.begin, marks.front().ns);
  for (std::size_t i = 0; i < marks.size(); ++i) {
    const Mark& m = marks[i];
    if (m.kind == MarkKind::kEvent) {
      ++a.events;
      if (m.event == TraceEventKind::kCompressed) ++a.codec_uploads;
      if (m.event == TraceEventKind::kEval) ++a.evaluations;
    }
    if (m.kind == MarkKind::kAggEnd) ++a.aggregations;
    if (i == 0) continue;
    const Layer layer = classify(marks[i - 1], m);
    if (layer == Layer::kTrain) ++a.trained_sessions;
    charge(layer, marks[i - 1].ns, m.ns);
    // The strategy call closes the round; what follows belongs to the next.
    if (m.kind == MarkKind::kAggEnd) a.by_round.emplace_back();
  }
  charge(Layer::kEngine, marks.back().ns, run.end);
  return a;
}

std::vector<Interval> aggregate_intervals(std::span<const Mark> marks) {
  std::vector<Interval> out;
  std::int64_t begin = -1;
  for (const Mark& m : marks) {
    if (m.kind == MarkKind::kAggBegin) begin = m.ns;
    if (m.kind == MarkKind::kAggEnd && begin >= 0) {
      out.push_back(Interval{begin, m.ns});
      begin = -1;
    }
  }
  return out;
}

}  // namespace perfbench
