// Self-tests of the benchmark's own arithmetic, run by run.py after every
// build: order statistics, the supported-percentile rule, span self time,
// the layer split of a traced run, and session failure accounting.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

void test_quantiles() {
  check(near(median({3.0, 1.0, 2.0}), 2.0), "median of odd count");
  check(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "median of even count");
  check(near(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25), 2.0), "q25");
  check(near(quantile({10.0, 20.0}, 0.9), 19.0), "interpolated q90");
  check(near(quantile({7.0}, 0.99), 7.0), "quantile of one value");
}

void test_supported_percentile() {
  check(!highest_supported_percentile(ramp(19)).has_value(),
        "19 samples support no percentile");
  const auto p20 = highest_supported_percentile(ramp(20));
  check(p20 && p20->percentile == 50.0 && near(p20->value, 10.5),
        "20 samples support p50 only");
  const auto p100 = highest_supported_percentile(ramp(100));
  check(p100 && p100->percentile == 90.0 && p100->samples == 100,
        "100 samples support p90");
  const auto p999 = highest_supported_percentile(ramp(999));
  check(p999 && p999->percentile == 90.0,
        "999 samples leave only 9.99 beyond p99");
  const auto p1000 = highest_supported_percentile(ramp(1000));
  check(p1000 && p1000->percentile == 99.0 && near(p1000->value, 990.01),
        "1000 samples support p99");
  const auto p10k = highest_supported_percentile(ramp(10000));
  check(p10k && p10k->percentile == 99.9, "10000 samples support p99.9");
}

void test_self_time() {
  const Interval parent{0, 100};
  const std::vector<Interval> children{
      {10, 20}, {15, 30}, {90, 120}, {-5, 2}, {40, 40}};
  // Covered: [0,2) + [10,30) + [90,100) = 32.
  check(self_time(parent, children) == 68, "self time with overlaps");
  check(self_time(parent, {}) == 100, "self time without children");
  check(self_time(parent, std::vector<Interval>{{-10, 200}}) == 0,
        "child covering the parent");
  check(near(unattributed_share(100.0, std::vector<double>{30.0, 50.0}), 0.2),
        "unattributed share");
  check(near(unattributed_share(100.0, std::vector<double>{70.0, 50.0}), -0.2),
        "over-counted layers give a negative share");
  check(near(failure_share(0, 0), 0.0), "failure share of nothing");
  check(near(failure_share(10, 3), 0.3), "failure share");
}

void test_attribution() {
  using K = seafl::obs::TraceEventKind;
  auto ev = [](std::int64_t ns, K kind) {
    return Mark{ns, MarkKind::kEvent, kind};
  };
  auto mk = [](std::int64_t ns, MarkKind kind) { return Mark{ns, kind}; };
  // One session, trained lazily at its upload, int8-decoded, aggregated with
  // screening, then evaluated.
  const std::vector<Mark> marks{
      ev(10, K::kAssigned),   mk(20, MarkKind::kDataBegin),
      mk(25, MarkKind::kDataEnd), ev(75, K::kEpochDone),
      ev(76, K::kEpochDone),  ev(77, K::kUpload),
      ev(90, K::kCompressed), mk(95, MarkKind::kAggBegin),
      mk(130, MarkKind::kAggEnd), ev(131, K::kScreened),
      ev(135, K::kAggregate), ev(160, K::kEval)};
  const Attribution a = attribute(marks, Interval{0, 170});
  auto self = [&](Layer l) { return a.self_ns[static_cast<std::size_t>(l)]; };
  check(self(Layer::kEngine) == 32, "engine: edges, preamble, bookkeeping");
  check(self(Layer::kData) == 5, "data: the partition read");
  check(self(Layer::kTrain) == 50, "train: partition read to first epoch");
  check(self(Layer::kCodec) == 13, "codec: upload to decoded");
  check(self(Layer::kServerCore) == 10, "server core around the strategy");
  check(self(Layer::kAggregate) == 35, "aggregate: the strategy call");
  check(self(Layer::kEvaluate) == 25, "evaluate: aggregate to eval");
  check(a.total() == 170, "layers tile the run exactly");
  auto sum = [](const LayerTimes& t) {
    std::int64_t total = 0;
    for (const std::int64_t ns : t) total += ns;
    return total;
  };
  check(a.by_round.size() == 2 && sum(a.by_round[0]) == 130 &&
            sum(a.by_round[1]) == 40 &&
            a.by_round[1][static_cast<std::size_t>(Layer::kEvaluate)] == 25,
        "per-round split: the strategy return closes round 0");
  check(a.trained_sessions == 1 && a.codec_uploads == 1 &&
            a.aggregations == 1 && a.evaluations == 1 && a.events == 8,
        "attribution counts");
  check(attribute({}, Interval{5, 9}).self_ns[static_cast<std::size_t>(
            Layer::kEngine)] == 4,
        "a run without marks is all engine");
  const auto aggs = aggregate_intervals(marks);
  check(aggs.size() == 1 && aggs[0].begin == 95 && aggs[0].end == 130,
        "strategy intervals");

  MarkLog log(2);
  log.push(MarkKind::kAggBegin);
  log.push(MarkKind::kAggEnd);
  log.push(MarkKind::kAggBegin);
  check(log.marks().size() == 2 && log.dropped() == 1,
        "a full mark log drops and counts");
}

void test_failure_accounting() {
  seafl::RunResult r;
  r.model_downloads = 100;
  r.total_updates = 80;
  r.screened_updates = 3;
  r.deadline_expirations = 5;  // includes crashed sessions
  r.lost_uploads = 7;          // 4 retried, 3 lost after the last retry
  r.upload_retries = 4;
  r.dropped_updates = 2;
  check(failed_sessions(r) == 5 + 3 + 2 + 3, "failed sessions");
  check(aggregated_updates(r) == 77, "aggregated updates exclude screened");
  check(near(failure_share(r.model_downloads, failed_sessions(r)), 0.13),
        "failure share of a run");
}

}  // namespace

int run_selftests() {
  test_quantiles();
  test_supported_percentile();
  test_self_time();
  test_attribution();
  test_failure_accounting();
  if (g_failures == 0) std::printf("perfbench selftest: all passed\n");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
