// The benchmark's four workloads (README.md says why each exists) and the
// metrics one run of a workload reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fl/types.h"

namespace perfbench {

/// A diagnostic figure with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sets the number of repetitions (about this many seconds of work on
  /// the reference host; the count does not depend on the build's speed).
  double seconds = 10.0;
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
};

struct RunReport {
  std::uint64_t attempted = 0;  ///< dispatched client sessions
  /// Output checks that did not hold; empty means the run was correct. A
  /// simulated device fault is an input the server must absorb, not a
  /// failed operation: runs fail operations only by failing a check (see
  /// fl.session_failure_share for sessions lost to injected faults).
  std::vector<std::string> check_failures;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run),
  /// by name. BENCHMARK.json lists them with their units; run.py attaches
  /// those and rejects a name it does not list. A per-layer metric whose
  /// layer does not run on the workload is left out and reads 0.
  std::map<std::string, double> metrics;
  /// Figures printed and saved with the result but not compared by the
  /// driver (time_to_target_s, sample counts, ...), with their units.
  std::vector<Metric> diagnostics;
  /// Traced runs of the simulated workloads: the per-layer split of every
  /// server round as CSV, one row per (repetition, round).
  std::string rounds_csv;
};

/// Sessions of a simulated run that ended without contributing to an
/// aggregate: expired by a deadline (crashed devices end there too), lost
/// after the last retry, dropped as too stale, or quarantined by screening.
/// Sessions still in flight or buffered when the run stopped are neither.
std::uint64_t failed_sessions(const seafl::RunResult& r);

/// Updates that entered an aggregate (consumed and not quarantined).
std::uint64_t aggregated_updates(const seafl::RunResult& r);

/// Runs one workload. Throws on invalid options; check failures are
/// reported in the RunReport, not thrown.
RunReport run_workload(const RunOptions& options);

}  // namespace perfbench
