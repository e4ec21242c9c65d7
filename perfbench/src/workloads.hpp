// The benchmark's workloads, their configurations, and the metric tables.
//
// Each workload runs in its own process (see run.py): one set-up phase
// timed several times, one untimed warm-up run, then timed runs for the
// requested number of seconds. With tracing on, a second pass repeats the
// timed runs with spans on the session boundaries and then replays the
// workload single-threaded through the public layer functions
// (replay.cpp) to produce the per-layer numbers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace perfbench {

struct run_args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;  ///< Chrome trace output (trace runs only)
};

/// Output checks: every operation the benchmark attempts is counted, and
/// every failed check is printed and counted once per operation.
class checks {
 public:
  /// Count one attempted operation; it fails if any condition fails.
  void operation(bool ok, const std::string& what);
  /// A condition on the benchmark's own bookkeeping (not an operation).
  void require(bool ok, const std::string& what);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  bool all_passed() const noexcept { return failed_ == 0 && harness_ok_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool harness_ok_ = true;
};

/// name -> value; units come from the metric tables below.
using metric_values = std::map<std::string, double>;

struct workload_result {
  metric_values e2e;     ///< end-to-end metrics (always measured untraced)
  metric_values layers;  ///< per-layer metrics (trace runs only)
  std::vector<std::string> notes;  ///< human-readable lines (percentiles)
};

struct metric_decl {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
const std::vector<metric_decl>& end_to_end_metrics();
/// The per-layer metrics a traced run reports; 0 where a workload
/// bypasses the layer (README.md lists which apply where).
const std::vector<metric_decl>& per_layer_metrics();

/// Workload names accepted by run_workload().
const std::vector<std::string>& workload_names();

/// Run one workload end to end (and, with args.trace, its traced pass and
/// per-layer replay into `tr`).
workload_result run_workload(const run_args& args, checks& chk, tracer* tr);

/// Cores this host offers (>= 1).
unsigned host_cores();

/// Lanes per batch engine on paper_batched and sweep_grid.
inline constexpr std::size_t kBatchWidth = 32;

}  // namespace perfbench
