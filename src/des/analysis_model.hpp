// DES model of the analysis pipeline back-end (alignment counters +
// sliding-window statistics farm). Shared by the multicore, cluster, and
// SIMT/GPU platform models.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "des/platforms.hpp"
#include "des/resource.hpp"
#include "des/trace.hpp"

namespace des {

struct sim_outcome;

/// Counts per-cut contributions, releases completed cuts, groups them into
/// statistics jobs (window_size cuts every window_slide completions —
/// overlapping when slide < size), and executes the jobs on a CPU resource
/// bounded by the stat-farm concurrency.
///
/// The job cost is the paper's: a window job summarizes all window_size of
/// its cuts, which keeps Fig. 3 faithful to the paper's analysis farm. The
/// implementation in src/core summarizes each cut once and windows the
/// summaries, so with overlapping windows this model upper-bounds its
/// analysis cost (by up to window_size / window_slide).
class analysis_model {
 public:
  analysis_model(resource& cpu, const workload& w, const calibration& cal,
                 const host_spec& host, unsigned stat_engines,
                 std::size_t window_size, std::size_t window_slide,
                 sim_outcome& out);

  /// Samples [first, first+count) of one trajectory reached the aligner.
  void deliver(std::uint64_t first_sample, std::uint32_t count);

  /// CPU time to ingest `samples` samples into the alignment buffer.
  double align_cost(std::uint32_t samples) const;

 private:
  void enqueue_job(std::size_t cuts) { job_queue_.push_back(cuts); }
  void pump();

  resource* cpu_;
  const workload* w_;
  const calibration* cal_;
  const host_spec* host_;
  unsigned stat_free_;
  std::size_t window_size_;
  std::size_t window_slide_;
  sim_outcome* out_;
  std::vector<std::uint32_t> cut_filled_;
  std::size_t ready_cuts_ = 0;
  std::size_t since_last_window_ = 0;
  std::deque<std::size_t> job_queue_;
};

}  // namespace des
