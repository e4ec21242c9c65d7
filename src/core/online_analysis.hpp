// The master-side align -> summarize -> sliding-window composition shared
// by every backend that runs the analysis stages inline on one thread (the
// batched multicore driver, the distributed master, the GPU host loop and
// the run server). Keeping it in one place is what makes the cross-backend
// bit-exactness guarantee durable: every deployment assembles the same
// cuts, summarizes each with the same summarize_cut parameters, and groups
// the summaries into the same windows.
//
// Each cut is summarized once, as the assembler releases it; the windows
// are built over the summaries. summarize_cut(cut, k, seed) does not depend
// on the window, so an overlapping window (slide < size) carries copies of
// summaries instead of re-summarizing its cuts.
#pragma once

#include "core/alignment.hpp"
#include "core/events.hpp"

namespace cwcsim {

class online_analysis {
 public:
  online_analysis(const sim_config& cfg, std::size_t num_observables,
                  event_sink& sink)
      : cfg_(&cfg),
        sink_(&sink),
        assembler_(cfg, num_observables),
        builder_(cfg.window_size, cfg.window_slide) {}

  /// Feed one sample; completed cuts are summarized, roll into windows, and
  /// windows flow to the sink in time order, on-line.
  void ingest(std::uint64_t trajectory, const cwc::trajectory_sample& s) {
    assembler_.ingest(trajectory, s, [this](stats::trajectory_cut&& cut) {
      for (auto& w : builder_.push(
               stats::summarize_cut(cut, cfg_->kmeans_k, cfg_->seed)))
        sink_->window(std::move(w));
    });
  }

  /// Flush the trailing partial window. On a complete (non-stopped) run,
  /// a partially-filled cut left behind means a trajectory was lost
  /// upstream and must not silently disappear; a cancelled run
  /// legitimately drops the cuts its retired trajectories never filled.
  void finish() {
    for (auto& w : builder_.flush()) sink_->window(std::move(w));
    if (!sink_->stop_requested())
      util::ensures(assembler_.drained(),
                    "alignment buffer not drained at EOS");
  }

 private:
  const sim_config* cfg_;
  event_sink* sink_;
  cut_assembler assembler_;
  stats::basic_sliding_window_builder<stats::cut_summary> builder_;
};

}  // namespace cwcsim
