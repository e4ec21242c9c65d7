// The concurrent stages of the CWC simulation-analysis workflow, the boxes
// of the paper's Fig. 2 as two farms:
//
//  simulation: [task_scheduler -> sim_engine_node* (feedback)]
//  analysis:   [trajectory_aligner -> stat_engine_node* -> window_gather]
//
// A task is a strip (core/quantum.hpp): one engine, or a batch_engine slice
// of multicore::batch_width lanes. The aligner restores time order however
// far apart the strips run and deals each cut to the statistics farm,
// which summarizes it once. The gather restores cut order and groups the
// summaries into sliding windows: with overlapping windows (slide < size)
// a window carries copies of its cuts' summaries rather than
// re-summarizing them. Each hop is a thread hand-off that costs up to a
// scheduler slice when every core runs an engine, so the boxes after the
// engines share as few threads as keep them concurrent.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/alignment.hpp"
#include "core/config.hpp"
#include "core/events.hpp"
#include "core/messages.hpp"
#include "core/quantum.hpp"
#include "ff/ff.hpp"

namespace cwcsim {

/// Lanes "wrapped in a C++ object ... passed to the farm of simulation
/// engines" and rescheduled "back along the feedback channel" (§IV-A1).
using sim_task = strip;

/// Farm emitter, and the generation of simulation tasks: cuts trajectories
/// 0..num_trajectories-1 into strips of batch_width lanes when
/// lane_rounds::batched() holds and capture_trace is off (traces are per
/// trajectory), else of one lane, each lane on its own (seed, id) stream.
/// Dispatches every task to the simulation engines (on-demand by default)
/// before it receives rescheduled tasks and completion notices on the
/// feedback channel, and terminates when every lane has completed.
/// Completion notices stream through the sink as they happen; once stop is
/// requested, undispatched tasks are dropped and in-flight ones retired.
class task_scheduler final : public ff::node {
 public:
  task_scheduler(const model_ref& model, const sim_config& cfg,
                 std::size_t batch_width, event_sink& events);
  void on_init() override;
  ff::outcome svc(ff::token t) override;
  ff::outcome on_upstream_eos() override;

  /// Completion notices, one per finished trajectory (valid after the run).
  const std::vector<task_done>& completions() const noexcept {
    return completions_;
  }

 private:
  ff::outcome maybe_done() const noexcept;
  bool stopping() const noexcept { return events_.stop_requested(); }
  event_sink& events_;
  std::vector<sim_task> tasks_;    ///< built here, dispatched by on_init()
  std::uint64_t outstanding_ = 0;  ///< dispatched lanes not yet completed
  std::vector<task_done> completions_;
};

/// Farm worker: advances a task one quantum, streams each lane's samples
/// to the alignment stage, and feeds back a completion notice per lane
/// that finished and the task itself while any lane is live.
class sim_engine_node final : public ff::node {
 public:
  sim_engine_node(const sim_config& cfg, unsigned worker_id);
  ff::outcome svc(ff::token t) override;

  /// Per-quantum service-time trace (valid after the run completes).
  const std::vector<quantum_record>& trace() const noexcept { return trace_; }

 private:
  const sim_config* cfg_;
  std::vector<quantum_record> trace_;
};

/// Analysis farm emitter: "sorts out all received results and aligns them
/// according to the amount of simulation time", releasing a cut to the
/// statistics engines once every trajectory has contributed its sample.
class trajectory_aligner final : public ff::node {
 public:
  trajectory_aligner(const sim_config& cfg, std::size_t num_observables,
                     const event_sink& events);
  ff::outcome svc(ff::token t) override;
  void on_eos() override;

  std::uint64_t cuts_emitted() const noexcept { return assembler_.emitted(); }

 private:
  cut_assembler assembler_;
  const event_sink& events_;
};

/// Analysis farm worker: the statistics of one cut (mean/variance/median
/// per observable and k-means clustering of trajectories).
class stat_engine_node final : public ff::node {
 public:
  explicit stat_engine_node(const sim_config& cfg);
  ff::outcome svc(ff::token t) override;

  std::uint64_t cuts_processed() const noexcept { return processed_; }

 private:
  const sim_config* cfg_;
  std::uint64_t processed_ = 0;
};

/// Analysis farm collector: restores cut order (workers finish out of
/// order), groups the ordered summaries into sliding windows, and hands
/// each window to a consumer as it closes (the gather, window and
/// GUI/storage boxes of Fig. 2), with no terminal gather-then-copy.
class window_gather final : public ff::node {
 public:
  window_gather(const sim_config& cfg,
                std::function<void(window_summary&&)> push);
  ff::outcome svc(ff::token t) override;
  void on_eos() override;

 private:
  std::map<std::uint64_t, stats::cut_summary> held_;  // keyed by sample_index
  std::uint64_t next_ = 0;
  stats::basic_sliding_window_builder<stats::cut_summary> builder_;
  std::function<void(window_summary&&)> push_;
};

}  // namespace cwcsim
