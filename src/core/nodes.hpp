// The concurrent stages of the CWC simulation-analysis workflow, mapping
// one-to-one onto the boxes of the paper's Fig. 2:
//
//  simulation pipeline: task_generator -> [task_scheduler -> sim_engine_node*
//                       (feedback)] -> trajectory_aligner
//  analysis pipeline:   [stat_engine_node* -> reorder_gather] ->
//                       window_generator -> result_sink
//
// The statistics farm summarizes each cut once, the gather restores cut
// order, and the window stage groups the summaries into sliding windows:
// with overlapping windows (slide < size) a window carries copies of its
// cuts' summaries rather than re-summarizing them.
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
#include "core/result.hpp"
#include "ff/ff.hpp"

namespace cwcsim {

/// Stage 1: generation of simulation tasks. Emits one task per trajectory
/// id, each owning a fresh engine with its own (seed, id) RNG stream. By
/// default generates ids 0..num_trajectories-1; the distributed runtime
/// passes each host its partition of ids instead. When an event_sink is
/// attached, generation ends early once stop is requested.
class task_generator final : public ff::node {
 public:
  task_generator(model_ref model, const sim_config& cfg,
                 const event_sink* events = nullptr);
  task_generator(model_ref model, const sim_config& cfg,
                 std::vector<std::uint64_t> ids,
                 const event_sink* events = nullptr);
  ff::outcome svc(ff::token t) override;

 private:
  model_ref model_;
  const sim_config* cfg_;
  const event_sink* events_;
  std::vector<std::uint64_t> ids_;
  std::size_t next_ = 0;
};

/// Farm emitter: dispatches tasks to simulation engines (on-demand by
/// default) and receives rescheduled tasks / completion notices on the
/// feedback channel. Terminates when the generator is done and every
/// trajectory has completed. With an event_sink attached, completion
/// notices are streamed through it as they happen, and once stop is
/// requested in-flight tasks are retired instead of redispatched.
class task_scheduler final : public ff::node {
 public:
  explicit task_scheduler(const sim_config& cfg,
                          event_sink* events = nullptr);
  ff::outcome svc(ff::token t) override;
  ff::outcome on_upstream_eos() override;

  std::uint64_t dispatched() const noexcept { return dispatched_; }

  /// Completion notices, one per finished trajectory (valid after the run).
  const std::vector<task_done>& completions() const noexcept {
    return completions_;
  }

 private:
  ff::outcome maybe_done() const noexcept;
  bool stopping() const noexcept {
    return events_ != nullptr && events_->stop_requested();
  }
  event_sink* events_;
  std::uint64_t outstanding_ = 0;
  std::uint64_t dispatched_ = 0;
  bool upstream_done_ = false;
  std::vector<task_done> completions_;
};

/// Farm worker: runs one simulation quantum, streams the quantum's samples
/// to the alignment stage, and feeds the task (or a completion notice)
/// back to the scheduler.
class sim_engine_node final : public ff::node {
 public:
  sim_engine_node(const sim_config& cfg, unsigned worker_id);
  ff::outcome svc(ff::token t) override;

  /// Per-quantum service-time trace (valid after the run completes).
  const std::vector<quantum_record>& trace() const noexcept { return trace_; }
  std::uint64_t quanta_executed() const noexcept { return quanta_; }
  unsigned worker_id() const noexcept { return worker_id_; }

 private:
  const sim_config* cfg_;
  unsigned worker_id_;
  std::uint64_t quanta_ = 0;
  std::vector<quantum_record> trace_;
};

/// Stage 3 of the simulation pipeline: "sorts out all received results and
/// aligns them according to the amount of simulation time", releasing a cut
/// once every trajectory has contributed its sample.
class trajectory_aligner final : public ff::node {
 public:
  trajectory_aligner(const sim_config& cfg, std::size_t num_observables,
                     const event_sink* events = nullptr);
  ff::outcome svc(ff::token t) override;
  void on_eos() override;

  std::uint64_t cuts_emitted() const noexcept { return assembler_.emitted(); }

 private:
  cut_assembler assembler_;
  const event_sink* events_;
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
/// order) — the "gather" box of Fig. 2. Cut summaries are keyed by
/// sample_index, which the aligner emits consecutively from 0.
class reorder_gather final : public ff::node {
 public:
  reorder_gather();
  ff::outcome svc(ff::token t) override;
  void on_eos() override;

 private:
  std::map<std::uint64_t, stats::cut_summary> held_;  // keyed by sample_index
  std::uint64_t next_ = 0;
};

/// Analysis stage after the gather: groups the ordered cut summaries into
/// sliding windows.
class window_generator final : public ff::node {
 public:
  explicit window_generator(const sim_config& cfg);
  ff::outcome svc(ff::token t) override;
  void on_eos() override;

 private:
  stats::basic_sliding_window_builder<stats::cut_summary> builder_;
};

/// Terminal stage: hands each ordered window to a consumer as the window
/// stage emits it (stands in for the GUI/storage of Fig. 2). The consumer
/// is either a collecting simulation_result (batch mode) or the session's
/// event sink (streaming mode) — no terminal gather-then-copy either way.
class result_sink final : public ff::node {
 public:
  explicit result_sink(simulation_result* out);
  explicit result_sink(std::function<void(window_summary&&)> push);
  ff::outcome svc(ff::token t) override;

 private:
  std::function<void(window_summary&&)> push_;
};

}  // namespace cwcsim
