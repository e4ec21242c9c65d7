// The cwcsim::multicore backend drivers: the Fig. 2 farm network
// (paper §IV-A) and the opt-in batched-lane path.
#include <memory>

#include "core/backend.hpp"
#include "core/lane_rounds.hpp"
#include "core/nodes.hpp"
#include "core/online_analysis.hpp"
#include "util/stopwatch.hpp"

namespace cwcsim {

namespace detail {

namespace {

/// The shared-memory pipeline of Fig. 2, wired as one ff network:
///
///   generation -> farm(simulation engines, feedback) -> alignment ->
///   farm(statistical engines) -> gather -> sliding windows -> sink
///
/// Window summaries and completion notices stream through the sink as the
/// gather stage emits them, and the sink's stop flag is honoured.
class multicore_driver final : public backend_driver {
 public:
  multicore_driver(const model_ref& model, const sim_config& cfg)
      : model_(model), cfg_(cfg) {}

  const char* name() const noexcept override { return "multicore"; }

  void run(event_sink& sink, run_report& report) override {
    simulation_result& result = report.result;
    result.sim_workers = cfg_.sim_workers;
    result.stat_engines = cfg_.stat_engines;

    // ---- simulation pipeline -----------------------------------------
    ff::pipeline pipe;
    pipe.add_stage(std::make_unique<task_generator>(model_, cfg_, sink));

    std::vector<std::unique_ptr<ff::node>> sim_workers;
    std::vector<sim_engine_node*> sim_worker_ptrs;
    for (unsigned w = 0; w < cfg_.sim_workers; ++w) {
      auto worker = std::make_unique<sim_engine_node>(cfg_, w);
      sim_worker_ptrs.push_back(worker.get());
      sim_workers.push_back(std::move(worker));
    }
    auto sim_farm = std::make_unique<ff::farm>(std::move(sim_workers));
    auto scheduler = std::make_unique<task_scheduler>(sink);
    task_scheduler* scheduler_ptr = scheduler.get();
    sim_farm->set_emitter(std::move(scheduler))
        .set_dispatch(cfg_.dispatch)
        .set_worker_channel_capacity(cfg_.worker_queue)
        .enable_feedback(ff::feedback_from::workers);
    pipe.add_stage(std::move(sim_farm));

    pipe.add_stage(std::make_unique<trajectory_aligner>(
        cfg_, model_.num_observables(), sink));

    // ---- analysis pipeline --------------------------------------------
    // Summarize each cut once on the farm, restore cut order, then window
    // the summaries.
    std::vector<std::unique_ptr<ff::node>> stat_workers;
    for (unsigned w = 0; w < cfg_.stat_engines; ++w)
      stat_workers.push_back(std::make_unique<stat_engine_node>(cfg_));
    auto stat_farm = std::make_unique<ff::farm>(std::move(stat_workers));
    stat_farm->set_dispatch(ff::out_policy::on_demand)
        .set_collector(std::make_unique<reorder_gather>());
    pipe.add_stage(std::move(stat_farm));

    pipe.add_stage(std::make_unique<window_generator>(cfg_));

    // Terminal stage: stream summaries into the sink (no gather-then-copy).
    pipe.add_stage(std::make_unique<result_sink>(
        [&sink](window_summary&& w) { sink.window(std::move(w)); }));

    // ---- run ------------------------------------------------------------
    ff::network net;
    pipe.materialize(net);
    util::stopwatch sw;
    net.run_and_wait();
    result.wall_seconds = sw.elapsed_s();

    // ---- gather instrumentation -----------------------------------------
    result.completions = scheduler_ptr->completions();
    if (cfg_.capture_trace) {
      for (const sim_engine_node* w : sim_worker_ptrs) {
        result.trace.insert(result.trace.end(), w->trace().begin(),
                            w->trace().end());
      }
    }
  }

 private:
  model_ref model_;
  sim_config cfg_;
};

/// The opt-in batched shared-memory path (multicore{batch_width}): the
/// campaign's lanes run as SoA batch strips on lane_rounds, with the
/// standard align -> summarize -> window analysis inline between rounds.
/// Windows, completions, and sample paths are bit-identical to the
/// per-engine farm (the batch engine's lane-exactness guarantee); only the
/// scheduling differs. Trace capture stays on the farm (per-quantum wall
/// clocks of a lockstep batch are not per-trajectory service times).
class batched_multicore_driver final : public backend_driver {
 public:
  batched_multicore_driver(const model_ref& model, const sim_config& cfg,
                           std::size_t batch_width)
      : model_(model), cfg_(cfg), batch_width_(batch_width) {}

  const char* name() const noexcept override { return "multicore"; }

  void run(event_sink& sink, run_report& report) override {
    util::stopwatch wall;
    lane_rounds lanes({model_.compiled}, cfg_, batch_width_, cfg_.sim_workers);
    online_analysis analysis(cfg_, model_.num_observables(), sink);
    while (lanes.live() > 0 && !sink.stop_requested()) {
      lanes.step(
          [&](std::uint32_t, std::uint64_t trajectory,
              const cwc::trajectory_sample& s) {
            analysis.ingest(trajectory, s);
          },
          [&](std::uint32_t, const task_done& d) {
            report.result.completions.push_back(d);
            sink.trajectory_done(d);
          });
    }
    analysis.finish();

    report.result.sim_workers = cfg_.sim_workers;
    report.result.stat_engines = 1;
    report.result.wall_seconds = wall.elapsed_s();
  }

 private:
  model_ref model_;
  sim_config cfg_;
  std::size_t batch_width_;
};

}  // namespace

std::unique_ptr<backend_driver> make_multicore_driver(const model_ref& model,
                                                      const sim_config& cfg,
                                                      const multicore& b) {
  model_ref m = model;
  m.compile();  // idempotent; every engine or lane strip shares one artifact
  if (!cfg.capture_trace && lane_rounds::batched({m.compiled}, b.batch_width))
    return std::make_unique<batched_multicore_driver>(m, cfg, b.batch_width);
  return std::make_unique<multicore_driver>(m, cfg);
}

}  // namespace detail
}  // namespace cwcsim
