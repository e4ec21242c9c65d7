// The cwcsim::multicore backend driver: the Fig. 2 farm network
// (paper §IV-A), whose tasks are strips of multicore::batch_width lanes.
#include <memory>

#include "core/backend.hpp"
#include "core/nodes.hpp"
#include "util/stopwatch.hpp"

namespace cwcsim {

namespace detail {

namespace {

/// The shared-memory pipeline of Fig. 2, wired as one ff network:
///
///   farm(generation + scheduler -> simulation engines, feedback) ->
///   farm(alignment -> statistical engines -> gather + windows -> sink)
///
/// Window summaries and completion notices stream through the sink as the
/// gather stage emits them, and the sink's stop flag is honoured.
class multicore_driver final : public backend_driver {
 public:
  multicore_driver(const model_ref& model, const sim_config& cfg,
                   std::size_t batch_width)
      : model_(model), cfg_(cfg), batch_width_(batch_width) {}

  const char* name() const noexcept override { return "multicore"; }

  void run(event_sink& sink, run_report& report) override {
    simulation_result& result = report.result;
    result.sim_workers = cfg_.sim_workers;
    result.stat_engines = cfg_.stat_engines;

    // ---- simulation pipeline -----------------------------------------
    ff::pipeline pipe;

    std::vector<std::unique_ptr<ff::node>> sim_workers;
    std::vector<sim_engine_node*> sim_worker_ptrs;
    for (unsigned w = 0; w < cfg_.sim_workers; ++w) {
      auto worker = std::make_unique<sim_engine_node>(cfg_, w);
      sim_worker_ptrs.push_back(worker.get());
      sim_workers.push_back(std::move(worker));
    }
    auto sim_farm = std::make_unique<ff::farm>(std::move(sim_workers));
    auto scheduler =
        std::make_unique<task_scheduler>(model_, cfg_, batch_width_, sink);
    task_scheduler* scheduler_ptr = scheduler.get();
    sim_farm->set_emitter(std::move(scheduler))
        .remove_collector()
        .set_dispatch(cfg_.dispatch)
        .set_worker_channel_capacity(cfg_.worker_queue)
        .enable_feedback(ff::feedback_from::workers);
    pipe.add_stage(std::move(sim_farm));

    // ---- analysis pipeline --------------------------------------------
    // Align cuts, summarize each once on the farm, restore cut order and
    // stream the windows into the sink.
    std::vector<std::unique_ptr<ff::node>> stat_workers;
    for (unsigned w = 0; w < cfg_.stat_engines; ++w)
      stat_workers.push_back(std::make_unique<stat_engine_node>(cfg_));
    auto stat_farm = std::make_unique<ff::farm>(std::move(stat_workers));
    stat_farm
        ->set_emitter(std::make_unique<trajectory_aligner>(
            cfg_, model_.num_observables(), sink))
        .set_dispatch(ff::out_policy::on_demand)
        .set_collector(std::make_unique<window_gather>(
            cfg_, [&sink](window_summary&& w) { sink.window(std::move(w)); }));
    pipe.add_stage(std::move(stat_farm));

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
  std::size_t batch_width_;
};

}  // namespace

std::unique_ptr<backend_driver> make_multicore_driver(const model_ref& model,
                                                      const sim_config& cfg,
                                                      const multicore& b) {
  model_ref m = model;
  m.compile();  // idempotent; every engine or lane strip shares one artifact
  return std::make_unique<multicore_driver>(m, cfg, b.batch_width);
}

}  // namespace detail
}  // namespace cwcsim
