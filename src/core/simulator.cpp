#include "core/simulator.hpp"

#include <memory>

#include "core/backend.hpp"
#include "core/online_analysis.hpp"
#include "cwc/batch/batch_engine.hpp"
#include "ff/parallel_for.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace cwcsim {

namespace detail {

simulation_result run_multicore_pipeline(const model_ref& model,
                                         const sim_config& cfg,
                                         event_sink* sink) {
  ff::network net;
  simulation_result result;
  result.sim_workers = cfg.sim_workers;
  result.stat_engines = cfg.stat_engines;

  // ---- simulation pipeline -------------------------------------------
  ff::pipeline pipe;
  pipe.add_stage(std::make_unique<task_generator>(model, cfg, sink));

  std::vector<std::unique_ptr<ff::node>> sim_workers;
  std::vector<sim_engine_node*> sim_worker_ptrs;
  for (unsigned w = 0; w < cfg.sim_workers; ++w) {
    auto worker = std::make_unique<sim_engine_node>(cfg, w);
    sim_worker_ptrs.push_back(worker.get());
    sim_workers.push_back(std::move(worker));
  }
  auto sim_farm = std::make_unique<ff::farm>(std::move(sim_workers));
  auto scheduler = std::make_unique<task_scheduler>(cfg, sink);
  task_scheduler* scheduler_ptr = scheduler.get();
  sim_farm->set_emitter(std::move(scheduler))
      .set_dispatch(cfg.dispatch)
      .set_worker_channel_capacity(cfg.worker_queue)
      .enable_feedback(ff::feedback_from::workers);
  pipe.add_stage(std::move(sim_farm));

  pipe.add_stage(std::make_unique<trajectory_aligner>(
      cfg, model.num_observables(), sink));

  // ---- analysis pipeline ----------------------------------------------
  // Summarize each cut once on the farm, restore cut order, then window
  // the summaries.
  std::vector<std::unique_ptr<ff::node>> stat_workers;
  for (unsigned w = 0; w < cfg.stat_engines; ++w)
    stat_workers.push_back(std::make_unique<stat_engine_node>(cfg));
  auto stat_farm = std::make_unique<ff::farm>(std::move(stat_workers));
  stat_farm->set_dispatch(ff::out_policy::on_demand)
      .set_collector(std::make_unique<reorder_gather>());
  pipe.add_stage(std::move(stat_farm));

  pipe.add_stage(std::make_unique<window_generator>(cfg));

  // Terminal stage: stream summaries into the session sink, or collect
  // them for the batch wrapper — no gather-then-copy in either mode.
  if (sink != nullptr) {
    pipe.add_stage(std::make_unique<result_sink>(
        [sink](window_summary&& w) { sink->window(std::move(w)); }));
  } else {
    pipe.add_stage(std::make_unique<result_sink>(&result));
  }

  // ---- run --------------------------------------------------------------
  pipe.materialize(net);
  util::stopwatch sw;
  net.run_and_wait();
  result.wall_seconds = sw.elapsed_s();

  // ---- gather instrumentation -------------------------------------------
  result.completions = scheduler_ptr->completions();
  if (cfg.capture_trace) {
    for (const sim_engine_node* w : sim_worker_ptrs) {
      result.trace.insert(result.trace.end(), w->trace().begin(),
                          w->trace().end());
    }
  }
  return result;
}

namespace {

class multicore_driver final : public backend_driver {
 public:
  multicore_driver(const model_ref& model, const sim_config& cfg)
      : model_(model), cfg_(cfg) {}

  const char* name() const noexcept override { return "multicore"; }

  void run(event_sink& sink, run_report& report) override {
    report.result = run_multicore_pipeline(model_, cfg_, &sink);
  }

 private:
  model_ref model_;
  sim_config cfg_;
};

/// The opt-in batched shared-memory path (multicore{batch_width}): slices
/// the campaign into SoA batch engines of batch_width lanes, advances them
/// quantum-lockstep on a persistent worker pool, and runs the standard
/// align -> summarize -> window analysis inline between rounds. Windows,
/// completions, and sample paths are bit-identical to the per-engine farm
/// (the batch engine's lane-exactness guarantee); only the scheduling
/// differs. Trace capture stays on the farm (per-quantum wall clocks of a
/// lockstep batch are not per-trajectory service times).
class batched_multicore_driver final : public backend_driver {
 public:
  batched_multicore_driver(const model_ref& model, const sim_config& cfg,
                           std::size_t batch_width)
      : model_(model), cfg_(cfg), batch_width_(batch_width) {
    model_.compile();  // idempotent; the groups share one artifact
  }

  const char* name() const noexcept override { return "multicore"; }

  void run(event_sink& sink, run_report& report) override {
    util::stopwatch wall;
    struct batch_group {
      std::unique_ptr<cwc::batch::batch_engine> eng;
      std::vector<std::vector<cwc::trajectory_sample>> samples;
      std::vector<std::uint8_t> retired;
      std::size_t live = 0;
    };
    std::vector<batch_group> groups;
    for (std::uint64_t first = 0; first < cfg_.num_trajectories;
         first += batch_width_) {
      const auto w = static_cast<std::size_t>(std::min<std::uint64_t>(
          batch_width_, cfg_.num_trajectories - first));
      batch_group g;
      g.eng = std::make_unique<cwc::batch::batch_engine>(model_.compiled,
                                                         cfg_.seed, first, w);
      g.samples.resize(w);
      g.retired.assign(w, 0);
      g.live = w;
      groups.push_back(std::move(g));
    }

    online_analysis analysis(cfg_, model_.num_observables(), sink);
    ff::parallel_for pool(std::max<unsigned>(
        1, std::min<unsigned>(cfg_.sim_workers,
                              static_cast<unsigned>(groups.size()))));

    std::uint64_t live_lanes = cfg_.num_trajectories;
    std::uint64_t rounds = 0;
    while (live_lanes > 0 && !sink.stop_requested()) {
      // Parallel simulation round: every live group advances one quantum.
      pool.for_each(0, static_cast<std::int64_t>(groups.size()), 1,
                    [&](std::int64_t gi) {
                      batch_group& g = groups[static_cast<std::size_t>(gi)];
                      if (g.live == 0) return;
                      for (auto& s : g.samples) s.clear();
                      g.eng->step_quantum(cfg_.quantum, cfg_.t_end,
                                          cfg_.sample_period, g.samples);
                    });
      ++rounds;
      // Sequential gather in trajectory order: the cut assembler and the
      // sliding windows see the exact same deterministic stream as the
      // farm's alignment stage.
      for (batch_group& g : groups) {
        if (g.live == 0) continue;
        for (std::size_t i = 0; i < g.samples.size(); ++i)
          for (const auto& s : g.samples[i])
            analysis.ingest(g.eng->lane_id(i), s);
        for (std::size_t i = 0; i < g.samples.size(); ++i) {
          if (g.retired[i] != 0 || g.eng->time(i) < cfg_.t_end) continue;
          g.retired[i] = 1;
          --g.live;
          --live_lanes;
          task_done d;
          d.trajectory_id = g.eng->lane_id(i);
          d.quanta = rounds;
          d.steps = g.eng->steps(i);
          report.result.completions.push_back(d);
          sink.trajectory_done(d);
        }
      }
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
  if (b.batch_width > 1 && !cfg.capture_trace) {
    model_ref m = model;
    m.compile();
    if (m.compiled != nullptr && cwc::batch::batch_engine::supports(*m.compiled))
      return std::make_unique<batched_multicore_driver>(m, cfg, b.batch_width);
  }
  return std::make_unique<multicore_driver>(model, cfg);
}

}  // namespace detail

multicore_simulator::multicore_simulator(const cwc::model& m, sim_config cfg)
    : cfg_(cfg) {
  model_.tree = &m;
  validate(cfg_);
  model_.compile();  // one artifact shared by the whole farm
}

multicore_simulator::multicore_simulator(const cwc::reaction_network& n,
                                         sim_config cfg)
    : cfg_(cfg) {
  model_.flat = &n;
  validate(cfg_);
  model_.compile();  // one artifact shared by the whole farm
}

simulation_result multicore_simulator::run() {
  return detail::run_multicore_pipeline(model_, cfg_, nullptr);
}

}  // namespace cwcsim
