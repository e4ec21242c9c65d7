#include "sweep/campaign.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <variant>

#include "core/alignment.hpp"
#include "core/quantum.hpp"
#include "cwc/batch/batch_engine.hpp"
#include "ff/parallel_for.hpp"
#include "stats/quantile.hpp"
#include "util/check.hpp"

namespace cwcsim {

namespace {

std::vector<std::string> observable_names(const cwc::compiled_model& cm) {
  std::vector<std::string> out;
  if (cm.is_tree()) {
    out.reserve(cm.tree()->observables().size());
    for (const cwc::observable& o : cm.tree()->observables())
      out.push_back(o.name);
  } else {
    const cwc::symbol_table& st = cm.flat()->species();
    out.reserve(st.size());
    for (std::uint32_t i = 0; i < st.size(); ++i) out.push_back(st.name(i));
  }
  return out;
}

/// Per-cell online reduction: the SAME cut assembly as every backend's
/// analysis stage (core/alignment.hpp), with each cut folded — in
/// trajectory-id order — into the cell's report entry as the assembler
/// releases it, so every sample point is folded exactly once.
class cell_reducer {
 public:
  cell_reducer(const sim_config& cfg, std::size_t num_observables,
               sweep::cell_report& out)
      : cfg_(&cfg),
        num_observables_(num_observables),
        out_(&out),
        assembler_(cfg, num_observables) {}

  void ingest(std::uint64_t trajectory, const cwc::trajectory_sample& s) {
    assembler_.ingest(trajectory, s,
                      [this](stats::trajectory_cut&& cut) { fold(cut); });
  }

  /// Only called once every trajectory of the cell completed, so a
  /// partially-filled cut means samples were lost upstream.
  void finish() {
    util::ensures(assembler_.drained(),
                  "sweep cell alignment buffer not drained");
  }

 private:
  void fold(const stats::trajectory_cut& cut) {
    sweep::point_summary p;
    p.sample_index = cut.sample_index;
    p.time = cut.time;
    p.observables.resize(num_observables_);
    for (std::size_t d = 0; d < num_observables_; ++d) {
      sweep::observable_summary& os = p.observables[d];
      stats::p2_quantile q10(0.1), q50(0.5), q90(0.9);
      for (const std::vector<double>& row : cut.values) {
        os.moments.add(row[d]);
        q10.add(row[d]);
        q50.add(row[d]);
        q90.add(row[d]);
      }
      os.q10 = q10.value();
      os.q50 = q50.value();
      os.q90 = q90.value();
    }
    if (cfg_->kmeans_k > 0)
      p.clusters = stats::kmeans(cut.values, cfg_->kmeans_k, cfg_->seed);
    out_->points.push_back(std::move(p));
  }

  const sim_config* cfg_;
  std::size_t num_observables_;
  sweep::cell_report* out_;
  cut_assembler assembler_;
};

/// The builder's sink: forwards to an optional caller-owned sink and fires
/// the per-cell callbacks on top.
class forwarding_sink final : public event_sink {
 public:
  forwarding_sink(
      event_sink* inner,
      const std::function<void(std::uint32_t, std::uint64_t, std::uint64_t)>&
          progress_cb,
      const std::function<void(std::uint32_t)>& done_cb)
      : inner_(inner), progress_cb_(progress_cb), done_cb_(done_cb) {}

  void window(window_summary&& w) override {
    if (inner_ != nullptr) inner_->window(std::move(w));
  }
  void trajectory_done(const task_done& d) override {
    if (inner_ != nullptr) inner_->trajectory_done(d);
  }
  bool stop_requested() const noexcept override {
    return inner_ != nullptr && inner_->stop_requested();
  }
  void cell_progress(std::uint32_t cell, std::uint64_t done,
                     std::uint64_t total) override {
    if (inner_ != nullptr) inner_->cell_progress(cell, done, total);
    if (progress_cb_) progress_cb_(cell, done, total);
  }
  void cell_done(std::uint32_t cell) override {
    if (inner_ != nullptr) inner_->cell_done(cell);
    if (done_cb_) done_cb_(cell);
  }

 private:
  event_sink* inner_;
  const std::function<void(std::uint32_t, std::uint64_t, std::uint64_t)>&
      progress_cb_;
  const std::function<void(std::uint32_t)>& done_cb_;
};

/// Shared completion bookkeeping: report counters, session-sink events,
/// and the cell's reduction finish when its last trajectory retires.
class campaign_state {
 public:
  campaign_state(const sim_config& cfg, sweep::report& rep,
                 std::vector<cell_reducer>& reducers, event_sink& sink)
      : cfg_(&cfg),
        rep_(&rep),
        reducers_(&reducers),
        sink_(&sink),
        done_in_cell_(rep.cells.size(), 0) {}

  void lane_done(std::uint32_t cell, std::uint64_t trajectory,
                 std::uint64_t quanta, std::uint64_t steps) {
    task_done d;
    // Session-sink ids are campaign-global (cell-major) so subscribers can
    // tell cells apart; the per-cell id is trajectory % N.
    d.trajectory_id =
        static_cast<std::uint64_t>(cell) * cfg_->num_trajectories + trajectory;
    d.quanta = quanta;
    d.steps = steps;
    sink_->trajectory_done(d);

    sweep::cell_report& cr = rep_->cells[cell];
    ++cr.trajectories;
    cr.steps += steps;
    ++done_in_cell_[cell];
    sink_->cell_progress(cell, done_in_cell_[cell], cfg_->num_trajectories);
    if (done_in_cell_[cell] == cfg_->num_trajectories) {
      // Every sample of the cell is already ingested (a lane retires only
      // after its final quantum's samples were gathered), so every point
      // is folded and the completion event carries final data.
      (*reducers_)[cell].finish();
      sink_->cell_done(cell);
    }
  }

 private:
  const sim_config* cfg_;
  sweep::report* rep_;
  std::vector<cell_reducer>* reducers_;
  event_sink* sink_;
  std::vector<std::uint64_t> done_in_cell_;
};

/// Scalar farm path: one engine per (cell, trajectory) advanced in
/// quantum-lockstep rounds over the worker pool, with the deterministic
/// sequential gather between rounds (the batched driver's structure, per
/// engine instead of per SoA batch).
void run_farm(const std::vector<std::shared_ptr<const cwc::compiled_model>>&
                  overlays,
              const sim_config& cfg, std::vector<cell_reducer>& reducers,
              campaign_state& state, event_sink& sink, sweep::report& rep) {
  struct scalar_lane {
    any_engine eng;
    std::uint32_t cell = 0;
    std::uint64_t traj = 0;
    std::uint64_t quanta = 0;
    quantum_outcome out;
    std::uint8_t retired = 0;
  };
  std::vector<scalar_lane> lanes;
  lanes.reserve(overlays.size() * cfg.num_trajectories);
  for (std::uint32_t c = 0; c < overlays.size(); ++c)
    for (std::uint64_t i = 0; i < cfg.num_trajectories; ++i)
      lanes.push_back({any_engine(overlays[c], cfg.seed, i), c, i, 0, {}, 0});

  ff::parallel_for pool(std::max<unsigned>(
      1, std::min<unsigned>(cfg.sim_workers,
                            static_cast<unsigned>(lanes.size()))));
  std::size_t live = lanes.size();
  while (live > 0 && !sink.stop_requested()) {
    pool.for_each(0, static_cast<std::int64_t>(lanes.size()), 0,
                  [&](std::int64_t li) {
                    scalar_lane& L = lanes[static_cast<std::size_t>(li)];
                    if (L.retired != 0) return;
                    L.out = advance_one_quantum(L.eng, cfg, L.traj, L.quanta);
                    ++L.quanta;
                  });
    // Sequential cell-major gather: reductions see the same stream on
    // every worker count.
    for (scalar_lane& L : lanes) {
      if (L.retired != 0) continue;
      for (const cwc::trajectory_sample& s : L.out.batch.samples)
        reducers[L.cell].ingest(L.traj, s);
      if (L.out.finished) {
        L.retired = 1;
        --live;
        state.lane_done(L.cell, L.traj, L.out.done.quanta, L.out.done.steps);
      }
    }
  }
  rep.stopped = live > 0;
}

/// Batched path: the campaign's global cell-major lane list is sliced into
/// multi-cell SoA batch engines of batch_width lanes — slices cross cell
/// boundaries, so lanes of different parameter cells share strips and
/// shape-family pools and the wide kernels vectorize across the sweep.
void run_batched(const std::vector<std::shared_ptr<const cwc::compiled_model>>&
                     overlays,
                 const sim_config& cfg, std::size_t batch_width,
                 std::vector<cell_reducer>& reducers, campaign_state& state,
                 event_sink& sink, sweep::report& rep) {
  using cwc::batch::batch_engine;
  std::vector<batch_engine::lane_desc> all;
  all.reserve(overlays.size() * cfg.num_trajectories);
  for (std::uint32_t c = 0; c < overlays.size(); ++c)
    for (std::uint64_t i = 0; i < cfg.num_trajectories; ++i)
      all.push_back({i, c});

  struct batch_group {
    std::unique_ptr<batch_engine> eng;
    std::vector<std::vector<cwc::trajectory_sample>> samples;
    std::vector<std::uint8_t> retired;
    std::size_t live = 0;
  };
  std::vector<batch_group> groups;
  for (std::size_t first = 0; first < all.size(); first += batch_width) {
    const std::size_t w = std::min(batch_width, all.size() - first);
    batch_group g;
    g.eng = std::make_unique<batch_engine>(
        overlays, cfg.seed,
        std::vector<batch_engine::lane_desc>(all.begin() + first,
                                             all.begin() + first + w));
    g.samples.resize(w);
    g.retired.assign(w, 0);
    g.live = w;
    groups.push_back(std::move(g));
  }

  ff::parallel_for pool(std::max<unsigned>(
      1, std::min<unsigned>(cfg.sim_workers,
                            static_cast<unsigned>(groups.size()))));
  std::size_t live = all.size();
  std::uint64_t rounds = 0;
  while (live > 0 && !sink.stop_requested()) {
    pool.for_each(0, static_cast<std::int64_t>(groups.size()), 1,
                  [&](std::int64_t gi) {
                    batch_group& g = groups[static_cast<std::size_t>(gi)];
                    if (g.live == 0) return;
                    for (auto& s : g.samples) s.clear();
                    g.eng->step_quantum(cfg.quantum, cfg.t_end,
                                        cfg.sample_period, g.samples);
                  });
    ++rounds;
    for (batch_group& g : groups) {
      if (g.live == 0) continue;
      for (std::size_t i = 0; i < g.samples.size(); ++i)
        for (const cwc::trajectory_sample& s : g.samples[i])
          reducers[g.eng->lane_cell(i)].ingest(g.eng->lane_id(i), s);
      for (std::size_t i = 0; i < g.samples.size(); ++i) {
        if (g.retired[i] != 0 || g.eng->time(i) < cfg.t_end) continue;
        g.retired[i] = 1;
        --g.live;
        --live;
        state.lane_done(g.eng->lane_cell(i), g.eng->lane_id(i), rounds,
                        g.eng->steps(i));
      }
    }
  }
  rep.stopped = live > 0;
}

sweep::report run_campaign(model_ref model, const sim_config& cfg,
                           const multicore& mc, const sweep::plan& p,
                           event_sink& sink) {
  model.compile();  // the campaign's ONE compile
  const std::vector<sweep::cell_decl> cells = p.cells();

  std::vector<std::shared_ptr<const cwc::compiled_model>> overlays;
  overlays.reserve(cells.size());
  try {
    for (const sweep::cell_decl& c : cells)
      overlays.push_back(
          cwc::compiled_model::overlay(model.compiled, c.overrides));
  } catch (const cwc::overlay_error& e) {
    throw config_error("sweep.overlay", e.what());
  }

  sweep::report rep;
  rep.observables = observable_names(*model.compiled);
  rep.cells.resize(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    rep.cells[i].overrides = cells[i].overrides;

  const std::size_t obs = model.num_observables();
  std::vector<cell_reducer> reducers;
  reducers.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    reducers.emplace_back(cfg, obs, rep.cells[i]);
  campaign_state state(cfg, rep, reducers, sink);

  const bool batched = mc.batch_width > 1 && !cfg.capture_trace &&
                       cwc::batch::batch_engine::supports(*model.compiled);
  if (batched) {
    run_batched(overlays, cfg, mc.batch_width, reducers, state, sink, rep);
  } else {
    run_farm(overlays, cfg, reducers, state, sink, rep);
  }
  return rep;
}

}  // namespace

void validate(const sim_config& cfg, const backend& b, const sweep::plan& p) {
  validate(cfg, b);
  if (!std::holds_alternative<multicore>(b)) {
    throw config_error("backend",
                       "sweep campaigns run on the multicore backend");
  }
  for (std::size_t i = 0; i < p.axes().size(); ++i) {
    const sweep::axis_decl& a = p.axes()[i];
    if (a.rate.empty())
      throw config_error("sweep.axis", "axis with an empty rate name");
    if (a.values.empty())
      throw config_error("sweep.axis",
                         "axis '" + a.rate + "' has no values");
    for (std::size_t j = 0; j < i; ++j) {
      if (p.axes()[j].rate == a.rate)
        throw config_error("sweep.axis", "duplicate axis '" + a.rate + "'");
    }
  }
  if (p.num_cells() == 0) {
    throw config_error("sweep.plan",
                       "plan has no parameter cells (add an axis or a cell)");
  }
  // Duplicate cells would silently double a parameter point's weight in
  // the campaign; compare override lists canonicalized by rate name.
  std::vector<std::vector<sweep::rate_override>> canon;
  canon.reserve(p.num_cells());
  for (const sweep::cell_decl& c : p.cells()) {
    canon.push_back(c.overrides);
    std::sort(canon.back().begin(), canon.back().end());
  }
  std::sort(canon.begin(), canon.end());
  if (std::adjacent_find(canon.begin(), canon.end()) != canon.end())
    throw config_error("sweep.cells", "duplicate parameter cell");
}

sweep::report sweep_builder::run() const {
  util::expects(model_.tree != nullptr || model_.flat != nullptr,
                "sweep_builder requires a model");
  validate(cfg_, backend_, plan_);
  const multicore* mc = std::get_if<multicore>(&backend_);
  forwarding_sink fs(sink_, progress_cb_, done_cb_);
  return run_campaign(model_, cfg_, *mc, plan_, fs);
}

sweep::report run_sweep(const cwc::model& m, const sim_config& cfg,
                        const sweep::plan& p, const backend& b) {
  return sweep_builder().model(m).config(cfg).backend(b).plan(p).run();
}

sweep::report run_sweep(const cwc::reaction_network& n, const sim_config& cfg,
                        const sweep::plan& p, const backend& b) {
  return sweep_builder().model(n).config(cfg).backend(b).plan(p).run();
}

}  // namespace cwcsim
