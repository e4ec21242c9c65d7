#include "replay.hpp"

#include <functional>
#include <memory>

#include "core/alignment.hpp"
#include "core/quantum.hpp"
#include "cwc/batch/batch_engine.hpp"
#include "des/des.hpp"
#include "dist/model_codec.hpp"
#include "stats/quantile.hpp"
#include "svc/svc.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {

namespace {

/// Spans of the replay live on their own track in the Chrome trace.
constexpr std::uint64_t kReplayTrack = 1000000;

/// Busy time and work units of one layer.
struct layer {
  std::int64_t ns = 0;
  std::uint64_t units = 0;
  double per_unit_ns() const {
    return units > 0 ? static_cast<double>(ns) / static_cast<double>(units)
                     : 0.0;
  }
  double seconds() const { return static_cast<double>(ns) * 1e-9; }
};

/// The replay's per-layer ledger.
struct ledger {
  layer compile;      ///< cwc: compiled_model::compile (and model frames)
  layer engine;       ///< cwc: advance_one_quantum, units = SSA steps
  layer batch_build;  ///< cwc.batch: batch_engine construction
  layer batch;        ///< cwc.batch: step_quantum, units = lane steps
  layer align;        ///< core: cut_assembler::ingest, units = samples
  layer window;       ///< core: sliding_window_builder, units = windows
  layer summarize;    ///< stats: summarize_cut / cell folds, units = cuts
  layer kmeans;       ///< stats: kmeans, units = cuts
  layer overlay;      ///< sweep: compiled_model::overlay, units = cells
  layer proto;        ///< svc: open frame encode/decode
  layer cache;        ///< svc: model_cache::get_or_compile
  layer encode;       ///< svc: encode_window, units = windows
  layer decode;       ///< svc: read_window, units = windows
  std::uint64_t quanta = 0;  ///< advance_one_quantum calls
  double live_lanes = 0.0;  ///< sum over step_quantum calls
  double lane_slots = 0.0;  ///< sum of widths over the same calls
  std::uint64_t shape_classes = 0;

  double analysis_s() const {
    return align.seconds() + window.seconds() + summarize.seconds() +
           kmeans.seconds();
  }
  double busy_s() const {
    return compile.seconds() + engine.seconds() + batch_build.seconds() +
           batch.seconds() + analysis_s() + overlay.seconds() +
           proto.seconds() + cache.seconds() + encode.seconds() +
           decode.seconds();
  }
};

/// Time `f()` into `l` (adding `units`) and record a span for it.
template <typename F>
void timed(layer& l, std::uint64_t units, tracer* tr, const char* name,
           std::uint64_t parent, F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  const std::int64_t t1 = now_ns();
  l.ns += t1 - t0;
  l.units += units;
  if (tr != nullptr) tr->record(name, t0, t1, parent, kReplayTrack);
}

/// cut_assembler -> sliding_window_builder, timed per call; completed
/// windows go to `consume`, whose time is not charged to align/window.
class analysis_replay {
 public:
  using consumer = std::function<void(const stats::trajectory_window&)>;

  analysis_replay(const cwcsim::sim_config& cfg, std::size_t observables,
                  ledger& lg, tracer* tr, std::uint64_t parent,
                  consumer consume)
      : assembler_(cfg, observables),
        builder_(cfg.window_size, cfg.window_slide),
        lg_(&lg),
        tr_(tr),
        parent_(parent),
        consume_(std::move(consume)) {}

  void ingest(std::uint64_t trajectory,
              const std::vector<cwc::trajectory_sample>& samples) {
    const std::int64_t t0 = now_ns();
    const std::int64_t nested0 = nested_ns_;
    for (const auto& s : samples)
      assembler_.ingest(trajectory, s, [this](stats::trajectory_cut&& cut) {
        on_cut(std::move(cut));
      });
    const std::int64_t t1 = now_ns();
    lg_->align.ns += (t1 - t0) - (nested_ns_ - nested0);
    lg_->align.units += samples.size();
    if (tr_ != nullptr) tr_->record("core.align", t0, t1, parent_, kReplayTrack);
  }

  /// Flush the trailing partial window; true when no cut was left behind.
  bool finish() {
    std::vector<stats::trajectory_window> ws;
    timed(lg_->window, 0, tr_, "core.window", parent_,
          [&] { ws = builder_.flush(); });
    lg_->window.units += ws.size();
    for (const auto& w : ws) consume_(w);
    return assembler_.drained();
  }

 private:
  void on_cut(stats::trajectory_cut&& cut) {
    const std::int64_t t0 = now_ns();
    std::vector<stats::trajectory_window> ws;
    timed(lg_->window, 0, tr_, "core.window", parent_,
          [&] { ws = builder_.push(std::move(cut)); });
    lg_->window.units += ws.size();
    for (const auto& w : ws) consume_(w);
    nested_ns_ += now_ns() - t0;
  }

  cwcsim::cut_assembler assembler_;
  stats::sliding_window_builder builder_;
  ledger* lg_;
  tracer* tr_;
  std::uint64_t parent_;
  consumer consume_;
  std::int64_t nested_ns_ = 0;
};

/// The window summary every backend's statistical engine computes, with
/// summarize_cut and kmeans timed apart (summarize_cut(cut, k, seed) is
/// exactly summarize_cut(cut, 0, seed) plus kmeans(cut.values, k, seed)).
cwcsim::window_summary summarize_window(const stats::trajectory_window& w,
                                        const cwcsim::sim_config& cfg,
                                        ledger& lg, tracer* tr,
                                        std::uint64_t parent) {
  cwcsim::window_summary s;
  s.first_sample = w.first_sample;
  s.cuts.reserve(w.cuts.size());
  const std::uint64_t span =
      tr != nullptr ? tr->open("stats.window", parent, kReplayTrack) : 0;
  for (const auto& cut : w.cuts) {
    // Per-cut calls are timed without spans of their own: the window
    // span above keeps the trace small enough to load in a viewer.
    stats::cut_summary cs;
    timed(lg.summarize, 1, nullptr, nullptr, 0,
          [&] { cs = stats::summarize_cut(cut, 0, cfg.seed); });
    if (cfg.kmeans_k > 0)
      timed(lg.kmeans, 1, nullptr, nullptr, 0, [&] {
        cs.clusters = stats::kmeans(cut.values, cfg.kmeans_k, cfg.seed);
      });
    s.cuts.push_back(std::move(cs));
  }
  if (tr != nullptr) tr->close(span);
  return s;
}

/// Scalar engines advanced one quantum per trajectory per round (the
/// farm's feedback order), each quantum's samples ingested at once.
void replay_scalar(const std::shared_ptr<const cwc::compiled_model>& cm,
                   const cwcsim::sim_config& cfg, analysis_replay& an,
                   ledger& lg, tracer* tr, std::uint64_t parent) {
  std::vector<cwcsim::any_engine> engines;
  engines.reserve(cfg.num_trajectories);
  for (std::uint64_t i = 0; i < cfg.num_trajectories; ++i)
    engines.emplace_back(cm, cfg.seed, i);
  std::vector<std::uint8_t> done(cfg.num_trajectories, 0);
  std::uint64_t live = cfg.num_trajectories;
  for (std::uint64_t q = 0; live > 0; ++q) {
    for (std::uint64_t i = 0; i < cfg.num_trajectories; ++i) {
      if (done[i] != 0) continue;
      cwcsim::quantum_outcome o;
      timed(lg.engine, 0, tr, "cwc.engine.quantum", parent, [&] {
        o = cwcsim::advance_one_quantum(engines[i], cfg, i, q);
      });
      lg.engine.units += o.record.ssa_steps;
      ++lg.quanta;
      an.ingest(i, o.batch.samples);
      if (o.finished) {
        done[i] = 1;
        --live;
      }
    }
  }
}

/// batch_engine groups stepped quantum-lockstep, as the batched driver
/// and the sweep campaign slice them. `lanes` lists (trajectory, cell).
template <typename Ingest, typename Retire>
void replay_batched(
    const std::vector<std::shared_ptr<const cwc::compiled_model>>& cells,
    const std::vector<cwc::batch::batch_engine::lane_desc>& lanes,
    const cwcsim::sim_config& cfg, std::size_t width, ledger& lg, tracer* tr,
    std::uint64_t parent, Ingest&& ingest, Retire&& retire) {
  using cwc::batch::batch_engine;
  struct group {
    std::unique_ptr<batch_engine> eng;
    std::vector<std::vector<cwc::trajectory_sample>> samples;
    std::vector<std::uint8_t> retired;
    std::size_t live = 0;
  };
  std::vector<group> groups;
  for (std::size_t first = 0; first < lanes.size(); first += width) {
    const std::size_t w = std::min(width, lanes.size() - first);
    group g;
    timed(lg.batch_build, 0, tr, "cwc.batch.build", parent, [&] {
      // One cell: the single-model form the batched driver constructs.
      g.eng = cells.size() == 1
                  ? std::make_unique<batch_engine>(
                        cells[0], cfg.seed, lanes[first].trajectory_id, w)
                  : std::make_unique<batch_engine>(
                        cells, cfg.seed,
                        std::vector<batch_engine::lane_desc>(
                            lanes.begin() + first, lanes.begin() + first + w));
    });
    g.samples.resize(w);
    g.retired.assign(w, 0);
    g.live = w;
    groups.push_back(std::move(g));
  }
  std::size_t live = lanes.size();
  while (live > 0) {
    for (group& g : groups) {
      if (g.live == 0) continue;
      std::uint64_t before = 0;
      for (std::size_t i = 0; i < g.samples.size(); ++i) {
        before += g.eng->steps(i);
        g.samples[i].clear();
      }
      timed(lg.batch, 0, tr, "cwc.batch.step_quantum", parent, [&] {
        g.eng->step_quantum(cfg.quantum, cfg.t_end, cfg.sample_period,
                            g.samples);
      });
      std::uint64_t after = 0;
      for (std::size_t i = 0; i < g.samples.size(); ++i) after += g.eng->steps(i);
      lg.batch.units += after - before;
      lg.live_lanes += static_cast<double>(g.live);
      lg.lane_slots += static_cast<double>(g.eng->width());
    }
    for (group& g : groups) {
      if (g.live == 0) continue;
      for (std::size_t i = 0; i < g.samples.size(); ++i)
        ingest(*g.eng, i, g.samples[i]);
      for (std::size_t i = 0; i < g.samples.size(); ++i) {
        if (g.retired[i] != 0 || g.eng->time(i) < cfg.t_end) continue;
        g.retired[i] = 1;
        --g.live;
        --live;
        retire(*g.eng, i);
      }
    }
  }
  for (const group& g : groups) lg.shape_classes += g.eng->num_shape_classes();
}

/// The ledger's shared ratios against the end-to-end run.
metric_values ledger_metrics(const ledger& lg, const e2e_reference& ref) {
  metric_values v;
  const double busy = lg.busy_s();
  v["cwc.engine.ns_per_step"] = lg.engine.per_unit_ns();
  v["cwc.engine.steps"] = static_cast<double>(lg.engine.units);
  v["cwc.engine.quanta"] = static_cast<double>(lg.quanta);
  v["cwc.batch.ns_per_lane_step"] = lg.batch.per_unit_ns();
  v["cwc.batch.live_lane_frac"] =
      lg.lane_slots > 0 ? lg.live_lanes / lg.lane_slots : 0.0;
  v["cwc.batch.shape_classes"] = static_cast<double>(lg.shape_classes);
  v["core.align.ns_per_sample"] = lg.align.per_unit_ns();
  v["core.window.ns_per_window"] = lg.window.per_unit_ns();
  v["stats.summarize.ns_per_cut"] = lg.summarize.per_unit_ns();
  v["stats.kmeans.share"] = busy > 0 ? lg.kmeans.seconds() / busy : 0.0;
  v["core.analysis.busy_frac"] = lg.analysis_s() / ref.wall_s;
  v["pipeline.replay_busy_s"] = busy;
  v["pipeline.e2e_cpu_s"] = ref.cpu_s;
  v["pipeline.speedup"] = busy / ref.wall_s;
  v["pipeline.unaccounted_frac"] = ref.cpu_s > 0 ? 1.0 - busy / ref.cpu_s : 0.0;
  v["svc.proto.encode_window_ns"] = lg.encode.per_unit_ns();
  v["svc.proto.decode_window_ns"] = lg.decode.per_unit_ns();
  v["sweep.overlay_us"] = lg.overlay.per_unit_ns() * 1e-3;
  return v;
}

}  // namespace

metric_values replay_paper(const cwc::model& m, const cwcsim::sim_config& cfg,
                           bool batched, std::uint64_t expect_digest,
                           const e2e_reference& ref, checks& chk, tracer* tr) {
  ledger lg;
  const std::uint64_t root = tr != nullptr ? tr->open("replay", 0, kReplayTrack) : 0;
  std::shared_ptr<const cwc::compiled_model> cm;
  timed(lg.compile, 1, tr, "cwc.compile", root,
        [&] { cm = cwc::compiled_model::compile(m); });

  std::vector<cwcsim::window_summary> windows;
  analysis_replay an(cfg, cm->num_observables(), lg, tr, root,
                     [&](const stats::trajectory_window& w) {
                       windows.push_back(summarize_window(w, cfg, lg, tr, root));
                     });
  if (batched) {
    std::vector<cwc::batch::batch_engine::lane_desc> lanes;
    for (std::uint64_t i = 0; i < cfg.num_trajectories; ++i) lanes.push_back({i, 0});
    replay_batched({cm}, lanes, cfg, kBatchWidth, lg, tr, root,
                   [&](const cwc::batch::batch_engine& e, std::size_t lane,
                       const std::vector<cwc::trajectory_sample>& s) {
                     an.ingest(e.lane_id(lane), s);
                   },
                   [](const cwc::batch::batch_engine&, std::size_t) {});
  } else {
    replay_scalar(cm, cfg, an, lg, tr, root);
  }
  chk.require(an.finish(), "replay: alignment buffer not drained");
  if (tr != nullptr) tr->close(root);
  chk.require(window_digest(windows) == expect_digest,
              "replay: window digest differs from the end-to-end run");
  return ledger_metrics(lg, ref);
}

metric_values replay_sessions(const std::vector<session_record>& sessions,
                              const e2e_reference& ref, checks& chk,
                              tracer* tr) {
  ledger lg;
  svc::model_cache cache;
  bool all_match = true;
  for (const session_record& s : sessions) {
    const std::uint64_t root =
        tr != nullptr ? tr->open("replay.session", 0, kReplayTrack) : 0;
    // Client side: run_builder::open() compiles, the driver encodes the
    // model and the open frame; server side: decode, cache lookup.
    cwcsim::model_ref mr;
    mr.tree = s.model;
    timed(lg.compile, 1, tr, "cwc.compile", root, [&] { mr.compile(); });
    svc::open_request rq;
    timed(lg.proto, 1, tr, "svc.proto.open", root, [&] {
      rq.cfg = s.cfg;
      rq.model_frame = dist::encode_model(mr);
      const dist::byte_buffer frame = svc::encode_open(rq);
      dist::archive_reader r(frame);
      (void)svc::read_frame_header(r);
      rq = svc::read_open(r);
    });
    std::shared_ptr<const cwc::compiled_model> cm;
    timed(lg.cache, 1, tr, "svc.cache", root,
          [&] { cm = cache.get_or_compile(rq.model_frame); });

    std::vector<cwcsim::window_summary> received;
    std::uint64_t seq = 0;
    analysis_replay an(
        s.cfg, cm->num_observables(), lg, tr, root,
        [&](const stats::trajectory_window& w) {
          const cwcsim::window_summary sum =
              summarize_window(w, s.cfg, lg, tr, root);
          dist::byte_buffer frame;
          timed(lg.encode, 1, tr, "svc.proto.encode_window", root,
                [&] { frame = svc::encode_window(seq++, sum); });
          timed(lg.decode, 1, tr, "svc.proto.decode_window", root, [&] {
            dist::archive_reader r(frame);
            (void)svc::read_frame_header(r);
            received.push_back(svc::read_window(r).window);
          });
        });
    replay_scalar(cm, s.cfg, an, lg, tr, root);
    chk.require(an.finish(), "replay: session alignment buffer not drained");
    if (tr != nullptr) tr->close(root);
    all_match = all_match && window_digest(received) == s.digest;
  }
  chk.require(all_match, "replay: a session digest differs from its run");
  return ledger_metrics(lg, ref);
}

metric_values replay_sweep(const cwc::model& m, const cwcsim::sim_config& cfg,
                           const cwcsim::sweep::plan& plan,
                           const std::string& expect_json,
                           const e2e_reference& ref, checks& chk, tracer* tr) {
  ledger lg;
  const std::uint64_t root = tr != nullptr ? tr->open("replay", 0, kReplayTrack) : 0;
  std::shared_ptr<const cwc::compiled_model> cm;
  timed(lg.compile, 1, tr, "cwc.compile", root,
        [&] { cm = cwc::compiled_model::compile(m); });
  const std::vector<cwcsim::sweep::cell_decl> cells = plan.cells();
  std::vector<std::shared_ptr<const cwc::compiled_model>> overlays;
  for (const auto& c : cells)
    timed(lg.overlay, 1, tr, "sweep.overlay", root, [&] {
      overlays.push_back(cwc::compiled_model::overlay(cm, c.overrides));
    });

  cwcsim::sweep::report rep;
  for (const cwc::observable& o : cm->tree()->observables())
    rep.observables.push_back(o.name);
  rep.cells.resize(cells.size());
  const std::size_t obs = cm->num_observables();

  // The campaign's per-cell fold: each newly completed cut folds once
  // into Welford moments and P2 quantiles (sweep/campaign.cpp).
  std::vector<std::unique_ptr<analysis_replay>> reducers;
  std::vector<std::uint64_t> next_fold(cells.size(), 0);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    rep.cells[c].overrides = cells[c].overrides;
    reducers.push_back(std::make_unique<analysis_replay>(
        cfg, obs, lg, tr, root, [&, c](const stats::trajectory_window& w) {
          for (const stats::trajectory_cut& cut : w.cuts) {
            if (cut.sample_index < next_fold[c]) continue;
            next_fold[c] = cut.sample_index + 1;
            timed(lg.summarize, 1, tr, "stats.fold", root, [&] {
              cwcsim::sweep::point_summary p;
              p.sample_index = cut.sample_index;
              p.time = cut.time;
              p.observables.resize(obs);
              for (std::size_t d = 0; d < obs; ++d) {
                cwcsim::sweep::observable_summary& os = p.observables[d];
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
              rep.cells[c].points.push_back(std::move(p));
            });
          }
        }));
  }

  std::vector<cwc::batch::batch_engine::lane_desc> lanes;
  for (std::uint32_t c = 0; c < cells.size(); ++c)
    for (std::uint64_t i = 0; i < cfg.num_trajectories; ++i) lanes.push_back({i, c});
  replay_batched(overlays, lanes, cfg, kBatchWidth, lg, tr, root,
                 [&](const cwc::batch::batch_engine& e, std::size_t lane,
                     const std::vector<cwc::trajectory_sample>& s) {
                   reducers[e.lane_cell(lane)]->ingest(e.lane_id(lane), s);
                 },
                 [&](const cwc::batch::batch_engine& e, std::size_t lane) {
                   cwcsim::sweep::cell_report& cr = rep.cells[e.lane_cell(lane)];
                   ++cr.trajectories;
                   cr.steps += e.steps(lane);
                 });
  for (auto& r : reducers)
    chk.require(r->finish(), "replay: sweep cell not drained");
  if (tr != nullptr) tr->close(root);
  chk.require(rep.to_json() == expect_json,
              "replay: sweep report differs from the end-to-end run");
  return ledger_metrics(lg, ref);
}

metric_values des_check(const cwc::model& m, const cwcsim::sim_config& cfg,
                        double measured_wall_s) {
  cwcsim::model_ref mr;
  mr.tree = &m;
  mr.compile();
  const des::calibration cal = des::calibrate(mr, cfg);
  const des::workload w = des::capture_workload(mr, cfg);
  des::host_spec host;
  host.name = "this-host";
  host.cores = host_cores();
  des::farm_params fp;
  fp.sim_workers = cfg.sim_workers;
  fp.stat_engines = cfg.stat_engines;
  fp.window_size = cfg.window_size;
  fp.window_slide = cfg.window_slide;
  const des::sim_outcome o = des::simulate_multicore(w, cal, host, fp);
  return {{"des.predicted_wall_s", o.makespan_s},
          {"des.residual_frac", (o.makespan_s - measured_wall_s) / measured_wall_s}};
}

}  // namespace perfbench
