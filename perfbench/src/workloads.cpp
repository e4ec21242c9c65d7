#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/cwcsim.hpp"
#include "models/models.hpp"
#include "replay.hpp"
#include "svc/svc.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {

// ------------------------------------------------------------------ checks

void checks::operation(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

void checks::require(bool ok, const std::string& what) {
  if (ok) return;
  harness_ok_ = false;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

// ------------------------------------------------------------------ tables

const std::vector<metric_decl>& end_to_end_metrics() {
  static const std::vector<metric_decl> t = {
      {"steps_per_s", "1/s"},        {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},        {"session_p50_s", "s"},
      {"session_p95_s", "s"},        {"first_window_p50_s", "s"},
  };
  return t;
}

const std::vector<metric_decl>& per_layer_metrics() {
  static const std::vector<metric_decl> t = {
      {"cwc.compile_ms", "ms"},
      {"cwc.engine.ns_per_step", "ns"},
      {"cwc.engine.steps", "count"},
      {"cwc.engine.quanta", "count"},
      {"cwc.batch.ns_per_lane_step", "ns"},
      {"cwc.batch.live_lane_frac", "frac"},
      {"cwc.batch.shape_classes", "count"},
      {"core.align.ns_per_sample", "ns"},
      {"core.window.ns_per_window", "ns"},
      {"stats.summarize.ns_per_cut", "ns"},
      {"stats.kmeans.share", "frac"},
      {"core.analysis.busy_frac", "frac"},
      {"pipeline.replay_busy_s", "s"},
      {"pipeline.e2e_cpu_s", "s"},
      {"pipeline.speedup", "x"},
      {"pipeline.unaccounted_frac", "frac"},
      {"svc.proto.encode_window_ns", "ns"},
      {"svc.proto.decode_window_ns", "ns"},
      {"svc.cache.hit_frac", "frac"},
      {"svc.quanta_accepted", "count"},
      {"svc.quanta_retried", "count"},
      {"svc.sessions_shed", "count"},
      {"svc.downlink.bytes_per_session", "B"},
      {"loadgen.late_p95_s", "s"},
      {"sweep.overlay_us", "us"},
      {"des.predicted_wall_s", "s"},
      {"des.residual_frac", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return t;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> n = {"paper_farm", "paper_batched",
                                             "tenants_open", "sweep_grid"};
  return n;
}

// ---------------------------------------------------------- configurations

unsigned host_cores() {
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

/// The paper's Fig. 2 configuration (Neurospora, tau 0.25, quantum 2.5,
/// window 16 / slide 1, k-means k=2) on the farm or the batched driver.
cwcsim::sim_config paper_config(std::uint64_t seed, bool batched) {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 256;
  cfg.t_end = 40.0;
  cfg.sample_period = 0.25;
  cfg.quantum = 2.5;
  cfg.seed = seed;
  cfg.sim_workers = batched ? host_cores() : std::max(1u, host_cores() - 1);
  cfg.stat_engines = 1;
  cfg.window_size = 16;
  cfg.window_slide = 1;
  cfg.kmeans_k = 2;
  return cfg;
}

/// One tenants_open session: 8 trajectories, slide 4, no k-means. The
/// quantum is 10 (3 quanta per trajectory): with the paper's 2.5, each
/// session is a chain of ~100 thread hand-offs, and its latency followed
/// host scheduling noise (run-to-run spread up to 3x that at quantum 10,
/// measured interleaved on a shared 4-core host).
cwcsim::sim_config session_config(std::uint64_t session_seed) {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 8;
  cfg.t_end = 30.0;
  cfg.sample_period = 0.25;
  cfg.quantum = 10.0;
  cfg.seed = session_seed;
  cfg.sim_workers = 1;  // the reference run; the server uses its own pool
  cfg.stat_engines = 1;
  cfg.window_size = 16;
  cfg.window_slide = 4;
  cfg.kmeans_k = 0;
  return cfg;
}

/// The sweep_grid campaign: compartment_demo (a0 = 1000) on a 3 x 3
/// grow x burst grid, N = 64 trajectories per cell, no k-means.
cwcsim::sim_config sweep_config(std::uint64_t seed) {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 64;
  cfg.t_end = 20.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 2.5;
  cfg.seed = seed;
  cfg.sim_workers = host_cores();
  cfg.stat_engines = 1;
  cfg.window_size = 8;
  cfg.window_slide = 8;
  cfg.kmeans_k = 0;
  return cfg;
}

cwcsim::sweep::plan sweep_plan() {
  return cwcsim::sweep::plan()
      .axis("grow", {0.5, 1.0, 2.0})
      .axis("burst", {0.25, 0.5, 1.0});
}

cwc::model sweep_model() {
  models::compartment_demo_params p;
  p.a0 = 1000;
  return models::make_compartment_demo(p);
}

/// Windows a complete run emits: full windows plus one trailing partial.
std::uint64_t expected_windows(const cwcsim::sim_config& cfg) {
  const std::uint64_t s = cfg.num_samples();
  const std::uint64_t full =
      s >= cfg.window_size ? (s - cfg.window_size) / cfg.window_slide + 1 : 0;
  return full + (s > full * cfg.window_slide ? 1 : 0);
}

/// Set-up repetitions: kSetupReps before the warm-up, then kSetupReps
/// more after every timed run, so the median spans the whole measurement
/// and sees the same machine as the timed runs.
constexpr int kSetupReps = 5;
constexpr std::size_t kMinRuns = 3;
/// Fresh-process runs whose peak RSS median is peak_rss_mb.
constexpr int kRssRuns = 9;

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// Problems found in one operation's output; empty means it passed.
class verdict {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    if (!text_.empty()) text_ += "; ";
    text_ += what;
  }
  bool ok() const noexcept { return text_.empty(); }
  const std::string& text() const noexcept { return text_; }

 private:
  std::string text_;
};

/// Each trajectory id in [0, n) completed exactly once.
bool exactly_once(const std::vector<cwcsim::task_done>& done, std::uint64_t n) {
  if (done.size() != n) return false;
  std::vector<std::uint8_t> seen(n, 0);
  for (const auto& d : done) {
    if (d.trajectory_id >= n || seen[d.trajectory_id] != 0) return false;
    seen[d.trajectory_id] = 1;
  }
  return true;
}

/// Every cut of every window summarizes all n trajectories.
bool full_cuts(const std::vector<cwcsim::window_summary>& ws, std::uint64_t n) {
  for (const auto& w : ws)
    for (const auto& c : w.cuts)
      for (const auto& m : c.moments)
        if (m.count() != n) return false;
  return true;
}

/// Checks shared by every window-streaming run.
void check_stream(verdict& v, const cwcsim::run_report& rep,
                  const cwcsim::sim_config& cfg) {
  const auto& ws = rep.result.windows;
  v.expect(!rep.stopped, "run reported stopped");
  v.expect(exactly_once(rep.result.completions, cfg.num_trajectories),
           "trajectories did not complete exactly once");
  v.expect(ws.size() == expected_windows(cfg),
           "window count " + std::to_string(ws.size()) + " != expected " +
               std::to_string(expected_windows(cfg)));
  v.expect(full_cuts(ws, cfg.num_trajectories),
           "a cut does not cover every trajectory");
  v.expect(windows_finite(ws), "non-finite moment in a window");
}

std::uint64_t total_steps(const std::vector<cwcsim::task_done>& done) {
  std::uint64_t s = 0;
  for (const auto& d : done) s += d.steps;
  return s;
}

/// One timed batch run.
struct run_sample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double first_result_s = 0.0;  ///< start -> first window / finished cell
  std::uint64_t steps = 0;
  std::vector<double> done_s;   ///< start -> each trajectory's completion
};

/// Median of one field over a set of runs.
template <typename F>
double median_of(const std::vector<run_sample>& runs, F field) {
  std::vector<double> v;
  v.reserve(runs.size());
  for (const auto& r : runs) v.push_back(field(r));
  return median(v);
}

/// A batch workload as the timing loop sees it: `run(tr, track)` executes
/// and checks one run; `cross_check()` runs the reference comparison.
struct batch_workload {
  std::function<double()> setup_once;       ///< seconds of one set-up
  std::function<double()> compile_ms_once;  ///< one compiled_model::compile
  std::function<run_sample(tracer*, std::uint64_t)> run;
  std::function<void()> cross_check;
  std::function<metric_values(const e2e_reference&)> replay;
};

void fill_batch_e2e(workload_result& out, const std::vector<double>& setup,
                    const std::vector<run_sample>& runs) {
  std::vector<double> done;
  for (const auto& r : runs) done.insert(done.end(), r.done_s.begin(), r.done_s.end());
  const tail_stat p50 = tail_percentile(done, 50.0);
  const tail_stat p95 = tail_percentile(done, 95.0);
  out.e2e["steps_per_s"] = median_of(runs, [](const run_sample& r) {
    return static_cast<double>(r.steps) / r.wall_s;
  });
  out.e2e["setup_s"] = median(setup);
  out.e2e["session_p50_s"] = p50.value;
  out.e2e["session_p95_s"] = p95.value;
  out.e2e["first_window_p50_s"] =
      median_of(runs, [](const run_sample& r) { return r.first_result_s; });
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "%zu timed runs; trajectory latency p%.1f over %zu samples "
                "(%zu beyond), p%.1f (%zu beyond)",
                runs.size(), p50.percentile, p50.samples, p50.beyond,
                p95.percentile, p95.beyond);
  out.notes.emplace_back(buf);
}

workload_result run_batch(const run_args& a, batch_workload& w, checks& chk,
                          tracer* tr) {
  workload_result out;
  std::vector<double> setup;
  std::vector<double> compile_ms;
  const auto measure_setup = [&] {
    for (int i = 0; i < kSetupReps; ++i) {
      setup.push_back(w.setup_once());
      compile_ms.push_back(w.compile_ms_once());
    }
  };
  measure_setup();
  // peak_rss_mb: the median footprint of one complete run in a fresh
  // process, each run in a child forked before this process starts any
  // thread. One process's peak would fold in allocator retention across
  // repetitions, which depends on thread timing (on paper_farm it grows
  // from ~19 MiB to 27-60 MiB over a measurement), and the cross-check and
  // replay, which are the benchmark's work.
  std::vector<double> rss;
  for (int i = 0; i < kRssRuns; ++i) {
    bool ok = false;
    rss.push_back(child_peak_rss_mb(
        [&] {
          const std::uint64_t failed = chk.failed();
          (void)w.run(nullptr, 0);
          return chk.failed() == failed;
        },
        ok));
    chk.operation(ok, "fresh-process run for peak_rss_mb failed");
  }
  out.e2e["peak_rss_mb"] = median(rss);
  std::string rss_note = "fresh-process peak RSS (MiB):";
  for (const double r : rss) rss_note += " " + std::to_string(r);
  out.notes.push_back(rss_note);
  (void)w.run(nullptr, 0);  // warm-up: first run in the process, untimed

  std::vector<run_sample> plain;
  std::vector<run_sample> traced;
  const std::int64_t t0 = now_ns();
  const auto budget_left = [&] {
    return seconds_between(t0, now_ns()) < a.seconds;
  };
  while (plain.size() < kMinRuns || budget_left()) {
    plain.push_back(w.run(nullptr, 0));
    // Traced runs alternate with untraced ones so drift hits both equally.
    if (a.trace) traced.push_back(w.run(tr, traced.size() + 1));
    measure_setup();
  }
  w.cross_check();
  fill_batch_e2e(out, setup, plain);

  if (a.trace) {
    e2e_reference ref;
    ref.wall_s = median_of(plain, [](const run_sample& r) { return r.wall_s; });
    ref.cpu_s = median_of(plain, [](const run_sample& r) { return r.cpu_s; });
    out.layers = w.replay(ref);
    out.layers["cwc.compile_ms"] = median(compile_ms);
    out.layers["trace.overhead_frac"] =
        median_of(traced, [](const run_sample& r) { return r.wall_s; }) /
            ref.wall_s -
        1.0;
  }
  return out;
}

// ------------------------------------------------------------ paper_* runs

/// One run of the paper pipeline through the session API; checks the
/// stream and, when `expect` is non-zero, its digest.
run_sample paper_run(const cwc::model& m, const cwcsim::sim_config& cfg,
                     const cwcsim::backend& be, std::uint64_t& digest_out,
                     std::uint64_t expect, const std::string& what,
                     checks& chk, tracer* tr, std::uint64_t track) {
  const std::uint64_t root = tr != nullptr ? tr->open("run", 0, track) : 0;
  const std::int64_t open0 = now_ns();
  auto s = cwcsim::run_builder().model(m).config(cfg).backend(be).open();
  if (tr != nullptr) tr->record("open", open0, now_ns(), root, track);

  std::int64_t first_window = -1;
  std::vector<std::int64_t> done;
  done.reserve(cfg.num_trajectories);
  s.on_window([&](const cwcsim::window_summary&) {
    if (first_window < 0) first_window = now_ns();
  });
  s.on_trajectory_done(
      [&](const cwcsim::task_done&) { done.push_back(now_ns()); });

  const double cpu0 = process_cpu_s();
  const std::int64_t start = now_ns();
  s.start();
  cwcsim::run_report rep = s.wait();
  const std::int64_t end = now_ns();

  run_sample r;
  r.cpu_s = process_cpu_s() - cpu0;
  r.wall_s = seconds_between(start, end);
  r.first_result_s = seconds_between(start, first_window);
  r.steps = total_steps(rep.result.completions);
  for (const std::int64_t t : done) r.done_s.push_back(seconds_between(start, t));
  if (tr != nullptr) {
    tr->record("stream", start, end, root, track);
    tr->record("first_window", start, first_window, root, track);
    tr->close(root);
  }

  verdict v;
  check_stream(v, rep, cfg);
  v.expect(first_window >= 0, "no window reached on_window");
  v.expect(done.size() == cfg.num_trajectories,
           "on_trajectory_done count mismatch");
  digest_out = window_digest(rep.result.windows);
  if (expect != 0)
    v.expect(digest_out == expect, "window digest differs from the reference");
  chk.operation(v.ok(), what + ": " + v.text());
  return r;
}

workload_result run_paper(const run_args& a, bool batched, checks& chk,
                          tracer* tr) {
  const cwcsim::sim_config cfg = paper_config(a.seed, batched);
  const cwcsim::backend be =
      batched ? cwcsim::backend(cwcsim::multicore{kBatchWidth})
              : cwcsim::backend(cwcsim::multicore{});
  const cwc::model m = models::make_neurospora_cwc();
  std::uint64_t ref_digest = 0;
  std::uint64_t scratch = 0;
  const std::string name = batched ? "paper_batched" : "paper_farm";

  batch_workload w;
  w.setup_once = [&] {
    const std::int64_t t0 = now_ns();
    const cwc::model built = models::make_neurospora_cwc();
    auto s = cwcsim::run_builder().model(built).config(cfg).backend(be).open();
    return seconds_between(t0, now_ns());
  };
  w.compile_ms_once = [&] {
    const std::int64_t t0 = now_ns();
    auto cm = cwc::compiled_model::compile(m);
    return seconds_between(t0, now_ns()) * 1e3;
  };
  w.run = [&](tracer* t, std::uint64_t track) {
    std::uint64_t d = 0;
    run_sample r =
        paper_run(m, cfg, be, d, ref_digest, name + " run", chk, t, track);
    if (ref_digest == 0) ref_digest = d;  // the warm-up run fixes it
    return r;
  };
  w.cross_check = [&] {
    // The same seed on the other multicore driver must stream the same
    // windows bit for bit (farm <-> batched lanes).
    const cwcsim::sim_config other = paper_config(a.seed, !batched);
    const cwcsim::backend ob =
        batched ? cwcsim::backend(cwcsim::multicore{})
                : cwcsim::backend(cwcsim::multicore{kBatchWidth});
    (void)paper_run(m, other, ob, scratch, ref_digest,
                    name + " cross-driver digest", chk, nullptr, 0);
  };
  w.replay = [&](const e2e_reference& ref) {
    metric_values lv = replay_paper(m, cfg, batched, ref_digest, ref, chk, tr);
    if (!batched) {
      const metric_values des = des_check(m, cfg, ref.wall_s);
      lv.insert(des.begin(), des.end());
    }
    return lv;
  };
  return run_batch(a, w, chk, tr);
}

// -------------------------------------------------------------- sweep_grid

/// Records completion times of a sweep campaign's trajectories and cells.
class timing_sink final : public cwcsim::event_sink {
 public:
  void window(cwcsim::window_summary&&) override {}
  void trajectory_done(const cwcsim::task_done&) override {
    done.push_back(now_ns());
  }
  bool stop_requested() const noexcept override { return false; }
  void cell_done(std::uint32_t) override {
    if (first_cell < 0) first_cell = now_ns();
  }

  std::vector<std::int64_t> done;
  std::int64_t first_cell = -1;
};

workload_result run_sweep_grid(const run_args& a, checks& chk, tracer* tr) {
  const cwcsim::sim_config cfg = sweep_config(a.seed);
  const cwcsim::sweep::plan plan = sweep_plan();
  const cwc::model m = sweep_model();
  const std::size_t cells = plan.num_cells();
  std::string ref_json;

  const auto check_report = [&](const cwcsim::sweep::report& rep,
                                const std::string& json, verdict& v) {
    v.expect(!rep.stopped, "campaign reported stopped");
    v.expect(rep.cells.size() == cells, "cell count mismatch");
    const std::uint64_t points = cfg.num_samples();
    for (const auto& c : rep.cells) {
      v.expect(c.trajectories == cfg.num_trajectories,
               "a cell lost trajectories");
      v.expect(c.points.size() == points, "a cell lost sample points");
      for (const auto& p : c.points)
        for (const auto& o : p.observables)
          v.expect(o.moments.count() == cfg.num_trajectories &&
                       std::isfinite(o.moments.mean()) &&
                       std::isfinite(o.moments.variance()) &&
                       std::isfinite(o.q50),
                   "non-finite or partial fold");
    }
    if (!ref_json.empty())
      v.expect(json == ref_json, "report JSON differs from the reference");
  };

  batch_workload w;
  w.setup_once = [&] {
    // What run_sweep does before its first quantum: build the model,
    // compile it once, expand the plan, overlay every cell.
    const std::int64_t t0 = now_ns();
    const cwc::model built = sweep_model();
    auto cm = cwc::compiled_model::compile(built);
    for (const auto& c : plan.cells())
      (void)cwc::compiled_model::overlay(cm, c.overrides);
    return seconds_between(t0, now_ns());
  };
  w.compile_ms_once = [&] {
    const std::int64_t t0 = now_ns();
    auto cm = cwc::compiled_model::compile(m);
    return seconds_between(t0, now_ns()) * 1e3;
  };
  w.run = [&](tracer* t, std::uint64_t track) {
    const std::uint64_t root = t != nullptr ? t->open("run", 0, track) : 0;
    timing_sink sink;
    sink.done.reserve(cells * cfg.num_trajectories);
    const double cpu0 = process_cpu_s();
    const std::int64_t start = now_ns();
    const cwcsim::sweep::report rep = cwcsim::sweep_builder()
                                          .model(m)
                                          .config(cfg)
                                          .backend(cwcsim::multicore{kBatchWidth})
                                          .plan(plan)
                                          .sink(&sink)
                                          .run();
    const std::int64_t end = now_ns();
    run_sample r;
    r.cpu_s = process_cpu_s() - cpu0;
    r.wall_s = seconds_between(start, end);
    r.first_result_s = seconds_between(start, sink.first_cell);
    for (const auto& c : rep.cells) r.steps += c.steps;
    for (const std::int64_t d : sink.done)
      r.done_s.push_back(seconds_between(start, d));
    if (t != nullptr) {
      t->record("campaign", start, end, root, track);
      t->record("first_cell_done", start, sink.first_cell, root, track);
      t->close(root);
    }
    const std::string json = rep.to_json();
    verdict v;
    check_report(rep, json, v);
    v.expect(sink.done.size() == cells * cfg.num_trajectories,
             "trajectory completions mismatch");
    chk.operation(v.ok(), "sweep_grid run: " + v.text());
    if (ref_json.empty()) ref_json = json;
    return r;
  };
  w.cross_check = [&] {
    // The scalar farm path (batch_width 0) must produce the same report.
    const cwcsim::sweep::report rep =
        cwcsim::run_sweep(m, cfg, plan, cwcsim::multicore{0});
    verdict v;
    check_report(rep, rep.to_json(), v);
    chk.operation(v.ok(), "sweep_grid batch_width=0 reference: " + v.text());
  };
  w.replay = [&](const e2e_reference& ref) {
    return replay_sweep(m, cfg, plan, ref_json, ref, chk, tr);
  };
  return run_batch(a, w, chk, tr);
}

// ------------------------------------------------------------ tenants_open

/// Sessions offered per second: about a sixth of the closed-loop capacity
/// measured on a 4-core host (~145 sessions/s with 4 clients and 3 pool
/// workers, at quantum 2.5), so queues stay short and the backlog does not
/// grow.
constexpr double kArrivalRate = 25.0;

std::uint64_t session_seed(std::uint64_t seed, std::size_t i) {
  return seed * 1000003ull + i;
}

struct session_outcome {
  std::string error;     ///< non-empty when the session failed
  double latency_s = 0.0;       ///< scheduled send -> wait() returned
  double first_window_s = 0.0;  ///< scheduled send -> first on_window
  double late_s = 0.0;          ///< how late the generator sent it
  std::int64_t end_ns = 0;
  std::uint64_t steps = 0;
  std::uint64_t digest = 0;
  double bytes = 0.0;
};

svc::svc_config server_config() {
  svc::svc_config sc;
  sc.pool_workers = std::max(1u, host_cores() - 1);
  return sc;
}

/// The open-loop phase: sessions start at their scheduled times (relative
/// to `origin`) from at most host_cores() concurrent client connections.
std::vector<session_outcome> open_loop(
    svc::run_server& srv, const std::vector<const cwc::model*>& models,
    const std::vector<double>& at, std::uint64_t seed, std::int64_t origin,
    tracer* tr) {
  std::vector<session_outcome> out(at.size());
  std::atomic<std::size_t> next{0};
  const auto client = [&] {
    for (std::size_t i = next.fetch_add(1); i < at.size();
         i = next.fetch_add(1)) {
      session_outcome& o = out[i];
      const std::int64_t sched = origin + static_cast<std::int64_t>(at[i] * 1e9);
      sleep_until_ns(sched);
      const std::int64_t sent = now_ns();
      o.late_s = seconds_between(sched, sent);
      const cwc::model& m = *models[i % models.size()];
      const cwcsim::sim_config cfg = session_config(session_seed(seed, i));
      const std::uint64_t root = tr != nullptr ? tr->open("session", 0, i + 1) : 0;
      if (tr != nullptr) tr->record("queued", sched, sent, root, i + 1);
      try {
        const std::int64_t open0 = now_ns();
        auto s = cwcsim::run_builder()
                     .model(m)
                     .config(cfg)
                     .backend(cwcsim::service{&srv})
                     .open();
        const std::int64_t start = now_ns();
        if (tr != nullptr) tr->record("open", open0, start, root, i + 1);
        std::int64_t first = -1;
        s.on_window([&](const cwcsim::window_summary&) {
          if (first < 0) first = now_ns();
        });
        s.start();
        cwcsim::run_report rep = s.wait();
        o.end_ns = now_ns();
        if (tr != nullptr) {
          tr->record("stream", start, o.end_ns, root, i + 1);
          tr->record("first_window", start, first, root, i + 1);
        }
        o.latency_s = seconds_between(sched, o.end_ns);
        o.first_window_s = seconds_between(sched, first);
        o.steps = total_steps(rep.result.completions);
        o.bytes = rep.network ? rep.network->bytes : 0.0;
        o.digest = window_digest(rep.result.windows);
        verdict v;
        check_stream(v, rep, cfg);
        v.expect(first >= 0, "no window reached on_window");
        if (!v.ok()) o.error = v.text();
      } catch (const std::exception& e) {
        o.error = e.what();
        o.end_ns = now_ns();
      }
      if (tr != nullptr) tr->close(root);
    }
  };
  std::vector<std::thread> clients;
  const unsigned n =
      std::min<unsigned>(host_cores(), std::max<std::size_t>(at.size(), 1));
  for (unsigned c = 0; c < n; ++c) clients.emplace_back(client);
  for (auto& c : clients) c.join();
  return out;
}

workload_result run_tenants(const run_args& a, checks& chk, tracer* tr) {
  workload_result out;
  const cwc::model neuro = models::make_neurospora_cwc();
  const cwc::model demo = models::make_compartment_demo();
  const std::vector<const cwc::model*> models = {&neuro, &demo};

  // Set-up: both models built, a server started, a session opened. The
  // open loop runs in one piece, so half the repetitions come before it
  // and half after.
  std::vector<double> setup;
  std::vector<double> compile_ms;
  const auto measure_setup = [&] {
    for (int i = 0; i < 5 * kSetupReps; ++i) {
      const std::int64_t t0 = now_ns();
      const cwc::model n2 = models::make_neurospora_cwc();
      const cwc::model d2 = models::make_compartment_demo();
      auto srv = std::make_unique<svc::run_server>(server_config());
      auto s = cwcsim::run_builder()
                   .model(n2)
                   .config(session_config(1))
                   .backend(cwcsim::service{srv.get()})
                   .open();
      setup.push_back(seconds_between(t0, now_ns()));
      const std::int64_t c0 = now_ns();
      auto c1 = cwc::compiled_model::compile(neuro);
      auto c2 = cwc::compiled_model::compile(demo);
      compile_ms.push_back(seconds_between(c0, now_ns()) * 1e3 / 2.0);
    }
  };
  measure_setup();

  svc::run_server srv(server_config());
  // Warm-up: a short untimed burst through the same server.
  {
    std::vector<double> warm(2 * host_cores());
    for (std::size_t i = 0; i < warm.size(); ++i)
      warm[i] = 0.01 * static_cast<double>(i);
    for (const auto& o : open_loop(srv, models, warm, a.seed ^ 0x3A5Eull,
                                   now_ns() + 1000000, nullptr))
      chk.require(o.error.empty(), "warm-up session failed: " + o.error);
  }

  const std::vector<double> at = arrival_schedule(a.seed, kArrivalRate, a.seconds);
  const auto run_phase = [&](tracer* t, double& cpu_s) {
    const double cpu0 = process_cpu_s();
    const std::int64_t origin = now_ns() + 20000000;  // clients spin up
    auto res = open_loop(srv, models, at, a.seed, origin, t);
    cpu_s = process_cpu_s() - cpu0;
    return std::make_pair(origin, std::move(res));
  };
  double cpu_s = 0.0;
  const svc::server_stats before = srv.stats();
  auto [origin, sessions] = run_phase(nullptr, cpu_s);
  const svc::server_stats after = srv.stats();
  out.e2e["peak_rss_mb"] = peak_rss_mb();  // before the reference runs
  measure_setup();

  // Reference: each session's stream must equal a multicore{} run of the
  // same (model, seed, config). The references run after the timed phase,
  // on every core.
  std::vector<std::uint64_t> ref_digest(sessions.size(), 0);
  {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned c = 0; c < host_cores(); ++c)
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < sessions.size();
             i = next.fetch_add(1)) {
          if (!sessions[i].error.empty()) continue;
          try {
            const cwcsim::run_report ref =
                cwcsim::run(*models[i % models.size()],
                            session_config(session_seed(a.seed, i)),
                            cwcsim::multicore{});
            ref_digest[i] = window_digest(ref.result.windows);
          } catch (const std::exception&) {
            // ref_digest stays 0: the session is counted as failed below.
          }
        }
      });
    for (auto& t : pool) t.join();
  }
  std::vector<double> latency, first_window, late;
  std::uint64_t steps = 0;
  std::int64_t last_end = origin;
  double bytes = 0.0;
  std::vector<session_record> records;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const session_outcome& o = sessions[i];
    const cwc::model& m = *models[i % models.size()];
    const cwcsim::sim_config cfg = session_config(session_seed(a.seed, i));
    verdict v;
    v.expect(o.error.empty(), o.error);
    if (o.error.empty())
      v.expect(ref_digest[i] == o.digest,
               "digest differs from the multicore reference");
    chk.operation(v.ok(), "tenants_open session " + std::to_string(i) + ": " +
                              v.text());
    late.push_back(o.late_s);
    last_end = std::max(last_end, o.end_ns);
    if (!o.error.empty()) continue;
    latency.push_back(o.latency_s);
    first_window.push_back(o.first_window_s);
    steps += o.steps;
    bytes += o.bytes;
    records.push_back({&m, cfg, o.digest});
  }

  const tail_stat p50 = tail_percentile(latency, 50.0);
  const tail_stat p95 = tail_percentile(latency, 95.0);
  const tail_stat late95 = tail_percentile(late, 95.0);
  out.e2e["steps_per_s"] =
      static_cast<double>(steps) / seconds_between(origin, last_end);
  out.e2e["setup_s"] = median(setup);
  out.e2e["session_p50_s"] = p50.value;
  out.e2e["session_p95_s"] = p95.value;
  out.e2e["first_window_p50_s"] = median(first_window);
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "%zu sessions offered at %.1f/s over %.1f s from %u clients; "
                "latency p%.1f over %zu samples, p%.1f (%zu beyond); "
                "generator late p%.1f = %.6f s",
                at.size(), kArrivalRate, a.seconds, host_cores(),
                p50.percentile, p50.samples, p95.percentile, p95.beyond,
                late95.percentile, late95.value);
  out.notes.emplace_back(buf);

  if (a.trace) {
    double traced_cpu = 0.0;
    auto traced = run_phase(tr, traced_cpu).second;
    std::vector<double> traced_latency;
    for (const auto& o : traced) {
      chk.operation(o.error.empty(), "tenants_open traced session: " + o.error);
      if (o.error.empty()) traced_latency.push_back(o.latency_s);
    }
    e2e_reference ref;
    ref.wall_s = seconds_between(origin, last_end);
    ref.cpu_s = cpu_s;
    out.layers = replay_sessions(records, ref, chk, tr);
    out.layers["cwc.compile_ms"] = median(compile_ms);
    out.layers["trace.overhead_frac"] =
        median(traced_latency) / median(latency) - 1.0;
    // Server counters over the untraced open loop only.
    const auto delta = [](std::uint64_t b, std::uint64_t e) {
      return static_cast<double>(e - b);
    };
    const double hits = delta(before.cache.hits, after.cache.hits);
    const double lookups = hits + delta(before.cache.compiles, after.cache.compiles);
    out.layers["svc.cache.hit_frac"] = lookups > 0 ? hits / lookups : 0.0;
    out.layers["svc.quanta_accepted"] =
        delta(before.quanta_accepted, after.quanta_accepted);
    out.layers["svc.quanta_retried"] =
        delta(before.quanta_retried, after.quanta_retried);
    out.layers["svc.sessions_shed"] =
        delta(before.sessions_shed, after.sessions_shed);
    out.layers["svc.downlink.bytes_per_session"] =
        records.empty() ? 0.0 : bytes / static_cast<double>(records.size());
    out.layers["loadgen.late_p95_s"] = late95.value;
  }
  return out;
}

}  // namespace

workload_result run_workload(const run_args& a, checks& chk, tracer* tr) {
  if (a.workload == "paper_farm") return run_paper(a, false, chk, tr);
  if (a.workload == "paper_batched") return run_paper(a, true, chk, tr);
  if (a.workload == "tenants_open") return run_tenants(a, chk, tr);
  if (a.workload == "sweep_grid") return run_sweep_grid(a, chk, tr);
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

}  // namespace perfbench
