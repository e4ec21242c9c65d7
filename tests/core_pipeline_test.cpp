// Integration tests for the Fig. 2 pipeline: completeness of cuts and
// windows, scheduler termination, determinism across pipeline shapes, and
// the individual stage nodes.
#include <gtest/gtest.h>

#include <cstring>

#include "core/cwcsim.hpp"
#include "models/models.hpp"

namespace {

cwcsim::sim_config small_config() {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 12;
  cfg.t_end = 20.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 3.0;
  cfg.sim_workers = 2;
  cfg.stat_engines = 1;
  cfg.window_size = 5;
  cfg.window_slide = 5;
  cfg.kmeans_k = 2;
  cfg.seed = 1234;
  return cfg;
}

/// Flatten all per-cut summaries in time order.
std::vector<stats::cut_summary> cuts_of(const cwcsim::simulation_result& r) {
  return r.all_cuts();
}

TEST(Pipeline, ProducesEveryCutExactlyOnce) {
  const auto m = models::make_neurospora_cwc({});
  const auto cfg = small_config();
  const auto res = cwcsim::simulate(m, cfg);
  const auto cuts = cuts_of(res);
  ASSERT_EQ(cuts.size(), cfg.num_samples());
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    EXPECT_EQ(cuts[k].sample_index, k);
    ASSERT_EQ(cuts[k].moments.size(), 3u);
    EXPECT_EQ(cuts[k].moments[0].count(), cfg.num_trajectories);
  }
}

TEST(Pipeline, CompletionNoticesForEveryTrajectory) {
  const auto m = models::make_neurospora_cwc({});
  const auto cfg = small_config();
  const auto res = cwcsim::simulate(m, cfg);
  ASSERT_EQ(res.completions.size(), cfg.num_trajectories);
  std::vector<bool> seen(cfg.num_trajectories, false);
  for (const auto& d : res.completions) {
    ASSERT_LT(d.trajectory_id, cfg.num_trajectories);
    EXPECT_FALSE(seen[d.trajectory_id]) << "duplicate completion";
    seen[d.trajectory_id] = true;
    EXPECT_GT(d.quanta, 0u);
    EXPECT_GT(d.steps, 0u);
  }
}

struct shape {
  unsigned workers;
  unsigned stats;
  double quantum;
  ff::out_policy policy;
};

class pipeline_shape_test : public ::testing::TestWithParam<shape> {};

TEST_P(pipeline_shape_test, ResultIndependentOfPipelineShape) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  const auto reference = cwcsim::simulate(m, cfg);

  const auto p = GetParam();
  cfg.sim_workers = p.workers;
  cfg.stat_engines = p.stats;
  cfg.quantum = p.quantum;
  cfg.dispatch = p.policy;
  const auto res = cwcsim::simulate(m, cfg);

  const auto a = cuts_of(reference);
  const auto b = cuts_of(res);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    for (std::size_t d = 0; d < a[k].moments.size(); ++d) {
      ASSERT_DOUBLE_EQ(a[k].moments[d].mean(), b[k].moments[d].mean())
          << "cut " << k << " dim " << d;
      ASSERT_DOUBLE_EQ(a[k].moments[d].variance(), b[k].moments[d].variance());
    }
    ASSERT_EQ(a[k].medians, b[k].medians);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, pipeline_shape_test,
    ::testing::Values(shape{1, 1, 3.0, ff::out_policy::on_demand},
                      shape{4, 1, 3.0, ff::out_policy::on_demand},
                      shape{3, 2, 3.0, ff::out_policy::round_robin},
                      shape{2, 3, 1.0, ff::out_policy::on_demand},
                      shape{5, 2, 10.0, ff::out_policy::on_demand},
                      shape{2, 1, 20.0, ff::out_policy::round_robin}));

TEST(Pipeline, FlatModelRunsThroughSamePipeline) {
  const auto net = models::make_lotka_volterra({});
  auto cfg = small_config();
  cfg.t_end = 8.0;
  cfg.kmeans_k = 0;  // no clustering
  const auto res = cwcsim::simulate(net, cfg);
  EXPECT_EQ(cuts_of(res).size(), cfg.num_samples());
}

TEST(Pipeline, WindowsCarryCorrectSpans) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  cfg.window_size = 8;
  cfg.window_slide = 8;
  const auto res = cwcsim::simulate(m, cfg);
  // 41 samples -> 5 full windows of 8 + trailing 1.
  ASSERT_EQ(res.windows.size(), 6u);
  for (std::size_t i = 0; i < res.windows.size(); ++i) {
    EXPECT_EQ(res.windows[i].first_sample, i * 8);
    if (i + 1 < res.windows.size()) {
      EXPECT_EQ(res.windows[i].cuts.size(), 8u);
    }
  }
}

TEST(Pipeline, OverlappingWindows) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  cfg.t_end = 10.0;  // 21 samples
  cfg.window_size = 8;
  cfg.window_slide = 4;
  const auto res = cwcsim::simulate(m, cfg);
  // Full windows start at 0,4,8,12 (12+8=20 <= 21); trailing partial at 16.
  ASSERT_GE(res.windows.size(), 4u);
  for (std::size_t i = 0; i + 1 < res.windows.size(); ++i)
    EXPECT_EQ(res.windows[i + 1].first_sample - res.windows[i].first_sample, 4u);
}

TEST(Pipeline, TraceCaptureAccountsAllQuanta) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  cfg.capture_trace = true;
  const auto res = cwcsim::simulate(m, cfg);
  ASSERT_FALSE(res.trace.empty());
  std::uint64_t total_samples = 0;
  std::uint64_t total_steps = 0;
  for (const auto& q : res.trace) {
    total_samples += q.samples;
    total_steps += q.ssa_steps;
  }
  EXPECT_EQ(total_samples, cfg.num_samples() * cfg.num_trajectories);
  std::uint64_t steps_from_completions = 0;
  for (const auto& d : res.completions) steps_from_completions += d.steps;
  EXPECT_EQ(total_steps, steps_from_completions);
}

TEST(Pipeline, SingleTrajectorySingleWorker) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  cfg.num_trajectories = 1;
  cfg.sim_workers = 1;
  const auto res = cwcsim::simulate(m, cfg);
  EXPECT_EQ(cuts_of(res).size(), cfg.num_samples());
  EXPECT_EQ(res.completions.size(), 1u);
}

TEST(Pipeline, RejectsDegenerateConfig) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  cfg.num_trajectories = 0;
  EXPECT_THROW(cwcsim::multicore_simulator(m, cfg), util::precondition_error);
  cfg = small_config();
  cfg.sim_workers = 0;
  EXPECT_THROW(cwcsim::multicore_simulator(m, cfg), util::precondition_error);
}

TEST(Pipeline, MeanSeriesHelper) {
  const auto m = models::make_neurospora_cwc({});
  const auto cfg = small_config();
  const auto res = cwcsim::simulate(m, cfg);
  const auto series = res.mean_series(0);
  ASSERT_EQ(series.size(), cfg.num_samples());
  EXPECT_DOUBLE_EQ(series[0].first, 0.0);
  // At t=0 every trajectory starts at the same count: variance 0, mean = x0.
  EXPECT_DOUBLE_EQ(series[0].second, 10.0);
}

// ------------------- summarize-once equivalence oracle -------------------
//
// The analysis stages summarize each cut once and window the summaries.
// The reference below windows the raw cuts, then summarizes every cut of
// every window. Every path that runs the analysis must produce the
// reference's window stream bit for bit.

/// Every sample of every trajectory, and the raw cuts they assemble into.
struct captured_run {
  std::size_t observables = 0;
  std::vector<std::vector<cwc::trajectory_sample>> samples;  // [trajectory]
  std::vector<stats::trajectory_cut> cuts;                   // [sample_index]
};

captured_run capture(const cwc::model& m, const cwcsim::sim_config& cfg) {
  cwcsim::model_ref ref;
  ref.tree = &m;
  ref.compile();
  captured_run run;
  run.observables = ref.num_observables();
  run.samples.resize(cfg.num_trajectories);
  for (std::uint64_t i = 0; i < cfg.num_trajectories; ++i) {
    auto engine = ref.make_engine(cfg.seed, i);
    for (std::uint64_t q = 0;; ++q) {
      auto o = cwcsim::advance_one_quantum(engine, cfg, i, q);
      for (auto& s : o.batch.samples) run.samples[i].push_back(std::move(s));
      if (o.finished) break;
    }
  }
  cwcsim::cut_assembler assembler(cfg, run.observables);
  for (std::uint64_t i = 0; i < cfg.num_trajectories; ++i)
    for (const auto& s : run.samples[i])
      assembler.ingest(i, s, [&run](stats::trajectory_cut&& c) {
        run.cuts.push_back(std::move(c));
      });
  EXPECT_TRUE(assembler.drained());
  return run;
}

/// The reference window stream over the first `n` cuts: full windows at
/// 0, slide, 2*slide, ... while they fit, then the trailing partial window
/// of whatever cuts remain; each cut summarized once per window.
std::vector<cwcsim::window_summary> reference_windows(
    const std::vector<stats::trajectory_cut>& cuts, std::size_t n,
    const cwcsim::sim_config& cfg) {
  std::vector<stats::trajectory_window> raw;
  std::size_t start = 0;
  for (; start + cfg.window_size <= n; start += cfg.window_slide)
    raw.push_back({start, {cuts.begin() + start,
                           cuts.begin() + start + cfg.window_size}});
  if (start < n) raw.push_back({start, {cuts.begin() + start, cuts.begin() + n}});
  std::vector<cwcsim::window_summary> out;
  for (const auto& w : raw) {
    cwcsim::window_summary s;
    s.first_sample = w.first_sample;
    for (const auto& c : w.cuts)
      s.cuts.push_back(stats::summarize_cut(c, cfg.kmeans_k, cfg.seed));
    out.push_back(std::move(s));
  }
  return out;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

::testing::AssertionResult same_bits(const stats::cut_summary& a,
                                     const stats::cut_summary& b) {
  if (a.sample_index != b.sample_index || !same_bits(a.time, b.time))
    return ::testing::AssertionFailure() << "cut identity differs";
  if (a.moments.size() != b.moments.size())
    return ::testing::AssertionFailure() << "observable count differs";
  for (std::size_t d = 0; d < a.moments.size(); ++d)
    if (!same_bits(a.moments[d].snapshot(), b.moments[d].snapshot()))
      return ::testing::AssertionFailure() << "moments differ, dim " << d;
  if (!same_bits(a.medians, b.medians))
    return ::testing::AssertionFailure() << "medians differ";
  const auto& ka = a.clusters;
  const auto& kb = b.clusters;
  if (ka.centroids.size() != kb.centroids.size())
    return ::testing::AssertionFailure() << "centroid count differs";
  for (std::size_t c = 0; c < ka.centroids.size(); ++c)
    if (!same_bits(ka.centroids[c], kb.centroids[c]))
      return ::testing::AssertionFailure() << "centroid " << c << " differs";
  if (!same_bits(ka.assignment, kb.assignment) || !same_bits(ka.sizes, kb.sizes) ||
      !same_bits(ka.inertia, kb.inertia) || ka.iterations != kb.iterations)
    return ::testing::AssertionFailure() << "k-means result differs";
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_bits(
    const std::vector<cwcsim::window_summary>& got,
    const std::vector<cwcsim::window_summary>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << got.size() << " windows, want " << want.size();
  for (std::size_t w = 0; w < got.size(); ++w) {
    if (got[w].first_sample != want[w].first_sample ||
        got[w].cuts.size() != want[w].cuts.size())
      return ::testing::AssertionFailure() << "window " << w << " span differs";
    for (std::size_t c = 0; c < got[w].cuts.size(); ++c) {
      auto r = same_bits(got[w].cuts[c], want[w].cuts[c]);
      if (!r) return r << " (window " << w << ", cut " << c << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Cut count behind a window stream: its last window ends at the last cut.
std::size_t cuts_covered(const std::vector<cwcsim::window_summary>& ws) {
  if (ws.empty() || ws.back().cuts.empty()) return 0;
  return static_cast<std::size_t>(ws.back().cuts.back().sample_index) + 1;
}

/// online_analysis fed time-major, one sample per trajectory in turn.
std::vector<cwcsim::window_summary> run_online_analysis(
    const captured_run& run, const cwcsim::sim_config& cfg) {
  cwcsim::collecting_sink sink;
  cwcsim::online_analysis analysis(cfg, run.observables, sink);
  for (std::size_t k = 0; k < run.cuts.size(); ++k)
    for (std::uint64_t i = 0; i < cfg.num_trajectories; ++i)
      analysis.ingest(i, run.samples[i][k]);
  analysis.finish();
  return sink.take_windows();
}

/// The ff analysis stages of run_multicore_pipeline over captured cuts:
/// stat farm -> reorder_gather -> window_generator. `summarized` receives
/// the cut count the stat engines summarized between them.
std::vector<cwcsim::window_summary> run_ff_analysis(
    const captured_run& run, const cwcsim::sim_config& cfg,
    std::uint64_t& summarized) {
  ff::network net;
  ff::pipeline pipe;
  pipe.add_stage(ff::make_node([&run, k = std::size_t{0}](
                                   auto& self, ff::token) mutable {
    if (k >= run.cuts.size()) return ff::outcome::end;
    self.send_out(ff::token::of(stats::trajectory_cut(run.cuts[k++])));
    return k < run.cuts.size() ? ff::outcome::more : ff::outcome::end;
  }));
  std::vector<std::unique_ptr<ff::node>> workers;
  std::vector<cwcsim::stat_engine_node*> engines;
  for (unsigned w = 0; w < cfg.stat_engines; ++w) {
    auto e = std::make_unique<cwcsim::stat_engine_node>(cfg);
    engines.push_back(e.get());
    workers.push_back(std::move(e));
  }
  auto farm = std::make_unique<ff::farm>(std::move(workers));
  farm->set_dispatch(ff::out_policy::on_demand)
      .set_collector(std::make_unique<cwcsim::reorder_gather>());
  pipe.add_stage(std::move(farm));
  pipe.add_stage(std::make_unique<cwcsim::window_generator>(cfg));
  std::vector<cwcsim::window_summary> out;
  pipe.add_stage(std::make_unique<cwcsim::result_sink>(
      [&out](cwcsim::window_summary&& w) { out.push_back(std::move(w)); }));
  pipe.materialize(net);
  net.run_and_wait();
  summarized = 0;
  for (const auto* e : engines) summarized += e->cuts_processed();
  return out;
}

struct oracle_case {
  std::size_t size;
  std::size_t slide;
  std::uint32_t kmeans_k;
};

void PrintTo(const oracle_case& c, std::ostream* os) {
  *os << "window " << c.size << " / slide " << c.slide << ", k " << c.kmeans_k;
}

class summarize_once_test : public ::testing::TestWithParam<oracle_case> {
 protected:
  cwcsim::sim_config config() const {
    auto cfg = small_config();
    cfg.num_trajectories = 36;  // batch_width 32: one full group, one short
    cfg.t_end = 10.0;           // 41 cuts
    cfg.sample_period = 0.25;
    cfg.quantum = 1.5;
    cfg.window_size = GetParam().size;
    cfg.window_slide = GetParam().slide;
    cfg.kmeans_k = GetParam().kmeans_k;
    return cfg;
  }
};

TEST_P(summarize_once_test, EveryPathMatchesPerWindowReference) {
  const auto m = models::make_neurospora_cwc({});
  const auto cfg = config();
  const captured_run run = capture(m, cfg);
  ASSERT_EQ(run.cuts.size(), cfg.num_samples());
  const auto want = reference_windows(run.cuts, run.cuts.size(), cfg);

  EXPECT_TRUE(same_bits(run_online_analysis(run, cfg), want))
      << "online_analysis";

  for (const unsigned engines : {1u, 4u}) {
    auto c = cfg;
    c.stat_engines = engines;
    std::uint64_t summarized = 0;
    EXPECT_TRUE(same_bits(run_ff_analysis(run, c, summarized), want))
        << "ff analysis stages, stat_engines " << engines;
    EXPECT_EQ(summarized, run.cuts.size()) << "each cut summarized once";

    c.sim_workers = 3;
    EXPECT_TRUE(same_bits(cwcsim::run(m, c, cwcsim::multicore{}).result.windows,
                          want))
        << "multicore pipeline, stat_engines " << engines;
  }

  EXPECT_TRUE(same_bits(
      cwcsim::run(m, cfg, cwcsim::multicore{32}).result.windows, want))
      << "multicore{batch_width=32}";
}

TEST_P(summarize_once_test, StoppedRunsMatchReferenceOverEmittedCuts) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = config();
  cfg.quantum = 0.5;  // many scheduling boundaries to stop at
  const captured_run run = capture(m, cfg);

  const auto stopped_run = [&](const cwcsim::backend& b, unsigned engines) {
    auto c = cfg;
    c.stat_engines = engines;
    auto s = cwcsim::run_builder().model(m).config(c).backend(b).open();
    s.on_window([&s](const cwcsim::window_summary&) { s.request_stop(); });
    return s.wait();
  };

  for (const unsigned engines : {1u, 4u}) {
    const auto rep = stopped_run(cwcsim::multicore{}, engines);
    const std::size_t n = cuts_covered(rep.result.windows);
    EXPECT_TRUE(same_bits(rep.result.windows,
                          reference_windows(run.cuts, n, cfg)))
        << "multicore pipeline, stat_engines " << engines << ", " << n
        << " cuts";
  }

  // The batched driver polls the stop flag between rounds on the thread
  // that emits windows, so it stops right after the first window's round.
  const auto rep = stopped_run(cwcsim::multicore{32}, 1);
  EXPECT_TRUE(rep.stopped);
  const std::size_t n = cuts_covered(rep.result.windows);
  EXPECT_LT(n, run.cuts.size());
  EXPECT_TRUE(same_bits(rep.result.windows, reference_windows(run.cuts, n, cfg)))
      << "multicore{batch_width=32}, " << n << " cuts";
}

// 41 cuts: (16,1), (8,4), (8,3) and (5,5) end in a trailing partial window.
INSTANTIATE_TEST_SUITE_P(
    Shapes, summarize_once_test,
    ::testing::Values(oracle_case{16, 1, 2}, oracle_case{16, 1, 0},
                      oracle_case{8, 4, 2}, oracle_case{8, 4, 0},
                      oracle_case{8, 3, 2}, oracle_case{8, 3, 0},
                      oracle_case{5, 5, 2}, oracle_case{5, 5, 0},
                      oracle_case{1, 1, 2}, oracle_case{1, 1, 0}));

// --------------------------- node-level tests ----------------------------

TEST(ReorderGather, RestoresOrderFromShuffledCuts) {
  ff::network net;
  auto* src = net.add(ff::make_node([i = 0](auto& self, ff::token) mutable {
    // Emit cut summaries keyed 1, 0, 3, 2 out of order.
    const std::uint64_t keys[] = {1, 0, 3, 2};
    if (i >= 4) return ff::outcome::end;
    stats::cut_summary s;
    s.sample_index = keys[i++];
    self.send_out(ff::token::of(std::move(s)));
    return i < 4 ? ff::outcome::more : ff::outcome::end;
  }));
  auto* reorder = net.emplace<cwcsim::reorder_gather>();
  std::vector<std::uint64_t> got;
  auto* sink = net.add(ff::make_node([&got](auto&, ff::token t) {
    got.push_back(t.template as<stats::cut_summary>().sample_index);
    return ff::outcome::more;
  }));
  net.connect(src, reorder);
  net.connect(reorder, sink);
  net.run_and_wait();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(Aligner, DetectsTrajectoryLossAtEos) {
  // Feed samples for only 1 of 2 expected trajectories: the aligner must
  // refuse to silently drop the incomplete cut at EOS.
  cwcsim::sim_config cfg = small_config();
  cfg.num_trajectories = 2;

  ff::network net;
  auto* src = net.add(ff::make_node([sent = false, &cfg](auto& self,
                                                         ff::token) mutable {
    if (sent) return ff::outcome::end;
    sent = true;
    cwcsim::sample_batch b;
    b.trajectory_id = 0;
    b.samples.push_back(cwc::trajectory_sample{0.0, {1.0, 2.0, 3.0}});
    (void)cfg;
    self.send_out(ff::token::of(std::move(b)));
    return ff::outcome::end;
  }));
  auto* aligner = net.emplace<cwcsim::trajectory_aligner>(cfg, 3u);
  net.connect(src, aligner);
  net.run();
  EXPECT_THROW(net.wait(), util::postcondition_error);
}

}  // namespace
