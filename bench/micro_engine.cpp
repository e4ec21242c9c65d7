// google-benchmark micro-benchmarks for the simulation engines: SSA step
// cost across models, CWC tree-matching vs the flat baseline (the "CWC is
// significantly more complex than a plain Gillespie algorithm" overhead,
// paper §IV), plus the statistics kernels feeding the DES calibration and
// the on-line analysis stage they run in.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

#include "core/cwcsim.hpp"
#include "models/models.hpp"
#include "stats/stats.hpp"
#include "util/rng.hpp"

namespace {

void bm_cwc_step_neurospora(benchmark::State& state) {
  const auto m = models::make_neurospora_cwc({});
  cwc::engine eng(m, 1, 0);
  for (auto _ : state) {
    if (!eng.step()) {
      state.PauseTiming();
      eng = cwc::engine(m, 1, eng.trajectory_id() + 1);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_cwc_step_neurospora);

// The naive full-recollect baseline the incremental cache is measured
// against (same sample path bit-for-bit; see engine_mode::reference).
void bm_cwc_step_neurospora_reference(benchmark::State& state) {
  const auto m = models::make_neurospora_cwc({});
  cwc::engine eng(m, 1, 0, cwc::engine_mode::reference);
  for (auto _ : state) {
    if (!eng.step()) {
      state.PauseTiming();
      eng = cwc::engine(m, 1, eng.trajectory_id() + 1,
                        cwc::engine_mode::reference);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_cwc_step_neurospora_reference);

void bm_flat_step_neurospora(benchmark::State& state) {
  const auto net = models::make_neurospora_flat({});
  cwc::flat_engine eng(net, 1, 0);
  std::uint64_t id = 0;
  for (auto _ : state) {
    if (!eng.step()) {
      state.PauseTiming();
      eng = cwc::flat_engine(net, 1, ++id);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_flat_step_neurospora);

void bm_flat_step_lv(benchmark::State& state) {
  const auto net = models::make_lotka_volterra({});
  cwc::flat_engine eng(net, 1, 0);
  std::uint64_t id = 0;
  for (auto _ : state) {
    if (!eng.step()) {
      state.PauseTiming();
      eng = cwc::flat_engine(net, 1, ++id);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_flat_step_lv);

void bm_cwc_step_compartment_demo(benchmark::State& state) {
  const auto m = models::make_compartment_demo({});
  cwc::engine eng(m, 1, 0);
  std::uint64_t id = 0;
  for (auto _ : state) {
    if (!eng.step()) {
      state.PauseTiming();
      eng = cwc::engine(m, 1, ++id);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_cwc_step_compartment_demo);

// The batching payoff (ROADMAP "Batch trajectory engines"): one SoA batch
// engine stepping kBatchLanes lanes of the same model quantum-lockstep vs
// the same ensemble as scalar engines stepped one at a time. Sample paths
// are bit-identical (tests/cwc_batch_test.cpp locks them step by step);
// items/sec counts aggregate SSA lane-steps — the "aggregate lanes/s"
// measure, higher is better. When the whole ensemble stalls (the
// compartment demo eventually exhausts itself), it is re-seeded outside
// the timed region, identically in both variants.
constexpr std::size_t kBatchLanes = 32;
constexpr double kBatchQuantum = 2.0;
constexpr double kBatchPeriod = 0.5;

void bm_batch_step(benchmark::State& state, const cwc::model& m,
                   std::size_t lanes) {
  const auto cm = cwc::compiled_model::compile(m);
  std::uint64_t seed = 1;
  auto eng = std::make_unique<cwc::batch::batch_engine>(cm, seed, 0, lanes);
  std::vector<std::vector<cwc::trajectory_sample>> out;
  std::uint64_t items = 0;
  double t_end = 0.0;
  for (auto _ : state) {
    t_end += kBatchQuantum;
    std::uint64_t before = 0, after = 0;
    for (std::size_t i = 0; i < lanes; ++i) before += eng->steps(i);
    eng->step_quantum(kBatchQuantum, t_end, kBatchPeriod, out);
    for (auto& v : out) v.clear();
    for (std::size_t i = 0; i < lanes; ++i) after += eng->steps(i);
    items += after - before;
    if (after == before) {  // whole ensemble stalled: re-seed off the clock
      state.PauseTiming();
      eng = std::make_unique<cwc::batch::batch_engine>(cm, ++seed, 0, lanes);
      t_end = 0.0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
}

void bm_batch_step_scalar(benchmark::State& state, const cwc::model& m,
                          std::size_t lanes) {
  const auto cm = cwc::compiled_model::compile(m);
  std::uint64_t seed = 1;
  std::vector<cwc::engine> engines;
  const auto reseed = [&](std::uint64_t s) {
    engines.clear();
    engines.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i) engines.emplace_back(cm, s, i);
  };
  reseed(seed);
  std::vector<cwc::trajectory_sample> out;
  std::uint64_t items = 0;
  double t_end = 0.0;
  for (auto _ : state) {
    t_end += kBatchQuantum;
    std::uint64_t moved = 0;
    for (cwc::engine& e : engines) {
      const std::uint64_t before = e.steps();
      const double horizon = std::min(e.time() + kBatchQuantum, t_end);
      e.run_to(horizon, kBatchPeriod, out);
      out.clear();
      moved += e.steps() - before;
    }
    items += moved;
    if (moved == 0) {
      state.PauseTiming();
      reseed(++seed);
      t_end = 0.0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
}

void bm_batch_step_neurospora(benchmark::State& state) {
  bm_batch_step(state, models::make_neurospora_cwc({}), kBatchLanes);
}
BENCHMARK(bm_batch_step_neurospora);

void bm_batch_step_neurospora_scalar(benchmark::State& state) {
  bm_batch_step_scalar(state, models::make_neurospora_cwc({}), kBatchLanes);
}
BENCHMARK(bm_batch_step_neurospora_scalar);

void bm_batch_step_compartment_demo(benchmark::State& state) {
  bm_batch_step(state, models::make_compartment_demo({}), kBatchLanes);
}
BENCHMARK(bm_batch_step_compartment_demo);

void bm_batch_step_compartment_demo_scalar(benchmark::State& state) {
  bm_batch_step_scalar(state, models::make_compartment_demo({}), kBatchLanes);
}
BENCHMARK(bm_batch_step_compartment_demo_scalar);

// Width sweep for the vectorized kernels: lane-major strips amortize per-row
// fixed cost across columns, so aggregate lane-steps/s should grow (or at
// least hold) as the batch widens. The historical width-32 names above stay
// as the tracked baseline series; the _w sweep brackets them from both
// sides (narrow batches stress the scalar-threshold path, wide ones the
// row-sweep payoff).
void bm_batch_step_neurospora_w(benchmark::State& state) {
  bm_batch_step(state, models::make_neurospora_cwc({}),
                static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(bm_batch_step_neurospora_w)->Arg(8)->Arg(64)->Arg(128);

void bm_batch_step_compartment_demo_w(benchmark::State& state) {
  bm_batch_step(state, models::make_compartment_demo({}),
                static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(bm_batch_step_compartment_demo_w)->Arg(8)->Arg(64)->Arg(128);

// Per-trajectory engine setup cost, the knob the compile-once layer turns:
// a farm of 10⁴–10⁵ trajectories constructs that many engines. The legacy
// path recompiles the static per-model tables (applicable-rule lists, the
// rule→rule dependency index, footprints) for every engine; the compiled
// path shares one immutable cwc::compiled_model across the whole batch.
// Each iteration constructs 10⁴ engines, so items/sec reads as engines/sec.
constexpr int kConstructBatch = 10000;

void bm_engine_construct_legacy(benchmark::State& state) {
  const auto m = models::make_neurospora_cwc({});
  std::uint64_t id = 0;
  for (auto _ : state) {
    for (int i = 0; i < kConstructBatch; ++i) {
      cwc::engine eng(m, 1, ++id);
      benchmark::DoNotOptimize(eng.time());
    }
  }
  state.SetItemsProcessed(state.iterations() * kConstructBatch);
}
BENCHMARK(bm_engine_construct_legacy)->Unit(benchmark::kMillisecond);

void bm_engine_construct_compiled(benchmark::State& state) {
  const auto m = models::make_neurospora_cwc({});
  const auto cm = cwc::compiled_model::compile(m);
  std::uint64_t id = 0;
  for (auto _ : state) {
    for (int i = 0; i < kConstructBatch; ++i) {
      cwc::engine eng(cm, 1, ++id);
      benchmark::DoNotOptimize(eng.time());
    }
  }
  state.SetItemsProcessed(state.iterations() * kConstructBatch);
}
BENCHMARK(bm_engine_construct_compiled)->Unit(benchmark::kMillisecond);

void bm_quantum_run(benchmark::State& state) {
  const auto m = models::make_neurospora_cwc({});
  const double quantum = static_cast<double>(state.range(0)) / 10.0;
  std::uint64_t id = 0;
  for (auto _ : state) {
    cwc::engine eng(m, 2, ++id);
    std::vector<cwc::trajectory_sample> out;
    eng.run_to(quantum, 0.25, out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(bm_quantum_run)->Arg(5)->Arg(25)->Arg(100)->Unit(benchmark::kMicrosecond);

void bm_summarize_cut(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::rng_stream rng(4, 4);
  stats::trajectory_cut cut;
  cut.values.assign(n, std::vector<double>(3, 0.0));
  for (auto& row : cut.values)
    for (auto& v : row) v = 100.0 + 40.0 * rng.next_normal();
  for (auto _ : state) {
    auto s = stats::summarize_cut(cut, 2, 1);
    benchmark::DoNotOptimize(s.moments[0].mean());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(bm_summarize_cut)->Arg(128)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

void bm_kmeans(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::rng_stream rng(5, 5);
  std::vector<std::vector<double>> pts(n, std::vector<double>(3, 0.0));
  for (auto& p : pts)
    for (auto& v : p) v = rng.next_uniform() * 100.0;
  for (auto _ : state) {
    auto r = stats::kmeans(pts, 2, 1);
    benchmark::DoNotOptimize(r.inertia);
  }
}
BENCHMARK(bm_kmeans)->Arg(128)->Arg(1024)->Unit(benchmark::kMicrosecond);

// The on-line analysis stage at the paper's Fig. 2 shape: a pre-captured
// Neurospora stream (256 trajectories, t=40, tau 0.25: 161 cuts) pushed
// through cwcsim::online_analysis with window 16 / slide 1 and k=2. Fed
// time-major; the sink drops the windows. items/sec reads as cuts/sec.
class dropping_sink final : public cwcsim::event_sink {
 public:
  void window(cwcsim::window_summary&& w) override {
    benchmark::DoNotOptimize(w.cuts.data());
  }
  void trajectory_done(const cwcsim::task_done&) override {}
  bool stop_requested() const noexcept override { return false; }
};

void bm_online_analysis_slide1(benchmark::State& state) {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 256;
  cfg.t_end = 40.0;
  cfg.sample_period = 0.25;
  cfg.window_size = 16;
  cfg.window_slide = 1;
  cfg.kmeans_k = 2;
  cfg.seed = 1;
  const auto m = models::make_neurospora_cwc({});
  cwcsim::model_ref ref;
  ref.tree = &m;
  ref.compile();
  std::vector<std::vector<cwc::trajectory_sample>> samples(cfg.num_trajectories);
  for (std::uint64_t i = 0; i < cfg.num_trajectories; ++i) {
    auto eng = ref.make_engine(cfg.seed, i);
    eng.run_to(cfg.t_end, cfg.sample_period, samples[i]);
  }
  const std::size_t cuts = cfg.num_samples();
  for (auto _ : state) {
    dropping_sink sink;
    cwcsim::online_analysis analysis(cfg, ref.num_observables(), sink);
    for (std::size_t k = 0; k < cuts; ++k)
      for (std::uint64_t i = 0; i < cfg.num_trajectories; ++i)
        analysis.ingest(i, samples[i][k]);
    analysis.finish();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cuts));
  state.counters["ns_per_cut"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(cuts),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(bm_online_analysis_slide1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
