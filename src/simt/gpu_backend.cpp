#include "simt/gpu_backend.hpp"

#include <algorithm>
#include <memory>

#include "core/online_analysis.hpp"
#include "cwc/batch/batch_engine.hpp"
#include "des/trace.hpp"
#include "simt/executor.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace simt {

gpu_driver::gpu_driver(cwcsim::model_ref model, const cwcsim::sim_config& cfg,
                       const cwcsim::gpu& desc)
    : model_(std::move(model)), cfg_(cfg), desc_(desc) {
  util::expects(model_.tree != nullptr || model_.flat != nullptr,
                "gpu_driver requires a model");
  cwcsim::validate(cfg_, desc_);
  // Compile once: the calibration engines below and every kernel lane later
  // derive from the same shared artifact.
  model_.compile();
  ns_per_step_ = des::calibrate(model_, cfg_).sim_ns_per_step;
}

double gpu_driver::divergence_theta() const noexcept {
  return desc_.coherence_time > 0.0
             ? std::min(1.0, cfg_.quantum / desc_.coherence_time)
             : 0.0;
}

void gpu_driver::run(cwcsim::event_sink& sink, cwcsim::run_report& report) {
  if (desc_.batch_width > 1 &&
      cwc::batch::batch_engine::supports(*model_.compiled)) {
    run_batched(sink, report);
    return;
  }
  run_scalar(sink, report);
}

void gpu_driver::run_batched(cwcsim::event_sink& sink,
                             cwcsim::run_report& report) {
  util::stopwatch wall;
  report.device.emplace();
  cwcsim::run_report::device_stats& dev_stats = *report.device;
  const device_spec& dev = desc_.device;
  const double theta = divergence_theta();

  // Slice the campaign into SoA batch engines of batch_width contiguous
  // trajectory ids. Lane i of group g IS trajectory g*W + i — the same
  // (seed, id) RNG stream as a scalar lane, so results are bit-identical.
  struct batch_group {
    std::unique_ptr<cwc::batch::batch_engine> eng;
    std::vector<std::vector<cwc::trajectory_sample>> samples;
    std::vector<std::uint64_t> steps_before;
    std::vector<std::uint64_t> prev_steps;  ///< warp re-packing predictor
    std::vector<std::uint8_t> retired;
    std::size_t live = 0;
  };
  std::vector<batch_group> groups;
  for (std::uint64_t first = 0; first < cfg_.num_trajectories;
       first += desc_.batch_width) {
    const auto w = static_cast<std::size_t>(std::min<std::uint64_t>(
        desc_.batch_width, cfg_.num_trajectories - first));
    batch_group g;
    g.eng = std::make_unique<cwc::batch::batch_engine>(model_.compiled,
                                                       cfg_.seed, first, w);
    g.samples.resize(w);
    g.steps_before.assign(w, 0);
    g.prev_steps.assign(w, 0);
    g.retired.assign(w, 0);
    g.live = w;
    groups.push_back(std::move(g));
  }

  cwcsim::online_analysis analysis(cfg_, model_.num_observables(), sink);

  double total_lane_s = 0.0;
  double total_warp_s = 0.0;
  std::uint64_t live_lanes = cfg_.num_trajectories;
  // (predictor, lane virtual seconds) of each live lane, re-packed into
  // warps by predicted cost like the scalar path re-packs instances.
  std::vector<std::pair<std::uint64_t, double>> packed;
  std::vector<double> lane_seconds;

  while (live_lanes > 0 && !sink.stop_requested()) {
    // One ff_mapCUDA offload: every live batch advances one quantum in
    // lockstep; per-lane virtual time comes from the per-lane step deltas.
    packed.clear();
    for (batch_group& g : groups) {
      if (g.live == 0) continue;
      for (std::size_t i = 0; i < g.samples.size(); ++i) {
        g.samples[i].clear();
        g.steps_before[i] = g.eng->steps(i);
      }
      g.eng->step_quantum(cfg_.quantum, cfg_.t_end, cfg_.sample_period,
                          g.samples);
      for (std::size_t i = 0; i < g.samples.size(); ++i) {
        if (g.retired[i] != 0) continue;
        const std::uint64_t steps = g.eng->steps(i) - g.steps_before[i];
        packed.emplace_back(g.prev_steps[i],
                            static_cast<double>(steps) * ns_per_step_ * 1e-9 *
                                dev.step_slowdown);
        g.prev_steps[i] = steps;
      }
    }
    // Stream-level re-balancing (paper §V-C): pack lanes with similar
    // predicted cost (last quantum's steps) into the same warps.
    std::stable_sort(packed.begin(), packed.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    lane_seconds.clear();
    for (const auto& [pred, sec] : packed) lane_seconds.push_back(sec);

    const kernel_stats ks = kernel_makespan(lane_seconds, dev, theta);

    // Host-side on-line analysis between kernels, lanes ingested in
    // trajectory order (deterministic stream). Retired groups are skipped:
    // the advance loop above no longer clears their sample buffers, so
    // without the guard a dead group's final batch would be re-ingested
    // every remaining round.
    double bytes = 0.0;
    for (batch_group& g : groups) {
      if (g.live == 0) continue;
      for (std::size_t i = 0; i < g.samples.size(); ++i) {
        for (const auto& s : g.samples[i]) {
          analysis.ingest(g.eng->lane_id(i), s);
          bytes += static_cast<double>(s.values.size()) * 8.0 + 16.0;
        }
      }
    }
    const double mem_s =
        dev.unified_mem_bytes_s > 0 ? bytes / dev.unified_mem_bytes_s : 0.0;
    dev_stats.device_seconds += ks.device_seconds + mem_s;
    total_lane_s += ks.busy_lane_seconds;
    total_warp_s += ks.busy_warp_seconds;
    ++dev_stats.kernels;

    for (batch_group& g : groups) {
      if (g.live == 0) continue;
      for (std::size_t i = 0; i < g.samples.size(); ++i) {
        if (g.retired[i] != 0 || g.eng->time(i) < cfg_.t_end) continue;
        g.retired[i] = 1;
        --g.live;
        --live_lanes;
        cwcsim::task_done d;
        d.trajectory_id = g.eng->lane_id(i);
        d.quanta = dev_stats.kernels;
        d.steps = g.eng->steps(i);
        report.result.completions.push_back(d);
        sink.trajectory_done(d);
      }
    }
  }

  analysis.finish();

  report.result.sim_workers = 0;
  report.result.stat_engines = 1;
  report.result.wall_seconds = wall.elapsed_s();
  dev_stats.divergence_factor =
      total_lane_s > 0.0 ? total_warp_s * dev.warp_size / total_lane_s : 1.0;
}

void gpu_driver::run_scalar(cwcsim::event_sink& sink,
                            cwcsim::run_report& report) {
  util::stopwatch wall;
  report.device.emplace();
  cwcsim::run_report::device_stats& dev_stats = *report.device;
  const device_spec& dev = desc_.device;
  const double theta = divergence_theta();

  struct lane {
    std::uint64_t id = 0;
    cwcsim::any_engine engine;
    std::vector<cwc::trajectory_sample> samples;  // batch of current kernel
    std::uint64_t steps_before = 0;
    std::uint64_t prev_steps = 0;  // warp re-packing predictor

    lane(std::uint64_t id_, cwcsim::any_engine e)
        : id(id_), engine(std::move(e)) {}
  };

  // "Unified memory": engines live in host memory and are handed to the
  // device wholesale — no serialisation step, as the paper highlights.
  std::vector<lane> lanes;
  lanes.reserve(cfg_.num_trajectories);
  for (std::uint64_t i = 0; i < cfg_.num_trajectories; ++i)
    lanes.emplace_back(i, model_.make_engine(cfg_.seed, i));

  // On-line analysis between kernels: completed cuts stream out of the
  // assembler into sliding windows while later kernels still execute —
  // the same align -> window -> summarize path as the other backends, so
  // the windowed statistics are bit-exact across deployments.
  cwcsim::online_analysis analysis(cfg_, model_.num_observables(), sink);

  double total_lane_s = 0.0;
  double total_warp_s = 0.0;

  std::vector<lane*> live;
  for (auto& l : lanes) live.push_back(&l);
  while (!live.empty() && !sink.stop_requested()) {
    // Stream-level load re-balancing (paper §V-C): re-pack the surviving
    // instances into warps sorted by predicted cost (last quantum's steps)
    // so lanes with similar progress rates share a warp.
    std::stable_sort(live.begin(), live.end(), [](const lane* a, const lane* b) {
      return a->prev_steps < b->prev_steps;
    });

    // One ff_mapCUDA offload: every live instance advances one quantum.
    const kernel_stats ks = map_kernel(
        dev, std::span<lane*>(live),
        [&](lane* l) -> double {
          l->samples.clear();
          l->steps_before = l->engine.steps();
          const double horizon =
              std::min(l->engine.time() + cfg_.quantum, cfg_.t_end);
          l->engine.run_to(horizon, cfg_.sample_period, l->samples);
          if (l->engine.stalled() && l->engine.time() < cfg_.t_end)
            l->engine.run_to(cfg_.t_end, cfg_.sample_period, l->samples);
          l->prev_steps = l->engine.steps() - l->steps_before;
          return static_cast<double>(l->prev_steps) * ns_per_step_ * 1e-9 *
                 dev.step_slowdown;
        },
        theta);

    double bytes = 0.0;
    for (lane* l : live) {
      for (const auto& s : l->samples) {
        analysis.ingest(l->id, s);
        bytes += static_cast<double>(s.values.size()) * 8.0 + 16.0;
      }
    }
    const double mem_s =
        dev.unified_mem_bytes_s > 0 ? bytes / dev.unified_mem_bytes_s : 0.0;
    dev_stats.device_seconds += ks.device_seconds + mem_s;
    total_lane_s += ks.busy_lane_seconds;
    total_warp_s += ks.busy_warp_seconds;
    ++dev_stats.kernels;

    // Retire finished instances; survivors are re-packed into fresh warps
    // (the stream-level re-balancing the paper credits for GPU viability).
    std::erase_if(live, [&](lane* l) {
      if (l->engine.time() < cfg_.t_end) return false;
      cwcsim::task_done d;
      d.trajectory_id = l->id;
      d.quanta = dev_stats.kernels;
      d.steps = l->engine.steps();
      report.result.completions.push_back(d);
      sink.trajectory_done(d);
      return true;
    });
  }

  analysis.finish();

  report.result.sim_workers = 0;
  report.result.stat_engines = 1;
  report.result.wall_seconds = wall.elapsed_s();
  dev_stats.divergence_factor =
      total_lane_s > 0.0 ? total_warp_s * dev.warp_size / total_lane_s : 1.0;
}

}  // namespace simt

namespace cwcsim::detail {

std::unique_ptr<backend_driver> make_gpu_driver(const model_ref& model,
                                                const sim_config& cfg,
                                                const gpu& b) {
  return std::make_unique<simt::gpu_driver>(model, cfg, b);
}

}  // namespace cwcsim::detail
