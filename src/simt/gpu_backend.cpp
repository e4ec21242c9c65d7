#include "simt/gpu_backend.hpp"

#include <algorithm>
#include <memory>

#include "core/lane_rounds.hpp"
#include "core/online_analysis.hpp"
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
  model_.compile();  // every kernel lane derives from one shared artifact
}

double gpu_driver::divergence_theta() const noexcept {
  return desc_.coherence_time > 0.0
             ? std::min(1.0, cfg_.quantum / desc_.coherence_time)
             : 0.0;
}

void gpu_driver::run(cwcsim::event_sink& sink, cwcsim::run_report& report) {
  util::stopwatch wall;
  report.device.emplace();
  cwcsim::run_report::device_stats& dev_stats = *report.device;
  const device_spec& dev = desc_.device;
  const double theta = divergence_theta();

  // "Unified memory": lanes live in host memory and are handed to the
  // device wholesale — no serialisation step, as the paper highlights. The
  // host runs the kernels serially, so the executor gets one worker.
  cwcsim::lane_rounds lanes({model_.compiled}, cfg_, desc_.batch_width, 1);

  // On-line analysis between kernels: completed cuts stream out of the
  // assembler into sliding windows while later kernels still execute —
  // the same align -> window -> summarize path as the other backends, so
  // the windowed statistics are bit-exact across deployments.
  cwcsim::online_analysis analysis(cfg_, model_.num_observables(), sink);

  double total_lane_s = 0.0;
  double total_warp_s = 0.0;
  std::vector<std::uint64_t> prev_steps(cfg_.num_trajectories, 0);
  // (predicted cost, lane virtual seconds) of each lane of a kernel.
  std::vector<std::pair<std::uint64_t, double>> packed;
  std::vector<double> lane_seconds;

  while (lanes.live() > 0 && !sink.stop_requested()) {
    // One ff_mapCUDA offload: every live lane advances one quantum.
    double bytes = 0.0;
    lanes.step(
        [&](std::uint32_t, std::uint64_t trajectory,
            const cwc::trajectory_sample& s) {
          analysis.ingest(trajectory, s);
          bytes += static_cast<double>(s.values.size()) * 8.0 + 16.0;
        },
        [&](std::uint32_t, const cwcsim::task_done& d) {
          report.result.completions.push_back(d);
          sink.trajectory_done(d);
        });

    // Stream-level re-balancing (paper §V-C): pack lanes with similar
    // predicted cost (the previous quantum's steps) into the same warps.
    packed.clear();
    for (const auto& [lane, steps] : lanes.last_round()) {
      packed.emplace_back(prev_steps[lane], static_cast<double>(steps) *
                                                dev.lane_step_ns * 1e-9);
      prev_steps[lane] = steps;
    }
    std::stable_sort(packed.begin(), packed.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    lane_seconds.clear();
    for (const auto& [pred, sec] : packed) lane_seconds.push_back(sec);

    const kernel_stats ks = kernel_makespan(lane_seconds, dev, theta);
    const double mem_s =
        dev.unified_mem_bytes_s > 0 ? bytes / dev.unified_mem_bytes_s : 0.0;
    dev_stats.device_seconds += ks.device_seconds + mem_s;
    total_lane_s += ks.busy_lane_seconds;
    total_warp_s += ks.busy_warp_seconds;
    ++dev_stats.kernels;
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
