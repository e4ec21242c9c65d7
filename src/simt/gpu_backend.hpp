// The cwcsim::gpu backend driver: the CWC simulator with the farm of
// simulation engines replaced by ff_mapCUDA-style lockstep kernels on the
// SIMT device model (paper §IV-C). Each kernel is one round of the shared
// lane executor (core/lane_rounds.hpp) run host-serially; the per-lane
// step counts of the round, packed into warps by predicted cost, give the
// modeled device time in run_report::device. Results are bit-for-bit
// identical to the multicore backend for the same configuration — the
// per-trajectory RNG streams make trajectories independent of where they
// execute. capture_trace is rejected: kernels have no per-quantum service
// times.
//
// Sessions reach it through run_builder(...).backend(cwcsim::gpu{...}).
#pragma once

#include "core/cwcsim.hpp"
#include "simt/device.hpp"

namespace simt {

class gpu_driver final : public cwcsim::backend_driver {
 public:
  /// Validates `cfg` and compiles the model. gpu::batch_width > 1 runs
  /// batchable models as SoA strips of that width; every other case runs
  /// scalar lanes. Either way each lane's virtual time is its steps that
  /// kernel times device_spec::lane_step_ns, and warps are packed by one
  /// rule: the lanes that ran, stable-sorted by their previous kernel's
  /// steps. device_seconds thus depends only on (model, cfg, device).
  gpu_driver(cwcsim::model_ref model, const cwcsim::sim_config& cfg,
             const cwcsim::gpu& desc);

  const char* name() const noexcept override { return "gpu"; }

  /// Execute the campaign as a sequence of lockstep kernels. Cuts are
  /// assembled between kernels, and each completed window summary and
  /// retired trajectory flows through `sink` while later kernels still
  /// execute; sink.stop_requested() is honoured at kernel boundaries.
  /// Fills `report` (result.windows excepted — the sink's owner collects
  /// the stream).
  void run(cwcsim::event_sink& sink, cwcsim::run_report& report) override;

 private:
  /// Per-quantum path-decoherence fraction of the divergence model.
  double divergence_theta() const noexcept;

  cwcsim::model_ref model_;
  cwcsim::sim_config cfg_;
  cwcsim::gpu desc_;
};

}  // namespace simt
