// The traced per-layer replay: each workload's configuration run again
// single-threaded through the public layer functions, in pipeline order,
// timing every call. Its busy times are the per-layer ledger; the replay's
// own output must equal the end-to-end run's (same digest / report JSON),
// so the ledger provably describes the same work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "cwc/model.hpp"
#include "sweep/plan.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What the end-to-end runs measured, for the ledger's ratios.
struct e2e_reference {
  double wall_s = 0.0;  ///< median untraced wall time of one run
  double cpu_s = 0.0;   ///< median process CPU time of one run
};

/// paper_farm / paper_batched: scalar engines or batch_engine lanes, then
/// cut_assembler -> sliding_window_builder -> summarize_cut + kmeans.
metric_values replay_paper(const cwc::model& m, const cwcsim::sim_config& cfg,
                           bool batched, std::uint64_t expect_digest,
                           const e2e_reference& ref, checks& chk, tracer* tr);

/// One tenants_open session as the server ran it.
struct session_record {
  const cwc::model* model = nullptr;
  cwcsim::sim_config cfg;
  std::uint64_t digest = 0;
};

/// tenants_open: per session, the open frame and model cache, scalar
/// engine quanta, the per-session analysis, and the window frames'
/// encode/decode.
metric_values replay_sessions(const std::vector<session_record>& sessions,
                              const e2e_reference& ref, checks& chk,
                              tracer* tr);

/// sweep_grid: per-cell overlays, multi-cell batch_engine lanes, and the
/// per-cell cut assembly, windows and Welford/P2 folds.
metric_values replay_sweep(const cwc::model& m, const cwcsim::sim_config& cfg,
                           const cwcsim::sweep::plan& plan,
                           const std::string& expect_json,
                           const e2e_reference& ref, checks& chk, tracer* tr);

/// The DES calibration check: paper_farm's configuration through
/// des::calibrate, des::capture_workload and des::simulate_multicore at
/// this host's core count, against the measured wall time.
metric_values des_check(const cwc::model& m, const cwcsim::sim_config& cfg,
                        double measured_wall_s);

}  // namespace perfbench
