// Reproduces paper Table I: execution time of the Neurospora model on the
// 32-core Intel platform vs the NVidia K40 GPU, for 128/512/1024/2048
// simulations and quantum/samples ratios Q/tau = 10 and Q/tau = 1.
//
// Expected shape (paper):
//   - the GPU loses at 128 simulations (can't fill the device, launch
//     overhead) and wins ~2x at >= 512;
//   - Q/tau barely affects the CPU but matters on the GPU: at small N a
//     large quantum amortises launches; at N = 2048 (warp slots saturated)
//     the small quantum re-balances divergent warps and wins.
#include <cstdio>

#include "bench_common.hpp"
#include "simt/simt.hpp"
#include "util/table.hpp"

int main() {
  const auto cap = bench::capture_neurospora(2048, 60.0, 0.25);
  const auto cpu_host = des::platforms::nehalem_32core();
  // The paper's K40 sits in a small quad-core i3 host.
  const des::host_spec i3{"i3-quadcore", 4, 1.0, 1.0};
  // The device runs an SSA step 1.5x slower per lane than the calibrated
  // host core, so both platforms share this run's per-step cost.
  auto k40 = simt::devices::tesla_k40();
  k40.lane_step_ns = 1.5 * cap.cal.sim_ns_per_step;

  std::printf("=== Table I: execution time (model s), CPU 32 cores vs K40 ===\n");
  util::table t({"N sims", "CPU Q/t=10", "CPU Q/t=1", "GPU Q/t=10", "GPU Q/t=1",
                 "GPU div(Q=10)", "GPU div(Q=1)"});

  for (const std::uint64_t n : {128u, 512u, 1024u, 2048u}) {
    const auto fine = cap.workload.slice(n);       // Q/tau = 1
    const auto coarse = fine.rebin(10);            // Q/tau = 10

    auto cpu_time = [&](const des::workload& w) {
      des::farm_params fp;
      fp.sim_workers = 32;
      fp.stat_engines = 4;
      fp.window_size = 16;
      fp.window_slide = 16;
      return des::simulate_multicore(w, cap.cal, cpu_host, fp).makespan_s;
    };
    auto gpu_run = [&](const des::workload& w) {
      simt::gpu_params gp;
      gp.stat_engines = 2;
      gp.window_size = 16;
      gp.window_slide = 16;
      return simt::simulate_gpu(w, cap.cal, k40, i3, gp);
    };

    const double cpu10 = cpu_time(coarse);
    const double cpu1 = cpu_time(fine);
    const auto gpu10 = gpu_run(coarse);
    const auto gpu1 = gpu_run(fine);

    t.add_row({std::to_string(n), util::table::num(cpu10, 2),
               util::table::num(cpu1, 2),
               util::table::num(gpu10.pipeline.makespan_s, 2),
               util::table::num(gpu1.pipeline.makespan_s, 2),
               util::table::num(gpu10.divergence_factor, 2) + "x",
               util::table::num(gpu1.divergence_factor, 2) + "x"});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf(
      "\nPaper shape: CPU time linear in N and insensitive to the quantum;\n"
      "GPU slower at N=128, about 2x faster at N>=1024; the small quantum\n"
      "wins on the GPU at N=2048 where warp slots saturate.\n");
  return 0;
}
