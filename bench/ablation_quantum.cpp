// Ablation (paper §V-C claim): "quantum size negligibly affects multi-core
// performance whereas significantly affects GPGPU performance. It
// eventually makes it possible to tune the same code to platforms with
// quite different hardware execution models." Sweeps Q/tau over both
// platform models.
#include <cstdio>

#include "bench_common.hpp"
#include "simt/simt.hpp"
#include "util/table.hpp"

int main() {
  const auto cap = bench::capture_neurospora(1024, 60.0, 0.25);
  const auto cpu_host = des::platforms::nehalem_32core();
  const des::host_spec i3{"i3-quadcore", 4, 1.0, 1.0};
  // The device runs an SSA step 1.5x slower per lane than the calibrated
  // host core, so both platforms share this run's per-step cost.
  auto k40 = simt::devices::tesla_k40();
  k40.lane_step_ns = 1.5 * cap.cal.sim_ns_per_step;

  std::printf("=== Ablation A2: quantum sweep, CPU (32 cores) vs GPU (K40) ===\n");
  util::table t({"Q/tau", "CPU (s)", "CPU vs best", "GPU (s)", "GPU vs best",
                 "GPU kernels", "GPU divergence"});

  struct row {
    std::size_t ratio;
    double cpu, gpu, div;
    std::uint64_t kernels;
  };
  std::vector<row> rows;
  for (const std::size_t ratio : {1u, 2u, 5u, 10u, 20u, 60u, 240u}) {
    const auto w = ratio == 1 ? cap.workload : cap.workload.rebin(ratio);
    des::farm_params fp;
    fp.sim_workers = 32;
    fp.stat_engines = 4;
    fp.window_size = 16;
    fp.window_slide = 16;
    const double cpu = des::simulate_multicore(w, cap.cal, cpu_host, fp).makespan_s;

    simt::gpu_params gp;
    gp.stat_engines = 2;
    gp.window_size = 16;
    gp.window_slide = 16;
    const auto g = simt::simulate_gpu(w, cap.cal, k40, i3, gp);
    rows.push_back({ratio, cpu, g.pipeline.makespan_s, g.divergence_factor,
                    g.kernels});
  }
  double cpu_best = rows[0].cpu, gpu_best = rows[0].gpu;
  for (const auto& r : rows) {
    cpu_best = std::min(cpu_best, r.cpu);
    gpu_best = std::min(gpu_best, r.gpu);
  }
  for (const auto& r : rows) {
    t.add_row({std::to_string(r.ratio), util::table::num(r.cpu, 2),
               util::table::num(100.0 * (r.cpu / cpu_best - 1.0), 1) + "%",
               util::table::num(r.gpu, 2),
               util::table::num(100.0 * (r.gpu / gpu_best - 1.0), 1) + "%",
               std::to_string(r.kernels), util::table::num(r.div, 2) + "x"});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf(
      "\nExpected: the CPU column varies by a few percent across the whole\n"
      "sweep; the GPU column has a clear optimum (launch overhead at small\n"
      "Q vs divergence accumulation and scheduling grain at large Q).\n");
  return 0;
}
