// The cwcsim::distributed backend driver: the distributed deployment of
// the CWC simulation-analysis pipeline (paper §IV-B, Fig. 2 bottom). A
// virtual cluster of multicore hosts, each running a farm of simulation
// engines, streams serialized results to a master that runs the alignment
// + statistics + sliding-window stages on-line.
//
// Sessions reach it through run_builder(...).backend(cwcsim::distributed
// {...}). Tests and benches that need the knobs the descriptor does not
// carry (host_speed, kills, the elastic timeouts) construct cluster_driver
// directly from a dist_config and run it against their own event_sink.
//
// Scheduling is ELASTIC by default (the paper's Fig. 6 cloud-hetero
// scenario): instead of a static start-of-run partition, the master keeps
// a work queue of trajectory quanta that idle hosts PULL at their observed
// throughput over a per-host control channel. Every executed quantum comes
// back as one atomic schema-versioned checkpoint frame (samples + progress
// high-water mark), the master tracks in-flight deadlines with
// net_channel::recv_for(), re-issues quanta whose owner went quiet
// (straggler or dead host), and accepts each (trajectory, quantum) exactly
// once — late duplicates from superseded executions are discarded. Because
// every trajectory's engine is a pure function of (seed, trajectory_id),
// ANY host resumes ANY trajectory deterministically: it replays the
// already-acked quanta locally without emitting, then streams from the
// checkpoint onward, so a lost host costs only its in-flight quantum of
// results. The no-fault, homogeneous elastic run is bit-exact with both
// the static partition and the shared-memory pipeline, regardless of how
// trajectories are re-sharded or how messages interleave on the network.
//
// schedule_mode::static_block keeps the pre-elastic contiguous partition
// (for comparison benchmarks); it cannot survive a host failure.
//
// Fault injection: net_params.drop_prob models seeded message loss on
// every data-plane link, and each dist_config::kills entry makes a host
// vanish — mid-quantum, without a goodbye — once it has executed its
// kill_spec::at_sim_time simulated seconds. The elastic scheduler recovers
// from both; results stay bit-identical to the no-fault run.
//
// The model itself crosses the wire ONCE per run: the master encodes the
// model description into a versioned frame (dist/model_codec.hpp) and
// ships it to every host over the modeled network; each host decodes and
// compiles its own cwc::compiled_model, then builds every engine from that
// shared artifact. Models that cannot be encoded (custom rate laws) fall
// back to sharing the master's in-process artifact.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cwcsim.hpp"
#include "dist/net_params.hpp"

namespace dist {

/// How the master assigns trajectories to hosts.
enum class schedule_mode {
  /// Pull-based work queue of trajectory quanta with deadline-driven
  /// re-issue and exactly-once accounting (the default).
  elastic,
  /// Contiguous blocks fixed at start-of-run (the pre-elastic behaviour;
  /// comparison baseline — one slow host stalls the run, a dead one would
  /// lose its block).
  static_block,
};

/// Fault-injection hook: host `host` dies abruptly (no close, no goodbye)
/// once it has executed `at_sim_time` simulated seconds of trajectory
/// time, losing whatever quantum was in flight.
struct kill_spec {
  unsigned host = 0;
  double at_sim_time = 0.0;
};

/// Deployment description: the base pipeline configuration plus the shape
/// of the virtual cluster, its network, and the scheduling/fault knobs.
struct dist_config {
  cwcsim::sim_config base;
  unsigned num_hosts = 2;        ///< simulated multicore hosts
  unsigned workers_per_host = 2; ///< simulation engines per host
  net_params network;            ///< host <-> master link model

  // ---- elastic scheduling ------------------------------------------------
  schedule_mode scheduling = schedule_mode::elastic;
  /// Wall-clock deadline on per-trajectory progress: an in-flight
  /// trajectory that produced no accepted checkpoint for this long is
  /// re-queued for re-issue (straggler / dead host / lost frame).
  double reissue_after_s = 0.25;
  /// Master recv_for() slice between deadline scans.
  double master_tick_s = 0.02;
  /// Idle-worker wait for a grant before re-sending its work request
  /// (self-heals a lost request or grant).
  double worker_retry_s = 0.05;

  // ---- heterogeneity / fault injection ----------------------------------
  /// Relative per-host speed (1.0 = nominal; 0.25 = a 4x-slower host:
  /// every quantum takes 4x its measured wall time). Empty = homogeneous.
  std::vector<double> host_speed;
  /// Hosts that die mid-run (see kill_spec). Requires elastic scheduling.
  std::vector<kill_spec> kills;
};

/// The virtual-cluster runtime. run() blocks until the campaign
/// completes: the master pushes each window summary and completion notice
/// through `sink` as the on-line analysis emits it, honours
/// sink.stop_requested() at quantum boundaries on every host, and fills
/// `report` (result.windows excepted — the sink's owner collects the
/// stream) including run_report::network.
class cluster_driver final : public cwcsim::backend_driver {
 public:
  /// Validates `cfg` and compiles the model (the master's artifact, and
  /// the fallback for models that cannot cross the wire).
  cluster_driver(cwcsim::model_ref model, dist_config cfg);

  const char* name() const noexcept override { return "distributed"; }
  void run(cwcsim::event_sink& sink, cwcsim::run_report& report) override;

 private:
  void run_elastic(cwcsim::event_sink& sink, cwcsim::run_report& report);
  void run_static(cwcsim::event_sink& sink, cwcsim::run_report& report);

  cwcsim::model_ref model_;
  dist_config cfg_;
};

}  // namespace dist
