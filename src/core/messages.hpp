// Message types flowing through the CWC pipeline (ff::token payloads), and
// the engine abstraction letting the same pipeline run CWC term models or
// flat reaction networks.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "cwc/cwc.hpp"
#include "stats/cut.hpp"

namespace cwcsim {

/// Either stochastic engine, same quantum/sampling contract.
class any_engine {
 public:
  /// Farm path: construct from the shared compiled artifact (tree or flat
  /// dispatch happens on the artifact's kind). No per-trajectory recompile.
  any_engine(std::shared_ptr<const cwc::compiled_model> cm, std::uint64_t seed,
             std::uint64_t id)
      : impl_(make_impl(std::move(cm), seed, id)) {}

  // Legacy recompile paths (compile a private artifact per engine).
  any_engine(const cwc::model& m, std::uint64_t seed, std::uint64_t id)
      : impl_(std::in_place_type<cwc::engine>, m, seed, id) {}
  any_engine(const cwc::reaction_network& n, std::uint64_t seed, std::uint64_t id)
      : impl_(std::in_place_type<cwc::flat_engine>, n, seed, id) {}

  double time() const {
    return std::visit([](const auto& e) { return e.time(); }, impl_);
  }
  std::uint64_t steps() const {
    return std::visit([](const auto& e) { return e.steps(); }, impl_);
  }
  bool stalled() const {
    return std::visit([](const auto& e) { return e.stalled(); }, impl_);
  }
  void run_to(double t_end, double sample_period,
              std::vector<cwc::trajectory_sample>& out) {
    std::visit([&](auto& e) { e.run_to(t_end, sample_period, out); }, impl_);
  }

 private:
  static std::variant<cwc::engine, cwc::flat_engine> make_impl(
      std::shared_ptr<const cwc::compiled_model> cm, std::uint64_t seed,
      std::uint64_t id) {
    if (cm != nullptr && cm->is_tree())
      return std::variant<cwc::engine, cwc::flat_engine>(
          std::in_place_type<cwc::engine>, std::move(cm), seed, id);
    return std::variant<cwc::engine, cwc::flat_engine>(
        std::in_place_type<cwc::flat_engine>, std::move(cm), seed, id);
  }

  std::variant<cwc::engine, cwc::flat_engine> impl_;
};

/// Either model kind accepted by the pipeline. Callers that spin up many
/// engines (the session/backend drivers, the batch simulators, the DES
/// workload capture) call compile() once up front so every engine shares
/// one immutable cwc::compiled_model instead of rebuilding the static
/// per-model tables per trajectory.
struct model_ref {
  const cwc::model* tree = nullptr;
  const cwc::reaction_network* flat = nullptr;
  /// The shared per-model artifact; null until compile() runs.
  std::shared_ptr<const cwc::compiled_model> compiled;

  /// Compile the model once (idempotent). Engines made afterwards share
  /// the artifact.
  void compile() {
    if (compiled != nullptr) return;
    compiled = tree != nullptr ? cwc::compiled_model::compile(*tree)
                               : cwc::compiled_model::compile(*flat);
  }

  std::size_t num_observables() const {
    if (compiled != nullptr) return compiled->num_observables();
    return tree != nullptr ? tree->observables().size() : flat->num_species();
  }
  any_engine make_engine(std::uint64_t seed, std::uint64_t id) const {
    if (compiled != nullptr) return any_engine(compiled, seed, id);
    if (tree != nullptr) return any_engine(*tree, seed, id);
    return any_engine(*flat, seed, id);
  }
};

/// A simulation task: one trajectory advanced quantum by quantum. Tasks are
/// "wrapped in a C++ object ... passed to the farm of simulation engines"
/// and rescheduled "back along the feedback channel" until t_end (paper
/// §IV-A1).
struct sim_task {
  std::uint64_t trajectory_id = 0;
  any_engine engine;
  std::uint64_t quantum_index = 0;  ///< scheduling rounds completed

  sim_task(std::uint64_t id, any_engine e)
      : trajectory_id(id), engine(std::move(e)) {}
};

/// Worker -> scheduler notification that a trajectory reached t_end.
struct task_done {
  std::uint64_t trajectory_id = 0;
  std::uint64_t quanta = 0;
  std::uint64_t steps = 0;
};

/// One quantum's worth of samples for one trajectory, streamed to the
/// alignment stage.
struct sample_batch {
  std::uint64_t trajectory_id = 0;
  std::vector<cwc::trajectory_sample> samples;
};

/// Per-quantum service-time record captured for the DES platform models.
struct quantum_record {
  std::uint64_t trajectory_id = 0;
  std::uint64_t quantum_index = 0;
  std::uint64_t ssa_steps = 0;   ///< deterministic work measure
  std::uint64_t wall_ns = 0;     ///< measured on this machine
  std::uint32_t samples = 0;     ///< samples emitted in this quantum
};

/// One analysis window: the summaries of its consecutive cuts. Each cut is
/// summarized once, and every window it belongs to carries a copy.
using window_summary = stats::basic_window<stats::cut_summary>;

}  // namespace cwcsim
