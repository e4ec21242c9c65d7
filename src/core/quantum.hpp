// The per-quantum advancement contract shared by every deployment: run one
// scheduling quantum, fast-forward stalled trajectories to the horizon,
// and report the samples, the service-time record, and completion.
//
// Two units advance under it. An any_engine is one trajectory (the
// distributed hosts and the run server lease these). A strip is a run of
// consecutive lanes, one batch_engine slice or one any_engine, and is
// the task of the Fig. 2 farm worker (sim_engine_node) and the unit of
// the lockstep executor (lane_rounds). Keeping both here is what makes
// the cross-backend bit-exactness guarantee durable: every deployment
// advances trajectories with the same horizon clamp and the same
// stalled-tail handling.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "cwc/batch/batch_engine.hpp"
#include "util/stopwatch.hpp"

namespace cwcsim {

struct quantum_outcome {
  sample_batch batch;     ///< samples produced this quantum (may be empty)
  quantum_record record;  ///< service-time record (for capture_trace)
  bool finished = false;  ///< trajectory reached t_end
  task_done done;         ///< valid when finished
};

/// Advance `engine` by one quantum of `cfg.quantum` simulated time
/// (clamped to cfg.t_end), sampling every cfg.sample_period. The samples
/// land in `buffer`'s storage (its contents are dropped), so a caller that
/// hands the previous quantum's samples back allocates nothing.
inline quantum_outcome advance_one_quantum(
    any_engine& engine, const sim_config& cfg, std::uint64_t trajectory_id,
    std::uint64_t quantum_index,
    std::vector<cwc::trajectory_sample> buffer = {}) {
  quantum_outcome out;
  util::stopwatch sw;
  const std::uint64_t steps_before = engine.steps();

  out.batch.trajectory_id = trajectory_id;
  out.batch.samples = std::move(buffer);
  out.batch.samples.clear();
  const double horizon = std::min(engine.time() + cfg.quantum, cfg.t_end);
  engine.run_to(horizon, cfg.sample_period, out.batch.samples);
  if (engine.stalled() && engine.time() < cfg.t_end) {
    // No reaction can ever fire again: emit the frozen tail immediately
    // instead of rescheduling a dead trajectory.
    engine.run_to(cfg.t_end, cfg.sample_period, out.batch.samples);
  }

  out.record.trajectory_id = trajectory_id;
  out.record.quantum_index = quantum_index;
  out.record.ssa_steps = engine.steps() - steps_before;
  out.record.wall_ns = sw.elapsed_ns();
  out.record.samples = static_cast<std::uint32_t>(out.batch.samples.size());

  if (engine.time() >= cfg.t_end) {
    out.finished = true;
    out.done.trajectory_id = trajectory_id;
    out.done.quanta = quantum_index + 1;
    out.done.steps = engine.steps();
  }
  return out;
}

/// Lanes [first, first + width()) of a campaign over `cells` (one compiled
/// model, or rate-constant overlays of one root) in cell-major order: lane
/// g is trajectory g % N of cell g / N, N = cfg.num_trajectories. A strip
/// wider than one lane is one SoA batch_engine slice (it may cross a cell
/// boundary); a one-lane strip is one any_engine. Either way lane g replays
/// the scalar engine (cells[g / N], cfg.seed, g % N) bit for bit.
struct strip {
  using cell_list = std::vector<std::shared_ptr<const cwc::compiled_model>>;
  /// `finished`: reached t_end in the last quantum; `retired`: before it.
  enum class lane : std::uint8_t { live, finished, retired };

  /// A width above one needs batch_engine::supports() on every cell.
  strip(const cell_list& cells, const sim_config& cfg, std::uint64_t first_lane,
        std::size_t width)
      : first(first_lane),
        samples(width),
        steps_before(width, 0),
        state(width, lane::live),
        live(width) {
    const std::uint64_t n = cfg.num_trajectories;
    if (width == 1) {
      scalar.emplace(cells[first / n], cfg.seed, first % n);
      return;
    }
    std::vector<cwc::batch::batch_engine::lane_desc> descs(width);
    for (std::size_t i = 0; i < width; ++i)
      descs[i] = {(first + i) % n, static_cast<std::uint32_t>((first + i) / n)};
    batch = std::make_unique<cwc::batch::batch_engine>(cells, cfg.seed,
                                                       std::move(descs));
  }

  std::size_t width() const noexcept { return state.size(); }
  double time(std::size_t i) const {
    return batch ? batch->time(i) : scalar->time();
  }
  std::uint64_t steps(std::size_t i) const {
    return batch ? batch->steps(i) : scalar->steps();
  }

  std::uint64_t first = 0;
  std::unique_ptr<cwc::batch::batch_engine> batch;
  std::optional<any_engine> scalar;
  std::uint64_t quanta = 0;  ///< quanta advanced so far
  std::vector<std::vector<cwc::trajectory_sample>> samples;  ///< last quantum
  std::vector<std::uint64_t> steps_before;                   ///< last quantum
  std::vector<lane> state;
  std::size_t live = 0;  ///< lanes short of t_end
};

/// Advance every live lane of `s` one quantum under the contract above.
/// Afterwards samples[i] holds lane i's samples of this quantum (earlier
/// contents are dropped, their storage reused) and steps_before[i] its
/// step count before it; lanes that reached t_end are `finished`, and
/// those that had already are `retired`.
inline void advance_one_quantum(strip& s, const sim_config& cfg) {
  for (std::size_t i = 0; i < s.width(); ++i) {
    if (s.state[i] == strip::lane::finished) s.state[i] = strip::lane::retired;
    s.samples[i].clear();
    s.steps_before[i] = s.steps(i);
  }
  if (s.batch) {
    s.batch->step_quantum(cfg.quantum, cfg.t_end, cfg.sample_period,
                          s.samples);
  } else {
    s.samples[0] = advance_one_quantum(*s.scalar, cfg,
                                       s.first % cfg.num_trajectories,
                                       s.quanta, std::move(s.samples[0]))
                       .batch.samples;
  }
  for (std::size_t i = 0; i < s.width(); ++i) {
    if (s.state[i] != strip::lane::live || s.time(i) < cfg.t_end) continue;
    s.state[i] = strip::lane::finished;
    --s.live;
  }
  ++s.quanta;
}

}  // namespace cwcsim
