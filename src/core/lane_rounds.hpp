// The quantum-lockstep lane executor of the gpu driver (paper §IV-C: every
// live trajectory advances one quantum per kernel, cuts are assembled
// between kernels) and of sweep campaigns. The multicore farm runs the
// same strips as pull-scheduled tasks instead (core/nodes.hpp).
//
// A campaign is every (cell, trajectory) lane of `cells` — one compiled
// model, or the rate-constant overlays of one root — in cell-major order:
// lane g is trajectory g % N of cell g / N, N = cfg.num_trajectories. The
// lanes are sliced into strips (core/quantum.hpp): of batch_width lanes
// when batched(cells, batch_width) holds, of one lane otherwise.
//
// step() runs one round: every live strip advances one quantum on a
// persistent worker pool, then the strips are walked in order and each
// yields its samples (lane order) followed by its completions. That order
// depends on neither worker count nor timing, so the cut assemblers fed
// from the callbacks see one deterministic stream.
#pragma once

#include <cstdint>
#include <vector>

#include "core/quantum.hpp"
#include "ff/parallel_for.hpp"

namespace cwcsim {

class lane_rounds {
 public:
  using cell_list = strip::cell_list;

  /// True when lanes of `cells` run as batch_engine strips at
  /// `batch_width`: a width above 1 and a batchable model in every cell.
  /// The multicore farm cuts its strips by the same rule.
  static bool batched(const cell_list& cells, std::size_t batch_width);

  /// Every lane of `cells` (non-empty) under `cfg`, advanced by
  /// min(workers, strips) threads (at least one; the caller is one).
  lane_rounds(const cell_list& cells, const sim_config& cfg,
              std::size_t batch_width, unsigned workers);

  /// Lanes that have not reached cfg.t_end yet.
  std::uint64_t live() const noexcept { return live_; }
  /// Rounds run so far.
  std::uint64_t rounds() const noexcept { return rounds_; }

  /// A lane that ran in the last round and the SSA steps it took there.
  struct lane_work {
    std::uint64_t lane = 0;  ///< cell-major lane index
    std::uint64_t steps = 0;
  };
  /// Every lane the last round advanced, in lane order.
  const std::vector<lane_work>& last_round() const noexcept { return ran_; }

  /// Advance every live lane one quantum, then, strip by strip, call
  /// on_sample(cell, trajectory, sample) for each sample in lane order and
  /// on_done(cell, task_done) for each lane that reached t_end. task_done
  /// carries the per-cell trajectory id and quanta == rounds().
  template <typename OnSample, typename OnDone>
  void step(OnSample&& on_sample, OnDone&& on_done) {
    advance();
    ran_.clear();
    for (strip& s : strips_) {
      if (s.quanta != rounds_) continue;  // retired before this round
      for (std::size_t i = 0; i < s.width(); ++i) {
        const std::uint64_t lane = s.first + i;
        const auto cell = static_cast<std::uint32_t>(lane / n_);
        for (const cwc::trajectory_sample& x : s.samples[i])
          on_sample(cell, lane % n_, x);
      }
      for (std::size_t i = 0; i < s.width(); ++i) {
        if (s.state[i] == strip::lane::retired) continue;
        const std::uint64_t lane = s.first + i;
        ran_.push_back({lane, s.steps(i) - s.steps_before[i]});
        if (s.state[i] != strip::lane::finished) continue;
        --live_;
        task_done d;
        d.trajectory_id = lane % n_;
        d.quanta = s.quanta;
        d.steps = s.steps(i);
        on_done(static_cast<std::uint32_t>(lane / n_), d);
      }
    }
  }

 private:
  static std::vector<strip> make_strips(const cell_list& cells,
                                        const sim_config& cfg,
                                        std::size_t batch_width);
  /// The parallel half of step(): every live strip advances one quantum.
  void advance();

  sim_config cfg_;
  std::uint64_t n_;  ///< trajectories per cell
  std::vector<strip> strips_;
  std::uint64_t live_;
  std::uint64_t rounds_ = 0;
  std::vector<lane_work> ran_;
  ff::parallel_for pool_;  ///< last: its threads read the members above
};

}  // namespace cwcsim
