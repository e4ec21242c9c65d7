// Trajectory cuts and sliding windows — the data units flowing between the
// simulation and analysis pipelines (paper Fig. 2).
//
// A *cut* is "an array containing the results of all simulations at a given
// simulation time"; the alignment stage produces them in time order. The
// analysis pipeline groups consecutive cuts into *sliding windows* so that
// whole-dataset statistics can be approximated on-line.
#pragma once

#include <cstdint>
#include <deque>
#include <iterator>
#include <vector>

#include "stats/kmeans.hpp"
#include "stats/welford.hpp"
#include "util/check.hpp"

namespace stats {

struct trajectory_cut {
  std::uint64_t sample_index = 0;  ///< k for sample time k * sample_period
  double time = 0.0;
  /// values[trajectory][observable]
  std::vector<std::vector<double>> values;
};

/// Per-observable summary of one cut, computed by a statistical engine.
struct cut_summary {
  std::uint64_t sample_index = 0;
  double time = 0.0;
  std::vector<welford> moments;       ///< one accumulator per observable
  std::vector<double> medians;        ///< per-observable median
  kmeans_result clusters;             ///< k-means over full observable vectors
};

/// Compute the standard summary of a cut: per-observable moments + median,
/// and a k-means classification of trajectories (k=0 disables clustering).
cut_summary summarize_cut(const trajectory_cut& cut, std::uint32_t kmeans_k = 2,
                          std::uint64_t seed = 0);

/// A window of consecutive cuts, or of their summaries: `Cut` is any type
/// carrying a `sample_index`.
template <typename Cut>
struct basic_window {
  std::uint64_t first_sample = 0;
  std::vector<Cut> cuts;
};

/// Groups an ordered stream of cuts into overlapping windows of `size`
/// cuts, advancing by `slide` cuts. push() returns a completed window when
/// one becomes full. flush() returns the final partial window, if any.
///
/// The buffer holds the cuts of the next window, front first; each push
/// completes at most one window. A cut leaving the buffer is moved into
/// its last window, so a tumbling window (slide == size) copies nothing.
template <typename Cut>
class basic_sliding_window_builder {
 public:
  basic_sliding_window_builder(std::size_t size, std::size_t slide)
      : size_(size), slide_(slide) {
    util::expects(size > 0 && slide > 0,
                  "window size and slide must be positive");
    util::expects(slide <= size, "slide larger than window loses cuts");
  }

  /// Feed the next cut (must arrive in sample-index order).
  /// Returns a window when `cut` completes one.
  std::vector<basic_window<Cut>> push(Cut cut) {
    if (saw_any_) {
      util::expects(cut.sample_index == last_index_ + 1,
                    "cuts must arrive consecutively");
    } else {
      next_start_ = cut.sample_index;
      saw_any_ = true;
    }
    last_index_ = cut.sample_index;
    buffer_.push_back(std::move(cut));

    std::vector<basic_window<Cut>> out;
    if (buffer_.size() < size_) return out;
    basic_window<Cut>& w = out.emplace_back();
    w.first_sample = next_start_;
    w.cuts.reserve(size_);
    // The first `slide` cuts leave the buffer with this window: move them.
    for (std::size_t i = 0; i < slide_; ++i) {
      w.cuts.push_back(std::move(buffer_.front()));
      buffer_.pop_front();
    }
    w.cuts.insert(w.cuts.end(), buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(size_ - slide_));
    next_start_ += slide_;
    return out;
  }

  /// The trailing partial window: the buffered cuts from the next window
  /// start on (none when the last full window took them all).
  std::vector<basic_window<Cut>> flush() {
    std::vector<basic_window<Cut>> out;
    if (buffer_.empty()) return out;
    basic_window<Cut>& w = out.emplace_back();
    w.first_sample = next_start_;
    w.cuts.assign(std::make_move_iterator(buffer_.begin()),
                  std::make_move_iterator(buffer_.end()));
    buffer_.clear();
    return out;
  }

 private:
  std::size_t size_;
  std::size_t slide_;
  std::deque<Cut> buffer_;         // cuts [next_start_, last_index_]
  std::uint64_t next_start_ = 0;   // first sample index of the next window
  std::uint64_t last_index_ = 0;   // most recent sample index seen
  bool saw_any_ = false;
};

/// Windows of raw cuts.
using trajectory_window = basic_window<trajectory_cut>;
using sliding_window_builder = basic_sliding_window_builder<trajectory_cut>;

}  // namespace stats
