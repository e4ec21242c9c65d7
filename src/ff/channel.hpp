// A typed streaming channel between two ff nodes.
//
// Channels wrap either a bounded SPSC ring (providing backpressure — this is
// what makes FastFlow's "on-demand" farm scheduling work, queue length 1-2)
// or the unbounded SPSC queue (for feedback edges, where bounding could
// deadlock the cycle). Push on a full bounded channel spins with yield
// backoff; pop never blocks (the node runtime multiplexes many inputs).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <optional>
#include <thread>
#include <variant>

#include "ff/spsc_queue.hpp"
#include "ff/token.hpp"
#include "ff/uspsc_queue.hpp"

namespace ff {

/// Role of an edge in the node graph. Feedback edges are excluded from the
/// end-of-stream accounting that terminates a node (cycles would otherwise
/// never see EOS on every input).
enum class edge_kind { normal, feedback };

class channel {
 public:
  /// Bounded channel with the given capacity; capacity 0 selects the
  /// unbounded queue.
  explicit channel(std::size_t capacity, edge_kind kind = edge_kind::normal)
      : kind_(kind) {
    if (capacity == 0) {
      q_.emplace<uspsc_queue<token>>();
    } else {
      q_.emplace<spsc_queue<token>>(capacity);
    }
  }

  edge_kind kind() const noexcept { return kind_; }

  /// Non-blocking push. Returns false when a bounded channel is full.
  bool try_push(token&& t) {
    if (auto* b = std::get_if<spsc_queue<token>>(&q_)) return b->push(std::move(t));
    std::get<uspsc_queue<token>>(q_).push(std::move(t));
    return true;
  }

  /// Blocking push with yield backoff (backpressure).
  void push(token&& t) {
    std::size_t spins = 0;
    while (!try_push(std::move(t))) {
      backoff(spins);
    }
  }

  std::optional<token> try_pop() {
    if (auto* b = std::get_if<spsc_queue<token>>(&q_)) return b->pop();
    return std::get<uspsc_queue<token>>(q_).pop();
  }

  bool empty() const {
    if (auto* b = std::get_if<spsc_queue<token>>(&q_)) return b->empty();
    return std::get<uspsc_queue<token>>(q_).empty();
  }

  /// True when a bounded channel has no free slot (unbounded: never full).
  bool full() const {
    if (auto* b = std::get_if<spsc_queue<token>>(&q_))
      return b->size() >= b->capacity();
    return false;
  }

  /// Cooperative backoff: brief spin, then short sleeps. Tuned for
  /// oversubscribed hosts (many more threads than cores): a sleeper wakes
  /// with its scheduling share intact, where sched_yield on a host whose
  /// cores are all busy pushes the caller's deadline back on every call
  /// and left pipeline stages waiting many milliseconds for a core.
  static void backoff(std::size_t& spins) {
    ++spins;
    if (spins < 16) {
      // busy spin
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

 private:
  std::variant<std::monostate, spsc_queue<token>, uspsc_queue<token>> q_;
  edge_kind kind_;
};

}  // namespace ff
