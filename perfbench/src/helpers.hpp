// Helpers of the end-to-end benchmark: the percentile rule, the seeded
// open-loop arrival schedule, window digests, the metric name rule, the
// in-memory span recorder with its Chrome trace-event export, the one-line
// JSON result, and process resource readings. selftest.cpp covers the
// pure ones.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/messages.hpp"

namespace perfbench {

// ------------------------------------------------------------ percentiles

/// A tail percentile chosen by the rule "report the highest percentile, at
/// most the one asked for, that has at least ten samples beyond it".
struct tail_stat {
  double value = 0.0;
  double percentile = 0.0;  ///< the percentile actually reported (0..100)
  std::size_t samples = 0;  ///< sample count
  std::size_t beyond = 0;   ///< samples ranked strictly above the reported one
  bool supported = false;   ///< false when fewer than 11 samples exist
};

/// Samples needed beyond a reported percentile.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile `want` (0 < want <= 100) of `samples`, lowered
/// until at least kTailSamples samples rank above it. With 10 or fewer
/// samples no percentile qualifies: the median is returned, unsupported.
tail_stat tail_percentile(std::vector<double> samples, double want);

/// Median (nearest-rank 50th percentile; the lower middle for even n).
double median(std::vector<double> samples);

// --------------------------------------------------------------- arrivals

/// Open-loop arrival times in [0, seconds): a Poisson process of `rate`
/// arrivals per second conditioned on exactly round(rate * seconds)
/// arrivals, i.e. that many sorted uniform draws. Conditioning keeps the
/// offered load the same on every seed while keeping Poisson burstiness.
/// A pure function of (seed, rate, seconds).
std::vector<double> arrival_schedule(std::uint64_t seed, double rate,
                                     double seconds);

// ---------------------------------------------------------------- digests

/// FNV-1a over the exact bits of what is fed in.
class digest {
 public:
  void add(std::uint64_t v) noexcept;
  void add(double v) noexcept;
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Digest of an ordered window stream: every cut's index, time, moments,
/// medians and k-means result, bit for bit.
std::uint64_t window_digest(const std::vector<cwcsim::window_summary>& ws);

/// True when every moment, median and centroid of the stream is finite.
bool windows_finite(const std::vector<cwcsim::window_summary>& ws);

// ----------------------------------------------------------------- names

/// Metric names: 1..64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool valid_metric_name(std::string_view name);

// ----------------------------------------------------------------- spans

/// Nanoseconds since the process-wide benchmark epoch.
std::int64_t now_ns();

/// Block the calling thread until now_ns() >= t.
void sleep_until_ns(std::int64_t t);

/// In-memory span recorder, written out once at the end of a run as Chrome
/// trace-event JSON (viewable offline in Perfetto / chrome://tracing).
/// Thread-safe. Spans beyond `max_spans` are counted but not kept, so a
/// long run cannot grow memory without bound.
class tracer {
 public:
  explicit tracer(std::size_t max_spans = 500000) : max_spans_(max_spans) {}

  /// Record a finished span; returns its id (>= 1), or 0 when dropped.
  /// `parent` is the id of the span that caused it (0 for none); `track`
  /// groups spans of one workload run or session.
  std::uint64_t record(std::string_view name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t parent,
                       std::uint64_t track);

  /// Open a span now; close() stamps its end. Returns 0 when dropped.
  std::uint64_t open(std::string_view name, std::uint64_t parent,
                     std::uint64_t track);
  void close(std::uint64_t id);

  std::size_t size() const;
  std::size_t dropped() const;

  /// The whole trace as one Chrome trace-event JSON document.
  std::string chrome_json(std::string_view workload) const;

 private:
  struct span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t parent = 0;
    std::uint64_t track = 0;
  };
  mutable std::mutex mu_;
  std::vector<span> spans_;  // id - 1 indexes this vector
  std::size_t max_spans_;
  std::size_t dropped_ = 0;
};

// ---------------------------------------------------------------- results

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's final stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. Values print with %.17g.
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<metric>& metrics);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Run `work` in a forked child and return the child's peak resident set
/// size in MiB: the footprint of `work` on top of the state at the fork.
/// `ok` reports whether `work` returned true in the child. The caller must
/// have no other threads running (fork copies only the calling thread).
double child_peak_rss_mb(const std::function<bool()>& work, bool& ok);

/// User + system CPU seconds this process has consumed (all threads).
double process_cpu_s();

}  // namespace perfbench
