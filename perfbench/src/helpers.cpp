#include "helpers.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace perfbench {

tail_stat tail_percentile(std::vector<double> samples, double want) {
  util::expects(want > 0.0 && want <= 100.0, "percentile out of (0, 100]");
  tail_stat t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n <= kTailSamples) {
    t.value = samples[(n - 1) / 2];
    t.percentile = 50.0;
    t.beyond = n - 1 - (n - 1) / 2;
    return t;
  }
  // Nearest rank: the smallest rank r (1-based) with r >= want/100 * n.
  auto rank = static_cast<std::size_t>(std::ceil(want / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  rank = std::min(rank, n - kTailSamples);
  t.value = samples[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  t.beyond = n - rank;
  t.supported = true;
  return t;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[(samples.size() - 1) / 2];
}

std::vector<double> arrival_schedule(std::uint64_t seed, double rate,
                                     double seconds) {
  util::expects(rate > 0.0 && seconds > 0.0, "arrival rate/duration > 0");
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  util::rng_stream rng(seed, 0xA7717A1);
  std::vector<double> at(n);
  for (double& t : at) t = rng.next_uniform() * seconds;
  std::sort(at.begin(), at.end());
  return at;
}

void digest::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFFu;
    h_ *= 1099511628211ull;
  }
}

void digest::add(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

std::uint64_t window_digest(const std::vector<cwcsim::window_summary>& ws) {
  digest d;
  d.add(static_cast<std::uint64_t>(ws.size()));
  for (const auto& w : ws) {
    d.add(w.first_sample);
    d.add(static_cast<std::uint64_t>(w.cuts.size()));
    for (const auto& c : w.cuts) {
      d.add(c.sample_index);
      d.add(c.time);
      for (const auto& m : c.moments) {
        d.add(m.count());
        d.add(m.mean());
        d.add(m.variance());
        d.add(m.min());
        d.add(m.max());
      }
      for (const double v : c.medians) d.add(v);
      for (const auto& ctr : c.clusters.centroids)
        for (const double v : ctr) d.add(v);
      for (const auto a : c.clusters.assignment) d.add(std::uint64_t{a});
      for (const auto s : c.clusters.sizes) d.add(s);
      d.add(c.clusters.inertia);
    }
  }
  return d.value();
}

bool windows_finite(const std::vector<cwcsim::window_summary>& ws) {
  for (const auto& w : ws)
    for (const auto& c : w.cuts) {
      for (const auto& m : c.moments)
        if (!std::isfinite(m.mean()) || !std::isfinite(m.variance()))
          return false;
      for (const double v : c.medians)
        if (!std::isfinite(v)) return false;
      for (const auto& ctr : c.clusters.centroids)
        for (const double v : ctr)
          if (!std::isfinite(v)) return false;
    }
  return true;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

namespace {
const std::chrono::steady_clock::time_point& epoch() {
  static const auto e = std::chrono::steady_clock::now();
  return e;
}
}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch())
      .count();
}

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(epoch() + std::chrono::nanoseconds(t));
}

std::uint64_t tracer::record(std::string_view name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint64_t parent,
                             std::uint64_t track) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return 0;
  }
  spans_.push_back({std::string(name), start_ns, end_ns, parent, track});
  return spans_.size();
}

std::uint64_t tracer::open(std::string_view name, std::uint64_t parent,
                           std::uint64_t track) {
  const std::int64_t t = now_ns();
  return record(name, t, t, parent, track);
}

void tracer::close(std::uint64_t id) {
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  if (id != 0 && id <= spans_.size()) spans_[id - 1].end_ns = t;
}

std::size_t tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::size_t tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

std::string tracer::chrome_json(std::string_view workload) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":";
  append_json_string(out, workload);
  out += ",\"dropped_spans\":" + std::to_string(dropped_) + "},\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    if (i != 0) out += ',';
    out += "\n{\"name\":";
    append_json_string(out, s.name);
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(s.track) +
           ",\"ts\":";
    append_double(out, static_cast<double>(s.start_ns) / 1e3);
    out += ",\"dur\":";
    append_double(out, static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += ",\"args\":{\"id\":" + std::to_string(i + 1) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"track\":" + std::to_string(s.track) + "}}";
  }
  out += "\n]}\n";
  return out;
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    append_json_string(out, metrics[i].name);
    out += ": {\"value\": ";
    append_double(out, metrics[i].value);
    out += ", \"unit\": ";
    append_json_string(out, metrics[i].unit);
    out += '}';
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double child_peak_rss_mb(const std::function<bool()>& work, bool& ok) {
  std::fflush(stdout);  // the child must not flush the parent's buffer again
  const pid_t pid = fork();
  if (pid == 0) {
    bool passed = false;
    try {
      passed = work();
    } catch (...) {
    }
    std::fflush(stdout);
    _exit(passed ? 0 : 1);
  }
  ok = false;
  if (pid < 0) return 0.0;
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace perfbench
