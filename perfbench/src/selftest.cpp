// Self-tests of the benchmark's pure helpers (helpers.hpp). run.py runs
// this binary before every measurement; any failure stops the benchmark.
//
//   perfbench_selftest      # prints one line per failed expectation
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::printf("selftest FAILED: %s\n", what);
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending: the helper must sort
}

void percentile_rule() {
  using perfbench::tail_percentile;
  const auto p95_200 = tail_percentile(one_to(200), 95.0);
  expect(p95_200.supported && p95_200.value == 190.0 &&
             p95_200.percentile == 95.0 && p95_200.beyond == 10 &&
             p95_200.samples == 200,
         "p95 of 200 samples is rank 190 with 10 beyond");
  const auto p95_100 = tail_percentile(one_to(100), 95.0);
  expect(p95_100.supported && p95_100.value == 90.0 &&
             p95_100.percentile == 90.0 && p95_100.beyond == 10,
         "p95 of 100 samples lowers to p90 (10 beyond)");
  const auto p50_21 = tail_percentile(one_to(21), 50.0);
  expect(p50_21.supported && p50_21.value == 11.0 && p50_21.beyond == 10,
         "p50 of 21 samples is the middle one");
  const auto p50_11 = tail_percentile(one_to(11), 50.0);
  expect(p50_11.supported && p50_11.value == 1.0 && p50_11.beyond == 10,
         "p50 of 11 samples lowers to the lowest rank with 10 beyond");
  const auto few = tail_percentile(one_to(10), 95.0);
  expect(!few.supported && few.value == 5.0 && few.samples == 10,
         "10 samples support no tail percentile: median, unsupported");
  expect(tail_percentile({}, 95.0).samples == 0, "empty input");
  expect(perfbench::median(one_to(4)) == 2.0 && perfbench::median(one_to(5)) == 3.0,
         "median is the lower middle");
}

void arrival_determinism() {
  using perfbench::arrival_schedule;
  const auto a = arrival_schedule(7, 25.0, 10.0);
  const auto b = arrival_schedule(7, 25.0, 10.0);
  const auto c = arrival_schedule(8, 25.0, 10.0);
  expect(a == b, "same seed gives the same schedule");
  expect(a != c, "another seed gives another schedule");
  expect(a.size() == 250 && c.size() == 250,
         "arrival count is rate x seconds on every seed");
  bool ordered = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ordered = ordered && a[i] >= 0.0 && a[i] < 10.0;
    if (i > 0) ordered = ordered && a[i - 1] <= a[i];
  }
  expect(ordered, "arrivals are sorted within [0, seconds)");
}

std::vector<cwcsim::window_summary> sample_windows() {
  cwcsim::window_summary w;
  w.first_sample = 3;
  stats::cut_summary c;
  c.sample_index = 3;
  c.time = 0.75;
  c.moments.resize(2);
  c.moments[0].add(1.0);
  c.moments[0].add(2.5);
  c.moments[1].add(-4.0);
  c.medians = {1.0, -4.0};
  c.clusters.centroids = {{1.0, -4.0}, {2.5, -4.0}};
  c.clusters.assignment = {0, 1};
  c.clusters.sizes = {1, 1};
  c.clusters.inertia = 0.125;
  w.cuts.push_back(c);
  return {w, w};
}

void digest_stability() {
  using perfbench::window_digest;
  const auto ws = sample_windows();
  const std::uint64_t d = window_digest(ws);
  expect(d == window_digest(sample_windows()), "digest is deterministic");
  expect(d == 0x867be1006c789827ull, "digest matches its pinned value");
  auto changed = ws;
  changed[1].cuts[0].clusters.inertia = 0.1250000000000001;
  expect(window_digest(changed) != d, "a one-ulp change moves the digest");
  auto fewer = ws;
  fewer.pop_back();
  expect(window_digest(fewer) != d, "a dropped window moves the digest");
  expect(perfbench::windows_finite(ws), "finite windows pass");
  changed[0].cuts[0].medians[1] = std::numeric_limits<double>::quiet_NaN();
  expect(!perfbench::windows_finite(changed), "a NaN median fails");
}

void metric_names() {
  using perfbench::valid_metric_name;
  expect(valid_metric_name("steps_per_s") &&
             valid_metric_name("cwc.batch.ns_per_lane_step") &&
             valid_metric_name("0-x_y.z"),
         "charset [A-Za-z0-9_.-] accepted");
  expect(!valid_metric_name("") && !valid_metric_name("_lead") &&
             !valid_metric_name(".lead") && !valid_metric_name("a b") &&
             !valid_metric_name("a/b") && !valid_metric_name("p95%"),
         "other characters and leading punctuation rejected");
  expect(valid_metric_name(std::string(64, 'a')) &&
             !valid_metric_name(std::string(65, 'a')),
         "names are at most 64 characters");
  for (const auto* table :
       {&perfbench::end_to_end_metrics(), &perfbench::per_layer_metrics()})
    for (const auto& d : *table)
      expect(valid_metric_name(d.name), d.name);
}

void result_and_trace_format() {
  const std::string line = perfbench::result_line(
      true, 3, 0, {{"setup_s", 0.5, "s"}, {"x", 2.0, "1/s"}});
  expect(line ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, "
             "\"x\": {\"value\": 2, \"unit\": \"1/s\"}}}",
         "result line shape");
  perfbench::tracer tr(2);
  const auto root = tr.record("run", 1000, 5000, 0, 1);
  tr.record("child \"q\"", 2000, 3000, root, 1);
  expect(tr.record("dropped", 0, 1, root, 1) == 0 && tr.dropped() == 1,
         "spans past the bound are dropped and counted");
  const std::string json = tr.chrome_json("w");
  expect(json.find("\"traceEvents\":[") != std::string::npos &&
             json.find("\"name\":\"child \\\"q\\\"\"") != std::string::npos &&
             json.find("\"ts\":1,\"dur\":4") != std::string::npos &&
             json.find("\"parent\":1") != std::string::npos,
         "chrome trace events carry name, times in us, and parent");
}

}  // namespace

int main() {
  percentile_rule();
  arrival_determinism();
  digest_stability();
  metric_names();
  result_and_trace_format();
  if (failures == 0) std::printf("selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
