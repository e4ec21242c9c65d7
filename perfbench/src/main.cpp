// The end-to-end benchmark binary. run.py builds and invokes it:
//
//   perfbench --workload <paper_farm|paper_batched|tenants_open|sweep_grid>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//
// Prints one human-readable line per metric, then, as the last line, the
// JSON result: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1 (which also writes the Chrome trace file). Exits
// 1 when any output check failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>

#include "helpers.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, perfbench::run_args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty()) return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0 && a.seconds <= 600.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else if (key == "--trace-file") {
      a.trace_file = val;
    } else {
      return false;
    }
  }
  return have_workload;
}

void print_metric(const char* kind, const std::string& name, double value,
                  const char* unit) {
  std::printf("%s %-32s %.6g %s\n", kind, name.c_str(), value, unit);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  run_args a;
  if (!parse(argc, argv, a)) return usage("bad arguments");
  bool known = false;
  for (const auto& n : workload_names()) known = known || n == a.workload;
  if (!known) return usage("unknown workload");

  checks chk;
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const metric_decl& d : *table)
      chk.require(valid_metric_name(d.name),
                  std::string("metric name breaks the charset: ") + d.name);

  std::unique_ptr<tracer> tr;
  if (a.trace) tr = std::make_unique<tracer>();
  workload_result res;
  try {
    res = run_workload(a, chk, tr.get());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }

  std::printf("workload %s seed %llu seconds %g trace %d cores %u\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, host_cores());
  for (const auto& n : res.notes) std::printf("note %s\n", n.c_str());
  for (const metric_decl& d : end_to_end_metrics())
    print_metric("e2e", d.name, res.e2e[d.name], d.unit);
  const double failed_frac =
      chk.attempted() > 0 ? static_cast<double>(chk.failed()) /
                                static_cast<double>(chk.attempted())
                          : 0.0;
  print_metric("e2e", "failed_frac", failed_frac, "frac");

  std::vector<metric> out;
  const auto& table = a.trace ? per_layer_metrics() : end_to_end_metrics();
  auto& values = a.trace ? res.layers : res.e2e;
  for (const metric_decl& d : table) {
    double v = values.count(d.name) != 0 ? values[d.name] : 0.0;
    if (!std::isfinite(v)) {
      chk.require(false, std::string("metric is not finite: ") + d.name);
      v = 0.0;
    }
    if (a.trace) print_metric("layer", d.name, v, d.unit);
    out.push_back({d.name, v, d.unit});
  }

  if (a.trace && !a.trace_file.empty()) {
    std::ofstream f(a.trace_file);
    f << tr->chrome_json(a.workload);
    chk.require(static_cast<bool>(f), "could not write " + a.trace_file);
    std::printf("trace %s (%zu spans, %zu dropped)\n", a.trace_file.c_str(),
                tr->size(), tr->dropped());
  }
  std::printf("%s\n", result_line(chk.all_passed(), chk.attempted(),
                                  chk.failed(), out)
                          .c_str());
  std::fflush(stdout);
  return chk.all_passed() ? 0 : 1;
}
