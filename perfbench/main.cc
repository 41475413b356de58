// cinder_perfbench: the end-to-end benchmark.
//
//   cinder_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload in a closed loop (each simulation runs to its horizon
// as fast as the host allows, the next starts when it ends) for S seconds,
// in one process with at most 4 threads. --trace 0 reports the end-to-end
// metrics, measured with tracing off; --trace 1 reports the per-layer
// metrics of the traced passes. Prints `metric` and `check` lines, then one
// JSON object as the last line. Exits 1 when an output check fails, 2 on bad
// arguments. perfbench/run.py builds this and compares the `check` lines
// with the stored reference for the seed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/bench.h"
#include "perfbench/workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fleet_steady|fleet_churn|fleet_apps "
               "--seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

void PrintJson(const perfbench::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                r.metrics[i].name.c_str(), r.metrics[i].value, r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) {
      return Usage(argv[0]);
    }
    const char* flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      opt.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opt.seconds = std::strtod(value, &end);
    } else if (std::strcmp(flag, "--trace") == 0) {
      opt.trace = std::strcmp(value, "1") == 0;
      if (!opt.trace && std::strcmp(value, "0") != 0) {
        return Usage(argv[0]);
      }
    } else {
      return Usage(argv[0]);
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || !perfbench::IsFleetWorkload(opt.workload) || opt.seconds <= 0.0) {
    return Usage(argv[0]);
  }

  const perfbench::Result r = perfbench::RunFleet(opt);
  for (const auto& m : r.metrics) {
    std::printf("metric %-34s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, hex] : r.checks) {
    std::printf("check %s %s\n", name.c_str(), hex.c_str());
  }
  PrintJson(r);
  return r.correct ? 0 : 1;
}
