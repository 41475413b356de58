// Shared plumbing of the end-to-end benchmark: options, clocks,
// order statistics, the fingerprint hash, span recording, and the result
// every workload returns (printed as the final JSON line by main.cc).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Host CPU seconds of this process, summed over all its threads.
inline double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// Peak resident memory of this program image (VmHWM). Unlike ru_maxrss it
// does not carry over the peak of the process that exec'd it.
inline double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = lo + 1 < v.size() ? lo + 1 : lo;
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) {
    s += x;
  }
  return s;
}

// FNV-1a over 64-bit words: the fingerprint of a run's simulated results.
class Fingerprint {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void AddSigned(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void AddDouble(double d) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(d));
    Add(bits);
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;  // Simulations run to their horizon.
  uint64_t failed = 0;     // Simulations whose output check failed.
  std::vector<Metric> metrics;
  // (name, fingerprint) pairs the wrapper compares with the stored
  // reference for the seed.
  std::vector<std::pair<std::string, std::string>> checks;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Records a failed output check; the run then exits nonzero.
  void Fail(const std::string& what) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    correct = false;
  }
  // Records one simulation: it must have passed its own checks (`ok`) and
  // ended with the fingerprint `want`.
  void Check(const std::string& what, bool ok, const std::string& got, const std::string& want) {
    ++attempted;
    if (!ok || got != want) {
      ++failed;
      Fail(what + ": fingerprint " + got + " vs " + want + (ok ? "" : " (own checks failed)"));
    }
  }
};

// Spans of one traced pass, in nanoseconds. A run span is one timed
// Simulator::Run(10 ms) call; the batch inside it (a TapEngine::RunBatch
// call made from a timed callback at the head of the run) and any churn
// calls are its children, so a stretch's self time is the run span minus
// those children. Sink delivery is a child of its batch.
struct Spans {
  std::vector<double> run_ns;
  std::vector<double> stretch_ns;  // Self time of each run span.
  std::vector<double> batch_ns;    // Batches with no kernel mutation since the last one.
  std::vector<double> rebuild_ns;  // Batches after a mutation-epoch change.
  std::vector<double> deliver_ns;  // Per frame: first record to OnFrame return.
  std::vector<double> build_ns;    // One phone built.
  std::vector<double> delete_ns;   // One phone container deleted.
  double loop_ns = 0.0;            // Wall time of the whole alternating loop.
  double untraced_ns = 0.0;        // Same simulation, untraced Run calls.
  uint64_t records = 0;            // Records delivered to the sink (no frame marks).
  uint64_t frames = 0;
  uint64_t ring_dropped = 0;
  double sim_seconds = 0.0;
  double phone_seconds = 0.0;
  double cpu_s = 0.0;  // Host CPU of the alternating loops, all threads.

  std::vector<double> AllBatches() const {
    std::vector<double> all = batch_ns;
    all.insert(all.end(), rebuild_ns.begin(), rebuild_ns.end());
    return all;
  }
};

inline double Us(double ns) { return ns / 1e3; }

// Share helper that never divides by zero.
inline double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace perfbench
