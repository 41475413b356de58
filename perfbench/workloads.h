// The workloads cinder_perfbench runs, the simulator rig they share, and the
// per-layer metric set every traced run reports.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/trace.h"
#include "src/core/scheduler.h"
#include "src/exec/shard_partitioner.h"
#include "src/sim/simulator.h"
#include "src/telemetry/health_monitor.h"
#include "src/telemetry/live_aggregator.h"

namespace perfbench {

using cinder::SchedPlanStats;

// How one simulation executes. Results never depend on it.
struct PassConfig {
  int workers = 0;
  bool telemetry = true;
  bool plans = true;  // ExecConfig::sched_plan_quanta at its default, else 0.
  // Rings large enough that no record of a batch is overwritten, so counts
  // folded from the stream are exact.
  bool lossless = false;
};

// Per-writer ring size of a lossless pass: 32768 records, several times the
// most any one ring receives in a fleet batch.
constexpr uint32_t kLosslessRingBytes = 1u << 20;

// A simulator in one pass's configuration with the benchmark's sinks: a
// LiveAggregator with a HealthMonitor, behind a TimingSink when the pass is
// traced (`spans` non-null). A traced simulator gets SimConfig::tap_batch
// past `horizon`, because RunTraced makes the batch calls itself.
class SimRig {
 public:
  SimRig(cinder::SimConfig cfg, const PassConfig& pass, Spans* spans, cinder::Duration horizon)
      : timing_(&agg_, spans) {
    cfg.exec.tap_workers = pass.workers;
    if (!pass.plans) {
      cfg.exec.sched_plan_quanta = 0;
    }
    cfg.telemetry.enabled = pass.telemetry;
    if (pass.lossless) {
      cfg.telemetry.ring_bytes = kLosslessRingBytes;
    }
    if (spans != nullptr) {
      cfg.tap_batch = horizon + cinder::Duration::Seconds(1);
    }
    sim_ = std::make_unique<cinder::Simulator>(cfg);
    agg_.set_monitor(&monitor_);
    sim_->telemetry().AddSink(spans != nullptr ? static_cast<cinder::TraceSink*>(&timing_)
                                               : &agg_);
  }

  cinder::Simulator& sim() { return *sim_; }
  const cinder::Simulator& sim() const { return *sim_; }
  const cinder::LiveAggregator& agg() const { return agg_; }

  // Live totals must equal the engine's whenever no record was lost.
  bool LiveMatchesEngine() const {
    if (!sim_->telemetry().enabled() || sim_->telemetry().ring_dropped() > 0) {
      return true;
    }
    return agg_.TotalTapFlow() == sim_->taps().total_tap_flow() &&
           agg_.TotalDecayFlow() == sim_->taps().total_decay_flow();
  }

 private:
  // The sinks outlive the simulator: its domain detaches them on destruction.
  cinder::LiveAggregator agg_;
  cinder::HealthMonitor monitor_;
  TimingSink timing_;
  std::unique_ptr<cinder::Simulator> sim_;
};

// Hashes a simulation's state: engine tap and decay totals, every reserve
// level, the meter total, and the scheduler pick count (quanta run, summed
// over threads).
inline void AddSimState(Fingerprint* fp, cinder::Simulator& sim) {
  using namespace cinder;
  fp->AddSigned(sim.taps().total_tap_flow());
  fp->AddSigned(sim.taps().total_decay_flow());
  Kernel& k = sim.kernel();
  for (ObjectId id : k.ObjectsOfType(ObjectType::kReserve)) {
    fp->Add(id);
    fp->AddSigned(k.LookupTyped<Reserve>(id)->level());
  }
  fp->AddSigned(sim.meter().Total().nj());
  uint64_t picks = 0;
  for (ObjectId id : k.ObjectsOfType(ObjectType::kThread)) {
    picks += static_cast<uint64_t>(k.LookupTyped<Thread>(id)->quanta_run());
  }
  fp->Add(picks);
}

// Times ShardPartitioner::Partition over the built kernel, on a fresh
// partitioner each time so nothing is cached.
inline void TimePartition(const cinder::Kernel& kernel, std::vector<double>* ns) {
  for (int i = 0; i < 5; ++i) {
    cinder::ShardPartitioner fresh;
    const int64_t t0 = NowNs();
    (void)fresh.Partition(kernel);
    ns->push_back(static_cast<double>(NowNs() - t0));
  }
}

bool IsFleetWorkload(const std::string& workload);
Result RunFleet(const Options& opt);

// The passes of one traced run, by what they toggle.
struct LayerPasses {
  const Spans* base = nullptr;  // The workload's configuration, 0 workers.
  const Spans* w4 = nullptr;    // The same at 4 workers.
  const Spans* telem_off = nullptr;
  const Spans* no_plans = nullptr;  // sched_plan_quanta = 0.
};

// What the traced run measured outside the spans.
struct LayerCounts {
  SchedPlanStats plan;  // Scheduler plan counters, summed over base passes.
  std::vector<double> partition_ns;
  uint32_t shards = 0;  // TapEngine::shard_count() at 4 workers.
  // From the lossless 4-worker pass, summed over its runs: what the pool
  // dispatched and how long it was busy, and that pass's batch count and
  // time.
  uint64_t dispatches = 0;
  uint64_t busy_ns = 0;
  uint64_t lossless_batches = 0;
  double lossless_batch_ns = 0.0;
  uint64_t lossless_dropped = 0;  // Must stay 0 for the two counts to be exact.
};

// A shared host slows every simulation in phases, as neighbouring load
// contends for its caches and memory: on the VM of the README's baseline
// by up to ~1.8x, for seconds to a minute at a time. A run's median or
// total moves with the share of its time spent slowed; the upper decile of
// its per-simulation rates (lower decile of times) measures the unslowed
// phases, which nearly every run reaches. A rate reports this quantile of
// a run's rates, and set-up the mirror quantile (1 - kFastQuantile) of its
// times.
constexpr double kFastQuantile = 0.9;

// Appends every end-to-end metric (BENCHMARK.json "end_to_end") to `res`:
// the rates (simulated phone-seconds per host second) at 4 and at 0
// workers, and set-up time from the run's samples, in seconds.
void AddEndToEnd(Result* res, double rate_w4, double rate_w0, const std::vector<double>& setup_s);

// Appends every per-layer metric (BENCHMARK.json "per_layer") to `res`.
void AddLayerMetrics(Result* res, const LayerPasses& p, const LayerCounts& c);

// Adds `b` into `a`, counter by counter.
void AddPlanStats(SchedPlanStats* a, const SchedPlanStats& b);

}  // namespace perfbench
