// The discrete-event device simulator that hosts the Cinder kernel.
//
// Single-threaded and deterministic: a fixed scheduling quantum (1 ms)
// advances a virtual clock; tap-flow batches run every 10 ms (paper section
// 3.3: transfers execute periodically in batch); devices (CPU, backlight,
// radio) consume *true* energy from the battery while the kernel's
// EnergyMeter records *estimates* from the power model — the same split the
// real HTC Dream deployment had between the Agilent supply and Cinder's
// state-based model.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/core/reserve.h"
#include "src/core/scheduler.h"
#include "src/core/tap_engine.h"
#include "src/energy/battery.h"
#include "src/energy/meter.h"
#include "src/energy/power_model.h"
#include "src/energy/probe.h"
#include "src/exec/shard_executor.h"
#include "src/histar/kernel.h"
#include "src/sim/radio_device.h"
#include "src/sim/thread_body.h"
#include "src/telemetry/file_stream_sink.h"
#include "src/telemetry/trace_domain.h"

namespace cinder {

// Tap-batch execution knobs, grouped. Most configure how batches execute,
// not what they compute; three fields can change result bits:
// - decay_to_shard_root changes what a batch computes: each shard's leakage
//   lands in that shard's root reserve instead of the battery.
// - tap_split_threshold and tap_split_ranges decide which shards split. A
//   split shard's constrained demand groups re-associate their demand sum
//   across range boundaries, so they can differ from the whole-shard bits
//   (docs/PERFORMANCE.md, "The reduction-order contract"); unconstrained
//   groups match it bit for bit.
// - They split only in sharded mode, and tap_workers = 0 without
//   decay_to_shard_root runs unsharded. So a component at the threshold can
//   get different bits at 0 workers than at 1 or more.
// Within one sharded setting of those three, the worker count never changes
// a bit, and sched_plan_quanta never does.
struct ExecConfig {
  // 0 leaves the engine unsharded (the single-device default); >= 1
  // partitions the reserve/tap graph into independent shards and runs
  // batches on that many workers (1 = sharded but serial). Sharding pays off
  // for fleet scenarios with many disconnected devices.
  int tap_workers = 0;
  // Route each shard's decay leakage back to that shard's smallest-id energy
  // reserve instead of the single battery root — fleet scenarios where each
  // phone's hoarded energy should return to its own pool. Implies sharded
  // (serial) execution even when tap_workers is 0, since the sinks are the
  // partitioner's components.
  bool decay_to_shard_root = false;
  // Intra-shard range splitting: shards whose plan section (or edge count)
  // reaches the threshold have their tap batch split into `tap_split_ranges`
  // contiguous ranges that run as independent worker tickets, with a
  // fixed-order reduction so flows stay bit-identical at any worker count.
  // Threshold 0 (or ranges < 2) disables splitting. Only meaningful in
  // sharded mode (tap_workers >= 1, or decay_to_shard_root).
  uint32_t tap_split_threshold = 4096;
  uint32_t tap_split_ranges = 8;
  // K-quanta scheduler run plans: Run/RunUntil may precompute the pick
  // sequence for up to this many quanta at a time and replay it without
  // per-quantum PickNext scans, falling back to the single-quantum path the
  // moment an epoch guard cuts the plan (docs/PERFORMANCE.md has the
  // invalidation contract). A plan is built only where it pays
  // (EnergyAwareScheduler::BuildPlanIfItPays): when the scan work predicted
  // over its horizon is several times the queue length. A funded queue,
  // whose picks stop at the first thread they look at, runs plan-free. K is
  // an upper bound: a tap batch that moves flow caps a plan at the next
  // batch boundary (10 quanta at the default periods), and at that horizon
  // only a nearly idle queue of more than ~30 threads plans; dry batches let
  // a plan run its full K quanta, where a queue with long denial scans pays.
  // Results are bit-identical for any value — golden tests pin K in
  // {1,4,16,64} against 0. 0 disables planning entirely (every quantum is a
  // full Step). Step() itself never plans.
  uint32_t sched_plan_quanta = 64;
};

struct SimConfig {
  Duration quantum = Duration::Millis(1);
  Duration tap_batch = Duration::Millis(10);
  PowerModel model;
  uint64_t seed = 42;
  bool backlight_on = false;
  bool decay_enabled = true;
  Duration decay_half_life = Duration::Minutes(10);
  Duration probe_interval = Duration::Millis(200);
  // Execution and telemetry are nested configs (PR 7): exec groups the
  // sharding/splitting knobs, telemetry configures the trace domain the
  // simulator owns (per-worker rings, record mask, spill).
  ExecConfig exec;
  TelemetryConfig telemetry;
  // The config the Simulator actually runs: a non-positive quantum or
  // tap_batch (which would never advance the clock or never run a batch)
  // replaced by its default with a warning.
  SimConfig Normalized() const;
};

class Simulator final : public PowerSource {
 public:
  explicit Simulator(SimConfig config = {});
  ~Simulator() override;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // -- Accessors ---------------------------------------------------------------
  const SimConfig& config() const { return config_; }
  Kernel& kernel() { return kernel_; }
  TapEngine& taps() { return *tap_engine_; }
  // Null unless config.exec.tap_workers >= 1.
  ShardExecutor* shard_executor() { return shard_executor_.get(); }
  EnergyAwareScheduler& scheduler() { return *scheduler_; }
  // The simulator-owned trace domain (src/telemetry). Disabled unless
  // config.telemetry.enabled; the clock tracks sim time. Flush pending rings
  // (taps().telemetry()->FlushFrame() runs per batch automatically) before
  // reading it mid-run with TraceReader::FromDomain.
  TraceDomain& telemetry() { return telemetry_; }
  const TraceDomain& telemetry() const { return telemetry_; }
  // The streaming sink attached when config.telemetry.stream_path is set
  // (and telemetry is enabled); null otherwise. The file finalizes when the
  // simulator is destroyed — or earlier via telemetry().RemoveSink().
  FileStreamSink* stream_sink() { return stream_sink_.get(); }
  EnergyMeter& meter() { return meter_; }
  Battery& battery() { return battery_; }
  Rng& rng() { return rng_; }
  RadioDevice& radio() { return radio_; }
  PowerSupplyProbe& probe() { return probe_; }
  SimTime now() const { return now_; }
  ObjectId battery_reserve_id() const { return battery_reserve_; }
  // Cached against the kernel mutation epoch: steady-state quanta pay no
  // lookup at all, while any create/delete re-resolves the pointer (and the
  // level cell the per-quantum baseline drain bills through).
  Reserve* battery_reserve() {
    const uint64_t epoch = kernel_.mutation_epoch();
    if (battery_cache_epoch_ != epoch) {
      battery_cache_ = kernel_.LookupTyped<Reserve>(battery_reserve_);
      battery_cell_ = battery_cache_ != nullptr ? battery_cache_->level_cell() : nullptr;
      battery_cache_epoch_ = epoch;
    }
    return battery_cache_;
  }
  // A privileged init thread usable for setup syscalls.
  Thread* boot_thread() { return kernel_.LookupTyped<Thread>(boot_thread_); }

  void set_backlight(bool on) { backlight_on_ = on; }
  bool backlight() const { return backlight_on_; }

  // -- Process & thread management ----------------------------------------------
  struct Process {
    ObjectId container = kInvalidObjectId;
    ObjectId address_space = kInvalidObjectId;
    ObjectId thread = kInvalidObjectId;
  };
  // Creates container + address space + thread; registers the thread with the
  // energy-aware scheduler. `parent` defaults to the root container.
  Process CreateProcess(const std::string& name, ObjectId parent = kInvalidObjectId,
                        const Label& label = Label(Level::k1));

  // Adds a thread to an existing process (shares its address space).
  ObjectId CreateThreadIn(const Process& proc, const std::string& name,
                          const Label& label = Label(Level::k1));

  void AttachBody(ObjectId thread, std::unique_ptr<ThreadBody> body);

  // -- Timed callbacks -----------------------------------------------------------
  void ScheduleAt(SimTime t, std::function<void()> fn);
  void ScheduleAfter(Duration d, std::function<void()> fn) { ScheduleAt(now_ + d, std::move(fn)); }

  // -- Execution -------------------------------------------------------------------
  void Step();  // One quantum.
  void Run(Duration d);
  void RunUntil(SimTime t);

  // -- Radio data path (used by netd) ----------------------------------------------
  // Sends one packet of `bytes` through the radio on behalf of nobody (true
  // cost only; estimation and billing are netd's job).
  void RadioTransmit(int64_t bytes);

  // Registers an additional true-power contributor (e.g. the ARM9's GPS
  // engine); sampled every quantum and by the probe.
  void RegisterPowerSource(std::function<Power()> source) {
    extra_power_sources_.push_back(std::move(source));
  }

  // -- Instrumentation ----------------------------------------------------------------
  Power TrueInstantaneousPower() const override;
  bool cpu_busy_last_quantum() const { return cpu_busy_last_quantum_; }
  ObjectId last_run_thread() const { return last_run_thread_; }
  // True energy drained while the radio was awake (whole-system), and the
  // total awake time — the "Active Energy" / "Active Time" rows of Table 1.
  Energy radio_active_energy() const { return radio_active_energy_; }
  Duration radio_active_time() const { return radio_.total_awake_time(); }
  // Whole-run true energy (battery drain).
  Energy total_true_energy() const { return battery_.drained(); }

 private:
  // Per-batch coalesced meter records: the baseline/backlight estimates are
  // the same Energy every quantum, so N quanta fold into one Record(e * N) —
  // bit-identical totals (exact int64 multiply, and EnergyMeter::Record is
  // pure accumulation), one map walk instead of N.
  struct MeterBatch {
    int64_t baseline_quanta = 0;
    int64_t backlight_quanta = 0;
  };

  void RunTimedCallbacks();
  void ChargeQuantum(Thread& t, bool memory_heavy);
  // Step() == StepHead() + StepQuantum(nullptr). The batched RunUntil runs
  // one head per stretch (timed callbacks + tap batch), then quanta in a
  // tight loop with the meter records coalesced into `mb`.
  void StepHead();
  void StepQuantum(MeterBatch* mb);
  void FlushMeterBatch(const MeterBatch& mb);

  SimConfig config_;
  Kernel kernel_;
  Battery battery_;
  EnergyMeter meter_;
  Rng rng_;
  RadioDevice radio_;
  PowerSupplyProbe probe_;
  // Declared before the domain: ~TraceDomain detaches its sinks (finalizing
  // the streamed file), so the sink must outlive the domain.
  std::unique_ptr<FileStreamSink> stream_sink_;
  // Declared before the executor/engine/scheduler, which hold raw pointers
  // into it: reverse destruction order keeps the domain alive past them.
  TraceDomain telemetry_;
  // Declared before the tap engine: the engine holds a raw pointer to the
  // executor, so the engine must be destroyed first (reverse member order).
  std::unique_ptr<ShardExecutor> shard_executor_;
  std::unique_ptr<TapEngine> tap_engine_;
  std::unique_ptr<EnergyAwareScheduler> scheduler_;

  ObjectId battery_reserve_ = kInvalidObjectId;
  ObjectId boot_thread_ = kInvalidObjectId;
  SimTime now_;
  SimTime next_tap_batch_;

  std::unordered_map<ObjectId, std::unique_ptr<ThreadBody>> bodies_;

  struct TimedCallback {
    SimTime when;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const TimedCallback& o) const {
      return when > o.when || (when == o.when && seq > o.seq);
    }
  };
  std::priority_queue<TimedCallback, std::vector<TimedCallback>, std::greater<>> callbacks_;
  uint64_t callback_seq_ = 0;

  std::vector<std::function<Power()>> extra_power_sources_;
  bool backlight_on_ = false;
  bool cpu_busy_last_quantum_ = false;
  bool last_memory_heavy_ = false;  // Snapshot of the last-run body's mix.
  ObjectId last_run_thread_ = kInvalidObjectId;
  Energy pending_data_energy_;  // Radio per-byte energy to drain next quantum.
  Energy radio_active_energy_;

  // Per-quantum constants hoisted out of Step/ChargeQuantum (the model and
  // quantum are fixed after construction).
  std::function<bool(ObjectId)> has_body_fn_;
  Reserve* battery_cache_ = nullptr;
  Quantity* battery_cell_ = nullptr;
  uint64_t battery_cache_epoch_ = UINT64_MAX;
  // True when the last tap batch moved tap or decay flow — flow-moving
  // batches bump the reserve-op epoch and cut any plan, so the next plan's
  // horizon is capped at the next batch boundary instead of wasting build
  // work past it. Idle batches leave plans (and this flag) alone.
  bool last_batch_moved_flow_ = false;
  Power cpu_memory_power_;          // cpu_active * (1 + memory premium).
  Energy baseline_quantum_energy_;  // idle_baseline * quantum.
  Energy backlight_quantum_energy_;
  Energy cpu_quantum_estimate_;
  Energy cpu_quantum_estimate_memory_;
  Quantity baseline_quantum_quantity_ = 0;
};

}  // namespace cinder
