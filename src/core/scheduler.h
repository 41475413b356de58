// The energy-aware CPU scheduler (paper section 3.2).
//
// Round-robin over registered threads, with the Cinder twist: a thread is
// eligible to run only while at least one of its attached reserves is
// non-empty. Threads that have depleted their reserves simply do not run,
// which throttles all new spending. CPU energy for a quantum is billed to the
// thread's active reserve first, then to its other attached reserves in
// attach order (threads "draw from one or more energy reserves").
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/units.h"
#include "src/core/reserve.h"
#include "src/histar/kernel.h"

namespace cinder {

class TraceDomain;

// Horizon and billing parameters for EnergyAwareScheduler::BuildPlan — the
// simulator's per-quantum constants, passed in so the scheduler stays host-
// agnostic. The plan simulates eligibility with the actual per-quantum CPU
// bill bracketed in [cost_lo, cost_hi] (the plain and memory-heavy quantum
// estimates): a pick is planned only when it is certain under every cost in
// the bracket, which is the "billing margin" of the plan contract.
struct SchedPlanParams {
  uint32_t max_quanta = 0;  // K. Sleeper deadlines inside the horizon cap it.
  Duration quantum;         // Quantum length (sleeper-deadline math).
  Quantity cost_lo = 0;     // Cheapest possible per-quantum CPU bill (nJ).
  Quantity cost_hi = 0;     // Costliest possible bill; must be >= cost_lo.
  // When set, every planned quantum also drains up to `baseline_drain` from
  // this reserve (the simulator's battery-root baseline tick), so plans stay
  // sound for threads drawing on it.
  Reserve* baseline_reserve = nullptr;
  Quantity baseline_drain = 0;
  const std::function<bool(ObjectId)>* eligible = nullptr;  // Null = all.
};

// Lifetime counters for the run-plan machinery; the plan-hit ratio is
// quanta_replayed / (quanta_replayed + single_step_picks). Simulator::RunUntil
// builds plans only where they pay (EnergyAwareScheduler::BuildPlanIfItPays),
// so a queue whose picks stop at the first thread they look at shows
// plans_built near 0 and a plan-hit ratio near 0 by design. Where plans are
// built, a tap batch that moves flow caps each one at the next batch boundary
// (10 quanta at the default periods); only dry batches let a plan run its
// full max_quanta.
struct SchedPlanStats {
  uint64_t plans_built = 0;
  uint64_t quanta_planned = 0;    // Sum of plan lengths at build time.
  uint64_t quanta_replayed = 0;   // Planned entries actually executed.
  uint64_t quanta_discarded = 0;  // Planned entries dropped by invalidation.
  uint64_t plans_cut = 0;         // Epoch-guard mismatches that cut a plan.
  uint64_t single_step_picks = 0; // Full PickNext scans.
  // Queue positions the executed quanta examined: each PickNext adds the
  // threads it looked at (the winner's offset from the cursor + 1, or the
  // queue length when nothing runs), and each replayed entry adds what
  // PickNext would have examined in its place. Discarded entries add nothing.
  uint64_t scan_positions = 0;
};

// Whether EnergyAwareScheduler::BuildPlanIfItPays consults the pay-off
// model. kAlways builds at every call, so the batched stepper plans in every
// stretch, and kNever builds none. Tests use kAlways to pin the plan
// contract at horizons where the model never plans; benchmarks use both to
// measure each side of the model's choice.
enum class PlanBuildPolicy : uint8_t { kWhenItPays, kAlways, kNever };

class EnergyAwareScheduler : public KernelObserver {
 public:
  explicit EnergyAwareScheduler(Kernel* kernel);
  ~EnergyAwareScheduler() override;

  EnergyAwareScheduler(const EnergyAwareScheduler&) = delete;
  EnergyAwareScheduler& operator=(const EnergyAwareScheduler&) = delete;

  void AddThread(ObjectId thread_id);
  const std::vector<ObjectId>& threads() const { return threads_; }

  // True if any attached reserve is non-empty (strictly positive level).
  bool HasEnergy(const Thread& t) const;

  // Wakes sleepers whose deadline has passed, then returns the next thread
  // (round-robin) that is runnable and has energy. Threads that are runnable
  // but energy-starved get their denied-quantum counter bumped. Returns
  // kInvalidObjectId when nothing can run.
  //
  // `eligible`, when provided, additionally filters candidates (the
  // simulator passes "has an attached body", so pure-principal helper
  // threads never occupy CPU quanta).
  ObjectId PickNext(SimTime now);
  ObjectId PickNext(SimTime now, const std::function<bool(ObjectId)>& eligible);

  // -- K-quanta run plans -----------------------------------------------------
  // Precomputes the pick sequence (and the wake/denied side effects) for up
  // to `p.max_quanta` quanta by simulating the PickNext scan against the
  // cached ThreadEnergy cells, decrementing speculative level bounds by the
  // quantum cost bracket. The plan ends early (conservatively) at the first
  // quantum where a decision is not certain: a reserve could cross empty
  // within [cost_lo, cost_hi], a winner's active reserve cannot cover
  // cost_hi on its own (spill/debt billing would depend on the exact cost),
  // or a sleeper deadline falls inside the horizon. Returns the planned
  // length (possibly 0). A build classifies every queued thread once (the
  // cell-to-bound lookup is constant time) and then walks, per planned
  // quantum, the positions PickNext would have examined, so its cost is
  // linear in the queue length plus the scan work of the quanta it plans.
  // Always builds when called; BuildPlanIfItPays is the gated entry point.
  //
  // Validity contract: a plan replays only while (a) the kernel mutation
  // epoch, (b) the kernel reserve-op epoch (out-of-band deposit/withdraw/
  // consume, flow-moving tap batches), and (c) the kernel sched epoch
  // (thread state / reserve-attachment changes) all match the values the
  // build predicted — the replay's own Wake() bumps are pre-counted per
  // entry. Any other bump cuts the remainder and the caller falls back to
  // PickNext.
  size_t BuildPlan(SimTime now, const SchedPlanParams& p);

  // BuildPlan, but only when the plan is predicted to cost less than the
  // PickNext scans it replaces; otherwise builds nothing and returns 0. A
  // plan still walks every position those scans would examine, so it saves
  // only a constant per position and must win back its classify pass over
  // the whole queue. The prediction is the average scan length of the quanta
  // executed since the previous call (SchedPlanStats::scan_positions) times
  // p.max_quanta; the plan pays when that exceeds
  //   kPlanPayoffScansPerThread * queue length + kPlanPayoffScansPerBuild
  // positions. Each call starts a new measuring interval, and the first call
  // (no history) never builds. Reads simulation state only, so the choice is
  // deterministic. The plan build policy can override the model.
  size_t BuildPlanIfItPays(SimTime now, const SchedPlanParams& p);

  // The pay-off model's constants, in queue positions, fitted to a sweep that
  // ran each stretch with plans forced on and forced off (2 to 1024 threads,
  // 10- and 64-quantum horizons, on a 4-vCPU Xeon VM; docs/PERFORMANCE.md):
  // a build costs ~23 ns per queued thread and a planned position saves ~4 ns
  // over a scanned one. bench/ablation_plan_payoff re-checks them.
  static constexpr uint64_t kPlanPayoffScansPerThread = 6;
  static constexpr uint64_t kPlanPayoffScansPerBuild = 128;

  void set_plan_build_policy(PlanBuildPolicy policy) { plan_build_policy_ = policy; }

  // Replays the next plan entry: applies the recorded wakes and denied
  // counters, advances the round-robin cursor, and returns the planned pick
  // through `picked` (kInvalidObjectId for an idle quantum) — plain array
  // walks, no scan. Returns false (and cuts the plan) when no entry remains
  // or an epoch guard fails; the caller must then use PickNext.
  bool TryPlannedPick(SimTime now, ObjectId* picked);

  // True while the next TryPlannedPick would replay (an entry remains and
  // every epoch guard currently matches). Cheap; mutates nothing.
  bool PlanCurrent() const;

  size_t plan_remaining() const { return plan_.size() - plan_pos_; }
  // Drops any un-replayed remainder. Callers that change inputs the epoch
  // guards cannot see (the eligible-filter set, the run queue) must cut the
  // plan explicitly; AddThread and PickNext do so themselves.
  void InvalidatePlan();
  const SchedPlanStats& plan_stats() const { return plan_stats_; }

  // Draws `cost` from the thread's reserves (active first, then others in
  // attach order); returns the amount actually drawn, which is less than
  // `cost` only when every reserve ran dry this quantum.
  Energy ChargeCpu(Thread& t, Energy cost);

  // Attaches a trace domain: every PickNext decision emits a kSchedPick
  // record (actor 0 when nothing could run) and every ChargeCpu a kCpuCharge
  // record, both into writer slot 0 — the scheduler always runs on the main
  // thread. Null detaches.
  void set_telemetry(TraceDomain* domain) { telemetry_ = domain; }

  // KernelObserver: drop deleted threads from the run queue.
  void OnObjectDeleted(ObjectId id, ObjectType type, ObjectHandle handle) override;

 private:
  // Resolved reserve state for one thread: the attach-order reserve pointers
  // and the address each one's level lives at right now (the state-bank slot
  // while a tap-engine plan is attached, the object field otherwise). Both
  // the eligibility scan in PickNext and the billing loop in ChargeCpu walk
  // `cells` with plain dereferences instead of re-testing bank attachment
  // per reserve per quantum. Valid only for the kernel mutation epoch it was
  // filled under (RefreshCache drops it) and for the thread reserve epoch
  // recorded here (attach/detach/active changes bump that).
  struct ThreadEnergy {
    uint64_t reserve_epoch = UINT64_MAX;
    Reserve* active = nullptr;
    Quantity* active_cell = nullptr;
    std::vector<Reserve*> reserves;
    std::vector<Quantity*> cells;
  };

  // Re-resolves thread pointers when the kernel mutation epoch moved; the
  // steady-state pick loop then touches no id maps at all.
  void RefreshCache();
  void RefreshThreadEnergy(ThreadEnergy& e, const Thread& t);

  // Telemetry record helpers (cold; call sites gate on telemetry_).
  void EmitPick(SimTime now, ObjectId picked, uint8_t flags);
  void EmitCharge(const Thread& t, Quantity drawn);
  void EmitPlanBuild(SimTime now, size_t planned, uint32_t requested, uint8_t end_reason);

  // -- Run-plan state ---------------------------------------------------------
  static constexpr uint32_t kNoPick = UINT32_MAX;
  static constexpr uint32_t kNoBound = UINT32_MAX;

  // One planned quantum. `pick` indexes threads_ (kNoPick = idle quantum:
  // cursor unchanged, nothing runs). The wake/denied spans index the shared
  // plan_wakes_/plan_denied_ vectors — exactly the side effects the PickNext
  // scan would have had that quantum. `sched_epoch` is the kernel sched
  // epoch the build expects immediately before this entry executes (build-
  // time value plus the replay's own earlier planned wakes).
  struct PlanEntry {
    uint32_t pick = kNoPick;
    uint32_t denied_begin = 0;
    uint32_t denied_count = 0;
    uint32_t wake_begin = 0;
    uint32_t wake_count = 0;
    uint32_t scanned = 0;  // Positions PickNext would have examined.
    uint64_t sched_epoch = 0;
  };

  // Build scratch: a speculative [lo, hi] level bracket per distinct cell
  // touched by any scanned thread (exact interval arithmetic over the
  // ConsumeUpTo/ConsumeUpToAt update functions, which are monotone in the
  // level), and per scan member the pre-resolved bound indices so the
  // per-quantum eligibility walk is O(cells) with no searching.
  struct CellBound {
    Quantity* cell = nullptr;
    Quantity lo = 0;
    Quantity hi = 0;
  };
  struct ScanMember {
    uint32_t idx = 0;           // Index into threads_.
    uint32_t active_bound = kNoBound;
    uint32_t bounds_begin = 0;  // Span into member_bounds_.
    uint32_t bounds_count = 0;
    bool due_sleeper = false;
    bool woken = false;
    bool eligible = false;
  };
  // One slot of the open-addressing map from a level cell to its
  // plan_bounds_ index. A slot is occupied only while its stamp equals
  // bound_stamp_, so each build empties the map by bumping the stamp and the
  // slots keep their capacity.
  struct BoundSlot {
    Quantity* cell = nullptr;
    uint32_t index = 0;
    uint32_t stamp = 0;
  };
  // Returns the plan_bounds_ index for `cell`, adding a bound at the cell's
  // current level on first sight; constant time.
  uint32_t BoundIndexFor(Quantity* cell);
  // The slot holding `cell` this build, or the free slot where it belongs.
  BoundSlot& ProbeBoundSlot(Quantity* cell);

  Kernel* kernel_;
  TraceDomain* telemetry_ = nullptr;
  std::vector<ObjectId> threads_;
  std::vector<Thread*> thread_cache_;      // Parallel to threads_.
  std::vector<ThreadEnergy> energy_cache_;  // Parallel to threads_.
  uint64_t cache_epoch_ = 0;
  bool cache_valid_ = false;
  size_t rr_cursor_ = 0;
  size_t last_pick_ = SIZE_MAX;  // Index of the last PickNext winner.

  // Plan storage + guards (capacity reused across builds: steady-state
  // rebuilds are alloc-free, pinned by HotPathAllocTest).
  std::vector<PlanEntry> plan_;
  std::vector<uint32_t> plan_denied_;  // Thread indices, per-entry spans.
  std::vector<uint32_t> plan_wakes_;
  size_t plan_pos_ = 0;
  uint64_t plan_mutation_epoch_ = 0;
  uint64_t plan_reserve_op_epoch_ = 0;
  SchedPlanStats plan_stats_;
  PlanBuildPolicy plan_build_policy_ = PlanBuildPolicy::kWhenItPays;
  // plan_stats_.scan_positions and the executed-quanta count at the last
  // BuildPlanIfItPays call: the start of its measuring interval.
  uint64_t decision_scans_ = 0;
  uint64_t decision_quanta_ = 0;
  // Build scratch (capacity reused).
  std::vector<ScanMember> scan_members_;
  std::vector<CellBound> plan_bounds_;
  std::vector<uint32_t> member_bounds_;
  std::vector<BoundSlot> bound_slots_;  // Power-of-two size, at most half full.
  uint32_t bound_stamp_ = 0;
};

}  // namespace cinder
