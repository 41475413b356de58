// The tap engine executes all tap flows in a periodic batch "to minimize
// scheduling and context-switch overheads" (paper section 3.3), and applies
// the global anti-hoarding decay: every non-exempt reserve leaks toward the
// battery with a configurable half-life, 10 minutes by default, so that 50%
// of hoarded resources return within one half-life (paper section 5.2.2).
//
// Flows are processed in tap-id (creation) order, so results are
// deterministic. Transfers are integer; sub-unit remainders are carried per
// tap / per reserve so low rates are exact in the long run, and global
// conservation holds to the nanojoule.
//
// Sharded execution (src/exec): taps only touch the two reserves they
// connect, so the connected components of the reserve/tap graph are
// independent within a batch. With sharding enabled the cached flow plan is
// laid out shard-major, and consecutive shards are grouped into work units
// of at least kUnitEntries plan entries plus decay-wired reserves: one
// executor ticket runs a whole unit — every shard's two tap passes and decay
// slice, back to back — serially, or on a ShardExecutor worker pool (largest
// unit first, so one giant component never serializes the tail of a batch).
// A shard the range split subdivides is a unit of its own. Cross-shard
// state (flow totals, decay leakage into the battery root or the per-shard
// sinks) is accumulated per shard and merged after the batch in shard order,
// so results are bit-identical to the unsharded engine regardless of worker
// count or unit layout.
//
// Structure-of-arrays state bank: while a plan is live, the hot mutable state
// of every reserve (level, deposited, decay carry, decay flags) and every
// planned tap (carry, transferred, rate, enabled) lives in the engine-owned
// ReserveStateBank / TapStateBank — parallel flat arrays indexed by dense
// per-epoch slots, shard-major. Slices are padded to cache lines only at
// unit starts: one thread writes a whole unit, so only units need to own
// their lines. The plan itself stores bank slots, not pointers: RunUnit, both
// tap passes, and the decay skip-list walk nothing but flat arrays.
// Reserve/Tap objects read/write through their slot while attached and get
// the state written back on plan invalidation (see src/core/state_bank.h for
// the contract).
//
// Incremental re-plan: when the only topology changes since the last plan
// are whole components leaving (every reserve and tap of the shard deleted)
// and new components joining (their taps touch only new reserves), the
// engine retires the departed shards in place and appends the new ones at
// the tail of the plan, banks and ticket table, touching only the objects
// that changed. Every other change runs the full RebuildPlan, which is also
// the compaction step. The live shard sequence an update leaves is exactly
// the one a full rebuild would compute, so results are bit-identical
// (docs/PERFORMANCE.md, "PR 17").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/units.h"
#include "src/core/reserve.h"
#include "src/core/state_bank.h"
#include "src/core/tap.h"
#include "src/exec/shard_task.h"
#include "src/histar/kernel.h"

namespace cinder {

// Full definitions live in src/exec; the engine's header only needs the
// dependency-free ShardTask interface.
class ShardExecutor;
class ShardPartitioner;
class TraceDomain;

// Intra-shard range split: a component whose plan section has at least
// `min_entries` entries (or whose partitioner-reported edge count reaches it)
// runs its two tap passes as `ranges` contiguous plan-entry ranges with a
// deterministic reduction between them, so one giant component can occupy
// every worker instead of one. The result is a fixed function of
// (min_entries, ranges) and the plan — never of the worker count or the
// execution interleaving — because every cross-range merge happens in range
// order on the calling thread (see docs/PERFORMANCE.md, "Range split").
struct SplitConfig {
  // 0 disables splitting; shards below the threshold keep the PR-3
  // one-work-item path and its alloc-free steady state.
  uint32_t min_entries = 4096;
  // Ranges per split shard. Fixed per plan; values < 2 disable splitting.
  uint32_t ranges = 8;
};

struct DecayConfig {
  bool enabled = true;
  // Default: 50% leaks away after 10 minutes.
  Duration half_life = Duration::Minutes(10);
  // Route each shard's decay leakage to that shard's smallest-id energy
  // reserve instead of the single battery root — fleet scenarios where each
  // phone's leakage should return to its own pool. The shard root itself does
  // not leak while this is on: it is the shard-local analogue of the
  // (decay-exempt) battery root. Reserves no tap touches belong to no
  // component and keep leaking to the battery. Takes effect on the next
  // batch; requires sharded mode (EnableSharding — a null executor is fine)
  // and is inert otherwise, since the sinks are the partitioner's components.
  bool to_shard_root = false;
};

class TapEngine final : public KernelObserver, public ShardTask, public ReserveDecayListener {
 public:
  // `battery_reserve` is the root reserve decay leaks back into.
  TapEngine(Kernel* kernel, ObjectId battery_reserve);
  ~TapEngine() override;

  TapEngine(const TapEngine&) = delete;
  TapEngine& operator=(const TapEngine&) = delete;

  DecayConfig& decay() { return decay_; }
  const DecayConfig& decay() const { return decay_; }

  // Takes effect on the next plan rebuild. Changing the values changes which
  // deterministic schedule the engine runs (they are part of the result's
  // definition, like the decay config), so fix them for a run.
  SplitConfig& split() { return split_; }
  const SplitConfig& split() const { return split_; }

  // Registers a tap for batch processing. Returns false if the tap does not
  // exist or its endpoints are invalid / of mismatched resource kinds.
  bool Register(ObjectId tap_id);
  bool IsRegistered(ObjectId tap_id) const;
  size_t tap_count() const { return taps_.size(); }

  // Runs one batch covering `dt` of simulated time: all registered taps flow,
  // then decay leaks every non-exempt reserve toward the battery.
  void RunBatch(Duration dt);

  // Brings the flow plan up to date with the kernel (RunBatch calls it
  // first): nothing when it is current, an in-place update when only whole
  // components left and new ones joined and the additions fit the plan's
  // headroom, else a full rebuild. The counters say which path ran.
  void UpdatePlan();
  uint64_t full_rebuilds() const { return full_rebuilds_; }
  uint64_t plan_updates() const { return plan_updates_; }

  // A work unit closes once its shards hold at least this many plan entries
  // plus decay-wired reserves (the partitioner's edge and reserve counts),
  // and a shard that reaches it alone is a unit of its own. A unit's hot
  // plan and bank state is then tens of KiB, so it stays in L2 while one
  // ticket covers many small components. Fixed, like the range split's
  // geometry; docs/PERFORMANCE.md, "Setting kUnitEntries", has the sweep
  // it was set from.
  static constexpr uint32_t kUnitEntries = 1024;
  // Spare room a full rebuild caused by a topology change reserves at the
  // tail of the banks and the per-entry and demand-group arrays, as a share
  // of what the plan uses (and at least kUnitEntries): in-place updates
  // append new shards there, so no cell moves between full rebuilds. The
  // first build reserves none, so a fleet that never churns pays nothing.
  static constexpr double kPlanHeadroom = 0.125;

  // -- Sharded execution --------------------------------------------------------
  // Partitions the flow plan into independent per-component shards, grouped
  // into work units, and runs each unit as one ticket on `executor`
  // (serially in the calling thread when null). Flows stay bit-identical to the unsharded
  // engine for any worker count. The engine does not own the executor; it
  // must outlive sharded batches.
  void EnableSharding(ShardExecutor* executor);
  void DisableSharding();
  bool sharding_enabled() const { return sharding_; }
  // Shards in the current plan (1 when sharding is disabled), counting the
  // shards in-place updates retired since the last full rebuild. Valid after
  // a plan build, i.e. after any batch.
  uint32_t shard_count() const { return num_shards_; }
  // False for a shard an in-place update retired: it runs nothing.
  bool shard_live(uint32_t s) const { return shard_live_[s] != 0; }
  // Work units in the current plan: unit u covers shards
  // [unit_first_shard(u), unit_first_shard(u + 1)).
  uint32_t unit_count() const { return static_cast<uint32_t>(unit_shard_begin_.size()) - 1; }
  uint32_t unit_first_shard(uint32_t u) const { return unit_shard_begin_[u]; }

  // Per-shard accounting since the last full plan rebuild (sharded mode);
  // all zero for a retired shard.
  struct ShardStats {
    uint32_t taps = 0;            // Plan entries in the shard.
    uint32_t decay_reserves = 0;  // Energy reserves whose decay runs here.
    uint32_t ranges = 1;          // Non-empty pass ranges (> 1 = split shard).
    Quantity tap_flow = 0;
    Quantity decay_flow = 0;
  };
  const std::vector<ShardStats>& shard_stats() const { return stats_; }

  // -- Telemetry ----------------------------------------------------------------
  // Attaches a trace domain: batches emit per-shard flow and per-unit timing
  // records into per-worker rings and flush one frame per batch; plan
  // rebuilds size the writer rings for the plan's per-batch record budget
  // and dump the plan tables. Takes effect on the next batch
  // (the plan is invalidated so the rebuild can do the cold setup). The
  // engine does not own the domain; null detaches.
  void set_telemetry(TraceDomain* domain) {
    telem_ = domain;
    ring_budget_ = 0;
    plan_valid_ = false;
  }
  TraceDomain* telemetry() const { return telem_; }

  // Registered taps whose source is `reserve`, in id order. Used by
  // ReserveClone / strict transfers to find backward (drain) taps.
  std::vector<ObjectId> TapsFromSource(ObjectId reserve) const;

  // Total quantity moved by taps / by decay since construction (for tests).
  Quantity total_tap_flow() const { return total_tap_flow_; }
  Quantity total_decay_flow() const { return total_decay_flow_; }

  // KernelObserver: drop deleted taps from the registry, and queue reserve
  // and tap deletions for the next in-place update.
  void OnObjectDeleted(ObjectId id, ObjectType type, ObjectHandle handle) override;

  // ShardTask (executor-facing): runs a unit ticket (its shards' tap passes
  // and decay slices) or a range ticket of a split shard. Range tickets
  // touch only their range's slice of the per-entry arrays plus private
  // lanes, so any interleaving across workers is race-free.
  void RunTicket(const ShardTicket& t) override;

  // ReserveDecayListener: a reserve became non-empty (or lost its exemption)
  // mid-epoch; put it back on its shard's decay skip-list. Safe from worker
  // threads because a reserve is only deposited into by its own shard.
  void OnReserveDecayable(Reserve* r) override;

 private:
  // A registered tap resolved for one plan build. Only used while a plan is
  // built or updated: the plan the batch loops walk is the SoA triple
  // (plan_src_/plan_dst_/plan_group_) plus the tap bank arrays.
  struct ResolvedTap {
    Tap* tap;
    Reserve* src;
    Reserve* dst;
  };

  struct DecayResult {
    Quantity flow = 0;
    Quantity leak = 0;   // flow minus stray: banked for the battery root / shard sink.
    Quantity stray = 0;  // Stray reserves' leakage: always the battery.
  };
  // Per-shard batch accumulators, merged (in shard order) after the parallel
  // phase. Cache-line sized so concurrent shards never false-share.
  struct alignas(64) ShardScratch {
    Quantity tap_flow = 0;
    DecayResult decay;
  };

  bool PlanIsCurrent() const {
    return plan_valid_ && plan_epoch_ == kernel_->mutation_epoch();
  }
  // The full rebuild: partition, lay out every shard, size the banks.
  void RebuildPlan();
  // The spare room for `used` slots or entries: 0 without headroom, else
  // the kPlanHeadroom share, at least kUnitEntries, plus one unit start's
  // padding.
  static uint32_t Spare(bool headroom, uint32_t used) {
    if (!headroom) {
      return 0;
    }
    const auto share = static_cast<uint32_t>(used * kPlanHeadroom);
    return (share > kUnitEntries ? share : kUnitEntries) + 64;
  }
  // The in-place update (see UpdatePlan); false, having changed nothing
  // RebuildPlan does not redo, when the change is not the churn shape or
  // does not fit the headroom.
  bool TryUpdatePlan();
  // Resolves registered tap `id` for both plan paths; false when it cannot
  // flow: deleted, an endpoint deleted, or its embedded credentials cannot
  // use both endpoints.
  bool ResolveTap(ObjectId id, ResolvedTap* out) const;
  // The per-shard layout both paths share, in two steps. PlaceShard puts
  // shard `s` (the next index) into the open work unit or a new one —
  // consecutive shards close a unit once it holds kUnitEntries of
  // partitioner edges plus reserves; split candidates and shards that
  // reach that alone are units of one — and reserves its slot, per-entry
  // and plan ranges at the tail, padded to cache lines at unit starts.
  // FillShard then attaches its reserves (resv_order_ indices into the
  // kernel's reserve index) and plan entries (entry_order_ indices into
  // resolved_) to those ranges: slot and decay wiring, sink, entries,
  // demand groups, tap attach.
  void PlaceShard(uint32_t s, uint32_t reserves, uint32_t entries);
  void FillShard(uint32_t s, const uint32_t* resv, uint32_t reserves, const uint32_t* entry);
  // Attaches reserve `r` to bank slot `slot` of shard `shard` and wires its
  // decay (listener, flags, sink, skip-list seed); returns whether it is
  // decay-wired.
  bool WireReserve(Reserve* r, uint32_t slot, uint32_t shard, bool stray);
  // Adds `r` as a stray at the end of the tail shard's slot range.
  void PlaceStray(Reserve* r);
  // Retires shard `s` in place: no batch runs, merges or reports it again.
  void RetireShard(uint32_t s);
  // The shard whose slot range holds bank slot `slot`.
  uint32_t ShardOfSlot(uint32_t slot) const;
  // Per-group metadata for plan entries [first, end).
  void IndexGroups(uint32_t first);
  // Stamps the plan as current for the kernel as it is now.
  void StampPlan();
  // Whether shard `s` with `entries` plan entries is big enough to range
  // split.
  bool SplitCandidate(uint32_t s, uint32_t entries) const;
  // Range-split plan: selects oversized shards, computes (group-boundary
  // snapped) range bounds, per-range distinct-group lane maps, the
  // shared/exclusive destination classification, and the two ticket tables.
  void BuildSplitPlan();
  // The phase ticket tables (pass 1 / pass 2): one unit ticket per plain
  // unit, plus split ranges, in largest-unit-first order. O(units).
  void BuildTicketTables();
  // Runs one phase's tickets: on the executor when there is one (it runs a
  // single ticket, or a one-worker pool, inline), else serially in order.
  void RunPhase(const std::vector<ShardTicket>& tickets);
  // The shards [first, first + count) of one unit, back to back (tap
  // passes and decay slice, results banked in each shard's scratch), then
  // its records: one kShardBatch per live shard and one kShardTiming for
  // the unit (timed from `t0`, counting the `ran` live shards; none when
  // `ran` is 0: every shard of the unit retired, or a split shard's
  // finalize, whose passes kRangeTiming times).
  void RunUnit(uint32_t first, uint32_t count);
  void EmitUnitRecords(uint32_t first, uint32_t count, uint32_t ran, int64_t t0);
  // Folds one shard's batch results into the engine totals and stats and
  // makes its decay-leak deposits (main thread, in shard order).
  void MergeShard(uint32_t shard, Quantity tap_flow, const DecayResult& decay);
  // The split execution pipeline (see RunBatch): pass-1 ranges run the
  // shared pass-1 loop into private lanes; a serial range-order reduction
  // folds lanes into the canonical per-group totals and classifies each
  // group as unconstrained (scale == 1 provably) or constrained; pass-2
  // ranges execute the unconstrained entries with exclusive-destination
  // writes and deferred lists, marking each entry they ran skipped; the
  // serial finalize applies every deferred effect in range order, runs the
  // shared ordered pass 2 over the shard (which leaves exactly the
  // constrained entries), and the shard's decay slice.
  void RunPass1Range(uint32_t split, uint32_t range);
  void ReduceSplitDemand(uint32_t split);
  void RunPass2Range(uint32_t split, uint32_t range);
  void FinalizeSplitShard(uint32_t split);
  // One kRangeTiming record for pass `pass` (1 or 2) of a split range,
  // timed from `t0`.
  void EmitRangeTiming(uint32_t shard, uint32_t range, uint8_t pass, int64_t t0);
  // Copies bank state back into every surviving attached object and detaches
  // it (dead objects miss via their generation-tagged handles). Called before
  // every re-snapshot and from the destructor.
  void WriteBackBank();
  // The two tap passes of one shard; returns the flow moved. RunUnit and
  // the one-shard inline batch compose it with DecayShard.
  Quantity RunShardTaps(uint32_t shard);
  // The tap passes' loops, one copy each for whole shards and split ranges.
  // TapPass1 writes the wants of plan entries [begin, end) (per-entry index
  // tb + i; -1 marks a skip) and sums each into demand[demand_slot[i]]: a
  // shard's demand groups, or a split range's private lane. OrderedPass2
  // runs the transfers of [begin, end) in plan order against group_base_,
  // skipping entries marked -1, and returns the flow moved: a whole
  // shard's pass 2, or a split shard's constrained tail.
  void TapPass1(uint32_t begin, uint32_t end, uint32_t tb, double* demand,
                const uint32_t* demand_slot);
  Quantity OrderedPass2(uint32_t shard, uint32_t begin, uint32_t end, uint32_t tb);
  DecayResult DecayShard(uint32_t shard);
  // Telemetry cold paths: the plan-time ring sizing and table dump
  // (spill-direct) — kPlanShard rows for every shard (`all`) or only those
  // in changed_shards_, kPlanTap rows from plan entry `first_entry`,
  // kPlanReserve rows from bank slot `first_slot` — and the merge loop's
  // sink-deposit records.
  void EmitPlanRecords(bool all, uint32_t first_entry, uint32_t first_slot);
  void EmitSinkDeposit(const Reserve* sink, Quantity amount);

  Kernel* kernel_;
  ObjectId battery_reserve_;
  DecayConfig decay_;
  std::vector<ObjectId> taps_;  // Creation order == id order.
  uint64_t full_rebuilds_ = 0;
  uint64_t plan_updates_ = 0;

  // -- Cached flow plan (SoA) ---------------------------------------------------
  // Entries are laid out shard-major, tap-id order within a shard (one shard
  // holds everything when sharding is off); shard s owns plan indices
  // [shard_plan_begin_[s], shard_plan_begin_[s+1]). plan_src_/plan_dst_ hold
  // ReserveStateBank slots, plan_group_ the per-source demand slot. The
  // per-entry mutable state (tap carry/transferred/rate/enabled and the
  // pass-1 `want_` scratch) is indexed through the *padded* per-entry index
  // ti = shard_want_begin_[s] + (i - shard_plan_begin_[s]), so each unit's
  // slice of those arrays starts cache-line aligned and concurrent units
  // never write the same line. -1 in want_ marks "skip".
  std::vector<uint32_t> plan_src_;
  std::vector<uint32_t> plan_dst_;
  std::vector<uint32_t> plan_group_;
  std::vector<uint32_t> shard_plan_begin_;
  std::vector<uint32_t> shard_want_begin_;
  std::vector<double> want_;
  double* want_base_ = nullptr;
  // Per distinct source reserve, indexed through group_base_: the vector is
  // over-allocated so group_base_ can start on a cache-line boundary, which
  // (with the per-unit slice padding in RebuildPlan) gives each unit
  // exclusive ownership of its demand lines. Holds group_capacity_ groups,
  // like want_ holds tbank_.capacity() entries.
  std::vector<double> group_demand_;
  double* group_base_ = nullptr;
  uint32_t group_capacity_ = 0;
  std::vector<uint32_t> shard_group_begin_;

  // -- State banks --------------------------------------------------------------
  // Reserve slots are dense per epoch and shard-major: shard s owns
  // [shard_slot_begin_[s], shard_slot_begin_[s+1]), id order within a shard,
  // with each unit's first slice padded to a cache-line boundary. Tap slots
  // are the padded per-entry indices above.
  ReserveStateBank rbank_;
  TapStateBank tbank_;
  std::vector<uint32_t> shard_slot_begin_;

  // Decay skip-list, one per shard: bank slots of the non-empty, non-exempt
  // energy reserves whose decay this shard runs. Lazily pruned when a member
  // is found drained or exempted; refilled through OnReserveDecayable (cold
  // path) or the in-batch deposit hook (hot path). Capacity is reserved for
  // every assigned reserve at rebuild, so mid-epoch re-adds never allocate.
  std::vector<std::vector<uint32_t>> decay_active_;
  // Per-shard decay sink (DecayConfig::to_shard_root): the smallest-id
  // decay-wired reserve of the shard, resolved at plan build. The pointer is
  // epoch-valid like battery_cache_; the slot lets DecayShard skip the sink's
  // own leakage with one compare.
  std::vector<Reserve*> shard_sink_;
  std::vector<uint32_t> shard_sink_slot_;
  // Work units: unit u covers shards [unit_shard_begin_[u],
  // unit_shard_begin_[u+1]); always at least one unit. unit_size_ is each
  // unit's plan entries plus decay-wired reserves (the ticket order key),
  // shard_unit_ each shard's unit, and the tail unit takes more shards while
  // unit_open_, having unit_weight_ of partitioner edges plus reserves.
  std::vector<uint32_t> unit_shard_begin_{0, 1};
  std::vector<uint32_t> unit_size_;
  std::vector<uint32_t> shard_unit_;
  std::vector<uint32_t> unit_order_;  // BuildTicketTables scratch.
  uint32_t unit_weight_ = 0;
  bool unit_open_ = false;
  // 0 for a shard an in-place update retired; live_shards_ counts the rest.
  std::vector<uint8_t> shard_live_;
  uint32_t live_shards_ = 1;

  // -- Range split (intra-shard parallel tap passes) ----------------------------
  // Geometry is rebuilt with the plan; batches only read it. A "split slot"
  // u densely numbers the split shards; each has exactly split_k_ ranges
  // (possibly empty at the tail when entries < split_k_), with global
  // plan-entry bounds in range_bounds_[u * (split_k_ + 1) ..]. Lane slices
  // live in lanes_ at lane_base_[u * split_k_ + r], one slot per distinct
  // demand group the range touches (range_group_begin_/range_group_ids_ is
  // that CSR; entry_lane_ maps each plan entry to its group's lane slot).
  // Per-range deferred work reuses the dense plan-entry index space: range
  // [b, e) owns slices [b, e) of deferred_slot_/deferred_amt_ (shared-dst
  // deposits, applied serially in range order) and pending_slot_ (decay
  // list re-adds from exclusive-dst deposits).
  static constexpr uint32_t kNoSplit = UINT32_MAX;
  SplitConfig split_;
  uint32_t split_k_ = 0;
  std::vector<uint32_t> split_shards_;    // split slot -> shard index
  std::vector<uint32_t> split_of_shard_;  // shard -> split slot or kNoSplit
  std::vector<uint32_t> range_bounds_;
  std::vector<uint32_t> lane_base_;
  std::vector<uint32_t> range_group_begin_;
  std::vector<uint32_t> range_group_ids_;
  std::vector<uint32_t> entry_lane_;
  std::vector<uint8_t> entry_dst_shared_;
  SplitLaneBank lanes_;
  std::vector<uint32_t> deferred_slot_;
  std::vector<Quantity> deferred_amt_;
  std::vector<uint32_t> pending_slot_;
  // Per-range batch accumulators (flow moved, deferred/pending counts),
  // cache-line sized like ShardScratch so concurrent ranges never false-share.
  struct alignas(64) RangeScratch {
    Quantity tap_flow = 0;
    uint32_t n_deferred = 0;
    uint32_t n_pending = 0;
  };
  std::vector<RangeScratch> range_scratch_;
  // Per demand group (padded global group index space): the source's bank
  // slot, the entry count, and the per-batch unconstrained classification
  // (written serially in ReduceSplitDemand, read by pass-2 ranges).
  std::vector<uint32_t> group_src_slot_;
  std::vector<uint32_t> group_size_;
  std::vector<uint8_t> group_fast_;
  std::vector<uint32_t> shard_group_count_;   // Used (unpadded) groups per shard.
  std::vector<uint32_t> split_slow_entries_;  // Per split slot, set each batch.
  // Ticket tables handed to the executor: pass 1 covers every shard (unit
  // tickets, range tickets for split shards) in largest-unit-first order;
  // pass 2 covers split shards' ranges.
  std::vector<ShardTicket> tickets_pass1_;
  std::vector<ShardTicket> tickets_pass2_;
  // Rebuild-only scratch for BuildSplitPlan (stamp maps over groups/slots).
  std::vector<uint32_t> split_group_stamp_;
  std::vector<uint32_t> split_group_lane_;
  std::vector<uint32_t> split_dst_stamp_;
  std::vector<uint32_t> split_dst_first_;
  std::vector<uint8_t> split_dst_shared_;

  std::vector<ShardScratch> scratch_;
  std::vector<ShardStats> stats_;
  Reserve* battery_cache_ = nullptr;
  uint64_t plan_epoch_ = 0;
  // What the plan was built from, for the in-place update's checks: the
  // kernel's access and topology epochs, the largest reserve and tap ids
  // (everything past them is new), the split config and the record mask.
  uint64_t plan_access_epoch_ = 0;
  uint64_t plan_topology_epoch_ = 0;
  ObjectId plan_reserve_horizon_ = kInvalidObjectId;
  ObjectId plan_tap_horizon_ = kInvalidObjectId;
  SplitConfig plan_split_;
  uint32_t plan_record_mask_ = 0;
  bool plan_headroom_ = false;  // The plan reserved headroom.
  // False forces the next UpdatePlan to rebuild in full.
  bool plan_valid_ = false;
  // Reserve and tap deletions since the plan was built, in kernel order.
  std::vector<ObjectHandle> pending_deletes_;

  // -- Telemetry ----------------------------------------------------------------
  // Mask bits are cached once per batch on the main thread before any
  // dispatch; workers read them past the executor's happens-before edge, so
  // plain bools are race-free.
  TraceDomain* telem_ = nullptr;
  uint32_t ring_budget_ = 0;  // Per-batch records the rings were grown for.
  bool telem_on_ = false;
  bool telem_shard_batch_ = false;
  bool telem_shard_timing_ = false;
  bool telem_range_timing_ = false;
  bool telem_taps_ = false;
  bool telem_decay_records_ = false;
  bool telem_reserve_ops_ = false;

  bool sharding_ = false;
  ShardExecutor* executor_ = nullptr;
  std::unique_ptr<ShardPartitioner> partitioner_;  // Created on EnableSharding.
  uint32_t num_shards_ = 1;
  // Batch-wide constants published before the (possibly parallel) shard runs.
  double batch_dt_s_ = 0.0;
  double decay_frac_ = 0.0;
  bool decay_to_root_ = false;

  // Plan-build scratch (kept to reuse capacity across builds): the resolved
  // taps, each one's shard, and the entries counting-sorted shard-major
  // (tap-id order within a shard); the same for the kernel's reserves
  // (`resv_first_` is the first index an update lays out); the shards an
  // update retired, changed, and the strays it re-homes.
  std::vector<ResolvedTap> resolved_;
  std::vector<uint32_t> entry_shard_;
  std::vector<uint32_t> entry_order_;
  std::vector<uint32_t> reserve_shard_;
  std::vector<uint8_t> reserve_stray_;
  std::vector<uint32_t> resv_order_;
  std::vector<uint32_t> entry_begin_;
  std::vector<uint32_t> resv_begin_;
  uint32_t resv_first_ = 0;
  std::vector<uint32_t> retired_;
  std::vector<uint32_t> changed_shards_;
  std::vector<Reserve*> strays_;
  // FillShard scratch: the demand group of each of the shard's reserve
  // slots (kNoBankSlot: none yet).
  std::vector<uint32_t> group_of_src_;

  Quantity total_tap_flow_ = 0;
  Quantity total_decay_flow_ = 0;
};

}  // namespace cinder
