#include "src/core/tap_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "src/base/log.h"
#include "src/exec/shard_executor.h"
#include "src/exec/shard_partitioner.h"
#include "src/telemetry/trace_domain.h"

namespace cinder {

namespace {
// Wall clock for the timing record kinds. Only read when the timing bits are
// in the record mask — the values land in telemetry records, never in any
// engine result, so determinism is untouched.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Slice padding at work-unit starts: per-entry and demand-group slots per
// cache line of doubles, and reserve slots per cache line of flag bytes.
constexpr uint32_t kAlign = 64 / sizeof(double);
constexpr uint32_t kSlotAlign = 64;

uint32_t PadTo(uint32_t v, uint32_t align) { return (v + align - 1) / align * align; }

// Credits `amount` to reserve bank slot `d` (level and deposited). True when
// the deposit flipped a decay-wired slot that is off its shard's decay
// skip-list from empty to non-empty: the slot is now flagged as listed, and
// the caller queues it (the re-add the Reserve::Deposit listener hook makes
// on the same flip).
inline bool CreditSlot(Quantity* lvl, Quantity* dep, uint8_t* rflags, uint32_t d,
                       Quantity amount) {
  const Quantity dst_level = lvl[d];
  lvl[d] = dst_level + amount;
  dep[d] += amount;
  if (dst_level <= 0 && lvl[d] > 0) {
    const uint8_t df = rflags[d];
    if ((df & ReserveStateBank::kDecayWired) != 0 && (df & ReserveStateBank::kInDecayList) == 0) {
      rflags[d] = df | ReserveStateBank::kInDecayList;
      return true;
    }
  }
  return false;
}

// Room for `n` elements in a table whose contents are about to be rebuilt:
// a block too small is freed before the bigger one is taken.
template <typename V>
void ReserveFresh(V& v, size_t n) {
  if (v.capacity() < n) {
    V().swap(v);
    v.reserve(n);
  }
}

// Stable counting sort of the indices of `key` (values < buckets): bucket
// b's indices, ascending, are (*order)[(*begin)[b] .. (*begin)[b + 1]).
void BucketOrder(const std::vector<uint32_t>& key, uint32_t buckets, std::vector<uint32_t>* begin,
                 std::vector<uint32_t>* order) {
  begin->assign(buckets + 1, 0);
  for (const uint32_t k : key) {
    ++(*begin)[k + 1];
  }
  for (uint32_t b = 0; b < buckets; ++b) {
    (*begin)[b + 1] += (*begin)[b];
  }
  order->resize(key.size());
  // Scatter with begin[k] as bucket k's cursor, which leaves it at the
  // bucket's end (= bucket k + 1's start); shift back.
  for (uint32_t i = 0; i < key.size(); ++i) {
    (*order)[(*begin)[key[i]]++] = i;
  }
  for (uint32_t b = buckets; b > 0; --b) {
    (*begin)[b] = (*begin)[b - 1];
  }
  (*begin)[0] = 0;
}
}  // namespace

TapEngine::TapEngine(Kernel* kernel, ObjectId battery_reserve)
    : kernel_(kernel), battery_reserve_(battery_reserve) {
  kernel_->AddObserver(this);
}

TapEngine::~TapEngine() {
  // Reserves and taps outlive the engine in every embedding (the kernel owns
  // them): return the bank state to the objects, then clear the
  // decay-listener back-pointers so later deposits don't call into a dead
  // engine.
  WriteBackBank();
  for (ObjectId id : kernel_->ObjectsOfType(ObjectType::kReserve)) {
    Reserve* r = kernel_->LookupTyped<Reserve>(id);
    if (r != nullptr && r->decay_listener() == this) {
      r->DetachDecayListener();
    }
  }
  kernel_->RemoveObserver(this);
  // The write-back just moved every attached reserve's level cell from the
  // bank arrays (dying with this engine) back to the objects; bump the epoch
  // so epoch-keyed caches of those cells (the scheduler's) re-resolve instead
  // of dereferencing freed bank storage.
  kernel_->InvalidateCaches();
}

bool TapEngine::Register(ObjectId tap_id) {
  Tap* tap = kernel_->LookupTyped<Tap>(tap_id);
  if (tap == nullptr) {
    return false;
  }
  Reserve* src = kernel_->LookupTyped<Reserve>(tap->source());
  Reserve* dst = kernel_->LookupTyped<Reserve>(tap->sink());
  if (src == nullptr || dst == nullptr || src->kind() != dst->kind() ||
      tap->source() == tap->sink()) {
    return false;
  }
  auto it = std::lower_bound(taps_.begin(), taps_.end(), tap_id);
  if (it != taps_.end() && *it == tap_id) {
    return true;
  }
  taps_.insert(it, tap_id);
  // A tap created since the plan reaches the next update through the
  // registry's tail (its creation moved the mutation epoch). An older one
  // joins a shard the plan already laid out: only a full rebuild does that.
  if (tap_id <= plan_tap_horizon_) {
    plan_valid_ = false;
  }
  return true;
}

bool TapEngine::IsRegistered(ObjectId tap_id) const {
  return std::binary_search(taps_.begin(), taps_.end(), tap_id);
}

void TapEngine::EnableSharding(ShardExecutor* executor) {
  sharding_ = true;
  executor_ = executor;
  if (partitioner_ == nullptr) {
    partitioner_ = std::make_unique<ShardPartitioner>();
  }
  plan_valid_ = false;
}

void TapEngine::DisableSharding() {
  sharding_ = false;
  executor_ = nullptr;
  plan_valid_ = false;
}

void TapEngine::WriteBackBank() {
  // Generation-tagged handles make this exact under churn: a slab slot
  // recycled since the snapshot fails the generation check, so a dead
  // reserve's state can never be written into the slot's new tenant. The
  // bank-identity check keeps a second engine's attachments untouched.
  for (uint32_t slot = 0; slot < rbank_.size(); ++slot) {
    const ObjectHandle h = rbank_.handle(slot);
    if (!h.valid()) {
      continue;  // Padding or retired slot, or never attached.
    }
    Reserve* r = kernel_->LookupTyped<Reserve>(h);
    if (r != nullptr && r->bank() == &rbank_ && r->bank_slot() == slot) {
      r->DetachBank();
    }
  }
  for (uint32_t slot = 0; slot < tbank_.size(); ++slot) {
    const ObjectHandle h = tbank_.handle(slot);
    if (!h.valid()) {
      continue;
    }
    Tap* t = kernel_->LookupTyped<Tap>(h);
    if (t != nullptr && t->bank() == &tbank_ && t->bank_slot() == slot) {
      t->DetachBank();
    }
  }
}

void TapEngine::UpdatePlan() {
  if (PlanIsCurrent()) {
    return;
  }
  if (TryUpdatePlan()) {
    ++plan_updates_;
  } else {
    RebuildPlan();
  }
}

void TapEngine::StampPlan() {
  battery_cache_ = kernel_->LookupTyped<Reserve>(battery_reserve_);
  pending_deletes_.clear();
  const std::vector<ObjectId>& reserves = kernel_->ObjectsOfType(ObjectType::kReserve);
  const std::vector<ObjectId>& taps = kernel_->ObjectsOfType(ObjectType::kTap);
  plan_reserve_horizon_ = reserves.empty() ? kInvalidObjectId : reserves.back();
  plan_tap_horizon_ = taps.empty() ? kInvalidObjectId : taps.back();
  plan_split_ = split_;
  plan_record_mask_ = telem_ != nullptr ? telem_->record_mask() : 0;
  plan_topology_epoch_ = kernel_->topology_epoch();
  plan_access_epoch_ = kernel_->access_epoch();
  plan_epoch_ = kernel_->mutation_epoch();
  plan_valid_ = true;
}

void TapEngine::RebuildPlan() {
  // Headroom once the topology has changed under a built plan (or the last
  // plan already had it): more churn is then likely, while a fleet that is
  // built once keeps its exact footprint.
  const bool headroom =
      full_rebuilds_ > 0 &&
      (plan_headroom_ || kernel_->topology_epoch() != plan_topology_epoch_);
  ++full_rebuilds_;
  // Return the previous epoch's bank state to the surviving objects before
  // re-snapshotting: cold-path mutations made since then went through the
  // bank, so the objects are stale until this runs.
  WriteBackBank();

  // Shard assignment: one shard per connected component when sharding is on,
  // a single shard holding everything otherwise. The partitioner caches on
  // the topology epoch, so label flaps rebuild the plan without re-running
  // the union-find.
  num_shards_ = 1;
  if (sharding_) {
    const ShardLayout& layout = partitioner_->Partition(*kernel_);
    num_shards_ = layout.num_shards == 0 ? 1 : layout.num_shards;
  }

  // ---- Plan entries: every registered tap that may flow, an entry in its
  // source's shard; counting-sorted shard-major, stable so each shard keeps
  // tap-id order (the order the unsharded engine flows in).
  resolved_.clear();
  entry_shard_.clear();
  ReserveFresh(resolved_, taps_.size());
  ReserveFresh(entry_shard_, taps_.size());
  for (ObjectId id : taps_) {
    ResolvedTap e{};
    if (!ResolveTap(id, &e)) {
      continue;
    }
    uint32_t s = 0;
    if (sharding_) {
      s = partitioner_->ShardOf(kernel_->HandleOf(e.tap->source()));
      if (s == ShardLayout::kNoShard) {
        s = 0;  // Unreachable: a plan entry's endpoints are a live tap edge.
      }
    }
    resolved_.push_back(e);
    entry_shard_.push_back(s);
  }
  BucketOrder(entry_shard_, num_shards_, &entry_begin_, &entry_order_);

  // ---- Reserves, likewise shard-major in id order. Strayness (no tap
  // touches the reserve) is a property of the component graph, not of the
  // shard count: classify it whenever a partitioner ran, so a
  // single-component fleet routes stray leakage exactly like a large one.
  // Strays are spread round-robin (in id order, so deterministically).
  const std::vector<ObjectId>& reserves = kernel_->ObjectsOfType(ObjectType::kReserve);
  const auto nr = static_cast<uint32_t>(reserves.size());
  resv_first_ = 0;
  reserve_shard_.resize(nr);
  reserve_stray_.assign(nr, 0);
  uint32_t round_robin = 0;
  for (uint32_t i = 0; i < nr; ++i) {
    uint32_t s = 0;
    if (sharding_) {
      s = partitioner_->ShardOf(kernel_->HandleOf(reserves[i]));
      if (s == ShardLayout::kNoShard) {
        reserve_stray_[i] = 1;
        s = round_robin++ % num_shards_;
      }
    }
    reserve_shard_[i] = s;
  }
  BucketOrder(reserve_shard_, num_shards_, &resv_begin_, &resv_order_);

  // ---- Layout: place every shard (work units and padded ranges), size the
  // banks, then fill every shard. With headroom, the per-entry and per-shard
  // tables get room for what the spare tail can hold (a component has at
  // least two reserves), so an update appends without regrowing any.
  if (headroom) {
    const uint32_t entries = static_cast<uint32_t>(resolved_.size()) +
                             Spare(true, static_cast<uint32_t>(resolved_.size()));
    for (auto* v : {&plan_src_, &plan_dst_, &plan_group_, &group_src_slot_, &group_size_}) {
      ReserveFresh(*v, entries);
    }
    ReserveFresh(group_fast_, entries);
    const uint32_t shards = num_shards_ + Spare(true, nr) / 2 + 1;
    for (auto* v : {&shard_plan_begin_, &shard_want_begin_, &shard_slot_begin_,
                    &shard_group_begin_, &shard_group_count_, &shard_sink_slot_, &shard_unit_,
                    &split_of_shard_}) {
      ReserveFresh(*v, shards);
    }
    ReserveFresh(shard_sink_, shards);
    ReserveFresh(decay_active_, shards);
    ReserveFresh(shard_live_, shards);
    ReserveFresh(scratch_, shards);
    ReserveFresh(stats_, shards);
  }
  unit_shard_begin_.assign(1, 0);
  unit_size_.clear();
  shard_unit_.clear();
  unit_open_ = false;
  unit_weight_ = 0;
  shard_slot_begin_.assign(1, 0);
  shard_want_begin_.assign(1, 0);
  shard_plan_begin_.assign(1, 0);
  shard_group_begin_.assign(1, 0);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    PlaceShard(s, resv_begin_[s + 1] - resv_begin_[s], entry_begin_[s + 1] - entry_begin_[s]);
  }
  const uint32_t slots = shard_slot_begin_.back();
  const uint32_t want = shard_want_begin_.back();
  rbank_.Reset(slots, slots + Spare(headroom, slots));
  tbank_.Reset(want, want + Spare(headroom, want));
  want_base_ = bank_internal::Align64(want_, want, tbank_.capacity());
  const auto n = static_cast<uint32_t>(resolved_.size());
  plan_src_.resize(n);
  plan_dst_.resize(n);
  plan_group_.resize(n);
  decay_active_.resize(num_shards_);
  shard_sink_.assign(num_shards_, nullptr);
  shard_sink_slot_.assign(num_shards_, kNoBankSlot);
  shard_group_count_.assign(num_shards_, 0);
  stats_.assign(num_shards_, ShardStats{});
  for (uint32_t s = 0; s < num_shards_; ++s) {
    FillShard(s, resv_order_.data() + resv_begin_[s], resv_begin_[s + 1] - resv_begin_[s],
              entry_order_.data() + entry_begin_[s]);
  }
  // Groups never outnumber entries, so the per-entry spare bounds theirs.
  group_capacity_ = shard_group_begin_.back() + Spare(headroom, want);
  group_base_ =
      bank_internal::Align64(group_demand_, shard_group_begin_.back(), group_capacity_);
  IndexGroups(0);
  shard_live_.assign(num_shards_, 1);
  live_shards_ = num_shards_;
  scratch_.assign(num_shards_, ShardScratch{});
  BuildSplitPlan();
  BuildTicketTables();

  if (telem_ != nullptr && telem_->enabled()) {
    EmitPlanRecords(/*all=*/true, 0, 0);
  }

  // The plan no longer needs the resolved pointers; drop them eagerly (the
  // capacity stays for the next rebuild).
  resolved_.clear();
  plan_headroom_ = headroom;
  // Attaching the objects to this engine's banks stranded any sibling
  // engine's snapshot; bump the epochs so a sibling re-snapshots (its next
  // AttachBank writes our live values back through this bank first) instead
  // of batch-running stale arrays. Engines alternating on one kernel rebuild
  // every batch — correct, just not the fast path.
  kernel_->InvalidateCaches();
  StampPlan();
}

bool TapEngine::TryUpdatePlan() {
  const uint32_t mask = telem_ != nullptr ? telem_->record_mask() : 0;
  if (!plan_valid_ || !sharding_ || kernel_->access_epoch() != plan_access_epoch_ ||
      split_.min_entries != plan_split_.min_entries || split_.ranges != plan_split_.ranges ||
      mask != plan_record_mask_) {
    return false;
  }
  if (kernel_->topology_epoch() == plan_topology_epoch_) {
    // No reserve or tap came or went: only objects the plan does not hold
    // changed (threads, containers, moves).
    StampPlan();
    return true;
  }
  const ShardLayout& layout = partitioner_->layout();
  const uint32_t old_shards = num_shards_;
  // A plan without components holds a placeholder shard 0, which the first
  // new component would collide with.
  if (layout.num_shards != old_shards) {
    return false;
  }
  retired_.clear();
  if (!partitioner_->Update(*kernel_, pending_deletes_, &retired_)) {
    return false;
  }
  for (const uint32_t s : retired_) {
    if (split_of_shard_[s] != kNoSplit) {
      return false;
    }
  }
  const uint32_t added = layout.num_shards - old_shards;

  // ---- The new plan entries: registered taps past the plan's largest tap
  // id, each in a new shard (Update checked that new taps touch only new
  // reserves), bucketed by new shard.
  resolved_.clear();
  entry_shard_.clear();
  for (auto it = std::upper_bound(taps_.begin(), taps_.end(), plan_tap_horizon_);
       it != taps_.end(); ++it) {
    ResolvedTap e{};
    if (!ResolveTap(*it, &e)) {
      continue;
    }
    const uint32_t s = partitioner_->ShardOf(kernel_->HandleOf(e.tap->source()));
    if (s == ShardLayout::kNoShard || s < old_shards) {
      return false;  // Unreachable: the edge is live and new.
    }
    resolved_.push_back(e);
    entry_shard_.push_back(s - old_shards);
  }
  BucketOrder(entry_shard_, added, &entry_begin_, &entry_order_);

  // ---- The new reserves, past the plan's largest reserve id: component
  // members bucketed by new shard, strays (the last bucket) to the tail
  // shard after the strays the retired shards hosted.
  strays_.clear();
  for (const uint32_t s : retired_) {
    for (uint32_t slot = shard_slot_begin_[s]; slot < shard_slot_begin_[s + 1]; ++slot) {
      Reserve* r = kernel_->LookupTyped<Reserve>(rbank_.handle(slot));
      if (r != nullptr && r->bank() == &rbank_ && r->bank_slot() == slot) {
        strays_.push_back(r);  // Alive in a departed component: a stray.
      }
    }
  }
  const std::vector<ObjectId>& reserves = kernel_->ObjectsOfType(ObjectType::kReserve);
  const auto nr = static_cast<uint32_t>(reserves.size());
  resv_first_ = static_cast<uint32_t>(
      std::upper_bound(reserves.begin(), reserves.end(), plan_reserve_horizon_) -
      reserves.begin());
  reserve_shard_.clear();
  for (uint32_t i = resv_first_; i < nr; ++i) {
    const uint32_t s = partitioner_->ShardOf(kernel_->HandleOf(reserves[i]));
    if (s == ShardLayout::kNoShard) {
      strays_.push_back(kernel_->LookupTyped<Reserve>(reserves[i]));
    }
    reserve_shard_.push_back(s == ShardLayout::kNoShard ? added : s - old_shards);
  }
  BucketOrder(reserve_shard_, added + 1, &resv_begin_, &resv_order_);
  reserve_stray_.assign(nr - resv_first_, 0);
  for (uint32_t& i : resv_order_) {
    i += resv_first_;  // Kernel reserve-index space, like a full rebuild's.
  }
  const uint32_t tail = layout.num_shards - 1;
  if (!strays_.empty() && added == 0 &&
      (shard_live_[tail] == 0 ||
       std::find(retired_.begin(), retired_.end(), tail) != retired_.end())) {
    return false;  // No live tail shard to host them.
  }

  // ---- Place the new shards at the tail and check that everything fits
  // the headroom. Past this point the update cannot fail.
  const uint32_t old_units = unit_count();
  const uint32_t first_slot = shard_slot_begin_.back();
  for (uint32_t k = 0; k < added; ++k) {
    const uint32_t entries = entry_begin_[k + 1] - entry_begin_[k];
    if (SplitCandidate(old_shards + k, entries)) {
      return false;
    }
    PlaceShard(old_shards + k, resv_begin_[k + 1] - resv_begin_[k], entries);
  }
  const auto slots = static_cast<uint32_t>(shard_slot_begin_.back() + strays_.size());
  const uint32_t want = shard_want_begin_.back();
  const auto group_bound = static_cast<uint32_t>(shard_group_begin_.back() +
                                                 (unit_count() - old_units) * kAlign +
                                                 resolved_.size());
  if (slots > rbank_.capacity() || want > tbank_.capacity() || group_bound > group_capacity_) {
    return false;
  }

  // ---- Apply: fill the new shards, home the strays, retire the departed
  // shards.
  changed_shards_.clear();
  rbank_.Grow(slots);
  tbank_.Grow(want);
  bank_internal::Grow64(want_, want);
  const auto first_entry = static_cast<uint32_t>(plan_src_.size());
  const auto n = static_cast<uint32_t>(first_entry + resolved_.size());
  plan_src_.resize(n);
  plan_dst_.resize(n);
  plan_group_.resize(n);
  num_shards_ = layout.num_shards;
  live_shards_ += added - static_cast<uint32_t>(retired_.size());
  decay_active_.resize(num_shards_);
  shard_sink_.resize(num_shards_, nullptr);
  shard_sink_slot_.resize(num_shards_, kNoBankSlot);
  shard_group_count_.resize(num_shards_, 0);
  stats_.resize(num_shards_, ShardStats{});
  shard_live_.resize(num_shards_, 1);
  scratch_.resize(num_shards_, ShardScratch{});
  split_of_shard_.resize(num_shards_, kNoSplit);
  for (uint32_t k = 0; k < added; ++k) {
    FillShard(old_shards + k, resv_order_.data() + resv_begin_[k],
              resv_begin_[k + 1] - resv_begin_[k], entry_order_.data() + entry_begin_[k]);
    changed_shards_.push_back(old_shards + k);
  }
  if (!strays_.empty()) {
    std::vector<uint32_t>& list = decay_active_[tail];
    list.reserve(list.capacity() + strays_.size());
    for (Reserve* r : strays_) {
      PlaceStray(r);
    }
    changed_shards_.push_back(tail);
  }
  for (const uint32_t s : retired_) {
    RetireShard(s);
  }
  bank_internal::Grow64(group_demand_, shard_group_begin_.back());
  IndexGroups(first_entry);
  BuildTicketTables();
  if (telem_ != nullptr && telem_->enabled()) {
    EmitPlanRecords(/*all=*/false, first_entry, first_slot);
  }
  resolved_.clear();
  strays_.clear();
  // New objects are attached and strays moved: level cells changed, so
  // epoch-keyed caches (the scheduler's, a sibling engine's plan) must
  // re-resolve, as after a full rebuild.
  kernel_->InvalidateCaches();
  StampPlan();
  return true;
}

bool TapEngine::ResolveTap(ObjectId id, ResolvedTap* out) const {
  Tap* tap = kernel_->LookupTyped<Tap>(id);
  if (tap == nullptr) {
    return false;
  }
  Reserve* src = kernel_->LookupTyped<Reserve>(tap->source());
  Reserve* dst = kernel_->LookupTyped<Reserve>(tap->sink());
  if (src == nullptr || dst == nullptr) {
    return false;  // Endpoint deleted; tap is inert until deleted itself.
  }
  // The tap acts with its embedded credentials: it must be able to use
  // (observe + modify) both endpoints. Any label or credential change moves
  // the kernel's access epoch, so checking once per plan is exact.
  if (!Kernel::CanUseWith(tap->actor_label(), tap->embedded_privileges(), *src) ||
      !Kernel::CanUseWith(tap->actor_label(), tap->embedded_privileges(), *dst)) {
    return false;
  }
  *out = ResolvedTap{tap, src, dst};
  return true;
}

void TapEngine::PlaceShard(uint32_t s, uint32_t reserves, uint32_t entries) {
  uint32_t weight = 0;
  if (sharding_ && s < partitioner_->layout().num_shards) {
    // The partitioner's component sizes — topology-stable, so a label flap
    // that hides a few taps cannot move unit boundaries (or the padding)
    // between rebuilds.
    weight = partitioner_->layout().shard_edges[s] + partitioner_->layout().shard_reserves[s];
  }
  const bool alone = weight >= kUnitEntries || SplitCandidate(s, entries);
  if (alone || !unit_open_) {
    // A new unit. One thread writes a whole unit, so only unit starts are
    // padded: reserve slots to a full 64 (the bank's flags array is one byte
    // per slot and its decay-list bits are written from worker threads, so
    // only a 64-slot boundary keeps adjacent units' flag slices off a shared
    // line; the 8-byte arrays get 512-byte alignment for free), per-entry
    // slots to a cache line of doubles.
    unit_shard_begin_.push_back(s + 1);
    unit_size_.push_back(0);
    shard_slot_begin_.back() = PadTo(shard_slot_begin_.back(), kSlotAlign);
    shard_want_begin_.back() = PadTo(shard_want_begin_.back(), kAlign);
    unit_open_ = !alone;
    unit_weight_ = 0;
  } else {
    unit_shard_begin_.back() = s + 1;
  }
  if (unit_open_) {
    unit_weight_ += weight;
    unit_open_ = unit_weight_ < kUnitEntries;
  }
  shard_unit_.push_back(unit_count() - 1);
  shard_slot_begin_.push_back(shard_slot_begin_.back() + reserves);
  shard_want_begin_.push_back(shard_want_begin_.back() + entries);
  shard_plan_begin_.push_back(shard_plan_begin_.back() + entries);
}

void TapEngine::FillShard(uint32_t s, const uint32_t* resv, uint32_t reserves,
                          const uint32_t* entry) {
  // Reserves, in id order: the first decay-wired non-stray becomes the sink.
  const std::vector<ObjectId>& ids = kernel_->ObjectsOfType(ObjectType::kReserve);
  decay_active_[s].clear();
  decay_active_[s].reserve(reserves);
  uint32_t wired = 0;
  for (uint32_t k = 0; k < reserves; ++k) {
    const uint32_t i = resv[k];
    wired += WireReserve(kernel_->LookupTyped<Reserve>(ids[i]), shard_slot_begin_[s] + k, s,
                         reserve_stray_[i - resv_first_] != 0)
                 ? 1
                 : 0;
  }
  // Entries in tap-id order. Demand groups (taps sharing a source reserve)
  // are numbered in first-use order through a table indexed by the source's
  // bank slot within the shard (a source is a component member, so its slot
  // is in the shard's range), so the shard owns a contiguous slice of
  // group_demand_, padded at unit starts like the slot and want slices.
  // Padding belongs to the preceding shard (its fill covers it); no group
  // index points at it.
  uint32_t group = shard_group_begin_.back();
  if (unit_shard_begin_[shard_unit_[s]] == s) {
    group = PadTo(group, kAlign);
    shard_group_begin_.back() = group;
  }
  const uint32_t first_group = group;
  const uint32_t pb = shard_plan_begin_[s];
  const uint32_t entries = shard_plan_begin_[s + 1] - pb;
  group_of_src_.assign(entries > 0 ? reserves : 0, kNoBankSlot);
  for (uint32_t k = 0; k < entries; ++k) {
    const ResolvedTap& e = resolved_[entry[k]];
    const uint32_t src = e.src->bank_slot();
    uint32_t& g = group_of_src_[src - shard_slot_begin_[s]];
    if (g == kNoBankSlot) {
      g = group++;
    }
    plan_src_[pb + k] = src;
    plan_dst_[pb + k] = e.dst->bank_slot();
    plan_group_[pb + k] = g;
    e.tap->AttachBank(&tbank_, shard_want_begin_[s] + k, kernel_->HandleOf(e.tap->id()));
  }
  shard_group_begin_.push_back(group);
  shard_group_count_[s] = group - first_group;
  stats_[s] = ShardStats{entries, wired};
  unit_size_[shard_unit_[s]] += entries + wired;
}

bool TapEngine::WireReserve(Reserve* r, uint32_t slot, uint32_t shard, bool stray) {
  r->AttachBank(&rbank_, slot, kernel_->HandleOf(r->id()));
  // Energy reserves (the battery excluded) get the decay listener and
  // count toward their shard's skip-list capacity.
  if (r->id() == battery_reserve_ || r->kind() != ResourceKind::kEnergy) {
    r->set_in_decay_list(false);
    if (r->decay_listener() == this) {
      r->DetachDecayListener();
    }
    return false;
  }
  r->AttachDecayListener(this, shard);
  rbank_.set_flag(slot, ReserveStateBank::kDecayWired, true);
  if (stray) {
    // A stray is in the shard for load balance only: its leakage goes to
    // the battery root (it has no component whose pool could rightfully
    // claim it), and it can never be the shard's sink.
    rbank_.set_flag(slot, ReserveStateBank::kStrayShard, true);
  } else if (shard_sink_slot_[shard] == kNoBankSlot) {
    shard_sink_slot_[shard] = slot;  // Id order: first wired == smallest id.
    shard_sink_[shard] = r;
  }
  const bool decaying = !r->decay_exempt() && r->level() > 0;
  r->set_in_decay_list(decaying);
  if (decaying) {
    decay_active_[shard].push_back(slot);
  }
  return true;
}

void TapEngine::PlaceStray(Reserve* r) {
  const uint32_t tail = num_shards_ - 1;
  // The tail shard's slot range ends the bank, so it grows in place.
  const uint32_t slot = shard_slot_begin_.back()++;
  if (WireReserve(r, slot, tail, /*stray=*/true)) {
    ++stats_[tail].decay_reserves;
    ++unit_size_[shard_unit_[tail]];
  }
}

void TapEngine::RetireShard(uint32_t s) {
  shard_live_[s] = 0;
  shard_sink_[s] = nullptr;  // Its object is gone.
  shard_sink_slot_[s] = kNoBankSlot;
  decay_active_[s].clear();
  unit_size_[shard_unit_[s]] -= stats_[s].taps + stats_[s].decay_reserves;
  // Every object the slices held is dead (or was re-homed): zero them, so
  // the next full rebuild's write-back skips them too.
  for (uint32_t slot = shard_slot_begin_[s]; slot < shard_slot_begin_[s + 1]; ++slot) {
    rbank_.ClearSlot(slot);
  }
  const uint32_t entries = shard_plan_begin_[s + 1] - shard_plan_begin_[s];
  for (uint32_t ti = shard_want_begin_[s]; ti < shard_want_begin_[s] + entries; ++ti) {
    tbank_.ClearSlot(ti);
  }
  stats_[s] = ShardStats{};
  changed_shards_.push_back(s);
}

uint32_t TapEngine::ShardOfSlot(uint32_t slot) const {
  // The first num_shards_ + 1 begins are non-decreasing; an empty shard
  // shares its begin with the next, and upper_bound skips past both.
  const auto end = shard_slot_begin_.begin() + num_shards_;
  return static_cast<uint32_t>(std::upper_bound(shard_slot_begin_.begin(), end, slot) -
                               shard_slot_begin_.begin()) -
         1;
}

void TapEngine::IndexGroups(uint32_t first) {
  // Per-group metadata for the range split: the source's slot (group <->
  // source is a bijection within a shard) and the entry count, so the
  // classification step and the slow-entry accounting need no extra sweeps
  // per batch. Cheap enough to keep for every plan.
  if (first == 0) {
    group_src_slot_.clear();
    group_size_.clear();
    group_fast_.clear();
  }
  const uint32_t groups = shard_group_begin_.back();
  group_src_slot_.resize(groups, 0);
  group_size_.resize(groups, 0);
  group_fast_.resize(groups, 1);
  for (uint32_t i = first; i < plan_group_.size(); ++i) {
    group_src_slot_[plan_group_[i]] = plan_src_[i];
    ++group_size_[plan_group_[i]];
  }
}

bool TapEngine::SplitCandidate(uint32_t s, uint32_t entries) const {
  if (!sharding_ || split_.min_entries == 0 || split_.ranges < 2 || entries < 2) {
    return false;
  }
  // Size by the larger of the partitioner's component edge count and the
  // live plan section: the edge count is topology-stable, so a label flap
  // that hides a few taps cannot flip a component in and out of splitting
  // between rebuilds.
  uint32_t size = entries;
  const ShardLayout& layout = partitioner_->layout();
  if (partitioner_->valid() && s < layout.shard_edges.size() && layout.shard_edges[s] > size) {
    size = layout.shard_edges[s];
  }
  return size >= split_.min_entries;
}

void TapEngine::BuildSplitPlan() {
  const auto n = static_cast<uint32_t>(plan_src_.size());
  split_of_shard_.assign(num_shards_, kNoSplit);
  split_shards_.clear();
  split_k_ = split_.ranges;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    if (SplitCandidate(s, shard_plan_begin_[s + 1] - shard_plan_begin_[s])) {
      split_of_shard_[s] = static_cast<uint32_t>(split_shards_.size());
      split_shards_.push_back(s);
    }
  }
  const auto nu = static_cast<uint32_t>(split_shards_.size());
  if (nu == 0) {
    // Nothing splits this epoch: none of the range machinery below is
    // allocated or touched.
    lanes_.Clear();
    return;
  }

  const uint32_t k = split_k_;
  range_bounds_.assign(static_cast<size_t>(nu) * (k + 1), 0);
  lane_base_.assign(static_cast<size_t>(nu) * k, 0);
  range_group_begin_.assign(static_cast<size_t>(nu) * k + 1, 0);
  range_group_ids_.clear();
  entry_lane_.assign(n, 0);
  entry_dst_shared_.assign(n, 0);
  range_scratch_.assign(static_cast<size_t>(nu) * k, RangeScratch{});
  split_slow_entries_.assign(nu, 0);
  // Deferred/pending slices reuse the dense plan-entry index space: range
  // [b, e) owns [b, e) of each array, so capacity is exact and batches never
  // push_back (the alloc-free steady-state contract).
  deferred_slot_.assign(n, 0);
  deferred_amt_.assign(n, 0);
  pending_slot_.assign(n, 0);

  const uint32_t total_groups = shard_group_begin_[num_shards_];
  split_group_stamp_.assign(total_groups, 0);
  split_group_lane_.assign(total_groups, 0);
  split_dst_stamp_.assign(rbank_.size(), 0);
  split_dst_first_.assign(rbank_.size(), 0);
  split_dst_shared_.assign(rbank_.size(), 0);

  constexpr uint32_t kLanePad = 64 / sizeof(double);  // Lane slots per cache line.
  uint32_t next_lane = 0;
  for (uint32_t u = 0; u < nu; ++u) {
    const uint32_t s = split_shards_[u];
    const uint32_t lo = shard_plan_begin_[s];
    const uint32_t hi = shard_plan_begin_[s + 1];
    const uint32_t len = hi - lo;
    uint32_t* bounds = range_bounds_.data() + static_cast<size_t>(u) * (k + 1);
    bounds[0] = lo;
    bounds[k] = hi;
    for (uint32_t j = 1; j < k; ++j) {
      const uint32_t even = lo + static_cast<uint32_t>(static_cast<uint64_t>(j) * len / k);
      // Snap forward to the next demand-group run boundary within a bounded
      // window: plans built from per-source tap creation lay each group
      // contiguous, so a small nudge keeps most groups whole inside one
      // range. A group longer than the window simply straddles — the lane
      // reduction handles that exactly, at the cost of one extra lane slot.
      uint32_t b = even;
      while (b > lo && b < hi && b - even < 64 && plan_group_[b] == plan_group_[b - 1]) {
        ++b;
      }
      if (b >= hi || plan_group_[b] == plan_group_[b - 1]) {
        // No boundary within the window, or the group runs to the shard end
        // (snapping to hi would just empty every later range): keep the even
        // split and let the group straddle.
        b = even;
      }
      if (b < bounds[j - 1]) {
        b = bounds[j - 1];
      }
      bounds[j] = b;
    }

    // Per-range distinct-group lane map: lane j of a range's slice belongs
    // to the j-th distinct group the range touches, in entry order.
    for (uint32_t r = 0; r < k; ++r) {
      const uint32_t rr = u * k + r;
      const uint32_t stamp = rr + 1;
      uint32_t cnt = 0;
      range_group_begin_[rr] = static_cast<uint32_t>(range_group_ids_.size());
      for (uint32_t i = bounds[r]; i < bounds[r + 1]; ++i) {
        const uint32_t g = plan_group_[i];
        if (split_group_stamp_[g] != stamp) {
          split_group_stamp_[g] = stamp;
          split_group_lane_[g] = cnt++;
          range_group_ids_.push_back(g);
        }
        entry_lane_[i] = split_group_lane_[g];
      }
      lane_base_[rr] = next_lane;
      next_lane += (cnt + kLanePad - 1) / kLanePad * kLanePad;
    }

    // Destination classification: a slot deposited into by exactly one range
    // takes direct writes from that range in pass 2 (it owns the line); a
    // slot two or more ranges feed gets every deposit deferred to the
    // serial, range-ordered finalize.
    for (uint32_t r = 0; r < k; ++r) {
      for (uint32_t i = bounds[r]; i < bounds[r + 1]; ++i) {
        const uint32_t d = plan_dst_[i];
        if (split_dst_stamp_[d] != u + 1) {
          split_dst_stamp_[d] = u + 1;
          split_dst_first_[d] = r;
          split_dst_shared_[d] = 0;
        } else if (split_dst_first_[d] != r) {
          split_dst_shared_[d] = 1;
        }
      }
    }
    for (uint32_t i = lo; i < hi; ++i) {
      entry_dst_shared_[i] = split_dst_shared_[plan_dst_[i]];
    }
  }
  range_group_begin_[static_cast<size_t>(nu) * k] =
      static_cast<uint32_t>(range_group_ids_.size());
  lanes_.Reset(next_lane);
}

void TapEngine::BuildTicketTables() {
  // Units largest first (plan entries plus decay-wired reserves, stable on
  // unit index, so the order is deterministic): the executor starts the big
  // units immediately so one giant component never serializes the tail of
  // a batch. Pass 1 covers every shard — one ticket per plain unit, range
  // tickets for a split shard — and pass 2 is the split shards' ranges.
  // Empty tail ranges (entries < k) get no tickets.
  tickets_pass1_.clear();
  tickets_pass2_.clear();
  const uint32_t nu = unit_count();
  unit_order_.resize(nu);
  std::iota(unit_order_.begin(), unit_order_.end(), 0u);
  std::stable_sort(unit_order_.begin(), unit_order_.end(),
                   [&](uint32_t a, uint32_t b) { return unit_size_[a] > unit_size_[b]; });
  const uint32_t k = split_k_;
  for (const uint32_t u : unit_order_) {
    const uint32_t s = unit_shard_begin_[u];
    const uint32_t count = unit_shard_begin_[u + 1] - s;
    const uint32_t split = split_of_shard_[s];
    if (count == 1 && split != kNoSplit) {
      const uint32_t* bounds = range_bounds_.data() + static_cast<size_t>(split) * (k + 1);
      uint32_t nonempty = 0;
      for (uint32_t r = 0; r < k; ++r) {
        if (bounds[r + 1] > bounds[r]) {
          ++nonempty;
          tickets_pass1_.push_back(ShardTicket{s, split, r, ShardTicketKind::kPass1Range});
          tickets_pass2_.push_back(ShardTicket{s, split, r, ShardTicketKind::kPass2Range});
        }
      }
      stats_[s].ranges = nonempty;
    } else {
      tickets_pass1_.push_back(ShardTicket{s, 0, 0, ShardTicketKind::kUnit, count});
    }
  }
}

void TapEngine::EmitPlanRecords(bool all, uint32_t first_entry, uint32_t first_slot) {
  // Plan time, main thread: one writer ring per pool slot (the caller is
  // slot 0), each grown by every record this plan can emit in one batch —
  // any one worker may run every ticket, so no batch can overwrite a record.
  // Only the enabled kinds count: per live shard (appended ones included;
  // retired ones emit nothing) a kShardBatch and up to two decay-leak
  // deposits (its sink's and its strays' battery deposit), per ticket a
  // kDispatch and a timing record. The opt-in per-tap and per-reserve kinds
  // are not budgeted.
  const auto tickets = static_cast<uint32_t>(tickets_pass1_.size() + tickets_pass2_.size());
  uint32_t batch_records = 0;
  if (telem_->on(RecordKind::kShardBatch)) {
    batch_records += live_shards_;
  }
  if (telem_->on(RecordKind::kReserveDeposit)) {
    batch_records += 2 * live_shards_;
  }
  if (telem_->on(RecordKind::kDispatch)) {
    batch_records += tickets;
  }
  if (telem_->on(RecordKind::kShardTiming) || telem_->on(RecordKind::kRangeTiming)) {
    batch_records += tickets;
  }
  // Asked for in steps, so the few records a compaction or an update's new
  // unit adds rarely regrow (re-allocate and re-zero) every ring. Rings never
  // shrink: an update only grows them when its budget is past the largest
  // asked for.
  constexpr uint32_t kBudgetStep = 256;
  batch_records = PadTo(batch_records, kBudgetStep);
  if (all || batch_records > ring_budget_) {
    ring_budget_ = std::max(ring_budget_, batch_records);
    telem_->EnsureWriters(
        executor_ != nullptr ? static_cast<uint32_t>(executor_->workers()) : 1, ring_budget_);
  }
  // The plan tables go straight into the spill — they scale with the plan,
  // not with any ring's capacity. A full rebuild writes a row per shard; an
  // update only the shards it changed (a retired shard's row has taps 0).
  const auto shard_row = [this](uint32_t s) {
    telem_->EmitSpill(RecordKind::kPlanShard, s, static_cast<uint16_t>(stats_[s].ranges), 0,
                      stats_[s].taps, stats_[s].decay_reserves);
  };
  if (all) {
    for (uint32_t s = 0; s < num_shards_; ++s) {
      shard_row(s);
    }
  } else {
    std::sort(changed_shards_.begin(), changed_shards_.end());
    changed_shards_.erase(std::unique(changed_shards_.begin(), changed_shards_.end()),
                          changed_shards_.end());
    for (const uint32_t s : changed_shards_) {
      shard_row(s);
    }
  }
  if (telem_->on(RecordKind::kPlanTap)) {
    // Plan entry i was laid out from resolved_[entry_order_[i - first_entry]].
    uint32_t s = 0;
    for (auto i = first_entry; i < plan_src_.size(); ++i) {
      while (i >= shard_plan_begin_[s + 1]) {
        ++s;
      }
      const ResolvedTap& e = resolved_[entry_order_[i - first_entry]];
      const auto endpoints = static_cast<int64_t>(
          (static_cast<uint64_t>(e.src->id()) & 0xffffffffull) << 32 |
          (static_cast<uint64_t>(e.dst->id()) & 0xffffffffull));
      telem_->EmitSpill(RecordKind::kPlanTap, i, static_cast<uint16_t>(s & 0xffff), 0,
                        static_cast<int64_t>(e.tap->id()), endpoints);
    }
  }
  if (telem_->on(RecordKind::kPlanReserve)) {
    uint32_t s = first_slot < rbank_.size() ? ShardOfSlot(first_slot) : 0;
    for (uint32_t slot = first_slot; slot < rbank_.size(); ++slot) {
      while (slot >= shard_slot_begin_[s + 1]) {
        ++s;
      }
      const Reserve* r = kernel_->LookupTyped<Reserve>(rbank_.handle(slot));
      if (r == nullptr) {
        continue;  // Padding.
      }
      telem_->EmitSpill(RecordKind::kPlanReserve, slot, static_cast<uint16_t>(s & 0xffff), 0,
                        static_cast<int64_t>(r->id()), 0);
    }
  }
}

void TapEngine::EmitSinkDeposit(const Reserve* sink, Quantity amount) {
  telem_->Emit(RecordKind::kReserveDeposit, static_cast<uint32_t>(sink->id()), 0,
               kReserveOpDecayLeak, amount, sink->level());
}

void TapEngine::RunBatch(Duration dt) {
  if (!dt.IsPositive()) {
    return;
  }
  UpdatePlan();
  // The batch loops write reserve levels through the state-bank arrays, not
  // through Reserve's named mutators, so the scheduler's run plan would not
  // see the movement. Compare the flow totals on exit: a batch that moved
  // tap or decay flow is an out-of-band level mutation and bumps the kernel
  // reserve-op epoch; an all-idle batch leaves plans alive across the
  // boundary. (Sink leak deposits go through Reserve::Deposit and bump on
  // their own.)
  const Quantity tap_flow_before = total_tap_flow_;
  const Quantity decay_flow_before = total_decay_flow_;
  const auto note_if_flow_moved = [&] {
    if (total_tap_flow_ != tap_flow_before || total_decay_flow_ != decay_flow_before) {
      kernel_->NoteReserveOp();
    }
  };
  // Publish the batch-wide constants, then run every ticket — concurrently on
  // the executor when one is attached, serially in table order otherwise.
  // Shards touch disjoint reserves/taps, so scheduling cannot change results.
  batch_dt_s_ = dt.seconds_f();
  // Leak fraction for this interval: 1 - 2^(-dt / half_life). The exp2 is
  // only worth paying when decay will actually run.
  decay_frac_ =
      decay_.enabled ? 1.0 - std::exp2(-dt.seconds_f() / decay_.half_life.seconds_f()) : 0.0;
  // Shard sinks are the partitioner's components; without sharding there is
  // no component structure to route by, so the flag is inert.
  decay_to_root_ = decay_.to_shard_root && sharding_;
  // Cache the record-mask bits for this batch: written here on the main
  // thread, read by workers past the executor's happens-before edge.
  const uint32_t tmask = telem_ != nullptr ? telem_->record_mask() : 0;
  telem_on_ = telem_ != nullptr && telem_->enabled();
  telem_shard_batch_ = (tmask & RecordBit(RecordKind::kShardBatch)) != 0;
  telem_shard_timing_ = (tmask & RecordBit(RecordKind::kShardTiming)) != 0;
  telem_range_timing_ = (tmask & RecordBit(RecordKind::kRangeTiming)) != 0;
  telem_taps_ = (tmask & RecordBit(RecordKind::kTapTransfer)) != 0;
  telem_decay_records_ = (tmask & RecordBit(RecordKind::kReserveDecay)) != 0;
  telem_reserve_ops_ = (tmask & RecordBit(RecordKind::kReserveDeposit)) != 0;
  if (num_shards_ == 1 && split_shards_.empty() && shard_live_[0] != 0) {
    // One-shard plan (the unsharded engine, a one-component fleet): its one
    // unit inline, without the ticket loop and the scratch round trip. The
    // same work as the general path, whose fixed cost is 18–70% of
    // BM_TapBatchWithDecay/8 (docs/PERFORMANCE.md, "What units replaced").
    const int64_t t0 = telem_shard_timing_ ? NowNs() : 0;
    const Quantity flow = RunShardTaps(0);
    const DecayResult dr = decay_.enabled ? DecayShard(0) : DecayResult{};
    if (telem_shard_batch_ || telem_shard_timing_) {
      scratch_[0] = ShardScratch{flow, dr};
      EmitUnitRecords(0, 1, 1, t0);
    }
    MergeShard(0, flow, dr);
    if (telem_on_) {
      telem_->FlushFrame();
    }
    note_if_flow_moved();
    return;
  }
  // Phase A runs every pass-1 ticket: one per work unit (its shards' full
  // batches), plus the demand passes of split shards' ranges. The pool
  // wakes only for a batch of two or more tickets; a one-ticket batch runs
  // inline with no executor round-trip at all.
  RunPhase(tickets_pass1_);
  if (!split_shards_.empty()) {
    // Two-phase range-split pipeline. Serial reduce/classify: fold split
    // lanes in range order into the canonical per-group demand and classify
    // each split group. Phase B: the split shards' unconstrained entries,
    // racing only on range-exclusive state. Serial finalize: deferred
    // effects, the constrained tail and the decay slices, in fixed
    // shard/range order. The reduction order, not the ticket interleaving,
    // defines every result bit.
    const auto nu = static_cast<uint32_t>(split_shards_.size());
    for (uint32_t u = 0; u < nu; ++u) {
      ReduceSplitDemand(u);
    }
    RunPhase(tickets_pass2_);
    for (uint32_t u = 0; u < nu; ++u) {
      FinalizeSplitShard(u);
    }
  }
  // Deterministic merge, in shard order: engine totals, per-shard stats, and
  // the decay leakage each shard banked for its sink (the battery root, or
  // the shard root when decay_to_shard_root is on). Deferring the deposits
  // here is what keeps the sink's shard race-free — and it exactly matches
  // the unsharded engine, where every tap reads the battery before the decay
  // pass touches it.
  for (uint32_t s = 0; s < num_shards_; ++s) {
    if (shard_live_[s] != 0) {
      MergeShard(s, scratch_[s].tap_flow, scratch_[s].decay);
    }
  }
  // One frame per batch: drain every worker ring into the spill (we are past
  // the executor's happens-before edge) and stamp the mark.
  if (telem_on_) {
    telem_->FlushFrame();
  }
  note_if_flow_moved();
}

void TapEngine::RunPhase(const std::vector<ShardTicket>& tickets) {
  if (executor_ != nullptr) {
    executor_->RunTickets(this, tickets.data(), static_cast<uint32_t>(tickets.size()));
    return;
  }
  for (const ShardTicket& t : tickets) {
    RunTicket(t);
  }
}

void TapEngine::RunUnit(uint32_t first, uint32_t count) {
  const int64_t t0 = telem_shard_timing_ ? NowNs() : 0;
  uint32_t ran = 0;
  for (uint32_t shard = first; shard < first + count; ++shard) {
    if (shard_live_[shard] == 0) {
      continue;  // Retired by an in-place update.
    }
    ShardScratch& sc = scratch_[shard];
    sc.tap_flow = RunShardTaps(shard);
    sc.decay = decay_.enabled ? DecayShard(shard) : DecayResult{};
    ++ran;
  }
  if (telem_shard_batch_ || telem_shard_timing_) {
    EmitUnitRecords(first, count, ran, t0);
  }
}

void TapEngine::EmitUnitRecords(uint32_t first, uint32_t count, uint32_t ran, int64_t t0) {
  // This worker's own ring (single-writer); null when the domain has no
  // ring for the slot — then the records are skipped, never misfiled.
  const uint32_t slot = ShardExecutor::current_worker_slot();
  TraceRing* const ring = telem_->ring(slot);
  if (ring == nullptr) {
    return;
  }
  const int64_t now = telem_->time_us();
  if (telem_shard_batch_) {
    for (uint32_t shard = first; shard < first + count; ++shard) {
      if (shard_live_[shard] != 0) {
        ring->Emit(now, RecordKind::kShardBatch, shard, 0, 0, scratch_[shard].tap_flow,
                   scratch_[shard].decay.flow);
      }
    }
  }
  // A unit whose shards all retired ran nothing: no timing record (a v1 of
  // 0 reads as one shard-batch).
  if (telem_shard_timing_ && ran > 0) {
    ring->Emit(now, RecordKind::kShardTiming, first, static_cast<uint16_t>(slot), 0,
               NowNs() - t0, ran);
  }
}

inline void TapEngine::MergeShard(uint32_t shard, Quantity tap_flow, const DecayResult& decay) {
  total_tap_flow_ += tap_flow;
  total_decay_flow_ += decay.flow;
  stats_[shard].tap_flow += tap_flow;
  stats_[shard].decay_flow += decay.flow;
  // The leakage goes to the battery root, or to the shard root when
  // decay_to_shard_root is on; strays' leakage always to the battery.
  Reserve* const battery = battery_cache_;
  if (decay.leak > 0) {
    Reserve* sink = decay_to_root_ ? shard_sink_[shard] : battery;
    if (sink == nullptr) {
      sink = battery;
    }
    if (sink != nullptr) {
      sink->Deposit(decay.leak);
      if (telem_reserve_ops_) {
        EmitSinkDeposit(sink, decay.leak);
      }
    }
  }
  if (decay.stray > 0 && battery != nullptr) {
    battery->Deposit(decay.stray);
    if (telem_reserve_ops_) {
      EmitSinkDeposit(battery, decay.stray);
    }
  }
}

// The shared pass loops are forced inline: a fleet batch runs them once per
// shard, for thousands of few-entry shards, so a call frame per shard would
// cost what the loop bodies do.
[[gnu::always_inline]] inline void TapEngine::TapPass1(uint32_t begin, uint32_t end, uint32_t tb,
                                                       double* demand,
                                                       const uint32_t* demand_slot) {
  // Everything the tap passes touch is a flat array: the dense plan triple
  // (src slot, dst slot, group), the reserve bank, and the padded per-entry
  // arrays rebased through `tb` so each unit's slice is cache-line exclusive.
  // Pass 1 only reads reserve levels (frozen until pass 2) and tap state.
  const double dt_s = batch_dt_s_;
  const Quantity* const lvl = rbank_.levels();
  const double* const tcarry = tbank_.carries();
  const QuantityRate* const trate = tbank_.rates();
  const double* const tfrac = tbank_.fractions();
  const uint8_t* const tflags = tbank_.flags();
  const uint32_t* const src_slot = plan_src_.data();
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t ti = tb + i;
    const uint8_t f = tflags[ti];
    if ((f & TapStateBank::kEnabled) == 0) {
      want_base_[ti] = -1.0;  // Wants are never negative, so -1 is a safe skip mark.
      continue;
    }
    double want = tcarry[ti];
    if ((f & TapStateBank::kProportional) != 0) {
      const Quantity level = lvl[src_slot[i]] > 0 ? lvl[src_slot[i]] : 0;
      want += static_cast<double>(level) * tfrac[ti] * dt_s;
    } else {
      want += static_cast<double>(trate[ti]) * dt_s;
    }
    want_base_[ti] = want;
    demand[demand_slot[i]] += want;
  }
}

[[gnu::always_inline]] inline Quantity TapEngine::OrderedPass2(uint32_t shard, uint32_t begin,
                                                               uint32_t end, uint32_t tb) {
  Quantity* const lvl = rbank_.levels();
  Quantity* const dep = rbank_.deposited();
  uint8_t* const rflags = rbank_.flags();
  double* const tcarry = tbank_.carries();
  Quantity* const ttrans = tbank_.transferred();
  const uint32_t* const src_slot = plan_src_.data();
  const uint32_t* const dst_slot = plan_dst_.data();
  const uint32_t* const group_of = plan_group_.data();
  TraceRing* const tap_trace =
      telem_taps_ ? telem_->ring(ShardExecutor::current_worker_slot()) : nullptr;
  Quantity flow = 0;
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t ti = tb + i;
    const double want = want_base_[ti];
    if (want < 0.0) {
      continue;
    }
    double& demand = group_base_[group_of[i]];
    const Quantity src_level = lvl[src_slot[i]];
    const double avail = src_level > 0 ? static_cast<double>(src_level) : 0.0;
    const double scale = (demand > avail && demand > 0.0) ? avail / demand : 1.0;
    const double granted = want * scale;
    demand -= want;
    auto whole = static_cast<Quantity>(granted);
    // The carry keeps only the sub-unit part of the granted flow; demand the
    // source could not cover is dropped, not banked.
    tcarry[ti] = granted - static_cast<double>(whole);
    if (whole <= 0) {
      continue;
    }
    Quantity moved = src_level < whole ? src_level : whole;
    if (moved <= 0) {
      continue;
    }
    lvl[src_slot[i]] = src_level - moved;
    const uint32_t d = dst_slot[i];
    if (CreditSlot(lvl, dep, rflags, d, moved)) {
      decay_active_[shard].push_back(d);
    }
    ttrans[ti] += moved;
    flow += moved;
    if (tap_trace != nullptr) {
      tap_trace->Emit(telem_->time_us(), RecordKind::kTapTransfer, i,
                      static_cast<uint16_t>(shard & 0xffff), 0, moved, 0);
    }
  }
  return flow;
}

Quantity TapEngine::RunShardTaps(uint32_t shard) {
  // Two passes. Pass 1 computes each tap's demand for this batch; pass 2
  // executes transfers in id (creation) order, giving taps that contend for
  // the same constrained source a proportional share of whatever is
  // available when they flow (e.g. two applications drawing from the shared
  // 14 mW background reserve of Figure 7 each receive ~7 mW instead of the
  // oldest tap winning every batch). Deposits made by earlier taps in the
  // same batch are visible to later ones, so feed taps created before their
  // consumers pipeline within a single batch. Fully deterministic.
  const uint32_t begin = shard_plan_begin_[shard];
  const uint32_t end = shard_plan_begin_[shard + 1];
  const uint32_t tb = shard_want_begin_[shard] - begin;
  std::fill(group_base_ + shard_group_begin_[shard],
            group_base_ + shard_group_begin_[shard + 1], 0.0);
  TapPass1(begin, end, tb, group_base_, plan_group_.data());
  return OrderedPass2(shard, begin, end, tb);
}

void TapEngine::RunTicket(const ShardTicket& t) {
  switch (t.kind) {
    case ShardTicketKind::kUnit:
      RunUnit(t.shard, t.shards);
      break;
    case ShardTicketKind::kPass1Range:
      RunPass1Range(t.split, t.range);
      break;
    case ShardTicketKind::kPass2Range:
      RunPass2Range(t.split, t.range);
      break;
  }
}

void TapEngine::EmitRangeTiming(uint32_t shard, uint32_t range, uint8_t pass, int64_t t0) {
  const uint32_t slot = ShardExecutor::current_worker_slot();
  if (TraceRing* ring = telem_->ring(slot)) {
    ring->Emit(telem_->time_us(), RecordKind::kRangeTiming, shard,
               static_cast<uint16_t>(slot << 8 | (range & 0xff)), pass, NowNs() - t0, 0);
  }
}

void TapEngine::RunPass1Range(uint32_t split, uint32_t range) {
  // Pass 1 over one contiguous plan-entry range, demand accumulated into the
  // range's private lane slice instead of the shard's groups. It writes only
  // this range's slice of want_/lanes, so any interleaving with other tickets
  // is race-free.
  const int64_t t0 = telem_range_timing_ ? NowNs() : 0;
  const uint32_t shard = split_shards_[split];
  const uint32_t rr = split * split_k_ + range;
  const uint32_t* bounds = range_bounds_.data() + static_cast<size_t>(split) * (split_k_ + 1);
  double* const lane = lanes_.demand() + lane_base_[rr];
  std::fill(lane, lane + (range_group_begin_[rr + 1] - range_group_begin_[rr]), 0.0);
  TapPass1(bounds[range], bounds[range + 1], shard_want_begin_[shard] - shard_plan_begin_[shard],
           lane, entry_lane_.data());
  if (telem_range_timing_) {
    EmitRangeTiming(shard, range, 1, t0);
  }
}

void TapEngine::ReduceSplitDemand(uint32_t split) {
  const uint32_t shard = split_shards_[split];
  const uint32_t gb = shard_group_begin_[shard];
  const uint32_t gcount = shard_group_count_[shard];
  std::fill(group_base_ + gb, group_base_ + gb + gcount, 0.0);
  // Range order IS the reduction order: each group's total is the sum of its
  // lane contributions in ascending range index — a fixed function of the
  // plan, independent of worker count and of which worker ran which range.
  // This is the one place straddling groups' floating-point association is
  // decided.
  for (uint32_t r = 0; r < split_k_; ++r) {
    const uint32_t rr = split * split_k_ + r;
    const double* lane = lanes_.demand() + lane_base_[rr];
    const uint32_t cb = range_group_begin_[rr];
    const uint32_t ce = range_group_begin_[rr + 1];
    for (uint32_t j = cb; j < ce; ++j) {
      group_base_[range_group_ids_[j]] += lane[j - cb];
    }
  }
  // Classification: a group whose total demand provably fits its source's
  // opening level gets scale == 1 and no clamp for every entry regardless of
  // execution order (within a shard only the group itself drains its source,
  // and deposits only raise levels), so its entries are exactly
  // parallelizable in pass 2. The margin absorbs the reduction's FP rounding
  // and the int64->double conversion of the level; misclassifying toward
  // "constrained" only routes entries to the ordered path — it can never
  // break conservation or determinism.
  const Quantity* const lvl = rbank_.levels();
  uint32_t slow = 0;
  for (uint32_t g = gb; g < gb + gcount; ++g) {
    const double total = group_base_[g];
    const Quantity level = lvl[group_src_slot_[g]];
    const bool fast =
        total == 0.0 || (level > 0 && total <= static_cast<double>(level) * (1.0 - 1e-6));
    group_fast_[g] = fast ? 1 : 0;
    if (!fast) {
      slow += group_size_[g];
    }
  }
  split_slow_entries_[split] = slow;
}

void TapEngine::RunPass2Range(uint32_t split, uint32_t range) {
  // Pass 2 over one range, unconstrained (scale == 1) entries only: granted
  // equals want, the move is the whole part, and the source clamp provably
  // never fires, so the transfer needs no source read at all. Source
  // outflows accumulate in the range's integer lane; deposits go directly to
  // destinations only this range feeds, and are deferred otherwise.
  const int64_t t0 = telem_range_timing_ ? NowNs() : 0;
  TraceRing* const tap_trace =
      telem_taps_ ? telem_->ring(ShardExecutor::current_worker_slot()) : nullptr;
  const uint32_t shard = split_shards_[split];
  const uint32_t rr = split * split_k_ + range;
  const uint32_t* bounds = range_bounds_.data() + static_cast<size_t>(split) * (split_k_ + 1);
  const uint32_t begin = bounds[range];
  const uint32_t end = bounds[range + 1];
  RangeScratch& rs = range_scratch_[rr];
  rs = RangeScratch{};
  Quantity* const lvl = rbank_.levels();
  Quantity* const dep = rbank_.deposited();
  uint8_t* const rflags = rbank_.flags();
  double* const tcarry = tbank_.carries();
  Quantity* const ttrans = tbank_.transferred();
  const uint32_t* const dst_slot = plan_dst_.data();
  const uint32_t* const group_of = plan_group_.data();
  Quantity* const lane_out = lanes_.outflow() + lane_base_[rr];
  const uint32_t lane_cnt = range_group_begin_[rr + 1] - range_group_begin_[rr];
  std::fill(lane_out, lane_out + lane_cnt, Quantity{0});
  const uint32_t tb = shard_want_begin_[shard] - shard_plan_begin_[shard];
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t ti = tb + i;
    const double want = want_base_[ti];
    if (want < 0.0 || group_fast_[group_of[i]] == 0) {
      continue;  // Disabled, or constrained: the ordered finalize runs it.
    }
    // Run here: the skip mark keeps the finalize's ordered pass off it. Only
    // this range writes the entry's slot.
    want_base_[ti] = -1.0;
    const auto whole = static_cast<Quantity>(want);
    tcarry[ti] = want - static_cast<double>(whole);
    if (whole <= 0) {
      continue;
    }
    lane_out[entry_lane_[i]] += whole;
    const uint32_t d = dst_slot[i];
    if (entry_dst_shared_[i] != 0) {
      const uint32_t di = begin + rs.n_deferred++;
      deferred_slot_[di] = d;
      deferred_amt_[di] = whole;
    } else if (CreditSlot(lvl, dep, rflags, d, whole)) {
      // This range is the slot's only writer this phase (its flag byte
      // included), so it credits the slot directly; the decay re-add itself
      // is deferred because the shard's skip-list is shared across ranges.
      pending_slot_[begin + rs.n_pending++] = d;
    }
    ttrans[ti] += whole;
    rs.tap_flow += whole;
    if (tap_trace != nullptr) {
      tap_trace->Emit(telem_->time_us(), RecordKind::kTapTransfer, i,
                      static_cast<uint16_t>(shard & 0xffff), 0, whole, 0);
    }
  }
  if (telem_range_timing_) {
    EmitRangeTiming(shard, range, 2, t0);
  }
}

void TapEngine::FinalizeSplitShard(uint32_t split) {
  const uint32_t shard = split_shards_[split];
  Quantity* const lvl = rbank_.levels();
  Quantity* const dep = rbank_.deposited();
  uint8_t* const rflags = rbank_.flags();
  const uint32_t* bounds = range_bounds_.data() + static_cast<size_t>(split) * (split_k_ + 1);
  std::vector<uint32_t>& active = decay_active_[shard];
  Quantity flow = 0;
  // Apply every effect pass 2 deferred, walking ranges in ascending index —
  // the same fixed order as the demand reduction. Integer deposits and
  // outflows are associative, so the totals are exact; the order pins down
  // the observable side channels (decay-list append sequence, the
  // empty -> non-empty flip tests) deterministically.
  for (uint32_t r = 0; r < split_k_; ++r) {
    const uint32_t rr = split * split_k_ + r;
    const RangeScratch& rs = range_scratch_[rr];
    flow += rs.tap_flow;
    const uint32_t base = bounds[r];
    for (uint32_t j = 0; j < rs.n_deferred; ++j) {
      const uint32_t d = deferred_slot_[base + j];
      if (CreditSlot(lvl, dep, rflags, d, deferred_amt_[base + j])) {
        active.push_back(d);
      }
    }
    for (uint32_t j = 0; j < rs.n_pending; ++j) {
      active.push_back(pending_slot_[base + j]);
    }
    // Source outflows: the group's opening level provably covers the whole
    // group's demand (that is what made these entries unconstrained), so
    // per-range subtraction can never undershoot zero.
    const Quantity* lane_out = lanes_.outflow() + lane_base_[rr];
    const uint32_t cb = range_group_begin_[rr];
    const uint32_t ce = range_group_begin_[rr + 1];
    for (uint32_t j = cb; j < ce; ++j) {
      const Quantity out = lane_out[j - cb];
      if (out != 0) {
        lvl[group_src_slot_[range_group_ids_[j]]] -= out;
      }
    }
  }
  // The constrained tail: the whole-shard ordered pass 2 (running demand
  // decrement, proportional scale, source clamp) against the range-order-
  // reduced group totals. Pass-2 ranges marked every entry they ran, so it
  // runs exactly the constrained entries, in plan (tap-id) order. Skipped
  // entirely when the classification found every group unconstrained (the
  // common giant-fan-out case), keeping the serial section
  // O(ranges + groups).
  if (split_slow_entries_[split] > 0) {
    flow += OrderedPass2(shard, bounds[0], bounds[split_k_], shard_want_begin_[shard] - bounds[0]);
  }
  ShardScratch& sc = scratch_[shard];
  sc.tap_flow = flow;
  sc.decay = decay_.enabled ? DecayShard(shard) : DecayResult{};
  // The kShardBatch record, written on the (serial) finalize thread; the
  // shard's per-range work is timed by kRangeTiming, so it counts no run.
  if (telem_shard_batch_) {
    EmitUnitRecords(shard, 1, /*ran=*/0, 0);
  }
}

TapEngine::DecayResult TapEngine::DecayShard(uint32_t shard) {
  // Leak fraction for this interval: 1 - 2^(-dt / half_life). Only the
  // skip-list members are visited; a member found empty or exempt is pruned
  // (swap-erase — per-reserve decay is order-independent) and re-added by
  // OnReserveDecayable when it becomes decayable again.
  const double frac = decay_frac_;
  TraceRing* const decay_trace =
      telem_decay_records_ ? telem_->ring(ShardExecutor::current_worker_slot()) : nullptr;
  Quantity* const lvl = rbank_.levels();
  double* const carry = rbank_.carries();
  uint8_t* const flags = rbank_.flags();
  // The shard root absorbs leakage when to_shard_root is on; like the battery
  // root it does not leak itself, so it stays on the list but is skipped.
  const bool to_root = decay_to_root_;
  const uint32_t sink_slot = to_root ? shard_sink_slot_[shard] : kNoBankSlot;
  std::vector<uint32_t>& active = decay_active_[shard];
  Quantity shard_decay = 0;
  Quantity stray_decay = 0;
  for (size_t i = 0; i < active.size();) {
    const uint32_t s = active[i];
    if (s == sink_slot) {
      ++i;
      continue;
    }
    const Quantity level = lvl[s];
    if ((flags[s] & ReserveStateBank::kDecayExempt) != 0 || level <= 0) {
      flags[s] &= static_cast<uint8_t>(~ReserveStateBank::kInDecayList);
      active[i] = active.back();
      active.pop_back();
      continue;
    }
    double want = carry[s] + static_cast<double>(level) * frac;
    auto whole = static_cast<Quantity>(want);
    carry[s] = want - static_cast<double>(whole);
    if (whole > 0) {
      const Quantity take = level < whole ? level : whole;
      lvl[s] = level - take;
      shard_decay += take;
      // Strays have no component; their leakage belongs to the battery root
      // even when the shard's own leakage goes to the shard sink.
      if (to_root && (flags[s] & ReserveStateBank::kStrayShard) != 0) {
        stray_decay += take;
      }
      if (decay_trace != nullptr) {
        decay_trace->Emit(telem_->time_us(), RecordKind::kReserveDecay, s, 0, 0, take, 0);
      }
    }
    ++i;
  }
  return DecayResult{shard_decay, shard_decay - stray_decay, stray_decay};
}

void TapEngine::OnReserveDecayable(Reserve* r) {
  if (!r->bank_attached() || r->in_decay_list()) {
    return;  // No plan live; the next rebuild re-seeds the lists anyway.
  }
  r->set_in_decay_list(true);
  decay_active_[r->decay_shard()].push_back(r->bank_slot());
}

std::vector<ObjectId> TapEngine::TapsFromSource(ObjectId reserve) const {
  std::vector<ObjectId> out;
  for (ObjectId id : taps_) {
    const Tap* tap = kernel_->LookupTyped<Tap>(id);
    if (tap != nullptr && tap->source() == reserve) {
      out.push_back(id);
    }
  }
  return out;
}

void TapEngine::OnObjectDeleted(ObjectId id, ObjectType type, ObjectHandle handle) {
  if (type == ObjectType::kTap) {
    auto it = std::lower_bound(taps_.begin(), taps_.end(), id);
    if (it != taps_.end() && *it == id) {
      taps_.erase(it);
    }
  }
  // Only reserves and taps shape the plan; any other delete just moves the
  // mutation epoch, which the next UpdatePlan re-stamps. Until then no batch
  // runs, and the bank stays live for the surviving attached objects (dead
  // slots are skipped via their stale handles).
  if ((type != ObjectType::kReserve && type != ObjectType::kTap) || !plan_valid_ || !sharding_) {
    return;  // Nothing to queue: no plan, or the next build is full anyway.
  }
  // Past the plan's own size a full rebuild costs no more than the update.
  if (pending_deletes_.size() > rbank_.size() + tbank_.size() + kUnitEntries) {
    pending_deletes_.clear();
    plan_valid_ = false;
    return;
  }
  pending_deletes_.push_back(handle);
}

}  // namespace cinder
