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
    : kernel_(kernel),
      battery_reserve_(battery_reserve),
      partitioner_(std::make_unique<ShardPartitioner>()) {
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

  // Shard assignment: one shard per connected component (a plan without
  // components holds one empty shard for the strays). The partitioner
  // caches on the topology epoch, so label flaps rebuild the plan without
  // re-running the union-find.
  const ShardLayout& layout = partitioner_->Partition(*kernel_);
  num_shards_ = layout.num_shards == 0 ? 1 : layout.num_shards;

  // ---- Plan entries: every registered tap that may flow, an entry in its
  // source's shard; counting-sorted shard-major, stable so each shard keeps
  // tap-id order (the order one shard holding everything flows in).
  resolved_.clear();
  entry_shard_.clear();
  ReserveFresh(resolved_, taps_.size());
  ReserveFresh(entry_shard_, taps_.size());
  for (ObjectId id : taps_) {
    ResolvedTap e{};
    if (!ResolveTap(id, &e)) {
      continue;
    }
    uint32_t s = partitioner_->ShardOf(kernel_->HandleOf(e.tap->source()));
    if (s == ShardLayout::kNoShard) {
      s = 0;  // Unreachable: a plan entry's endpoints are a live tap edge.
    }
    resolved_.push_back(e);
    entry_shard_.push_back(s);
  }
  BucketOrder(entry_shard_, num_shards_, &entry_begin_, &entry_order_);

  // ---- Reserves, likewise shard-major in id order. Strayness (no tap
  // touches the reserve) is a property of the component graph, not of the
  // shard count, so a single-component fleet routes stray leakage exactly
  // like a large one. Strays are spread round-robin (in id order, so
  // deterministically).
  const std::vector<ObjectId>& reserves = kernel_->ObjectsOfType(ObjectType::kReserve);
  const auto nr = static_cast<uint32_t>(reserves.size());
  resv_first_ = 0;
  reserve_shard_.resize(nr);
  reserve_stray_.assign(nr, 0);
  uint32_t round_robin = 0;
  for (uint32_t i = 0; i < nr; ++i) {
    uint32_t s = partitioner_->ShardOf(kernel_->HandleOf(reserves[i]));
    if (s == ShardLayout::kNoShard) {
      reserve_stray_[i] = 1;
      s = round_robin++ % num_shards_;
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
    for (auto* v : {&plan_src_, &plan_dst_, &plan_group_}) {
      ReserveFresh(*v, entries);
    }
    const uint32_t shards = num_shards_ + Spare(true, nr) / 2 + 1;
    for (auto* v : {&shard_plan_begin_, &shard_want_begin_, &shard_slot_begin_,
                    &shard_group_begin_, &shard_sink_slot_, &shard_unit_}) {
      ReserveFresh(*v, shards);
    }
    ReserveFresh(shard_sink_, shards);
    ReserveFresh(decay_active_, shards);
    ReserveFresh(shard_live_, shards);
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
  stats_.assign(num_shards_, ShardStats{});
  for (uint32_t s = 0; s < num_shards_; ++s) {
    FillShard(s, resv_order_.data() + resv_begin_[s], resv_begin_[s + 1] - resv_begin_[s],
              entry_order_.data() + entry_begin_[s]);
  }
  // Groups never outnumber entries, so the per-entry spare bounds theirs.
  group_capacity_ = shard_group_begin_.back() + Spare(headroom, want);
  group_base_ =
      bank_internal::Align64(group_demand_, shard_group_begin_.back(), group_capacity_);
  shard_live_.assign(num_shards_, 1);
  live_shards_ = num_shards_;
  BuildTicketTable();

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
  // every batch — correct, just slower than a batch that reuses its plan.
  kernel_->InvalidateCaches();
  StampPlan();
}

bool TapEngine::TryUpdatePlan() {
  const uint32_t mask = telem_ != nullptr ? telem_->record_mask() : 0;
  if (!plan_valid_ || kernel_->access_epoch() != plan_access_epoch_ ||
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
    PlaceShard(old_shards + k, resv_begin_[k + 1] - resv_begin_[k],
               entry_begin_[k + 1] - entry_begin_[k]);
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
  stats_.resize(num_shards_, ShardStats{});
  shard_live_.resize(num_shards_, 1);
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
  BuildTicketTable();
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
  if (s < partitioner_->layout().num_shards) {
    // The partitioner's component sizes — topology-stable, so a label flap
    // that hides a few taps cannot move unit boundaries (or the padding)
    // between rebuilds.
    weight = partitioner_->layout().shard_edges[s] + partitioner_->layout().shard_reserves[s];
  }
  const bool alone = weight >= kUnitEntries;
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

void TapEngine::BuildTicketTable() {
  // Units largest first (plan entries plus decay-wired reserves, stable on
  // unit index, so the order is deterministic): the executor starts the big
  // units immediately so one giant component never serializes the tail of
  // a batch.
  const uint32_t nu = unit_count();
  unit_totals_.resize(nu);
  unit_order_.resize(nu);
  std::iota(unit_order_.begin(), unit_order_.end(), 0u);
  std::stable_sort(unit_order_.begin(), unit_order_.end(),
                   [&](uint32_t a, uint32_t b) { return unit_size_[a] > unit_size_[b]; });
  tickets_.clear();
  for (const uint32_t u : unit_order_) {
    tickets_.push_back(
        ShardTicket{unit_shard_begin_[u], unit_shard_begin_[u + 1] - unit_shard_begin_[u]});
  }
}

void TapEngine::EmitPlanRecords(bool all, uint32_t first_entry, uint32_t first_slot) {
  // Plan time, main thread: one writer ring per pool slot (the caller is
  // slot 0), each grown by every record this plan can emit in one batch —
  // any one worker may run every ticket, so no batch can overwrite a record.
  // Only the enabled kinds count: per live shard (appended ones included;
  // retired ones emit nothing) a kShardBatch and its sink's decay-leak
  // deposit, the batch's one battery deposit, and per ticket a kDispatch and
  // a timing record. The opt-in per-tap and per-reserve kinds are not
  // budgeted.
  const auto tickets = static_cast<uint32_t>(tickets_.size());
  uint32_t batch_records = 0;
  if (telem_->on(RecordKind::kShardBatch)) {
    batch_records += live_shards_;
  }
  if (telem_->on(RecordKind::kReserveDeposit)) {
    batch_records += live_shards_ + 1;
  }
  if (telem_->on(RecordKind::kDispatch)) {
    batch_records += tickets;
  }
  if (telem_->on(RecordKind::kShardTiming)) {
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
    telem_->EmitSpill(RecordKind::kPlanShard, s, 0, 0, stats_[s].taps, stats_[s].decay_reserves);
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

void TapEngine::RunBatch(Duration dt) {
  if (!dt.IsPositive()) {
    return;
  }
  UpdatePlan();
  // Publish the batch-wide constants, then run every ticket — concurrently on
  // the executor when one is attached, serially in table order otherwise.
  // Shards touch disjoint reserves/taps, so scheduling cannot change results.
  batch_dt_s_ = dt.seconds_f();
  // Leak fraction for this interval: 1 - 2^(-dt / half_life). The exp2 is
  // only worth paying when decay will actually run.
  decay_frac_ =
      decay_.enabled ? 1.0 - std::exp2(-dt.seconds_f() / decay_.half_life.seconds_f()) : 0.0;
  // Cache the record-mask bits for this batch: written here on the main
  // thread, read by workers past the executor's happens-before edge.
  const uint32_t tmask = telem_ != nullptr ? telem_->record_mask() : 0;
  telem_on_ = telem_ != nullptr && telem_->enabled();
  telem_shard_batch_ = (tmask & RecordBit(RecordKind::kShardBatch)) != 0;
  telem_shard_timing_ = (tmask & RecordBit(RecordKind::kShardTiming)) != 0;
  telem_taps_ = (tmask & RecordBit(RecordKind::kTapTransfer)) != 0;
  telem_decay_records_ = (tmask & RecordBit(RecordKind::kReserveDecay)) != 0;
  telem_reserve_ops_ = (tmask & RecordBit(RecordKind::kReserveDeposit)) != 0;
  // One ticket per work unit: its shards' full batches, each settled in
  // the unit. The pool wakes only for a batch of two or more tickets; a
  // one-ticket batch runs inline with no executor round-trip at all.
  RunPhase();
  // Fold the unit sums in unit order, then deposit the battery-bound leakage
  // in one step. Every tap has read the battery before this deposit, exactly
  // as in one shard holding everything, where the decay pass comes last.
  UnitTotals batch;
  for (const UnitTotals& u : unit_totals_) {
    batch.tap_flow += u.tap_flow;
    batch.decay_flow += u.decay_flow;
    batch.battery_leak += u.battery_leak;
  }
  total_tap_flow_ += batch.tap_flow;
  total_decay_flow_ += batch.decay_flow;
  Reserve* const battery = battery_cache_;
  if (batch.battery_leak > 0 && battery != nullptr) {
    battery->Deposit(batch.battery_leak);
    if (telem_reserve_ops_) {
      telem_->Emit(RecordKind::kReserveDeposit, static_cast<uint32_t>(battery->id()), 0,
                   kReserveOpDecayLeak, batch.battery_leak, battery->level());
    }
  }
  // One frame per batch: drain every worker ring into the spill (we are past
  // the executor's happens-before edge) and stamp the mark.
  if (telem_on_) {
    telem_->FlushFrame();
  }
  // The batch loops write reserve levels through the state-bank arrays, not
  // through Reserve's named mutators, so the scheduler's run plan would not
  // see the movement: a batch that moved tap or decay flow (sink credits
  // included) is an out-of-band level mutation and bumps the kernel
  // reserve-op epoch; an all-idle batch leaves plans alive across the
  // boundary.
  if (batch.tap_flow != 0 || batch.decay_flow != 0) {
    kernel_->NoteReserveOp();
  }
}

// The serial phase loop and the unit body are forced inline like the pass
// loops below: a single device's batch is one unit of one tiny shard, where
// a call frame per level costs what the shard's work does.
[[gnu::always_inline]] inline void TapEngine::RunPhase() {
  if (executor_ != nullptr) {
    executor_->RunTickets(this, tickets_.data(), static_cast<uint32_t>(tickets_.size()));
    return;
  }
  for (const ShardTicket& t : tickets_) {
    RunTicket(t);
  }
}

[[gnu::always_inline]] inline void TapEngine::RunUnit(uint32_t first, uint32_t count) {
  const int64_t t0 = telem_shard_timing_ ? NowNs() : 0;
  // This worker's own ring (single-writer); null when telemetry is off or
  // the domain has no ring for the slot — then the records are skipped,
  // never misfiled.
  const uint32_t slot = telem_on_ ? ShardExecutor::current_worker_slot() : 0;
  TraceRing* const ring = telem_on_ ? telem_->ring(slot) : nullptr;
  UnitTotals& totals = unit_totals_[shard_unit_[first]];
  totals = UnitTotals{};
  uint32_t ran = 0;
  for (uint32_t shard = first; shard < first + count; ++shard) {
    if (shard_live_[shard] == 0) {
      continue;  // Retired by an in-place update.
    }
    const Quantity flow = RunShardTaps(shard);
    SettleShard(shard, flow, decay_.enabled ? DecayShard(shard) : DecayResult{}, totals, ring);
    ++ran;
  }
  // A unit whose shards all retired ran nothing: no timing record (a v1 of
  // 0 reads as one shard-batch).
  if (telem_shard_timing_ && ran > 0 && ring != nullptr) {
    ring->Emit(telem_->time_us(), RecordKind::kShardTiming, first, static_cast<uint16_t>(slot), 0,
               NowNs() - t0, ran);
  }
}

[[gnu::always_inline]] inline void TapEngine::SettleShard(uint32_t shard, Quantity tap_flow,
                                                          const DecayResult& decay,
                                                          UnitTotals& totals, TraceRing* ring) {
  stats_[shard].tap_flow += tap_flow;
  stats_[shard].decay_flow += decay.flow;
  totals.tap_flow += tap_flow;
  totals.decay_flow += decay.flow;
  if (ring != nullptr && telem_shard_batch_) {
    ring->Emit(telem_->time_us(), RecordKind::kShardBatch, shard, 0, 0, tap_flow, decay.flow);
  }
  // Strays' leakage always goes to the battery; the rest to the shard's
  // sink when decay_to_shard_root is on and the shard has one. The sink is
  // one of this shard's reserves, which only this thread writes, and the
  // credit is the one Reserve::Deposit makes: level, deposited total, and
  // the decay skip-list re-add when it refills from empty.
  totals.battery_leak += decay.stray;
  if (decay.leak <= 0) {
    return;
  }
  const uint32_t sink = decay_.to_shard_root ? shard_sink_slot_[shard] : kNoBankSlot;
  if (sink == kNoBankSlot) {
    totals.battery_leak += decay.leak;
    return;
  }
  Quantity* const lvl = rbank_.levels();
  if (CreditSlot(lvl, rbank_.deposited(), rbank_.flags(), sink, decay.leak)) {
    decay_active_[shard].push_back(sink);
  }
  if (ring != nullptr && telem_reserve_ops_) {
    ring->Emit(telem_->time_us(), RecordKind::kReserveDeposit,
               static_cast<uint32_t>(shard_sink_[shard]->id()), 0, kReserveOpDecayLeak,
               decay.leak, lvl[sink]);
  }
}

// The shared pass loops are forced inline: a fleet batch runs them once per
// shard, for thousands of few-entry shards, so a call frame per shard would
// cost what the loop bodies do.
[[gnu::always_inline]] inline void TapEngine::TapPass1(uint32_t begin, uint32_t end,
                                                       uint32_t tb) {
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
  const uint32_t* const group_of = plan_group_.data();
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
    group_base_[group_of[i]] += want;
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
  TapPass1(begin, end, tb);
  return OrderedPass2(shard, begin, end, tb);
}

[[gnu::always_inline]] inline void TapEngine::RunTicket(const ShardTicket& t) {
  RunUnit(t.shard, t.shards);
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
  const bool to_root = decay_.to_shard_root;
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
  if ((type != ObjectType::kReserve && type != ObjectType::kTap) || !plan_valid_) {
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
