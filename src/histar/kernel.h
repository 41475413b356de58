// The kernel object registry.
//
// Owns every kernel object, allocates ids, enforces container-rooted
// lifetime (deleting a container cascades to everything beneath it), and
// implements the label checks threads must pass to observe or modify an
// object. Reserve and Tap (Cinder's additions, in src/core) are registered
// here like any other object; the kernel is agnostic to their semantics.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/status.h"
#include "src/histar/address_space.h"
#include "src/histar/container.h"
#include "src/histar/device.h"
#include "src/histar/gate.h"
#include "src/histar/label.h"
#include "src/histar/object.h"
#include "src/histar/segment.h"
#include "src/histar/thread.h"

namespace cinder {

class TraceDomain;

// Observers learn about object deletion so that side tables (the tap engine's
// flow list, the scheduler's run queue) can drop dangling references.
// `handle` is the object's slab slot and generation as it was just before
// the delete (already stale when the observer runs), so slot-indexed tables
// can find their entry in O(1).
class KernelObserver {
 public:
  virtual ~KernelObserver() = default;
  virtual void OnObjectDeleted(ObjectId id, ObjectType type, ObjectHandle handle) = 0;
};

class Kernel {
 public:
  Kernel();
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // -- Object lifecycle --------------------------------------------------------
  // Creates an object of type T inside `parent` (must be a container).
  // Returns nullptr if the parent does not exist, is not a container, or its
  // child quota is exhausted.
  template <typename T, typename... Args>
  T* Create(ObjectId parent, Args&&... args) {
    Container* c = LookupTyped<Container>(parent);
    if (c == nullptr || c->QuotaExceeded()) {
      return nullptr;
    }
    ObjectId id = next_id_++;
    auto obj = std::make_unique<T>(id, std::forward<Args>(args)...);
    T* raw = obj.get();
    raw->set_parent(parent);
    InsertObject(id, std::move(obj));
    c->AddChild(id);
    return raw;
  }

  // Deletes an object; containers cascade to all children (hierarchical GC).
  Status Delete(ObjectId id);

  // Reparents an object into another container.
  Status Move(ObjectId id, ObjectId new_parent);

  // O(1): page lookup + two array indexes (id -> slot -> object), no hashing.
  // Slots are recycled through a free list; ids are never reused, so a stale
  // id simply misses in the id->slot map. The map is paged so fully-dead id
  // ranges can be reclaimed after delete-heavy churn (see IdPage below).
  KernelObject* Lookup(ObjectId id) {
    const uint32_t slot = SlotOf(id);
    return slot == kNoSlot ? nullptr : slots_[slot].get();
  }
  const KernelObject* Lookup(ObjectId id) const {
    const uint32_t slot = SlotOf(id);
    return slot == kNoSlot ? nullptr : slots_[slot].get();
  }

  // -- Generation-tagged handles -------------------------------------------------
  // A handle resolves straight to the slab slot, skipping the id map, and is
  // tagged with the slot's generation: recycling the slot (delete + create)
  // bumps the generation, so stale handles miss instead of aliasing the new
  // tenant. Handles are the stable keys long-lived caches (the tap engine's
  // state banks) use for write-back — they survive id-map compaction.
  ObjectHandle HandleOf(ObjectId id) const {
    const uint32_t slot = SlotOf(id);
    return slot == kNoSlot ? ObjectHandle{} : ObjectHandle{slot, slot_generation_[slot]};
  }
  KernelObject* Lookup(ObjectHandle h) {
    if (h.slot >= slots_.size() || slot_generation_[h.slot] != h.generation) {
      return nullptr;
    }
    return slots_[h.slot].get();
  }
  const KernelObject* Lookup(ObjectHandle h) const {
    if (h.slot >= slots_.size() || slot_generation_[h.slot] != h.generation) {
      return nullptr;
    }
    return slots_[h.slot].get();
  }
  template <typename T>
  T* LookupTyped(ObjectHandle h) {
    KernelObject* o = Lookup(h);
    if (o == nullptr || o->type() != TypeOf<T>()) {
      return nullptr;
    }
    return static_cast<T*>(o);
  }

  template <typename T>
  T* LookupTyped(ObjectId id) {
    KernelObject* o = Lookup(id);
    if (o == nullptr || o->type() != TypeOf<T>()) {
      return nullptr;
    }
    return static_cast<T*>(o);
  }
  template <typename T>
  const T* LookupTyped(ObjectId id) const {
    const KernelObject* o = Lookup(id);
    if (o == nullptr || o->type() != TypeOf<T>()) {
      return nullptr;
    }
    return static_cast<const T*>(o);
  }

  ObjectId root_container_id() const { return root_id_; }
  Container* root_container() { return LookupTyped<Container>(root_id_); }
  size_t object_count() const { return slots_.size() - free_slots_.size(); }
  // Slab slots ever allocated, live or free: every ObjectHandle::slot is
  // below this, so side tables indexed by slot size themselves from it.
  uint32_t slot_capacity() const { return static_cast<uint32_t>(slots_.size()); }

  // All live object ids of a given type, in id order (deterministic). The
  // index is maintained on create/delete, so this is allocation-free — but
  // the returned reference aliases that live index: creating or deleting an
  // object of type `t` invalidates it. Copy first if you mutate while
  // iterating.
  const std::vector<ObjectId>& ObjectsOfType(ObjectType t) const {
    return by_type_[static_cast<size_t>(t)];
  }

  // Bumped on every object create/delete/move and on label or embedded
  // credential changes. Caches that resolve ids to pointers (flow plans,
  // run queues) are valid exactly while the epoch is unchanged.
  uint64_t mutation_epoch() const { return epochs_.mutation; }
  // Bumped only on label or embedded-credential changes and by
  // InvalidateCaches(): the mutations that can change which existing taps
  // may flow, or whose state another cache holds. A cache that knows how to
  // absorb creates and deletes (the tap engine's incremental plan update)
  // must start over when this moves.
  uint64_t access_epoch() const { return epochs_.access; }
  // Invalidates every epoch-keyed cache without mutating any object. Cache
  // owners whose rebuild hands shared object state between caches call
  // this — a TapEngine re-attaching reserves/taps to its state bank strands
  // any sibling engine's snapshot, so siblings must re-resolve rather than
  // trust a stale plan.
  void InvalidateCaches() {
    ++epochs_.mutation;
    ++epochs_.access;
  }

  // Bumped only on reserve/tap create/delete — the sole mutations that can
  // change the reserve/tap connectivity graph (tap endpoints are immutable
  // ids, so Move cannot). Label changes, credential changes, and
  // thread/container churn bump the mutation epoch (what may flow) but not
  // this one (what is connected), so the shard partitioner's union-find
  // survives them all.
  uint64_t topology_epoch() const { return topology_epoch_; }

  // Bumped by every thread whose scheduler-relevant state changes: run-state
  // transitions (sleep/block/wake/halt) and reserve attach/detach/active
  // flips (threads are wired to this counter at insertion). The scheduler's
  // K-quanta run plan records the expected value per entry — its own replayed
  // wakes are pre-counted — so any other bump cuts the plan's remainder.
  uint64_t sched_epoch() const { return sched_epoch_; }

  // Bumped on every out-of-band reserve level mutation: the named Reserve
  // paths (Deposit/Withdraw/Consume/ConsumeUpTo — reserves are wired at
  // insertion) and tap batches that moved flow (TapEngine::RunBatch calls
  // NoteReserveOp). The planned-billing path Reserve::ConsumeUpToAt is
  // exempt: the run plan simulated those draws at build time.
  uint64_t reserve_op_epoch() const { return reserve_op_epoch_; }
  void NoteReserveOp() { ++reserve_op_epoch_; }

  // -- Telemetry ---------------------------------------------------------------
  // A trace domain the syscall layer emits reserve-operation records into
  // (see src/telemetry). Not owned; null (the default) disables emission.
  // Main-thread call sites only — syscalls never run on pool workers.
  void set_trace_domain(TraceDomain* domain) { trace_domain_ = domain; }
  TraceDomain* trace_domain() const { return trace_domain_; }

  // -- Labels & privileges -----------------------------------------------------
  CategoryAllocator& categories() { return categories_; }

  // Core checks expressed over an (actor label, privileges) pair. Threads use
  // their own label/ownership; taps act with the label and privileges
  // embedded at creation time (§3.5: "taps can have privileges embedded in
  // them").
  static bool CanObserveWith(const Label& actor, const CategorySet& privs,
                             const KernelObject& obj) {
    return Label::FlowsTo(obj.label(), actor, privs);
  }
  static bool CanModifyWith(const Label& actor, const CategorySet& privs,
                            const KernelObject& obj) {
    return Label::FlowsTo(actor, obj.label(), privs);
  }
  static bool CanUseWith(const Label& actor, const CategorySet& privs, const KernelObject& obj) {
    return CanObserveWith(actor, privs, obj) && CanModifyWith(actor, privs, obj);
  }

  bool CanObserve(const Thread& t, const KernelObject& obj) const {
    return CanObserveWith(t.label(), t.privileges(), obj);
  }
  bool CanModify(const Thread& t, const KernelObject& obj) const {
    return CanModifyWith(t.label(), t.privileges(), obj);
  }
  // Reserve consumption and tap manipulation need both directions (§3.5).
  bool CanUse(const Thread& t, const KernelObject& obj) const {
    return CanObserve(t, obj) && CanModify(t, obj);
  }

  // -- Gate calls ---------------------------------------------------------------
  // Runs `gate`'s handler on `caller`: the caller's current domain switches to
  // the gate's address space and the gate's embedded privileges are granted
  // for the duration; the caller's active reserve is untouched, so all
  // resource consumption during the call bills to the caller.
  GateReply GateCall(Thread& caller, ObjectId gate_id, const GateMessage& msg);

  // -- Observers ------------------------------------------------------------------
  void AddObserver(KernelObserver* obs) { observers_.push_back(obs); }
  void RemoveObserver(KernelObserver* obs);

  // Statistics.
  int64_t total_created() const { return next_id_ - 2; }
  // The id the next Create will assign: every id below it has been used (ids
  // are never reused), so only ids at or past it can still become live.
  ObjectId next_object_id() const { return next_id_; }
  int64_t total_deleted() const { return total_deleted_; }
  // Bytes held by the id->slot map (live pages + page table). Bounded by the
  // live-id span, not by ids-ever-created: the churn regression test pins this.
  size_t id_map_bytes() const {
    size_t bytes = id_pages_.capacity() * sizeof(id_pages_[0]);
    for (const auto& page : id_pages_) {
      if (page != nullptr) {
        bytes += sizeof(IdPage);
      }
    }
    return bytes;
  }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  static constexpr size_t kNumTypes = 8;
  // Id-map page: 4096 ids per page. A page whose entries are all tombstones
  // is freed (unless it is the tail page the next monotonic id will land in,
  // which avoids the alloc/free ping-pong a create/delete loop would cause),
  // so delete-heavy scenarios reclaim the map instead of growing 4 bytes per
  // id forever. The page table itself costs 8 bytes per 4096 ids ever.
  static constexpr uint32_t kIdPageBits = 12;
  static constexpr uint64_t kIdPageSize = uint64_t{1} << kIdPageBits;
  struct IdPage {
    std::array<uint32_t, kIdPageSize> slot;
    uint32_t live = 0;
  };

  template <typename T>
  static constexpr ObjectType TypeOf();

  uint32_t SlotOf(ObjectId id) const {
    const uint64_t page = id >> kIdPageBits;
    if (page >= id_pages_.size() || id_pages_[page] == nullptr) {
      return kNoSlot;
    }
    return id_pages_[page]->slot[id & (kIdPageSize - 1)];
  }

  struct DeletedObject {
    ObjectId id;
    ObjectType type;
    ObjectHandle handle;
  };

  void InsertObject(ObjectId id, std::unique_ptr<KernelObject> obj);
  void EraseObject(ObjectId id);
  void DeleteRecursive(ObjectId id, std::vector<DeletedObject>* deleted);

  // Slab-style object table: dense slot array + free list (with per-slot
  // generation tags for ObjectHandle), plus the paged id->slot map (ids are
  // sequential and never reused, so dead entries are kNoSlot tombstones and
  // all-dead pages are reclaimed).
  std::vector<std::unique_ptr<KernelObject>> slots_;
  std::vector<uint32_t> slot_generation_;
  std::vector<uint32_t> free_slots_;
  std::vector<std::unique_ptr<IdPage>> id_pages_;
  // Per-type live-object indices, id-ordered (append-only on create since ids
  // are monotonic; binary-search erase on delete).
  std::array<std::vector<ObjectId>, kNumTypes> by_type_;
  ObjectEpochs epochs_;
  uint64_t topology_epoch_ = 0;
  uint64_t sched_epoch_ = 0;
  uint64_t reserve_op_epoch_ = 0;
  TraceDomain* trace_domain_ = nullptr;

  ObjectId next_id_ = 1;
  ObjectId root_id_ = kInvalidObjectId;
  CategoryAllocator categories_;
  std::vector<KernelObserver*> observers_;
  int64_t total_deleted_ = 0;
};

template <>
constexpr ObjectType Kernel::TypeOf<Container>() {
  return ObjectType::kContainer;
}
template <>
constexpr ObjectType Kernel::TypeOf<Segment>() {
  return ObjectType::kSegment;
}
template <>
constexpr ObjectType Kernel::TypeOf<Thread>() {
  return ObjectType::kThread;
}
template <>
constexpr ObjectType Kernel::TypeOf<AddressSpace>() {
  return ObjectType::kAddressSpace;
}
template <>
constexpr ObjectType Kernel::TypeOf<Gate>() {
  return ObjectType::kGate;
}
template <>
constexpr ObjectType Kernel::TypeOf<Device>() {
  return ObjectType::kDevice;
}

class Reserve;
class Tap;
template <>
constexpr ObjectType Kernel::TypeOf<Reserve>() {
  return ObjectType::kReserve;
}
template <>
constexpr ObjectType Kernel::TypeOf<Tap>() {
  return ObjectType::kTap;
}

}  // namespace cinder
