// Partitions the kernel's reserve/tap graph into independent shards.
//
// Taps only move resources between the two reserves they connect, so the
// connected components of the (reserve, tap-edge) graph never interact within
// a tap batch: a component's flows read and write only its own reserves. The
// partitioner runs a union-find over every live tap's (source, sink) pair and
// labels each component with a shard index. Shard indices are deterministic —
// components are numbered by their smallest reserve id — so a layout computed
// on any machine, with any worker count, is identical.
//
// Every table is indexed by kernel slab slot (ObjectHandle::slot) and tagged
// with the slot's generation, for reserves and taps alike: a lookup is one
// array index, and a recycled slot can never alias its previous tenant.
//
// The layout is recomputed lazily on the kernel *topology* epoch (reserve or
// tap create/delete). Label changes, credential changes, and thread or
// container churn invalidate the tap engine's flow plan but cannot change
// which reserves are connected, so they deliberately do not invalidate the
// layout. Unregistered or label-blocked taps still contribute their edge:
// that can only merge shards that could legally have been split, which is
// conservative and always correct.
//
// Update() absorbs the common churn shape without a full pass: whole
// components leaving and new components joining. Departed shards become
// tombstones (zero sizes) and new components take the next shard indices,
// in smallest-id order — the order a full Partition() would give them
// relative to every survivor, since their reserves' ids exceed every
// survivor's.
#pragma once

#include <cstdint>
#include <vector>

#include "src/histar/kernel.h"

namespace cinder {

struct ShardLayout {
  // Shard index per component; at least 1 once any reserve exists. After an
  // Update() this includes the tombstones of departed components.
  uint32_t num_shards = 0;
  // Component sizes, indexed by shard: tap edges and reserves per component
  // (0 and 0 for a tombstone). Edges count on their source reserve's side,
  // matching the plan-section size the engine builds. The tap engine's range
  // split and work units key on these.
  std::vector<uint32_t> shard_edges;
  std::vector<uint32_t> shard_reserves;
  uint64_t topology_epoch = 0;

  static constexpr uint32_t kNoShard = UINT32_MAX;
};

class ShardPartitioner {
 public:
  // Returns the layout for the kernel's current reserve/tap graph,
  // recomputing only when the topology epoch moved or an Update() left
  // tombstones (a fresh Partition always numbers the live components
  // 0..n-1).
  const ShardLayout& Partition(const Kernel& kernel);

  // Incremental re-partition: applies `deleted` — the handles of reserves
  // and taps deleted since the last Partition/Update, as the kernel reported
  // them (entries the table does not know, objects created and deleted
  // since, are ignored) — then adds the reserves and taps created since
  // (the tails of the kernel's id-ordered indices past the largest ids
  // seen). Succeeds, appending each departed shard to `retired` (ascending,
  // no duplicates), when every deleted object is a dangling tap or part of
  // a component whose reserves and taps are all deleted, and every new tap
  // touches only new reserves. Otherwise — including when a stray reserve
  // was deleted, since it sits in whichever shard hosts it — returns false
  // and the next Partition() recomputes from scratch.
  bool Update(const Kernel& kernel, const std::vector<ObjectHandle>& deleted,
              std::vector<uint32_t>* retired);

  // Shard of the reserve or tap at `h` (a tap's shard is its source's), or
  // ShardLayout::kNoShard for a stray reserve (no tap touches it: decay-only
  // work the caller distributes), a dangling tap, or a handle the last
  // layout does not hold.
  uint32_t ShardOf(ObjectHandle h) const {
    if (h.slot >= slots_.size() || kinds_[h.slot] == kEmpty ||
        slots_[h.slot].generation != h.generation) {
      return ShardLayout::kNoShard;
    }
    return slots_[h.slot].link;
  }
  // ShardOf by id, through the kernel the last layout was computed on.
  uint32_t ShardOfReserve(ObjectId reserve) const;

  const ShardLayout& layout() const { return layout_; }
  bool valid() const { return valid_; }

 private:
  // kLinked marks a reserve of the pass in progress that a tap edge
  // touches: its link is a union-find parent until the pass numbers it.
  enum Kind : uint8_t { kEmpty, kReserve, kTap, kLinked };
  struct SlotEntry {
    uint32_t generation = 0;
    // The shard, or kNoShard (a stray reserve, a dangling tap). While a pass
    // numbers the new objects: a kLinked reserve's union-find parent slot,
    // and a tap's source slot.
    uint32_t link = ShardLayout::kNoShard;
  };

  uint32_t Find(uint32_t slot);
  // Registers the reserve at `h`, untouched (a stray until a tap edge
  // reaches it).
  void AddReserve(ObjectHandle h);
  // Registers the tap `tap_id` at `h` and unions its edge. Returns false if
  // an endpoint is a live reserve with id <= `old_horizon` (Update's "new
  // taps touch only new reserves"; 0 accepts every edge).
  bool AddTap(const Kernel& kernel, ObjectId tap_id, ObjectHandle h, ObjectId old_horizon);
  // Numbers the components of the kernel's reserves from index
  // `first_reserve` on (id order) from layout_.num_shards, sizes them, and
  // gives each tap from index `first_tap` on its source's shard.
  void NumberComponents(const Kernel& kernel, size_t first_reserve, size_t first_tap);
  // Whether `h` is a reserve the table holds.
  bool IsReserve(ObjectHandle h) const {
    return h.valid() && h.slot < slots_.size() &&
           (kinds_[h.slot] == kReserve || kinds_[h.slot] == kLinked) &&
           slots_[h.slot].generation == h.generation;
  }

  ShardLayout layout_;
  const Kernel* kernel_ = nullptr;
  // Indexed by kernel slab slot, 9 bytes a slot.
  std::vector<SlotEntry> slots_;
  std::vector<uint8_t> kinds_;
  // The largest reserve and tap ids the table holds: everything past them
  // in the kernel's indices is new to the next Update().
  ObjectId reserve_horizon_ = kInvalidObjectId;
  ObjectId tap_horizon_ = kInvalidObjectId;
  // A dangling tap whose endpoint id the kernel has not assigned yet gains
  // its edge when that id is created: only a full Partition() absorbs that.
  bool future_endpoint_ = false;
  bool valid_ = false;
  bool fresh_ = false;  // The layout is a full Partition(), no tombstones.
};

}  // namespace cinder
