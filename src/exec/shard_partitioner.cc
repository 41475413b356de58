#include "src/exec/shard_partitioner.h"

#include <algorithm>

#include "src/core/tap.h"

namespace cinder {

uint32_t ShardPartitioner::Find(uint32_t i) {
  while (slots_[i].link != i) {
    slots_[i].link = slots_[slots_[i].link].link;  // Path halving.
    i = slots_[i].link;
  }
  return i;
}

void ShardPartitioner::AddReserve(ObjectHandle h) {
  slots_[h.slot] = SlotEntry{h.generation, ShardLayout::kNoShard};
  kinds_[h.slot] = kReserve;
}

bool ShardPartitioner::AddTap(const Kernel& kernel, ObjectId tap_id, ObjectHandle h,
                              ObjectId old_horizon) {
  slots_[h.slot] = SlotEntry{h.generation, ShardLayout::kNoShard};
  kinds_[h.slot] = kTap;
  const Tap* tap = kernel.LookupTyped<Tap>(tap_id);
  const ObjectHandle ha = kernel.HandleOf(tap->source());
  const ObjectHandle hb = kernel.HandleOf(tap->sink());
  if (!IsReserve(ha) || !IsReserve(hb)) {
    // Dangling endpoint: the tap is inert, no edge — until the endpoint id
    // is first created, if it has not been yet.
    if (std::max(tap->source(), tap->sink()) >= kernel.next_object_id()) {
      future_endpoint_ = true;
    }
    return true;
  }
  if (tap->source() <= old_horizon || tap->sink() <= old_horizon) {
    return false;  // The edge reaches a reserve the last layout placed.
  }
  // Components only ever grow by merging edge endpoints, so every member of
  // an edge-bearing component ends up linked; unlinked reserves are strays.
  for (const uint32_t end : {ha.slot, hb.slot}) {
    if (kinds_[end] != kLinked) {
      kinds_[end] = kLinked;
      slots_[end].link = end;  // A singleton set.
    }
  }
  slots_[h.slot].link = ha.slot;
  const uint32_t ra = Find(ha.slot);
  const uint32_t rb = Find(hb.slot);
  if (ra != rb) {
    slots_[std::max(ra, rb)].link = std::min(ra, rb);
  }
  return true;
}

void ShardPartitioner::NumberComponents(const Kernel& kernel, size_t first_reserve,
                                        size_t first_tap) {
  const std::vector<ObjectId>& reserves = kernel.ObjectsOfType(ObjectType::kReserve);
  const std::vector<ObjectId>& taps = kernel.ObjectsOfType(ObjectType::kTap);
  // Point every linked reserve straight at its root, so numbering a root
  // (which overwrites its link with the shard) strands no member.
  for (size_t i = first_reserve; i < reserves.size(); ++i) {
    const uint32_t slot = kernel.HandleOf(reserves[i]).slot;
    if (kinds_[slot] == kLinked) {
      slots_[slot].link = Find(slot);
    }
  }
  // Number by smallest reserve id in the component — deterministic across
  // machines and worker counts: in id order, the first member visited
  // numbers its root. A numbered reserve is kReserve again; strays kept
  // link kNoShard from AddReserve.
  for (size_t i = first_reserve; i < reserves.size(); ++i) {
    const uint32_t slot = kernel.HandleOf(reserves[i]).slot;
    if (kinds_[slot] != kLinked) {
      continue;  // A stray, or a root an earlier member numbered.
    }
    const uint32_t root = slots_[slot].link;
    if (kinds_[root] == kLinked) {
      slots_[root].link = layout_.num_shards++;
      kinds_[root] = kReserve;
      layout_.shard_edges.push_back(0);
      layout_.shard_reserves.push_back(1);
    }
    if (slot != root) {
      slots_[slot].link = slots_[root].link;
      kinds_[slot] = kReserve;
      ++layout_.shard_reserves[slots_[slot].link];
    }
  }
  // A tap belongs to its source's shard, where its edge counts — the plan
  // section the engine builds there.
  for (size_t i = first_tap; i < taps.size(); ++i) {
    SlotEntry& t = slots_[kernel.HandleOf(taps[i]).slot];
    if (t.link != ShardLayout::kNoShard) {
      t.link = slots_[t.link].link;
      ++layout_.shard_edges[t.link];
    }
  }
}

const ShardLayout& ShardPartitioner::Partition(const Kernel& kernel) {
  if (valid_ && fresh_ && kernel_ == &kernel &&
      layout_.topology_epoch == kernel.topology_epoch()) {
    return layout_;
  }
  kernel_ = &kernel;
  const std::vector<ObjectId>& reserves = kernel.ObjectsOfType(ObjectType::kReserve);
  const std::vector<ObjectId>& taps = kernel.ObjectsOfType(ObjectType::kTap);
  // Start from an empty table so no entry survives from an earlier layout
  // (an empty kind hides whatever its slot entry still holds).
  slots_.resize(kernel.slot_capacity());
  kinds_.assign(kernel.slot_capacity(), kEmpty);
  layout_.num_shards = 0;
  layout_.shard_edges.clear();
  layout_.shard_reserves.clear();
  future_endpoint_ = false;
  for (const ObjectId id : reserves) {
    AddReserve(kernel.HandleOf(id));
  }
  for (const ObjectId id : taps) {
    AddTap(kernel, id, kernel.HandleOf(id), kInvalidObjectId);
  }
  NumberComponents(kernel, 0, 0);
  reserve_horizon_ = reserves.empty() ? kInvalidObjectId : reserves.back();
  tap_horizon_ = taps.empty() ? kInvalidObjectId : taps.back();
  layout_.topology_epoch = kernel.topology_epoch();
  valid_ = true;
  fresh_ = true;
  return layout_;
}

bool ShardPartitioner::Update(const Kernel& kernel, const std::vector<ObjectHandle>& deleted,
                              std::vector<uint32_t>* retired) {
  const size_t retired_before = retired->size();
  // Any failure leaves the table half-applied: the next Partition() starts
  // over.
  fresh_ = false;
  const auto fail = [&] {
    retired->resize(retired_before);
    valid_ = false;
    return false;
  };
  if (!valid_ || kernel_ != &kernel || future_endpoint_) {
    return fail();
  }
  // Deletions first: the free list is LIFO, so new objects reuse the dead
  // ones' slots. Each counts down its component's sizes; a departed
  // component ends at zero edges and zero reserves.
  for (const ObjectHandle h : deleted) {
    if (h.slot >= slots_.size() || kinds_[h.slot] == kEmpty ||
        slots_[h.slot].generation != h.generation) {
      continue;  // Created since the last layout, or already applied.
    }
    const Kind kind = static_cast<Kind>(kinds_[h.slot]);
    kinds_[h.slot] = kEmpty;
    const uint32_t s = slots_[h.slot].link;
    if (s == ShardLayout::kNoShard) {
      if (kind == kReserve) {
        return fail();  // A stray: it sits in some live shard's slot range.
      }
      continue;  // A dangling tap: no component, no plan entry.
    }
    retired->push_back(s);
    --(kind == kReserve ? layout_.shard_reserves : layout_.shard_edges)[s];
  }
  std::sort(retired->begin() + static_cast<std::ptrdiff_t>(retired_before), retired->end());
  retired->erase(std::unique(retired->begin() + static_cast<std::ptrdiff_t>(retired_before),
                             retired->end()),
                 retired->end());
  for (size_t i = retired_before; i < retired->size(); ++i) {
    const uint32_t s = (*retired)[i];
    if (layout_.shard_reserves[s] != 0 || layout_.shard_edges[s] != 0) {
      return fail();  // A component lost part of itself: it may have split.
    }
  }

  // Insertions: the reserves and taps past the horizons, in id order.
  const std::vector<ObjectId>& reserves = kernel.ObjectsOfType(ObjectType::kReserve);
  const std::vector<ObjectId>& taps = kernel.ObjectsOfType(ObjectType::kTap);
  slots_.resize(kernel.slot_capacity());
  kinds_.resize(kernel.slot_capacity(), kEmpty);
  const ObjectId old_horizon = reserve_horizon_;
  const auto first_reserve = static_cast<size_t>(
      std::upper_bound(reserves.begin(), reserves.end(), reserve_horizon_) - reserves.begin());
  const auto first_tap = static_cast<size_t>(
      std::upper_bound(taps.begin(), taps.end(), tap_horizon_) - taps.begin());
  for (size_t i = first_reserve; i < reserves.size(); ++i) {
    AddReserve(kernel.HandleOf(reserves[i]));
  }
  for (size_t i = first_tap; i < taps.size(); ++i) {
    if (!AddTap(kernel, taps[i], kernel.HandleOf(taps[i]), old_horizon)) {
      return fail();  // A new tap reaches an existing component.
    }
  }
  if (future_endpoint_) {
    return fail();
  }
  if (!reserves.empty()) {
    reserve_horizon_ = std::max(reserve_horizon_, reserves.back());
  }
  if (!taps.empty()) {
    tap_horizon_ = std::max(tap_horizon_, taps.back());
  }
  NumberComponents(kernel, first_reserve, first_tap);
  layout_.topology_epoch = kernel.topology_epoch();
  return true;
}

uint32_t ShardPartitioner::ShardOfReserve(ObjectId reserve) const {
  if (kernel_ == nullptr) {
    return ShardLayout::kNoShard;
  }
  const ObjectHandle h = kernel_->HandleOf(reserve);
  return IsReserve(h) ? ShardOf(h) : ShardLayout::kNoShard;
}

}  // namespace cinder
