#include "src/exec/shard_partitioner.h"

#include <algorithm>

#include "src/core/tap.h"

namespace cinder {

uint32_t ShardPartitioner::Find(uint32_t i) {
  while (parent_[i] != i) {
    parent_[i] = parent_[parent_[i]];  // Path halving.
    i = parent_[i];
  }
  return i;
}

const ShardLayout& ShardPartitioner::Partition(const Kernel& kernel) {
  if (valid_ && layout_.topology_epoch == kernel.topology_epoch()) {
    return layout_;
  }
  const std::vector<ObjectId>& reserves = kernel.ObjectsOfType(ObjectType::kReserve);
  const std::vector<ObjectId>& taps = kernel.ObjectsOfType(ObjectType::kTap);
  const auto n = static_cast<uint32_t>(reserves.size());

  layout_.reserve_ids = reserves;
  parent_.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    parent_[i] = i;
  }
  out_edges_.assign(n, 0);

  // `reserves` is id-ordered, so endpoint ids resolve by binary search.
  auto index_of = [&](ObjectId id) -> uint32_t {
    auto it = std::lower_bound(reserves.begin(), reserves.end(), id);
    if (it == reserves.end() || *it != id) {
      return ShardLayout::kNoShard;
    }
    return static_cast<uint32_t>(it - reserves.begin());
  };

  // Resolve and union every tap edge in one pass. `touched` marks edge
  // endpoints. Components only ever grow by merging edge endpoints, so every
  // member of an edge-bearing component — its root included — ends up
  // touched; untouched reserves get kNoShard (decay-only work the caller
  // spreads across shards round-robin).
  std::vector<bool> touched(n, false);
  for (ObjectId tap_id : taps) {
    const Tap* tap = kernel.LookupTyped<Tap>(tap_id);
    const uint32_t a = index_of(tap->source());
    const uint32_t b = index_of(tap->sink());
    if (a == ShardLayout::kNoShard || b == ShardLayout::kNoShard) {
      continue;  // Dangling endpoint: the tap is inert, no edge.
    }
    touched[a] = true;
    touched[b] = true;
    ++out_edges_[a];
    const uint32_t ra = Find(a);
    const uint32_t rb = Find(b);
    if (ra != rb) {
      // Union by smaller index so every root is its component's smallest
      // member, which makes the numbering below id-ordered for free.
      parent_[std::max(ra, rb)] = std::min(ra, rb);
    }
  }

  // Number shards by smallest reserve id in the component — deterministic
  // across machines and worker counts. The root is visited first (it is the
  // smallest touched index of its component), so it claims the shard number.
  layout_.reserve_shard.assign(n, ShardLayout::kNoShard);
  layout_.shard_edges.clear();
  layout_.shard_reserves.clear();
  uint32_t next_shard = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (!touched[i]) {
      continue;
    }
    const uint32_t root = Find(i);
    if (layout_.reserve_shard[root] == ShardLayout::kNoShard) {
      layout_.reserve_shard[root] = next_shard++;
      layout_.shard_edges.push_back(0);
      layout_.shard_reserves.push_back(0);
    }
    const uint32_t s = layout_.reserve_shard[root];
    layout_.reserve_shard[i] = s;
    // Edges count on their source's shard: the plan section the engine
    // builds there.
    layout_.shard_edges[s] += out_edges_[i];
    ++layout_.shard_reserves[s];
  }
  layout_.num_shards = next_shard;

  layout_.topology_epoch = kernel.topology_epoch();
  valid_ = true;
  return layout_;
}

uint32_t ShardPartitioner::ShardOfReserve(ObjectId reserve) const {
  auto it = std::lower_bound(layout_.reserve_ids.begin(), layout_.reserve_ids.end(), reserve);
  if (it == layout_.reserve_ids.end() || *it != reserve) {
    return ShardLayout::kNoShard;
  }
  return layout_.reserve_shard[it - layout_.reserve_ids.begin()];
}

}  // namespace cinder
