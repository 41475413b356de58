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
// The layout is recomputed lazily on the kernel *topology* epoch (reserve or
// tap create/delete). Label changes, credential changes, and thread or
// container churn invalidate the tap engine's flow plan but cannot change
// which reserves are connected, so they deliberately do not invalidate the
// layout. Unregistered or label-blocked taps still contribute their edge:
// that can only merge shards that could legally have been split, which is
// conservative and always correct.
#pragma once

#include <cstdint>
#include <vector>

#include "src/histar/kernel.h"

namespace cinder {

struct ShardLayout {
  // Shard index per component; at least 1 once any reserve exists.
  uint32_t num_shards = 0;
  // Parallel to Kernel::ObjectsOfType(kReserve) at compute time (id order):
  // the reserve ids and each reserve's shard (kNoShard if no tap touches it).
  std::vector<ObjectId> reserve_ids;
  std::vector<uint32_t> reserve_shard;
  // Component sizes, indexed by shard: tap edges and reserves per component.
  // Edges count on their source reserve's side, matching the plan-section
  // size the engine builds. The tap engine's range split keys on these — only
  // components above the split threshold subdivide their batch passes;
  // everything else keeps the one-work-item path (and its alloc-free steady
  // state) untouched.
  std::vector<uint32_t> shard_edges;
  std::vector<uint32_t> shard_reserves;
  uint64_t topology_epoch = 0;

  static constexpr uint32_t kNoShard = UINT32_MAX;
};

class ShardPartitioner {
 public:
  // Returns the layout for the kernel's current reserve/tap graph,
  // recomputing only when the topology epoch moved.
  const ShardLayout& Partition(const Kernel& kernel);

  // Shard of `reserve` in the last computed layout, or ShardLayout::kNoShard
  // for reserves no tap touches (decay-only work; the caller distributes
  // those round-robin).
  uint32_t ShardOfReserve(ObjectId reserve) const;

  const ShardLayout& layout() const { return layout_; }
  bool valid() const { return valid_; }

 private:
  uint32_t Find(uint32_t i);

  ShardLayout layout_;
  std::vector<uint32_t> parent_;     // Union-find scratch over reserve indices.
  std::vector<uint32_t> out_edges_;  // Tap edges sourced at each reserve index.
  bool valid_ = false;
};

}  // namespace cinder
