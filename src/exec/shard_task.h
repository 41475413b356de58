// The per-ticket work interface, split into its own dependency-free header so
// producers of shard work (the tap engine in src/core) can implement it
// without pulling the executor's <thread>/<condition_variable> machinery
// into their own headers. The dependency arrow for the heavy half stays
// exec -> core: only ShardExecutor's implementation knows about threads.
#pragma once

#include <cstdint>

namespace cinder {

// What one executor ticket dispatches to. kUnit is a work unit: a run of
// consecutive whole shards executed back to back by one thread. The range
// kinds subdivide a single oversized shard's tap passes into contiguous
// plan-entry ranges that touch disjoint scratch lanes, so a giant component
// can occupy every worker instead of one.
enum class ShardTicketKind : uint8_t {
  kUnit = 0,        // Shards [shard, shard + shards), each a full batch.
  kPass1Range = 1,  // Demand pass over [range) into a private lane slice.
  kPass2Range = 2,  // Transfer pass over the range's unconstrained entries.
};

// One claimable piece of batch work. A kUnit ticket covers `shards`
// consecutive shards starting at `shard`; the range kinds carry the
// producer's dense split-slot index (`split`, its table of split shards) and
// the range number within it.
struct ShardTicket {
  uint32_t shard = 0;
  uint32_t split = 0;
  uint32_t range = 0;
  ShardTicketKind kind = ShardTicketKind::kUnit;
  uint32_t shards = 1;
};

// One batch's worth of shardable work. RunTicket(t) must touch only state
// owned by the ticket — its unit's shards, or for a range ticket the
// per-range-exclusive state of its shard (private lanes, its slice of the
// per-entry arrays) — so any interleaving of tickets is race-free and the
// producer's fixed-order reduction alone defines the result.
class ShardTask {
 public:
  virtual ~ShardTask() = default;
  virtual void RunTicket(const ShardTicket& t) = 0;
};

}  // namespace cinder
