// The per-ticket work interface, split into its own dependency-free header so
// producers of shard work (the tap engine in src/core) can implement it
// without pulling the executor's <thread>/<condition_variable> machinery
// into their own headers. The dependency arrow for the heavy half stays
// exec -> core: only ShardExecutor's implementation knows about threads.
#pragma once

#include <cstdint>

namespace cinder {

// One claimable piece of batch work: a work unit, the `shards` consecutive
// whole shards starting at `shard`, which one thread runs back to back.
struct ShardTicket {
  uint32_t shard = 0;
  uint32_t shards = 1;
};

// One batch's worth of shardable work. RunTicket(t) must touch only state
// owned by the ticket — its unit's shards — so any interleaving of tickets
// is race-free and the producer's fixed-order merge alone defines the
// result.
class ShardTask {
 public:
  virtual ~ShardTask() = default;
  virtual void RunTicket(const ShardTicket& t) = 0;
};

}  // namespace cinder
