#include "src/exec/shard_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace cinder {
namespace {

// Counts how many times each shard ran: a ticket counts every shard its
// unit covers.
class CountingTask : public ShardTask {
 public:
  explicit CountingTask(uint32_t shards) : shards_(shards) {}
  void RunTicket(const ShardTicket& t) override {
    for (uint32_t s = t.shard; s < t.shard + t.shards; ++s) {
      shards_[s].fetch_add(1, std::memory_order_relaxed);
    }
  }
  uint32_t count(uint32_t s) const { return shards_[s].load(std::memory_order_relaxed); }

 private:
  std::vector<std::atomic<uint32_t>> shards_;
};

// One single-shard unit ticket per shard, in `order` (identity when empty).
std::vector<ShardTicket> UnitTickets(uint32_t n, const std::vector<uint32_t>& order = {}) {
  std::vector<ShardTicket> tickets;
  for (uint32_t i = 0; i < n; ++i) {
    tickets.push_back(ShardTicket{order.empty() ? i : order[i], 1});
  }
  return tickets;
}

void RunUnits(ShardExecutor& exec, ShardTask* task, const std::vector<ShardTicket>& tickets) {
  exec.RunTickets(task, tickets.data(), static_cast<uint32_t>(tickets.size()));
}

TEST(ShardExecutorTest, RunsEveryShardExactlyOnce) {
  ShardExecutor exec(4);
  CountingTask task(37);
  RunUnits(exec, &task, UnitTickets(37));
  for (uint32_t s = 0; s < 37; ++s) {
    EXPECT_EQ(task.count(s), 1u) << "shard " << s;
  }
}

TEST(ShardExecutorTest, SingleWorkerRunsSeriallyInCaller) {
  ShardExecutor exec(1);
  EXPECT_EQ(exec.workers(), 1);
  CountingTask task(8);
  RunUnits(exec, &task, UnitTickets(8));
  for (uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(task.count(s), 1u);
  }
}

TEST(ShardExecutorTest, ZeroShardsIsANoOp) {
  ShardExecutor exec(4);
  CountingTask task(1);
  exec.RunTickets(&task, nullptr, 0);
  EXPECT_EQ(task.count(0), 0u);
}

TEST(ShardExecutorTest, NonPositiveWorkerCountClampsToOne) {
  ShardExecutor exec(0);
  EXPECT_EQ(exec.workers(), 1);
  CountingTask task(3);
  RunUnits(exec, &task, UnitTickets(3));
  EXPECT_EQ(task.count(2), 1u);
}

TEST(ShardExecutorTest, RepeatedRunsDoNotLeakWorkAcrossBatches) {
  // Back-to-back batches exercise the generation-tagged ticket: a straggler
  // from batch k must never consume a ticket of batch k+1.
  ShardExecutor exec(4);
  CountingTask task(8);
  const std::vector<ShardTicket> tickets = UnitTickets(8);
  const int kBatches = 2000;
  for (int i = 0; i < kBatches; ++i) {
    RunUnits(exec, &task, tickets);
  }
  for (uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(task.count(s), static_cast<uint32_t>(kBatches)) << "shard " << s;
  }
}

// Records the order tickets ran in (serial executor, so the claim order is
// the execution order).
class OrderRecordingTask : public ShardTask {
 public:
  void RunTicket(const ShardTicket& t) override { order_.push_back(t.shard); }
  const std::vector<uint32_t>& order() const { return order_; }

 private:
  std::vector<uint32_t> order_;
};

TEST(ShardExecutorTest, HonorsCallerSuppliedExecutionOrder) {
  ShardExecutor exec(1);
  OrderRecordingTask task;
  const std::vector<uint32_t> order = {3, 0, 2, 1};
  RunUnits(exec, &task, UnitTickets(4, order));
  EXPECT_EQ(task.order(), order);
}

TEST(ShardExecutorTest, OrderedRunStillRunsEveryShardExactlyOnceOnAPool) {
  ShardExecutor exec(4);
  CountingTask task(37);
  std::vector<uint32_t> order(37);
  for (uint32_t s = 0; s < 37; ++s) {
    order[s] = 36 - s;  // Largest-index first; any permutation is legal.
  }
  const std::vector<ShardTicket> tickets = UnitTickets(37, order);
  for (int batch = 0; batch < 500; ++batch) {
    RunUnits(exec, &task, tickets);
  }
  for (uint32_t s = 0; s < 37; ++s) {
    EXPECT_EQ(task.count(s), 500u) << "shard " << s;
  }
}

TEST(ShardExecutorTest, UnitTicketsCoverEveryShardOfTheirRange) {
  // Units of uneven sizes — a many-shard unit, single-shard units, and a
  // tail unit — on a pool: each shard runs once per batch, whichever worker
  // claims its unit.
  ShardExecutor exec(4);
  const std::vector<ShardTicket> tickets = {
      ShardTicket{10, 20},
      ShardTicket{0, 1},
      ShardTicket{1, 9},
      ShardTicket{30, 7},
  };
  CountingTask task(37);
  const int kBatches = 500;
  for (int i = 0; i < kBatches; ++i) {
    RunUnits(exec, &task, tickets);
  }
  for (uint32_t s = 0; s < 37; ++s) {
    EXPECT_EQ(task.count(s), static_cast<uint32_t>(kBatches)) << "shard " << s;
  }
}

TEST(ShardExecutorTest, RunTicketsSingleTicketRunsInCaller) {
  // A one-ticket batch never wakes the pool: it runs on the calling
  // thread's writer slot.
  class SlotTask : public ShardTask {
   public:
    void RunTicket(const ShardTicket& t) override {
      shard = t.shard;
      slot = ShardExecutor::current_worker_slot();
    }
    uint32_t shard = 0;
    uint32_t slot = 99;
  };
  ShardExecutor exec(4);
  const ShardTicket one{5, 1};
  SlotTask task;
  exec.RunTickets(&task, &one, 1);
  EXPECT_EQ(task.shard, 5u);
  EXPECT_EQ(task.slot, 0u);
}

TEST(ShardExecutorTest, MoreShardsThanWorkersAndViceVersa) {
  ShardExecutor exec(8);
  CountingTask wide(64);
  RunUnits(exec, &wide, UnitTickets(64));
  for (uint32_t s = 0; s < 64; ++s) {
    EXPECT_EQ(wide.count(s), 1u);
  }
  CountingTask narrow(2);
  RunUnits(exec, &narrow, UnitTickets(2));
  EXPECT_EQ(narrow.count(0), 1u);
  EXPECT_EQ(narrow.count(1), 1u);
}

}  // namespace
}  // namespace cinder
