#include "src/exec/shard_partitioner.h"

#include <gtest/gtest.h>

#include "src/core/reserve.h"
#include "src/core/tap.h"

namespace cinder {
namespace {

class ShardPartitionerTest : public ::testing::Test {
 protected:
  Reserve* NewReserve(const char* name) {
    return k_.Create<Reserve>(k_.root_container_id(), Label(Level::k1), name);
  }
  Tap* NewTap(ObjectId src, ObjectId dst) {
    return k_.Create<Tap>(k_.root_container_id(), Label(Level::k1), "t", src, dst);
  }

  Kernel k_;
  ShardPartitioner partitioner_;
};

TEST_F(ShardPartitionerTest, DisjointComponentsGetDistinctShards) {
  Reserve* a = NewReserve("a");
  Reserve* b = NewReserve("b");
  Reserve* c = NewReserve("c");
  Reserve* d = NewReserve("d");
  Reserve* lone = NewReserve("lone");
  NewTap(a->id(), b->id());
  NewTap(c->id(), d->id());

  const ShardLayout& layout = partitioner_.Partition(k_);
  EXPECT_EQ(layout.num_shards, 2u);
  EXPECT_EQ(partitioner_.ShardOfReserve(a->id()), partitioner_.ShardOfReserve(b->id()));
  EXPECT_EQ(partitioner_.ShardOfReserve(c->id()), partitioner_.ShardOfReserve(d->id()));
  EXPECT_NE(partitioner_.ShardOfReserve(a->id()), partitioner_.ShardOfReserve(c->id()));
  // No tap touches `lone`: it belongs to no shard (decay-only work).
  EXPECT_EQ(partitioner_.ShardOfReserve(lone->id()), ShardLayout::kNoShard);
}

TEST_F(ShardPartitionerTest, ShardsAreNumberedBySmallestReserveId) {
  Reserve* a = NewReserve("a");  // Smallest reserve id.
  Reserve* b = NewReserve("b");
  Reserve* c = NewReserve("c");
  Reserve* d = NewReserve("d");
  // Create the (c, d) tap first: creation order must not affect numbering.
  NewTap(c->id(), d->id());
  NewTap(a->id(), b->id());

  partitioner_.Partition(k_);
  EXPECT_EQ(partitioner_.ShardOfReserve(a->id()), 0u);
  EXPECT_EQ(partitioner_.ShardOfReserve(c->id()), 1u);
}

TEST_F(ShardPartitionerTest, ChainOfTapsMergesIntoOneShard) {
  Reserve* a = NewReserve("a");
  Reserve* b = NewReserve("b");
  Reserve* c = NewReserve("c");
  NewTap(a->id(), b->id());
  NewTap(b->id(), c->id());

  const ShardLayout& layout = partitioner_.Partition(k_);
  EXPECT_EQ(layout.num_shards, 1u);
  EXPECT_EQ(partitioner_.ShardOfReserve(c->id()), 0u);
}

TEST_F(ShardPartitionerTest, LabelChangeAndObjectChurnDoNotInvalidateLayout) {
  Reserve* a = NewReserve("a");
  Reserve* b = NewReserve("b");
  NewTap(a->id(), b->id());

  const ShardLayout& first = partitioner_.Partition(k_);
  const uint64_t epoch = first.topology_epoch;
  // Label changes and thread/container churn bump the mutation epoch but not
  // the topology epoch; the layout must be reused, not recomputed.
  const uint64_t mutation_before = k_.mutation_epoch();
  Label guarded(Level::k1);
  guarded.Set(k_.categories().Allocate(), Level::k3);
  a->set_label(guarded);
  Thread* t = k_.Create<Thread>(k_.root_container_id(), Label(Level::k1), "t");
  Container* c = k_.Create<Container>(k_.root_container_id(), Label(Level::k1), "c");
  EXPECT_EQ(k_.Delete(t->id()), Status::kOk);
  EXPECT_EQ(k_.Delete(c->id()), Status::kOk);
  EXPECT_GT(k_.mutation_epoch(), mutation_before);

  const ShardLayout& second = partitioner_.Partition(k_);
  EXPECT_EQ(second.topology_epoch, epoch);
  EXPECT_EQ(k_.topology_epoch(), epoch);
}

TEST_F(ShardPartitionerTest, TopologyChangeRecomputes) {
  Reserve* a = NewReserve("a");
  Reserve* b = NewReserve("b");
  Reserve* c = NewReserve("c");
  Reserve* d = NewReserve("d");
  NewTap(a->id(), b->id());
  NewTap(c->id(), d->id());
  EXPECT_EQ(partitioner_.Partition(k_).num_shards, 2u);

  // A bridging tap merges the components on the next partition.
  NewTap(b->id(), c->id());
  EXPECT_EQ(partitioner_.Partition(k_).num_shards, 1u);
}

TEST_F(ShardPartitionerTest, DanglingTapEndpointContributesNoEdge) {
  Reserve* a = NewReserve("a");
  Reserve* b = NewReserve("b");
  Tap* t = NewTap(a->id(), b->id());
  EXPECT_EQ(partitioner_.Partition(k_).num_shards, 1u);

  ASSERT_EQ(k_.Delete(b->id()), Status::kOk);
  (void)t;
  // The tap survives but its edge is gone; `a` is no longer in any shard.
  EXPECT_EQ(partitioner_.Partition(k_).num_shards, 0u);
  EXPECT_EQ(partitioner_.ShardOfReserve(a->id()), ShardLayout::kNoShard);
}

// Component sizes feed the engine's work units and range split: every edge
// counts once, on its source reserve's shard, and every touched reserve
// counts on its own.
TEST_F(ShardPartitionerTest, ComponentSizesCountEdgesAndReservesPerShard) {
  Reserve* hub = NewReserve("hub");
  for (int i = 0; i < 5; ++i) {
    NewTap(hub->id(), NewReserve("leaf")->id());
  }
  Reserve* a = NewReserve("a");
  Reserve* b = NewReserve("b");
  Reserve* c = NewReserve("c");
  NewTap(a->id(), b->id());
  NewTap(b->id(), c->id());
  NewTap(c->id(), a->id());
  NewTap(a->id(), b->id());  // A parallel edge still counts.
  NewReserve("lone");

  const ShardLayout& layout = partitioner_.Partition(k_);
  ASSERT_EQ(layout.num_shards, 2u);
  EXPECT_EQ(layout.shard_edges[0], 5u);
  EXPECT_EQ(layout.shard_reserves[0], 6u);
  EXPECT_EQ(layout.shard_edges[1], 4u);
  EXPECT_EQ(layout.shard_reserves[1], 3u);
}

}  // namespace
}  // namespace cinder
