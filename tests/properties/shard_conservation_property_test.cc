// Property test: exact conservation survives sharded execution. Random
// multi-component reserve/tap graphs run their batches on a real worker pool
// (so shards genuinely execute concurrently) and the total quantity in the
// system must still be conserved to the nanojoule — decay crossing shard
// boundaries into the battery root included — with no reserve ever going
// negative.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/tap_engine.h"
#include "src/exec/shard_executor.h"

namespace cinder {
namespace {

class ShardConservationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardConservationProperty, RandomShardedGraphsConserveExactly) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  Kernel k;
  Reserve* battery = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "battery");
  battery->set_decay_exempt(true);
  battery->Deposit(ToQuantity(Energy::Joules(15000.0)));
  ShardExecutor exec(4);
  TapEngine engine(&k, battery->id());
  engine.set_executor(&exec);
  engine.decay().enabled = (seed % 2) == 0;  // Half the cases include decay.
  engine.decay().half_life = Duration::Seconds(60 + static_cast<int64_t>(rng.UniformU64(600)));

  // Several disconnected components, each a small random graph. The battery
  // deliberately takes part in none of them, so decay leakage is always a
  // cross-shard transfer resolved by the merge step.
  const int n_components = 2 + static_cast<int>(rng.UniformU64(5));
  for (int c = 0; c < n_components; ++c) {
    std::vector<Reserve*> reserves;
    const int n_reserves = 2 + static_cast<int>(rng.UniformU64(6));
    for (int i = 0; i < n_reserves; ++i) {
      Reserve* r = k.Create<Reserve>(k.root_container_id(), Label(Level::k1),
                                     "c" + std::to_string(c) + "/r" + std::to_string(i));
      if (rng.Bernoulli(0.6)) {
        r->Deposit(static_cast<Quantity>(rng.UniformU64(1000000000)));
      }
      if (rng.Bernoulli(0.15)) {
        r->set_decay_exempt(true);
      }
      reserves.push_back(r);
    }
    const int n_taps = 1 + static_cast<int>(rng.UniformU64(8));
    for (int i = 0; i < n_taps; ++i) {
      size_t a = rng.UniformU64(reserves.size());
      size_t b = rng.UniformU64(reserves.size());
      if (a == b) {
        continue;
      }
      Tap* t = k.Create<Tap>(k.root_container_id(), Label(Level::k1),
                             "c" + std::to_string(c) + "/t" + std::to_string(i),
                             reserves[a]->id(), reserves[b]->id());
      if (rng.Bernoulli(0.5)) {
        t->SetConstantRate(static_cast<QuantityRate>(rng.UniformU64(300000000)));
      } else {
        t->SetProportionalRate(rng.UniformRange(0.0, 0.8));
      }
      ASSERT_TRUE(engine.Register(t->id()));
    }
  }

  // One bigger component: a pool feeding random hubs, each with a random
  // fan-out. Poor hubs (no deposit) are constrained immediately; shared
  // destinations arise from hubs tapping back into the pool.
  Reserve* pool = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "pool");
  pool->Deposit(static_cast<Quantity>(rng.UniformU64(4000000000)));
  const int n_hubs = 4 + static_cast<int>(rng.UniformU64(8));
  for (int h = 0; h < n_hubs; ++h) {
    Reserve* hub = k.Create<Reserve>(k.root_container_id(), Label(Level::k1),
                                     "hub" + std::to_string(h));
    if (rng.Bernoulli(0.6)) {
      hub->Deposit(static_cast<Quantity>(rng.UniformU64(2000000000)));
    }
    Tap* feed = k.Create<Tap>(k.root_container_id(), Label(Level::k1),
                              "feed" + std::to_string(h), pool->id(), hub->id());
    feed->SetConstantRate(static_cast<QuantityRate>(rng.UniformU64(300000000)));
    ASSERT_TRUE(engine.Register(feed->id()));
    const int n_leaves = 1 + static_cast<int>(rng.UniformU64(7));
    for (int l = 0; l < n_leaves; ++l) {
      Reserve* leaf = k.Create<Reserve>(
          k.root_container_id(), Label(Level::k1),
          "leaf" + std::to_string(h) + "_" + std::to_string(l));
      Tap* t = k.Create<Tap>(k.root_container_id(), Label(Level::k1),
                             "t" + std::to_string(h) + "_" + std::to_string(l), hub->id(),
                             rng.Bernoulli(0.2) ? pool->id() : leaf->id());
      if (rng.Bernoulli(0.5)) {
        t->SetConstantRate(static_cast<QuantityRate>(rng.UniformU64(400000000)));
      } else {
        t->SetProportionalRate(rng.UniformRange(0.0, 0.8));
      }
      ASSERT_TRUE(engine.Register(t->id()));
    }
  }

  auto total = [&] {
    Quantity sum = 0;
    for (ObjectId id : k.ObjectsOfType(ObjectType::kReserve)) {
      const Quantity level = k.LookupTyped<Reserve>(id)->level();
      EXPECT_GE(level, 0) << "seed=" << seed;
      sum += level;
    }
    return sum;
  };

  const Quantity before = total();
  // Irregular batch lengths stress the carry logic on every shard.
  for (int i = 0; i < 1500; ++i) {
    engine.RunBatch(Duration::Micros(1000 + static_cast<int64_t>(rng.UniformU64(30000))));
    ASSERT_EQ(total(), before) << "seed=" << seed << " batch " << i;
  }
  EXPECT_GE(engine.shard_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardConservationProperty,
                         ::testing::Values(3, 7, 12, 23, 42, 57, 91, 137));

}  // namespace
}  // namespace cinder
