// The sharded executor's correctness bar: for any worker count, sharded
// batches must be bit-identical to the unsharded engine — same levels, same
// sub-unit carries, same per-tap totals — because shards are true connected
// components and the only cross-shard state (engine totals, decay leakage
// into the battery root) is merged deterministically in shard order.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/tap_engine.h"
#include "src/exec/shard_executor.h"

namespace cinder {
namespace {

constexpr int kPhones = 8;

// One kernel + engine hosting a fleet of disconnected "phones". Each phone is
// its own reserve/tap component: a pool feeding two apps (which contend), an
// app-to-app proportional tap, a backward tap, and a tap-less hoard reserve
// that only the decay pass touches.
struct Fleet {
  Kernel kernel;
  std::unique_ptr<TapEngine> engine;
  ObjectId battery = kInvalidObjectId;

  explicit Fleet(ShardExecutor* executor = nullptr, bool sharded = false) {
    Reserve* b = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "battery");
    b->set_decay_exempt(true);
    b->Deposit(ToQuantity(Energy::Joules(15000.0)));
    battery = b->id();
    engine = std::make_unique<TapEngine>(&kernel, battery);
    engine->decay().enabled = true;
    engine->decay().half_life = Duration::Seconds(30);
    if (sharded) {
      engine->EnableSharding(executor);
    }
    for (int p = 0; p < kPhones; ++p) {
      AddPhone(p);
    }
  }

  void AddPhone(int p) {
    const std::string prefix = "phone" + std::to_string(p);
    Reserve* pool = NewReserve(prefix + "/pool");
    pool->Deposit(ToQuantity(Energy::Joules(40.0 + 7.0 * p)));
    Reserve* a = NewReserve(prefix + "/a");
    Reserve* b = NewReserve(prefix + "/b");
    Reserve* hoard = NewReserve(prefix + "/hoard");
    hoard->Deposit(ToQuantity(Energy::Joules(1.0 + 0.25 * p)));

    Tap* feed_a = NewTap(pool->id(), a->id(), prefix + "/feed_a");
    feed_a->SetConstantPower(Power::Milliwatts(40 + 13 * p));
    Tap* feed_b = NewTap(pool->id(), b->id(), prefix + "/feed_b");
    feed_b->SetConstantPower(Power::Milliwatts(35 + 5 * p));
    Tap* a_to_b = NewTap(a->id(), b->id(), prefix + "/a_to_b");
    a_to_b->SetProportionalRate(0.05 + 0.01 * p);
    if (p % 3 == 0) {
      a_to_b->set_enabled(false);
    }
    Tap* back = NewTap(b->id(), pool->id(), prefix + "/back");
    back->SetProportionalRate(0.1);
    if (p % 4 == 0) {
      // A label-guarded source the tap's embedded credentials cannot use: the
      // tap is excluded from the plan but still contributes a (conservative)
      // connectivity edge in both engines.
      Label guarded(Level::k1);
      guarded.Set(kernel.categories().Allocate(), Level::k3);
      a->set_label(guarded);
    }
  }

  Reserve* NewReserve(const std::string& name) {
    return kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), name);
  }
  Tap* NewTap(ObjectId src, ObjectId dst, const std::string& name) {
    Tap* t = kernel.Create<Tap>(kernel.root_container_id(), Label(Level::k1), name, src, dst);
    EXPECT_TRUE(engine->Register(t->id()));
    return t;
  }

  void RunBatches(int n, Duration dt = Duration::Millis(10)) {
    for (int i = 0; i < n; ++i) {
      engine->RunBatch(dt);
    }
  }
};

// Bit-exact comparison: == on the doubles, not EXPECT_NEAR — the claim is
// identical bits, not similar values.
void ExpectIdenticalState(Fleet& want, Fleet& got, const char* label) {
  SCOPED_TRACE(label);
  const auto& want_reserves = want.kernel.ObjectsOfType(ObjectType::kReserve);
  const auto& got_reserves = got.kernel.ObjectsOfType(ObjectType::kReserve);
  ASSERT_EQ(want_reserves.size(), got_reserves.size());
  for (size_t i = 0; i < want_reserves.size(); ++i) {
    ASSERT_EQ(want_reserves[i], got_reserves[i]);
    const Reserve* rw = want.kernel.LookupTyped<Reserve>(want_reserves[i]);
    const Reserve* rg = got.kernel.LookupTyped<Reserve>(got_reserves[i]);
    EXPECT_EQ(rw->level(), rg->level()) << rw->name();
    EXPECT_EQ(rw->total_deposited(), rg->total_deposited()) << rw->name();
    EXPECT_EQ(rw->total_consumed(), rg->total_consumed()) << rw->name();
    EXPECT_TRUE(rw->decay_carry() == rg->decay_carry()) << rw->name();
  }
  const auto& want_taps = want.kernel.ObjectsOfType(ObjectType::kTap);
  const auto& got_taps = got.kernel.ObjectsOfType(ObjectType::kTap);
  ASSERT_EQ(want_taps.size(), got_taps.size());
  for (size_t i = 0; i < want_taps.size(); ++i) {
    const Tap* tw = want.kernel.LookupTyped<Tap>(want_taps[i]);
    const Tap* tg = got.kernel.LookupTyped<Tap>(got_taps[i]);
    EXPECT_EQ(tw->total_transferred(), tg->total_transferred()) << tw->name();
    EXPECT_TRUE(tw->carry() == tg->carry()) << tw->name();
  }
  EXPECT_EQ(want.engine->total_tap_flow(), got.engine->total_tap_flow());
  EXPECT_EQ(want.engine->total_decay_flow(), got.engine->total_decay_flow());
}

TEST(ShardDeterminismTest, GoldenShardedMatchesUnshardedAt1_2_8Workers) {
  Fleet unsharded;
  unsharded.RunBatches(10000);

  for (int workers : {1, 2, 8}) {
    ShardExecutor exec(workers);
    Fleet sharded(&exec, /*sharded=*/true);
    sharded.RunBatches(10000);
    EXPECT_EQ(sharded.engine->shard_count(), static_cast<uint32_t>(kPhones));
    ExpectIdenticalState(unsharded, sharded,
                         ("workers=" + std::to_string(workers)).c_str());
  }
}

TEST(ShardDeterminismTest, MidRunTopologyMutationStaysIdentical) {
  ShardExecutor exec(2);
  Fleet unsharded;
  Fleet sharded(&exec, /*sharded=*/true);

  auto mutate = [](Fleet& f) {
    // Grow the fleet and delete one tap mid-run: the epoch contract must
    // repartition and keep the two engines in lock-step.
    f.AddPhone(kPhones);
    const auto& taps = f.kernel.ObjectsOfType(ObjectType::kTap);
    ASSERT_FALSE(taps.empty());
    ASSERT_EQ(f.kernel.Delete(taps[1]), Status::kOk);
  };

  unsharded.RunBatches(3000);
  sharded.RunBatches(3000);
  mutate(unsharded);
  mutate(sharded);
  unsharded.RunBatches(3000);
  sharded.RunBatches(3000);
  EXPECT_EQ(sharded.engine->shard_count(), static_cast<uint32_t>(kPhones) + 1);
  ExpectIdenticalState(unsharded, sharded, "after mutation");
}

TEST(ShardDeterminismTest, IrregularBatchDurationsStayIdentical) {
  ShardExecutor exec(8);
  Fleet unsharded;
  Fleet sharded(&exec, /*sharded=*/true);
  for (int i = 0; i < 4000; ++i) {
    const Duration dt = Duration::Micros(1000 + 7919 * (i % 13));
    unsharded.engine->RunBatch(dt);
    sharded.engine->RunBatch(dt);
  }
  ExpectIdenticalState(unsharded, sharded, "irregular durations");
}

// decay_to_shard_root golden: with per-shard sinks on, results must still be
// bit-identical across worker counts (the serial sharded engine is the
// reference), the battery must receive no decay leakage, and every shard's
// leakage must land in that shard's smallest-id energy reserve (the pool).
TEST(ShardDeterminismTest, DecayToShardRootIdenticalAcrossWorkerCounts) {
  ShardExecutor serial(1);
  Fleet reference(&serial, /*sharded=*/true);
  reference.engine->decay().to_shard_root = true;
  reference.RunBatches(5000);

  for (int workers : {2, 8}) {
    ShardExecutor exec(workers);
    Fleet got(&exec, /*sharded=*/true);
    got.engine->decay().to_shard_root = true;
    got.RunBatches(5000);
    ExpectIdenticalState(reference, got,
                         ("to_shard_root workers=" + std::to_string(workers)).c_str());
  }
}

// Leakage routing under to_shard_root: a component's decay lands in that
// component's pool (its smallest-id energy reserve); a tap-less *stray*
// reserve belongs to no component, so its leakage still goes to the battery
// root — never to whichever shard round-robin happened to balance it into.
TEST(ShardDeterminismTest, DecayToShardRootRoutesLeakageByComponent) {
  ShardExecutor exec(2);
  Fleet fleet(&exec, /*sharded=*/true);
  fleet.engine->decay().to_shard_root = true;
  const Reserve* battery = fleet.kernel.LookupTyped<Reserve>(fleet.battery);
  const Quantity battery_deposited_before = battery->total_deposited();
  // Per phone (creation order per AddPhone): pool, a, b, hoard reserves and
  // feed_a, feed_b, a_to_b, back taps. The hoard is the tap-less stray.
  const auto& reserves = fleet.kernel.ObjectsOfType(ObjectType::kReserve);
  const auto& tap_ids = fleet.kernel.ObjectsOfType(ObjectType::kTap);
  std::vector<Quantity> pool_deposited_before(kPhones);
  for (int p = 0; p < kPhones; ++p) {
    pool_deposited_before[p] =
        fleet.kernel.LookupTyped<Reserve>(reserves[1 + 4 * p])->total_deposited();
  }
  auto total = [&fleet] {
    Quantity sum = 0;
    for (ObjectId id : fleet.kernel.ObjectsOfType(ObjectType::kReserve)) {
      sum += fleet.kernel.LookupTyped<Reserve>(id)->level();
    }
    return sum;
  };
  const Quantity before = total();
  fleet.RunBatches(5000);
  EXPECT_GT(fleet.engine->total_decay_flow(), 0);
  // Conservation holds exactly: leakage stayed in the system.
  EXPECT_EQ(total(), before);
  // The battery received exactly the strays' losses (the hoards only ever
  // lose energy to decay, so their loss is deposits minus level) ...
  Quantity hoard_loss = 0;
  Quantity pool_leak = 0;
  for (int p = 0; p < kPhones; ++p) {
    const Reserve* hoard = fleet.kernel.LookupTyped<Reserve>(reserves[4 + 4 * p]);
    hoard_loss += hoard->total_deposited() - hoard->level();
    const Reserve* pool = fleet.kernel.LookupTyped<Reserve>(reserves[1 + 4 * p]);
    const Tap* back = fleet.kernel.LookupTyped<Tap>(tap_ids[3 + 4 * p]);
    // Pool inflows are the backward tap plus its component's decay leakage.
    pool_leak += pool->total_deposited() - pool_deposited_before[p] -
                 back->total_transferred();
  }
  const Quantity battery_delta = battery->total_deposited() - battery_deposited_before;
  EXPECT_GT(hoard_loss, 0);
  EXPECT_EQ(battery_delta, hoard_loss) << "stray leakage must go to the battery root";
  // ... and every other leaked nanojoule landed in the components' own pools.
  EXPECT_GT(pool_leak, 0);
  EXPECT_EQ(pool_leak + battery_delta, fleet.engine->total_decay_flow());
}

// Strayness is a component-graph property, not a shard-count property: with
// ONE component the engine takes the single-shard layout path, but a tap-less
// hoard must still leak to the battery, exactly as it does in a big fleet.
TEST(ShardDeterminismTest, DecayToShardRootSingleComponentStrayStillLeaksToBattery) {
  ShardExecutor exec(1);
  Kernel k;
  Reserve* battery = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "battery");
  battery->set_decay_exempt(true);
  TapEngine engine(&k, battery->id());
  engine.decay().enabled = true;
  engine.decay().half_life = Duration::Seconds(30);
  engine.decay().to_shard_root = true;
  engine.EnableSharding(&exec);
  Reserve* pool = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "pool");
  pool->Deposit(ToQuantity(Energy::Joules(50.0)));
  Reserve* app = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "app");
  Tap* feed = k.Create<Tap>(k.root_container_id(), Label(Level::k1), "feed", pool->id(),
                            app->id());
  feed->SetConstantPower(Power::Milliwatts(40));
  ASSERT_TRUE(engine.Register(feed->id()));
  Reserve* hoard = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "hoard");
  hoard->Deposit(ToQuantity(Energy::Joules(2.0)));

  const Quantity battery_deposited_before = battery->total_deposited();
  const Quantity pool_deposited_before = pool->total_deposited();
  for (int i = 0; i < 3000; ++i) {
    engine.RunBatch(Duration::Millis(10));
  }
  ASSERT_EQ(engine.shard_count(), 1u);
  const Quantity hoard_loss = hoard->total_deposited() - hoard->level();
  EXPECT_GT(hoard_loss, 0);
  EXPECT_EQ(battery->total_deposited() - battery_deposited_before, hoard_loss)
      << "the tap-less hoard belongs to no component; its leakage is the battery's";
  // The component's own leakage (app decays; pool is the sink) went to pool.
  EXPECT_EQ(pool->total_deposited() - pool_deposited_before,
            engine.total_decay_flow() - hoard_loss);
}

TEST(ShardDeterminismTest, DecayToShardRootOffMatchesUnshardedGolden) {
  // The flag's default-off path is the existing guarantee: sharded == the
  // unsharded engine bit for bit. Pin it explicitly next to the flag-on test.
  Fleet unsharded;
  ShardExecutor exec(4);
  Fleet sharded(&exec, /*sharded=*/true);
  ASSERT_FALSE(sharded.engine->decay().to_shard_root);
  unsharded.RunBatches(2000);
  sharded.RunBatches(2000);
  ExpectIdenticalState(unsharded, sharded, "to_shard_root off");
}

TEST(ShardDeterminismTest, ShardStatsCoverThePlan) {
  ShardExecutor exec(2);
  Fleet sharded(&exec, /*sharded=*/true);
  sharded.RunBatches(100);
  const auto& stats = sharded.engine->shard_stats();
  ASSERT_EQ(stats.size(), sharded.engine->shard_count());
  uint32_t taps = 0;
  Quantity flow = 0;
  for (const auto& s : stats) {
    taps += s.taps;
    flow += s.tap_flow;
  }
  // Two phones have a label-guarded `a`, which excludes both taps touching it
  // (feed_a and a_to_b) from the plan.
  EXPECT_EQ(taps, static_cast<uint32_t>(kPhones * 4 - 4));
  EXPECT_EQ(flow, sharded.engine->total_tap_flow());
}

}  // namespace
}  // namespace cinder
