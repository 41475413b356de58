// The sharded executor's correctness bar: for any worker count, a fleet of
// per-phone shards must be bit-identical to the same fleet run as one shard
// — same levels, same sub-unit carries, same per-tap totals — because shards
// are true connected components and the only cross-shard state (engine
// totals, decay leakage into the battery root) is merged deterministically
// in shard order.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/tap_engine.h"
#include "src/exec/shard_executor.h"
#include "tests/exec/one_shard_reference.h"

namespace cinder {
namespace {

constexpr int kPhones = 8;

// One kernel + engine hosting a fleet of "phones". Each phone is its own
// reserve/tap component: a pool feeding two apps (which contend), an
// app-to-app proportional tap, a backward tap, and a tap-less hoard reserve
// that only the decay pass touches. With `one_shard`, a bridge from the
// battery to every pool joins the phones into one component: the same flows,
// run as one shard (tests/exec/one_shard_reference.h).
struct Fleet {
  Kernel kernel;
  std::unique_ptr<TapEngine> engine;
  ObjectId battery = kInvalidObjectId;
  bool one_shard = false;

  explicit Fleet(ShardExecutor* executor = nullptr, bool one_shard_reference = false)
      : one_shard(one_shard_reference) {
    Reserve* b = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "battery");
    b->set_decay_exempt(true);
    b->Deposit(ToQuantity(Energy::Joules(15000.0)));
    battery = b->id();
    engine = std::make_unique<TapEngine>(&kernel, battery);
    engine->decay().enabled = true;
    engine->decay().half_life = Duration::Seconds(30);
    engine->set_executor(executor);
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
    if (one_shard) {
      BridgeReserve(kernel, battery, *pool);
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
    const Reserve* rw = want.kernel.LookupTyped<Reserve>(want_reserves[i]);
    const Reserve* rg = got.kernel.LookupTyped<Reserve>(got_reserves[i]);
    ASSERT_EQ(rw->name(), rg->name());
    EXPECT_EQ(rw->level(), rg->level()) << rw->name();
    EXPECT_EQ(rw->total_deposited(), rg->total_deposited()) << rw->name();
    EXPECT_EQ(rw->total_consumed(), rg->total_consumed()) << rw->name();
    EXPECT_TRUE(rw->decay_carry() == rg->decay_carry()) << rw->name();
  }
  const std::vector<ObjectId> want_taps = RegisteredTaps(want.kernel, *want.engine);
  const std::vector<ObjectId> got_taps = RegisteredTaps(got.kernel, *got.engine);
  ASSERT_EQ(want_taps.size(), got_taps.size());
  for (size_t i = 0; i < want_taps.size(); ++i) {
    const Tap* tw = want.kernel.LookupTyped<Tap>(want_taps[i]);
    const Tap* tg = got.kernel.LookupTyped<Tap>(got_taps[i]);
    ASSERT_EQ(tw->name(), tg->name());
    EXPECT_EQ(tw->total_transferred(), tg->total_transferred()) << tw->name();
    EXPECT_TRUE(tw->carry() == tg->carry()) << tw->name();
  }
  EXPECT_EQ(want.engine->total_tap_flow(), got.engine->total_tap_flow());
  EXPECT_EQ(want.engine->total_decay_flow(), got.engine->total_decay_flow());
}

TEST(ShardDeterminismTest, GoldenShardedMatchesOneShardAt0_1_2_8Workers) {
  Fleet one_shard(nullptr, /*one_shard_reference=*/true);
  one_shard.RunBatches(10000);
  ASSERT_EQ(one_shard.engine->shard_count(), 1u);

  for (int workers : {0, 1, 2, 8}) {
    ShardExecutor exec(workers > 0 ? workers : 1);
    Fleet sharded(workers > 0 ? &exec : nullptr);
    sharded.RunBatches(10000);
    EXPECT_EQ(sharded.engine->shard_count(), static_cast<uint32_t>(kPhones));
    ExpectIdenticalState(one_shard, sharded, ("workers=" + std::to_string(workers)).c_str());
  }
}

TEST(ShardDeterminismTest, MidRunTopologyMutationStaysIdentical) {
  ShardExecutor exec(2);
  Fleet one_shard(nullptr, /*one_shard_reference=*/true);
  Fleet sharded(&exec);

  auto mutate = [](Fleet& f) {
    // Grow the fleet and delete one tap mid-run: the epoch contract must
    // repartition and keep the two engines in lock-step.
    f.AddPhone(kPhones);
    const std::vector<ObjectId> taps = RegisteredTaps(f.kernel, *f.engine);
    ASSERT_FALSE(taps.empty());
    ASSERT_EQ(f.kernel.Delete(taps[1]), Status::kOk);
  };

  one_shard.RunBatches(3000);
  sharded.RunBatches(3000);
  mutate(one_shard);
  mutate(sharded);
  one_shard.RunBatches(3000);
  sharded.RunBatches(3000);
  EXPECT_EQ(one_shard.engine->shard_count(), 1u);
  EXPECT_EQ(sharded.engine->shard_count(), static_cast<uint32_t>(kPhones) + 1);
  ExpectIdenticalState(one_shard, sharded, "after mutation");
}

TEST(ShardDeterminismTest, IrregularBatchDurationsStayIdentical) {
  ShardExecutor exec(8);
  Fleet one_shard(nullptr, /*one_shard_reference=*/true);
  Fleet sharded(&exec);
  for (int i = 0; i < 4000; ++i) {
    const Duration dt = Duration::Micros(1000 + 7919 * (i % 13));
    one_shard.engine->RunBatch(dt);
    sharded.engine->RunBatch(dt);
  }
  EXPECT_EQ(one_shard.engine->shard_count(), 1u);
  ExpectIdenticalState(one_shard, sharded, "irregular durations");
}

// decay_to_shard_root golden: with per-shard sinks on, results must still be
// bit-identical across worker counts (the serial engine is the reference),
// the battery must receive no decay leakage, and every shard's leakage must
// land in that shard's smallest-id energy reserve (the pool).
TEST(ShardDeterminismTest, DecayToShardRootIdenticalAcrossWorkerCounts) {
  Fleet reference;
  reference.engine->decay().to_shard_root = true;
  reference.RunBatches(5000);

  for (int workers : {1, 2, 8}) {
    ShardExecutor exec(workers);
    Fleet got(&exec);
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
  Fleet fleet(&exec);
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
  engine.set_executor(&exec);
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

// The settle step credits a shard's leakage into its sink the way
// Reserve::Deposit would, so a sink that refills from empty goes back on its
// shard's decay list. Once to_shard_root is off, the former sink is an
// ordinary reserve and must decay toward the battery like any other. The
// half-life equals the batch, so every batch leaks exactly half.
TEST(ShardDeterminismTest, SinkRefilledByLeakageDecaysOnceShardRootIsOff) {
  for (const int workers : {0, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::unique_ptr<ShardExecutor> exec;
    Kernel k;
    Reserve* battery = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "battery");
    battery->set_decay_exempt(true);
    battery->Deposit(1000000);
    TapEngine engine(&k, battery->id());
    if (workers > 0) {
      exec = std::make_unique<ShardExecutor>(workers);
      engine.set_executor(exec.get());
    }
    engine.decay().half_life = Duration::Millis(10);
    engine.decay().to_shard_root = true;
    // The sink (the component's smallest id) starts empty, so the plan
    // leaves it off the decay list; a zero-rate tap joins it to the hoard.
    Reserve* sink = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "sink");
    Reserve* hoard = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "hoard");
    hoard->Deposit(4000);
    Tap* link =
        k.Create<Tap>(k.root_container_id(), Label(Level::k1), "link", sink->id(), hoard->id());
    link->SetConstantPower(Power::Milliwatts(0));
    ASSERT_TRUE(engine.Register(link->id()));

    engine.RunBatch(Duration::Millis(10));  // The hoard leaks half into the sink.
    ASSERT_EQ(engine.shard_count(), 1u);
    EXPECT_EQ(hoard->level(), 2000);
    EXPECT_EQ(sink->level(), 2000);
    EXPECT_EQ(battery->level(), 1000000);

    engine.decay().to_shard_root = false;
    engine.RunBatch(Duration::Millis(10));  // Both leak half to the battery.
    EXPECT_EQ(hoard->level(), 1000);
    EXPECT_EQ(sink->level(), 1000);
    EXPECT_EQ(battery->level(), 1000000 + 2000);
    engine.RunBatch(Duration::Millis(10));
    EXPECT_EQ(sink->level(), 500);
    EXPECT_EQ(battery->level(), 1000000 + 3000);
    EXPECT_EQ(engine.total_decay_flow(), 2000 + 2000 + 1000);
    EXPECT_EQ(engine.total_tap_flow(), 0);
  }
}

TEST(ShardDeterminismTest, DecayToShardRootOffMatchesOneShardGolden) {
  // The flag's default-off path is the existing guarantee: per-phone shards
  // == one shard bit for bit. Pin it explicitly next to the flag-on test.
  Fleet one_shard(nullptr, /*one_shard_reference=*/true);
  ShardExecutor exec(4);
  Fleet sharded(&exec);
  ASSERT_FALSE(sharded.engine->decay().to_shard_root);
  one_shard.RunBatches(2000);
  sharded.RunBatches(2000);
  ExpectIdenticalState(one_shard, sharded, "to_shard_root off");
}

TEST(ShardDeterminismTest, ShardStatsCoverThePlan) {
  ShardExecutor exec(2);
  Fleet sharded(&exec);
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
