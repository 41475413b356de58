// Property test: deep components run exactly. Seeded random caterpillar
// graphs — deep ladder chains with leaf taps hanging off the spine, short
// back-taps that close small cycles, random charge so constrained groups
// appear unpredictably — run sharded at several worker counts, through
// mid-run create/delete churn, conserving every nanojoule across every run
// segment. They must stay bit-identical to the same graph run as one whole
// shard (the components joined by bridge taps the engine never registers).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/tap_engine.h"
#include "src/exec/shard_executor.h"
#include "tests/exec/one_shard_reference.h"

namespace cinder {
namespace {

struct CaterpillarRig {
  Kernel kernel;
  std::unique_ptr<TapEngine> engine;
  ObjectId battery = kInvalidObjectId;
  bool one_shard = false;

  // `one_shard` bridges the battery to every reserve NewReserve makes, so
  // the whole graph stays one shard however churn cuts it
  // (tests/exec/one_shard_reference.h).
  explicit CaterpillarRig(ShardExecutor* executor, bool one_shard_reference = false)
      : one_shard(one_shard_reference) {
    Reserve* b = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "battery");
    b->set_decay_exempt(true);
    b->Deposit(ToQuantity(Energy::Joules(20000.0)));
    battery = b->id();
    engine = std::make_unique<TapEngine>(&kernel, battery);
    engine->decay().enabled = true;
    engine->decay().half_life = Duration::Seconds(45);
    engine->set_executor(executor);
  }

  Reserve* NewReserve(const std::string& name) {
    Reserve* r = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), name);
    if (one_shard) {
      BridgeReserve(kernel, battery, *r);
    }
    return r;
  }

  // Every stochastic choice comes from a fresh Rng(seed), so two rigs built
  // with the same seed hold the same reserves and registered taps.
  void Build(uint64_t seed) {
    Rng rng(seed);
    Reserve* head = NewReserve("head");
    head->Deposit(ToQuantity(Energy::Joules(2000.0)));
    std::vector<Reserve*> spine{head};
    const int depth = 24 + static_cast<int>(rng.UniformU64(64));
    for (int i = 0; i < depth; ++i) {
      Reserve* n = NewReserve("n" + std::to_string(i));
      if (rng.Bernoulli(0.7)) {
        n->Deposit(static_cast<Quantity>(rng.UniformU64(4000000000)));
      }
      AddTap(spine.back()->id(), n->id(), "c" + std::to_string(i), rng);
      // Leaf taps make the spine a caterpillar; short back-taps close small
      // cycles whose edges are not bridges.
      if (rng.Bernoulli(0.25)) {
        Reserve* leaf = NewReserve("l" + std::to_string(i));
        AddTap(n->id(), leaf->id(), "lt" + std::to_string(i), rng);
      }
      if (rng.Bernoulli(0.1) && spine.size() >= 3) {
        AddTap(n->id(), spine[spine.size() - 3]->id(), "bt" + std::to_string(i), rng);
      }
      spine.push_back(n);
    }
    // A second small component so the spine is not the whole world.
    Reserve* pool = NewReserve("pool");
    pool->Deposit(static_cast<Quantity>(rng.UniformU64(3000000000)));
    const int n_apps = 2 + static_cast<int>(rng.UniformU64(4));
    for (int i = 0; i < n_apps; ++i) {
      Reserve* app = NewReserve("app" + std::to_string(i));
      AddTap(pool->id(), app->id(), "pt" + std::to_string(i), rng);
    }
  }

  void AddTap(ObjectId src, ObjectId dst, const std::string& name, Rng& rng) {
    Tap* t = kernel.Create<Tap>(kernel.root_container_id(), Label(Level::k1), name, src, dst);
    if (rng.Bernoulli(0.5)) {
      t->SetConstantRate(static_cast<QuantityRate>(rng.UniformU64(300000000)));
    } else {
      t->SetProportionalRate(rng.UniformRange(0.0, 0.5));
    }
    EXPECT_TRUE(engine->Register(t->id()));
  }

  // One churn round, driven by a fresh Rng so every rig mutates identically:
  // new fan-out taps off random existing reserves, then a few tap deletions
  // (taps only — deleting reserves would orphan edges, a different test).
  void Churn(uint64_t seed, int round) {
    Rng rng(seed ^ (0x9e3779b9ULL * static_cast<uint64_t>(round + 1)));
    const auto& reserves = kernel.ObjectsOfType(ObjectType::kReserve);
    const int n_new = 2 + static_cast<int>(rng.UniformU64(6));
    for (int i = 0; i < n_new; ++i) {
      const ObjectId src = reserves[1 + rng.UniformU64(reserves.size() - 1)];
      Reserve* leaf = NewReserve("x" + std::to_string(round) + "_" + std::to_string(i));
      AddTap(src, leaf->id(), "xt" + std::to_string(round) + "_" + std::to_string(i), rng);
    }
    const std::vector<ObjectId> taps = RegisteredTaps(kernel, *engine);
    const int n_del = static_cast<int>(rng.UniformU64(5));
    std::vector<ObjectId> doomed(taps.end() - std::min<size_t>(n_del, taps.size()), taps.end());
    for (ObjectId id : doomed) {
      ASSERT_EQ(kernel.Delete(id), Status::kOk);
    }
  }

  Quantity Total() const {
    Quantity sum = 0;
    for (ObjectId id : kernel.ObjectsOfType(ObjectType::kReserve)) {
      sum += kernel.LookupTyped<Reserve>(id)->level();
    }
    return sum;
  }
};

void ExpectBitIdentical(CaterpillarRig& want, CaterpillarRig& got, const std::string& label) {
  SCOPED_TRACE(label);
  const auto& want_reserves = want.kernel.ObjectsOfType(ObjectType::kReserve);
  const auto& got_reserves = got.kernel.ObjectsOfType(ObjectType::kReserve);
  ASSERT_EQ(want_reserves.size(), got_reserves.size());
  for (size_t i = 0; i < want_reserves.size(); ++i) {
    const Reserve* rw = want.kernel.LookupTyped<Reserve>(want_reserves[i]);
    const Reserve* rg = got.kernel.LookupTyped<Reserve>(got_reserves[i]);
    ASSERT_EQ(rw->name(), rg->name());
    EXPECT_EQ(rw->level(), rg->level()) << rw->name();
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

class ShardCaterpillarProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardCaterpillarProperty, RandomCaterpillarsBitIdenticalThroughChurn) {
  const uint64_t seed = GetParam();

  // One shared irregular-dt schedule: identical for every rig.
  std::vector<int64_t> dts;
  {
    Rng rng(seed * 3 + 1);
    for (int i = 0; i < 900; ++i) {
      dts.push_back(1000 + static_cast<int64_t>(rng.UniformU64(25000)));
    }
  }

  // Each rig runs three 300-batch segments with a churn round between them.
  // Conservation is checked per segment (churn deposits change the total);
  // the deterministic mutation driver keeps all rigs object-identical.
  auto drive = [&](CaterpillarRig& rig) {
    for (int round = 0; round < 3; ++round) {
      const Quantity before = rig.Total();
      for (int i = 0; i < 300; ++i) {
        rig.engine->RunBatch(Duration::Micros(dts[round * 300 + i]));
      }
      EXPECT_EQ(rig.Total(), before) << "seed=" << seed << " round=" << round;
      if (round < 2) {
        rig.Churn(seed, round);
      }
    }
  };

  CaterpillarRig one_shard(nullptr, /*one_shard_reference=*/true);
  one_shard.Build(seed);
  drive(one_shard);
  ASSERT_EQ(one_shard.engine->shard_count(), 1u);

  std::vector<std::unique_ptr<ShardExecutor>> execs;
  for (int workers : {0, 1, 4, 8}) {
    ShardExecutor* exec = nullptr;
    if (workers > 0) {
      execs.push_back(std::make_unique<ShardExecutor>(workers));
      exec = execs.back().get();
    }
    const std::string label =
        "seed=" + std::to_string(seed) + " workers=" + std::to_string(workers);

    CaterpillarRig whole(exec);
    whole.Build(seed);
    drive(whole);
    ExpectBitIdentical(one_shard, whole, label);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardCaterpillarProperty,
                         ::testing::Values(3, 11, 29, 71, 104, 233));

}  // namespace
}  // namespace cinder
