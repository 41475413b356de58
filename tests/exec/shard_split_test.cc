// The intra-shard range split's correctness bar. Two distinct golden claims:
//
//  1. Worker-count independence (the hard contract): with a fixed split
//     config, results are a pure function of the plan — serial in-caller,
//     1, 2, 4, and 8 pool workers must be bit-identical, because every
//     floating-point association is pinned by the fixed range-order
//     reduction, never by ticket scheduling.
//  2. Split-vs-whole identity for provably unconstrained groups: when a
//     group's demand fits its source's opening level, granted == want for
//     every entry in both runs, so even a split shard's unconstrained groups
//     must match the same reserves and taps run as one whole shard bit for
//     bit — in a shard that also holds constrained groups, too. (Constrained
//     groups re-associate the demand sum across range boundaries, so there
//     the contract is deliberately only #1 — see docs/PERFORMANCE.md,
//     "Range split".)
//
// The graphs are adversarial on purpose: single-group mega-shards whose one
// group straddles every range boundary, ranges of size one with empty tails,
// groups nudged across boundaries by the snap window, proportional and
// disabled taps, and mid-run topology mutations that force split recompute.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/tap_engine.h"
#include "src/exec/shard_executor.h"
#include "tests/exec/one_shard_reference.h"

namespace cinder {
namespace {

// One kernel + engine with an optional executor (null runs the tickets
// serially in the caller) and a split config; split_min 0 runs every
// component whole, the reference for the unconstrained identity. With
// `one_shard`, Bridge joins each component to the battery's, so the
// reference is one whole shard (tests/exec/one_shard_reference.h). The
// graph-building helpers are deterministic, so two rigs fed the same calls
// hold the same reserves and registered taps.
struct Rig {
  Kernel kernel;
  std::unique_ptr<TapEngine> engine;
  ObjectId battery = kInvalidObjectId;
  bool one_shard = false;

  explicit Rig(ShardExecutor* executor = nullptr, uint32_t split_min = 0,
               uint32_t split_ranges = 8, bool one_shard_reference = false)
      : one_shard(one_shard_reference) {
    Reserve* b = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "battery");
    b->set_decay_exempt(true);
    b->Deposit(ToQuantity(Energy::Joules(50000.0)));
    battery = b->id();
    engine = std::make_unique<TapEngine>(&kernel, battery);
    engine->decay().enabled = true;
    engine->decay().half_life = Duration::Seconds(30);
    engine->split().min_entries = split_min;
    engine->split().ranges = split_ranges;
    engine->set_executor(executor);
  }

  void Bridge(const Reserve* r) {
    if (one_shard) {
      BridgeReserve(kernel, battery, *r);
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

  // A single component: one rich or poor pool fanning out to `sinks` sinks —
  // every tap shares the pool's demand group, so the one group straddles
  // every range boundary (the snap window finds no boundary and keeps even
  // splits). A sprinkling of disabled taps exercises the skip mark.
  void BuildFanOut(int sinks, double pool_joules) {
    Reserve* pool = NewReserve("pool");
    pool->Deposit(ToQuantity(Energy::Joules(pool_joules)));
    Bridge(pool);
    for (int i = 0; i < sinks; ++i) {
      Reserve* s = NewReserve("sink" + std::to_string(i));
      Tap* t = NewTap(pool->id(), s->id(), "t" + std::to_string(i));
      t->SetConstantPower(Power::Milliwatts(1 + (i * 7) % 23));
      if (i % 17 == 0) {
        t->set_enabled(false);
      }
    }
  }

  // A single component with many small groups: a rich pool feeds `hubs`
  // hubs; each hub feeds `leaves` leaves (constant and proportional taps
  // mixed, some disabled) and every other hub taps back into the pool. Poor
  // hubs (every third) are constrained from the first batch; the rest drift
  // between fast and constrained as feeds and drains fight, so both pass-2
  // paths and the classification boundary all see traffic.
  void BuildForest(int hubs, int leaves) {
    Reserve* pool = NewReserve("pool");
    pool->Deposit(ToQuantity(Energy::Joules(2000.0)));
    for (int h = 0; h < hubs; ++h) {
      const std::string hp = "hub" + std::to_string(h);
      Reserve* hub = NewReserve(hp);
      hub->Deposit(ToQuantity(Energy::Joules(h % 3 == 0 ? 0.000005 : 3.0 + 0.5 * h)));
      NewTap(pool->id(), hub->id(), hp + "/feed")
          ->SetConstantPower(Power::Milliwatts(4 + 3 * h));
      for (int l = 0; l < leaves; ++l) {
        Reserve* leaf = NewReserve(hp + "/leaf" + std::to_string(l));
        Tap* t = NewTap(hub->id(), leaf->id(), hp + "/t" + std::to_string(l));
        if ((h + l) % 3 == 0) {
          t->SetProportionalRate(0.02 + 0.005 * l);
        } else {
          t->SetConstantPower(Power::Milliwatts(1 + (h * 5 + l) % 9));
        }
        if ((h * 31 + l) % 11 == 0) {
          t->set_enabled(false);
        }
      }
      if (h % 2 == 0) {
        NewTap(hub->id(), pool->id(), hp + "/back")->SetProportionalRate(0.03);
      }
    }
  }

  void RunBatches(int n, Duration dt = Duration::Millis(10)) {
    for (int i = 0; i < n; ++i) {
      engine->RunBatch(dt);
    }
  }

  // The split shard under test: the one with the most plan entries.
  uint32_t BiggestShard() const {
    const auto& stats = engine->shard_stats();
    uint32_t best = 0;
    for (uint32_t s = 1; s < stats.size(); ++s) {
      if (stats[s].taps > stats[best].taps) {
        best = s;
      }
    }
    return best;
  }
};

// Bit-exact: == on the doubles. The claim is identical bits, not closeness.
void ExpectIdenticalState(Rig& want, Rig& got, const std::string& label) {
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

// Unconstrained single-group mega-shard: 96 taps off one rich pool, split
// into 4 ranges the one group straddles. Every worker count — including the
// serial in-caller ticket loop — must match the whole shard exactly.
TEST(ShardSplitTest, UnconstrainedFanOutMatchesUnsplitAtAnyWorkerCount) {
  Rig unsplit;
  unsplit.BuildFanOut(96, 20000.0);
  unsplit.RunBatches(2000);

  std::vector<std::unique_ptr<ShardExecutor>> execs;
  for (int workers : {0, 1, 2, 4, 8}) {
    ShardExecutor* exec = nullptr;
    if (workers > 0) {
      execs.push_back(std::make_unique<ShardExecutor>(workers));
      exec = execs.back().get();
    }
    Rig split(exec, /*split_min=*/16, /*split_ranges=*/4);
    split.BuildFanOut(96, 20000.0);
    split.RunBatches(2000);
    // The shard must actually have run split — a silent fallback to the
    // whole-shard path would pass the identity check without testing it.
    EXPECT_EQ(split.engine->shard_stats()[split.BiggestShard()].ranges, 4u);
    ExpectIdenticalState(unsplit, split, "workers=" + std::to_string(workers));
  }
}

// Constrained single-group mega-shard: the pool is poor, so the one
// straddling group takes the ordered finalize path every batch with the
// range-order-reduced demand total. The reference is the serial split engine;
// every pool size must reproduce it bit for bit.
TEST(ShardSplitTest, ConstrainedMegaGroupBitIdenticalAcrossWorkerCounts) {
  Rig reference(nullptr, /*split_min=*/16, /*split_ranges=*/4);
  reference.BuildFanOut(96, 0.004);
  reference.RunBatches(3000);
  ASSERT_EQ(reference.engine->shard_stats()[reference.BiggestShard()].ranges, 4u);
  // The poor pool really does clamp: granted stays below demand.
  ASSERT_GT(reference.engine->total_tap_flow(), 0);

  for (int workers : {2, 4, 8}) {
    ShardExecutor exec(workers);
    Rig split(&exec, /*split_min=*/16, /*split_ranges=*/4);
    split.BuildFanOut(96, 0.004);
    split.RunBatches(3000);
    ExpectIdenticalState(reference, split, "workers=" + std::to_string(workers));
  }
}

// The forest mixes everything at once — proportional taps, disabled taps,
// shared destinations (the pool every even hub taps back into), groups that
// flip between fast and constrained as hubs drain — under irregular batch
// durations. Still a pure function of the plan, never of the worker count.
TEST(ShardSplitTest, MixedForestBitIdenticalAcrossWorkerCounts) {
  auto run = [](Rig& r) {
    for (int i = 0; i < 3000; ++i) {
      r.engine->RunBatch(Duration::Micros(1000 + 7919 * (i % 13)));
    }
  };
  Rig reference(nullptr, /*split_min=*/8, /*split_ranges=*/8);
  reference.BuildForest(16, 6);
  run(reference);
  ASSERT_GT(reference.engine->shard_stats()[reference.BiggestShard()].ranges, 1u);

  for (int workers : {2, 4, 8}) {
    ShardExecutor exec(workers);
    Rig split(&exec, /*split_min=*/8, /*split_ranges=*/8);
    split.BuildForest(16, 6);
    run(split);
    ExpectIdenticalState(reference, split, "workers=" + std::to_string(workers));
  }
}

// One split shard mixing both kinds of group: a rich hub feeds 64 sinks and
// a small pool, and the pool feeds 64 drains that want far more than it
// holds. Creation alternates hub and pool taps, so every range holds both
// groups. The hub's group is unconstrained: pass-2 ranges run its entries
// and mark them run. The pool's group is constrained: the ordered finalize
// runs the shard's tail. After every batch the hub group must match the
// whole-shard run bit for bit (an entry that ran in a range and again in
// the finalize would move twice), the component must conserve to the nJ
// with decay off, and the pool must never go negative.
TEST(ShardSplitTest, MixedConstrainedAndUnconstrainedGroupsInOneSplitShard) {
  struct Ids {
    ObjectId hub = kInvalidObjectId;
    ObjectId pool = kInvalidObjectId;
    std::vector<ObjectId> hub_taps;   // The feed, then the sink taps.
    std::vector<ObjectId> sinks;
    std::vector<ObjectId> pool_taps;
  };
  auto build = [](Rig& r) {
    r.engine->decay().enabled = false;
    Ids ids;
    Reserve* hub = r.NewReserve("hub");
    hub->Deposit(ToQuantity(Energy::Joules(40000.0)));
    Reserve* pool = r.NewReserve("pool");
    pool->Deposit(ToQuantity(Energy::Millijoules(2)));
    ids.hub = hub->id();
    ids.pool = pool->id();
    Tap* feed = r.NewTap(hub->id(), pool->id(), "feed");
    feed->SetConstantPower(Power::Milliwatts(20));
    ids.hub_taps.push_back(feed->id());
    for (int i = 0; i < 64; ++i) {
      Reserve* sink = r.NewReserve("sink" + std::to_string(i));
      Tap* t = r.NewTap(hub->id(), sink->id(), "h" + std::to_string(i));
      t->SetConstantPower(Power::Milliwatts(1 + (i * 7) % 13));
      ids.hub_taps.push_back(t->id());
      ids.sinks.push_back(sink->id());
      Reserve* drain = r.NewReserve("drain" + std::to_string(i));
      Tap* d = r.NewTap(pool->id(), drain->id(), "p" + std::to_string(i));
      d->SetConstantPower(Power::Milliwatts(2 + i % 5));
      ids.pool_taps.push_back(d->id());
    }
    return ids;
  };
  auto level = [](Rig& r, ObjectId id) { return r.kernel.LookupTyped<Reserve>(id)->level(); };
  auto total = [](Rig& r) {
    Quantity sum = 0;
    for (ObjectId id : r.kernel.ObjectsOfType(ObjectType::kReserve)) {
      sum += r.kernel.LookupTyped<Reserve>(id)->level();
    }
    return sum;
  };

  for (int workers : {0, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::unique_ptr<ShardExecutor> exec;
    if (workers > 0) {
      exec = std::make_unique<ShardExecutor>(workers);
    }
    Rig whole;
    const Ids w = build(whole);
    Rig split(exec.get(), /*split_min=*/16, /*split_ranges=*/4);
    const Ids g = build(split);
    const Quantity opening = total(split);
    for (int b = 0; b < 300; ++b) {
      const Duration dt = Duration::Micros(4000 + 997 * (b % 11));
      whole.engine->RunBatch(dt);
      split.engine->RunBatch(dt);
      ASSERT_EQ(split.engine->shard_stats()[split.BiggestShard()].ranges, 4u);
      ASSERT_EQ(level(whole, w.hub), level(split, g.hub)) << "batch " << b;
      for (size_t i = 0; i < w.hub_taps.size(); ++i) {
        const Tap* tw = whole.kernel.LookupTyped<Tap>(w.hub_taps[i]);
        const Tap* tg = split.kernel.LookupTyped<Tap>(g.hub_taps[i]);
        ASSERT_EQ(tw->total_transferred(), tg->total_transferred())
            << tw->name() << " batch " << b;
        ASSERT_TRUE(tw->carry() == tg->carry()) << tw->name() << " batch " << b;
      }
      for (size_t i = 0; i < w.sinks.size(); ++i) {
        ASSERT_EQ(level(whole, w.sinks[i]), level(split, g.sinks[i])) << "batch " << b;
      }
      ASSERT_EQ(total(split), opening) << "batch " << b;
      ASSERT_GE(level(split, g.pool), 0) << "batch " << b;
    }
    // The pool's group really was constrained: its drains got well under
    // what they asked for.
    Quantity drained = 0;
    for (ObjectId id : g.pool_taps) {
      drained += split.kernel.LookupTyped<Tap>(id)->total_transferred();
    }
    EXPECT_GT(drained, 0);
    EXPECT_LT(drained, ToQuantity(Energy::Joules(0.1)));
  }
}

// Degenerate geometry: 9 entries split 8 ways gives ranges of size one with
// an uneven tail, and the snap window pushes boundaries around 2-entry
// groups. Unconstrained, so the whole shard is again the exact oracle.
TEST(ShardSplitTest, RangesOfSizeOneMatchUnsplit) {
  auto build = [](Rig& r) {
    Reserve* pool = r.NewReserve("pool");
    pool->Deposit(ToQuantity(Energy::Joules(500.0)));
    // Three hubs with 2-3 taps each: group runs of 2-3 entries, 9 plan
    // entries total.
    for (int h = 0; h < 3; ++h) {
      Reserve* hub = r.NewReserve("hub" + std::to_string(h));
      hub->Deposit(ToQuantity(Energy::Joules(50.0)));
      for (int l = 0; l < 2 + (h % 2); ++l) {
        Reserve* leaf = r.NewReserve("leaf" + std::to_string(h) + "_" + std::to_string(l));
        r.NewTap(hub->id(), leaf->id(), "t" + std::to_string(h) + "_" + std::to_string(l))
            ->SetConstantPower(Power::Milliwatts(2 + h + l));
      }
      r.NewTap(pool->id(), hub->id(), "feed" + std::to_string(h))
          ->SetConstantPower(Power::Milliwatts(1));
    }
  };
  Rig unsplit;
  build(unsplit);
  unsplit.RunBatches(1500);

  for (int workers : {0, 4}) {
    std::unique_ptr<ShardExecutor> exec;
    if (workers > 0) {
      exec = std::make_unique<ShardExecutor>(workers);
    }
    Rig split(exec.get(), /*split_min=*/2, /*split_ranges=*/8);
    build(split);
    split.RunBatches(1500);
    EXPECT_GT(split.engine->shard_stats()[split.BiggestShard()].ranges, 1u);
    ExpectIdenticalState(unsplit, split, "workers=" + std::to_string(workers));
  }
}

// The threshold is per shard: in a fleet with one giant component and several
// small ones, only the giant splits, and the whole fleet still matches the
// same fleet run as one whole shard exactly (everything is kept
// unconstrained).
TEST(ShardSplitTest, ThresholdSplitsOnlyOversizedShards) {
  auto build = [](Rig& r) {
    r.BuildFanOut(64, 9000.0);  // The giant.
    for (int p = 0; p < 4; ++p) {
      const std::string prefix = "phone" + std::to_string(p);
      Reserve* pool = r.NewReserve(prefix + "/pool");
      pool->Deposit(ToQuantity(Energy::Joules(200.0)));
      r.Bridge(pool);
      for (int i = 0; i < 4; ++i) {
        Reserve* app = r.NewReserve(prefix + "/app" + std::to_string(i));
        r.NewTap(pool->id(), app->id(), prefix + "/t" + std::to_string(i))
            ->SetConstantPower(Power::Milliwatts(3 + i + p));
      }
    }
  };
  Rig unsplit(nullptr, /*split_min=*/0, /*split_ranges=*/8, /*one_shard_reference=*/true);
  build(unsplit);
  unsplit.RunBatches(1200);
  ASSERT_EQ(unsplit.engine->shard_count(), 1u);

  ShardExecutor exec(4);
  Rig split(&exec, /*split_min=*/32, /*split_ranges=*/4);
  build(split);
  split.RunBatches(1200);

  ASSERT_EQ(split.engine->shard_count(), 5u);
  const auto& stats = split.engine->shard_stats();
  int split_shards = 0;
  for (const auto& s : stats) {
    if (s.ranges > 1) {
      ++split_shards;
      EXPECT_GE(s.taps, 32u);
    }
  }
  EXPECT_EQ(split_shards, 1) << "only the giant component crosses the threshold";
  ExpectIdenticalState(unsplit, split, "mixed fleet");
}

// Mid-run mutations move a component across the threshold in both
// directions; every rebuild must recompute the split geometry and stay in
// lock-step with the serial reference.
TEST(ShardSplitTest, MidRunMutationRecomputesSplits) {
  auto grow = [](Rig& r, int from, int to) {
    const auto& reserves = r.kernel.ObjectsOfType(ObjectType::kReserve);
    const ObjectId pool = reserves[1];  // First after the battery.
    for (int i = from; i < to; ++i) {
      Reserve* s = r.NewReserve("extra" + std::to_string(i));
      r.NewTap(pool, s->id(), "xt" + std::to_string(i))
          ->SetConstantPower(Power::Milliwatts(1 + i % 5));
    }
  };
  auto shrink = [](Rig& r, int n) {
    const auto& taps = r.kernel.ObjectsOfType(ObjectType::kTap);
    ASSERT_GE(static_cast<int>(taps.size()), n);
    std::vector<ObjectId> doomed(taps.end() - n, taps.end());
    for (ObjectId id : doomed) {
      ASSERT_EQ(r.kernel.Delete(id), Status::kOk);
    }
  };

  ShardExecutor exec(4);
  Rig reference(nullptr, /*split_min=*/32, /*split_ranges=*/4);
  Rig split(&exec, /*split_min=*/32, /*split_ranges=*/4);
  for (Rig* r : {&reference, &split}) {
    r->BuildFanOut(16, 9000.0);
  }
  reference.RunBatches(500);
  split.RunBatches(500);
  EXPECT_EQ(split.engine->shard_stats()[split.BiggestShard()].ranges, 1u);

  grow(reference, 0, 48);
  grow(split, 0, 48);
  reference.RunBatches(500);
  split.RunBatches(500);
  EXPECT_EQ(split.engine->shard_stats()[split.BiggestShard()].ranges, 4u);

  shrink(reference, 40);
  shrink(split, 40);
  reference.RunBatches(500);
  split.RunBatches(500);
  EXPECT_EQ(split.engine->shard_stats()[split.BiggestShard()].ranges, 1u);
  ExpectIdenticalState(reference, split, "after grow + shrink");
}

// Splitting off (threshold 0 or ranges < 2) must leave the PR-3 whole-shard
// path byte-for-byte: ranges stays 1 and the whole-shard golden holds.
TEST(ShardSplitTest, SplitDisabledKeepsWholeShardPath) {
  Rig unsplit;
  unsplit.BuildFanOut(64, 9000.0);
  unsplit.RunBatches(800);
  for (uint32_t ranges : {8u, 1u}) {
    ShardExecutor exec(4);
    const uint32_t min_entries = ranges == 1 ? 16 : 0;
    Rig off(&exec, min_entries, ranges);
    off.BuildFanOut(64, 9000.0);
    off.RunBatches(800);
    EXPECT_EQ(off.engine->shard_stats()[off.BiggestShard()].ranges, 1u);
    ExpectIdenticalState(unsplit, off, "ranges=" + std::to_string(ranges));
  }
}

}  // namespace
}  // namespace cinder
