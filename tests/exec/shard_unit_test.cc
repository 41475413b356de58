// Work units: consecutive small shards run as one executor ticket, with bank
// slices padded only at unit starts. Units decide which thread runs a shard
// and where its slots sit — never a result bit — so the golden bar is the
// usual one: a plan mixing many small phones, one-shard units (rich and poor
// fan-outs, a hub forest) and a deep chain stays bit-identical to the same
// reserves and taps run as one whole shard at every worker count, through
// churn that moves the unit boundaries.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/tap_engine.h"
#include "src/exec/shard_executor.h"
#include "src/telemetry/trace_domain.h"
#include "src/telemetry/trace_reader.h"
#include "tests/exec/one_shard_reference.h"

namespace cinder {
namespace {

// One kernel + engine; a null executor runs the tickets serially in the
// caller. `one_shard` is the reference: a bridge from the battery to every
// component's first reserve joins the whole plan into one shard
// (tests/exec/one_shard_reference.h). The builders are deterministic, so two
// rigs fed the same calls hold the same reserves and registered taps.
struct Rig {
  Kernel kernel;
  std::unique_ptr<TapEngine> engine;
  ObjectId battery = kInvalidObjectId;
  std::vector<std::vector<ObjectId>> phones;  // Taps first, then reserves.
  bool one_shard = false;

  explicit Rig(ShardExecutor* executor = nullptr, bool one_shard_reference = false)
      : one_shard(one_shard_reference) {
    Reserve* b = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "battery");
    b->set_decay_exempt(true);
    b->Deposit(ToQuantity(Energy::Joules(50000.0)));
    battery = b->id();
    engine = std::make_unique<TapEngine>(&kernel, battery);
    engine->decay().enabled = true;
    engine->decay().half_life = Duration::Seconds(30);
    engine->set_executor(executor);
  }

  // Joins `r`'s component to the battery's in the one-shard reference.
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

  // The fleet phone: a pool feeding a constant foreground and a proportional
  // background reserve, plus a backward tap. Every seventh phone's pool is
  // nearly dry, so its group is constrained; every tenth also owns a
  // tap-less hoard the decay pass alone touches (a stray).
  void AddPhone(int p) {
    const std::string prefix = "phone" + std::to_string(p);
    Reserve* pool = NewReserve(prefix + "/pool");
    pool->Deposit(ToQuantity(Energy::Joules(p % 7 == 0 ? 0.0004 : 20.0 + p % 13)));
    Bridge(pool);
    Reserve* fg = NewReserve(prefix + "/fg");
    Reserve* bg = NewReserve(prefix + "/bg");
    std::vector<ObjectId> ids;
    Tap* feed_fg = NewTap(pool->id(), fg->id(), prefix + "/feed_fg");
    feed_fg->SetConstantPower(Power::Milliwatts(60 + 11 * (p % 9)));
    Tap* feed_bg = NewTap(pool->id(), bg->id(), prefix + "/feed_bg");
    feed_bg->SetProportionalRate(0.002 + 0.0005 * (p % 5));
    Tap* back = NewTap(fg->id(), pool->id(), prefix + "/back");
    back->SetProportionalRate(0.1);
    if (p % 11 == 0) {
      feed_bg->set_enabled(false);
    }
    ids = {feed_fg->id(), feed_bg->id(), back->id(), pool->id(), fg->id(), bg->id()};
    if (p % 10 == 0) {
      Reserve* hoard = NewReserve(prefix + "/hoard");
      hoard->Deposit(ToQuantity(Energy::Joules(0.5 + 0.01 * p)));
      ids.push_back(hoard->id());
    }
    phones.push_back(ids);
  }

  void DeletePhone(size_t i) {
    for (ObjectId id : phones[i]) {
      ASSERT_EQ(kernel.Delete(id), Status::kOk);
    }
    phones.erase(phones.begin() + static_cast<std::ptrdiff_t>(i));
  }

  // A hub fanning out to `leaves` sinks: one demand group, unconstrained
  // when the hub is rich and constrained every batch when it is poor. Every
  // seventeenth tap is disabled.
  void AddStar(const std::string& name, int leaves, double hub_joules = 9000.0) {
    Reserve* hub = NewReserve(name + "/hub");
    hub->Deposit(ToQuantity(Energy::Joules(hub_joules)));
    Bridge(hub);
    for (int i = 0; i < leaves; ++i) {
      Reserve* leaf = NewReserve(name + "/s" + std::to_string(i));
      Tap* t = NewTap(hub->id(), leaf->id(), name + "/t" + std::to_string(i));
      t->SetConstantPower(Power::Milliwatts(1 + (i * 3) % 11));
      t->set_enabled(i % 17 != 16);
    }
  }

  // One component with many small groups: a rich pool feeds `hubs` hubs;
  // each hub feeds `leaves` leaves (constant and proportional taps mixed,
  // some disabled) and every other hub taps back into the pool. Every third
  // hub is poor, so its group is constrained from the first batch; the rest
  // drift between unconstrained and constrained as feeds and drains fight.
  void AddForest(int hubs, int leaves) {
    Reserve* pool = NewReserve("forest/pool");
    pool->Deposit(ToQuantity(Energy::Joules(2000.0)));
    Bridge(pool);
    for (int h = 0; h < hubs; ++h) {
      const std::string hp = "forest/hub" + std::to_string(h);
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
        t->set_enabled((h * 31 + l) % 11 != 0);
      }
      if (h % 2 == 0) {
        NewTap(hub->id(), pool->id(), hp + "/back")->SetProportionalRate(0.03);
      }
    }
  }

  // A charged chain: one deep component whose demand groups each hold a
  // single tap, sharing a unit with the phones around it.
  void AddChain(int depth) {
    Reserve* prev = NewReserve("chain/head");
    prev->Deposit(ToQuantity(Energy::Joules(4000.0)));
    Bridge(prev);
    for (int i = 0; i < depth; ++i) {
      Reserve* n = NewReserve("chain/n" + std::to_string(i));
      n->Deposit(ToQuantity(Energy::Joules(3.0 + (i % 7))));
      NewTap(prev->id(), n->id(), "chain/c" + std::to_string(i))
          ->SetConstantPower(Power::Milliwatts(1 + (i * 5) % 17));
      prev = n;
    }
  }

  // ~300 small phones with one-shard units (stars just over and well past
  // kUnitEntries), a poor star and a hub forest (weighing less, so they
  // share a unit with phones) and a deep chain in between.
  void BuildGoldenPlan() {
    int p = 0;
    for (; p < 120; ++p) {
      AddPhone(p);
    }
    AddStar("giant", 1600);
    AddStar("poor", 96, /*hub_joules=*/0.004);
    AddForest(16, 6);
    for (; p < 240; ++p) {
      AddPhone(p);
    }
    AddStar("big", 520);  // 520 edges + 521 reserves: a unit of one.
    for (; p < 280; ++p) {
      AddPhone(p);
    }
    AddChain(120);
    for (; p < 300; ++p) {
      AddPhone(p);
    }
  }

  void RunBatches(int n) {
    for (int i = 0; i < n; ++i) {
      engine->RunBatch(Duration::Millis(10));
    }
  }

  std::vector<uint32_t> UnitStarts() const {
    std::vector<uint32_t> starts;
    for (uint32_t u = 0; u < engine->unit_count(); ++u) {
      starts.push_back(engine->unit_first_shard(u));
    }
    return starts;
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
    ASSERT_EQ(rw->level(), rg->level()) << rw->name();
    ASSERT_EQ(rw->total_deposited(), rg->total_deposited()) << rw->name();
    ASSERT_EQ(rw->total_consumed(), rg->total_consumed()) << rw->name();
    ASSERT_TRUE(rw->decay_carry() == rg->decay_carry()) << rw->name();
  }
  const std::vector<ObjectId> want_taps = RegisteredTaps(want.kernel, *want.engine);
  const std::vector<ObjectId> got_taps = RegisteredTaps(got.kernel, *got.engine);
  ASSERT_EQ(want_taps.size(), got_taps.size());
  for (size_t i = 0; i < want_taps.size(); ++i) {
    const Tap* tw = want.kernel.LookupTyped<Tap>(want_taps[i]);
    const Tap* tg = got.kernel.LookupTyped<Tap>(got_taps[i]);
    ASSERT_EQ(tw->name(), tg->name());
    ASSERT_EQ(tw->total_transferred(), tg->total_transferred()) << tw->name();
    ASSERT_TRUE(tw->carry() == tg->carry()) << tw->name();
  }
  EXPECT_EQ(want.engine->total_tap_flow(), got.engine->total_tap_flow());
  EXPECT_EQ(want.engine->total_decay_flow(), got.engine->total_decay_flow());
}

// Churn that moves unit boundaries: retire a run of phones from the first
// unit and one from the middle, then add phones at the end.
void Churn(Rig& r, int round) {
  for (int i = 0; i < 25; ++i) {
    r.DeletePhone(static_cast<size_t>(3 + round));
  }
  r.DeletePhone(r.phones.size() / 2);
  for (int i = 0; i < 40; ++i) {
    r.AddPhone(1000 + 100 * round + i);
  }
}

TEST(ShardUnitTest, GoldenPlanMatchesOneShardThroughChurn) {
  Rig reference(nullptr, /*one_shard_reference=*/true);
  reference.BuildGoldenPlan();
  reference.RunBatches(150);
  Churn(reference, 0);
  reference.RunBatches(150);
  Churn(reference, 1);
  reference.RunBatches(150);
  ASSERT_EQ(reference.engine->shard_count(), 1u);

  std::vector<std::unique_ptr<ShardExecutor>> execs;
  for (int workers : {0, 1, 2, 4, 8}) {
    ShardExecutor* exec = nullptr;
    if (workers > 0) {
      execs.push_back(std::make_unique<ShardExecutor>(workers));
      exec = execs.back().get();
    }
    const std::string label = "workers=" + std::to_string(workers);
    Rig rig(exec);
    rig.BuildGoldenPlan();
    rig.RunBatches(150);
    // The plan really mixes both unit kinds: many-phone units, and each big
    // star alone.
    const TapEngine& e = *rig.engine;
    ASSERT_GE(e.unit_count(), 5u) << label;
    uint32_t many = 0;
    uint32_t alone = 0;
    for (uint32_t u = 0; u < e.unit_count(); ++u) {
      const uint32_t first = e.unit_first_shard(u);
      const uint32_t end = u + 1 < e.unit_count() ? e.unit_first_shard(u + 1) : e.shard_count();
      many += end - first > 50 ? 1 : 0;
      for (uint32_t s = first; s < end; ++s) {
        const uint32_t taps = e.shard_stats()[s].taps;
        if (taps == 520 || taps == 1600) {
          EXPECT_EQ(end - first, 1u) << label << ": the " << taps << "-leaf star runs alone";
          ++alone;
        }
      }
    }
    EXPECT_GE(many, 2u) << label;
    EXPECT_EQ(alone, 2u) << label;
    const std::vector<uint32_t> before = rig.UnitStarts();

    Churn(rig, 0);
    rig.RunBatches(150);
    EXPECT_NE(rig.UnitStarts(), before) << label << ": churn must move unit boundaries";
    // Both rounds rebuild in full: the first because the plan has no
    // headroom yet, the second because its departing phones include hoard
    // owners, and a deleted stray sits in whichever shard hosts it
    // (ShardReplanProperty covers the in-place path against full rebuilds).
    const uint64_t full_rebuilds = rig.engine->full_rebuilds();
    const uint64_t updates = rig.engine->plan_updates();
    Churn(rig, 1);
    rig.RunBatches(150);
    EXPECT_EQ(rig.engine->full_rebuilds(), full_rebuilds + 1) << label;
    EXPECT_EQ(rig.engine->plan_updates(), updates) << label;
    ExpectIdenticalState(reference, rig, label);
  }
}

TEST(ShardUnitTest, UnitsCloseAtTheEntryThresholdAndBigShardsStandAlone) {
  Rig rig;
  // A phone weighs 3 edges + 3 reserves = 6, so a unit closes after 171
  // phones (1026 >= kUnitEntries).
  static_assert(TapEngine::kUnitEntries == 1024, "the layout below assumes 1024");
  for (int p = 0; p < 200; ++p) {
    rig.AddPhone(p * 10 + 1);  // No strays: p*10+1 is never a multiple of 10.
  }
  rig.AddStar("big", 600);  // Closes the open unit, then stands alone.
  for (int p = 200; p < 400; ++p) {
    rig.AddPhone(p * 10 + 1);
  }
  rig.RunBatches(1);
  ASSERT_EQ(rig.engine->shard_count(), 401u);
  EXPECT_EQ(rig.UnitStarts(), (std::vector<uint32_t>{0, 171, 200, 201, 372}));
}

TEST(ShardUnitTest, ExecutorOrderIsLargestUnitFirst) {
  // Serial tickets run in table order, and each unit writes one timing
  // record, so the frame's first kShardTiming names the first unit
  // dispatched: the one holding the largest component, though it sits in
  // the middle of the shard order.
  TelemetryConfig cfg;
  cfg.enabled = true;
  TraceDomain domain(cfg);
  Rig rig;
  rig.engine->set_telemetry(&domain);
  for (int p = 0; p < 200; ++p) {
    rig.AddPhone(p * 10 + 1);
  }
  rig.AddStar("big", 600);
  for (int p = 200; p < 300; ++p) {
    rig.AddPhone(p * 10 + 1);
  }
  rig.RunBatches(1);
  const uint32_t big = 200;  // Shards number by smallest reserve id.
  ASSERT_EQ(rig.engine->shard_stats()[big].taps, 600u);

  std::vector<TraceRecord> timing;
  TraceReader reader = TraceReader::FromDomain(domain);
  for (const TraceRecord& r : reader.records()) {
    if (r.kind == static_cast<uint8_t>(RecordKind::kShardTiming)) {
      timing.push_back(r);
    }
  }
  ASSERT_EQ(timing.size(), rig.engine->unit_count());
  EXPECT_EQ(timing[0].actor, big);
  EXPECT_EQ(timing[0].v1, 1);
  // Then the full phone unit, before the two partial ones.
  EXPECT_EQ(timing[1].actor, 0u);
  EXPECT_EQ(timing[1].v1, 171);
  uint64_t covered = 0;
  for (const TraceRecord& r : timing) {
    covered += static_cast<uint64_t>(r.v1);
  }
  EXPECT_EQ(covered, rig.engine->shard_count());
}

}  // namespace
}  // namespace cinder
