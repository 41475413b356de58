// Incremental re-plan: when whole components leave and new ones join, the
// tap engine retires and appends shards in place instead of rebuilding the
// plan. The bar is the full rebuild itself: a twin engine that invalidates
// its plan before every batch (so every batch rebuilds in full) must hold
// bit-identical state after every batch, through seeded churn scripts that
// mix the update path with every trigger of the full one. Named cases pin
// which path each kind of change takes, and that the telemetry stream stays
// exact with retired shards in the plan.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/tap_engine.h"
#include "src/exec/shard_executor.h"
#include "src/sim/simulator.h"
#include "src/telemetry/file_stream_sink.h"
#include "src/telemetry/health_monitor.h"
#include "src/telemetry/live_aggregator.h"
#include "src/telemetry/trace_domain.h"
#include "src/telemetry/trace_reader.h"

namespace cinder {
namespace {

constexpr uint32_t kSplitMin = 256;

// One kernel + engine. Every builder takes its parameters from a serial, so
// two rigs fed the same calls hold object-for-object identical state.
struct ReplanRig {
  Kernel kernel;
  std::unique_ptr<TapEngine> engine;
  ObjectId battery = kInvalidObjectId;
  std::vector<ObjectId> phones;  // Containers: one phone each.
  std::vector<ObjectId> strays;  // Tap-less hoards in the root container.
  ObjectId late_tap = kInvalidObjectId;

  ReplanRig(ShardExecutor* executor, bool to_root) {
    Reserve* b = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "battery");
    b->set_decay_exempt(true);
    b->Deposit(ToQuantity(Energy::Joules(50000.0)));
    battery = b->id();
    engine = std::make_unique<TapEngine>(&kernel, battery);
    engine->decay().enabled = true;
    engine->decay().half_life = Duration::Seconds(40);
    engine->decay().to_shard_root = to_root;
    engine->split().min_entries = kSplitMin;
    engine->EnableSharding(executor);
  }

  Reserve* NewReserve(ObjectId home, const std::string& name,
                      ResourceKind kind = ResourceKind::kEnergy) {
    return kernel.Create<Reserve>(home, Label(Level::k1), name, kind);
  }
  Tap* NewTap(ObjectId home, ObjectId src, ObjectId dst, const std::string& name,
              bool reg = true) {
    Tap* t = kernel.Create<Tap>(home, Label(Level::k1), name, src, dst);
    if (reg) {
      EXPECT_TRUE(engine->Register(t->id()));
    }
    return t;
  }

  // The fleet phone: a pool feeding a constant foreground and a proportional
  // background reserve, plus a backward tap, all in one container. Some
  // pools are nearly dry (a constrained demand group), some background
  // feeds are disabled, some phones own a stray hoard, and some a
  // non-energy pair with its own tap (a second component in the container).
  // `plain` phones own neither.
  void AddPhone(uint64_t serial, bool plain = false) {
    Rng rng(serial * 7919 + 13);
    const std::string p = "phone" + std::to_string(serial);
    const ObjectId home =
        kernel.Create<Container>(kernel.root_container_id(), Label(Level::k1), p)->id();
    Reserve* pool = NewReserve(home, p + "/pool");
    pool->Deposit(rng.Bernoulli(0.15) ? 400000
                                      : ToQuantity(Energy::Joules(rng.UniformRange(5.0, 40.0))));
    Reserve* fg = NewReserve(home, p + "/fg");
    Reserve* bg = NewReserve(home, p + "/bg");
    if (rng.Bernoulli(0.3)) {
      bg->Deposit(ToQuantity(Energy::Joules(rng.UniformRange(0.1, 2.0))));
    }
    NewTap(home, pool->id(), fg->id(), p + "/feed_fg")
        ->SetConstantPower(Power::Milliwatts(rng.UniformInt(40, 300)));
    Tap* feed_bg = NewTap(home, pool->id(), bg->id(), p + "/feed_bg");
    feed_bg->SetProportionalRate(rng.UniformRange(0.001, 0.01));
    feed_bg->set_enabled(!rng.Bernoulli(0.2));
    NewTap(home, fg->id(), pool->id(), p + "/back")->SetProportionalRate(0.1);
    if (rng.Bernoulli(0.3) && !plain) {
      NewReserve(home, p + "/hoard")
          ->Deposit(ToQuantity(Energy::Joules(rng.UniformRange(0.2, 3.0))));
    }
    if (rng.Bernoulli(0.25) && !plain) {
      Reserve* quota = NewReserve(home, p + "/quota", ResourceKind::kNetBytes);
      quota->Deposit(1 << 20);
      Reserve* use = NewReserve(home, p + "/use", ResourceKind::kNetBytes);
      NewTap(home, quota->id(), use->id(), p + "/net")->SetConstantRate(4096);
    }
    phones.push_back(home);
  }

  void DeletePhone(size_t i) {
    ASSERT_EQ(kernel.Delete(phones[i]), Status::kOk);
    phones.erase(phones.begin() + static_cast<std::ptrdiff_t>(i));
  }

  void AddStray(uint64_t serial) {
    Reserve* r = NewReserve(kernel.root_container_id(), "stray" + std::to_string(serial));
    r->Deposit(ToQuantity(Energy::Joules(0.5 + static_cast<double>(serial % 7))));
    strays.push_back(r->id());
  }
  void DeleteStray(size_t i) {
    ASSERT_EQ(kernel.Delete(strays[i]), Status::kOk);
    strays.erase(strays.begin() + static_cast<std::ptrdiff_t>(i));
  }

  // -- Changes only a full rebuild absorbs ---------------------------------------
  // A partial delete: one phone loses its backward tap.
  void DropBackTap(size_t i) {
    const std::vector<ObjectId> children =
        kernel.LookupTyped<Container>(phones[i])->children();
    for (ObjectId id : children) {
      const Tap* t = kernel.LookupTyped<Tap>(id);
      if (t != nullptr && t->name().ends_with("/back")) {
        ASSERT_EQ(kernel.Delete(id), Status::kOk);
        return;
      }
    }
  }
  // The phone's pool, or a star's hub (AddStar's components are phones
  // too).
  ObjectId PoolOf(size_t i) {
    for (ObjectId id : kernel.LookupTyped<Container>(phones[i])->children()) {
      const Reserve* r = kernel.LookupTyped<Reserve>(id);
      if (r != nullptr && (r->name().ends_with("/pool") || r->name().ends_with("/hub"))) {
        return id;
      }
    }
    return kInvalidObjectId;
  }
  // A new tap between two existing phones: merges their components.
  void Bridge(size_t i, size_t j) {
    NewTap(phones[i], PoolOf(i), PoolOf(j), "bridge")->SetConstantPower(Power::Milliwatts(5));
  }
  // A relabel with the same label: nothing may flow differently, but the
  // access epoch moves.
  void Relabel(size_t i) { kernel.LookupTyped<Reserve>(PoolOf(i))->set_label(Label(Level::k1)); }
  // A tap created now and registered after the next plan: older than it.
  void CreateLateTap(uint64_t serial) {
    const ObjectId home = kernel.root_container_id();
    Reserve* a = NewReserve(home, "late_a" + std::to_string(serial));
    a->Deposit(ToQuantity(Energy::Joules(3.0)));
    Reserve* b = NewReserve(home, "late_b" + std::to_string(serial));
    Tap* t = NewTap(home, a->id(), b->id(), "late", /*reg=*/false);
    t->SetConstantPower(Power::Milliwatts(20));
    late_tap = t->id();
  }
  void RegisterLateTap() { EXPECT_TRUE(engine->Register(late_tap)); }
  // A component past the split threshold.
  void AddStar(uint64_t serial, int leaves) {
    const std::string p = "star" + std::to_string(serial);
    const ObjectId home =
        kernel.Create<Container>(kernel.root_container_id(), Label(Level::k1), p)->id();
    Reserve* hub = NewReserve(home, p + "/hub");
    hub->Deposit(ToQuantity(Energy::Joules(500.0)));
    for (int i = 0; i < leaves; ++i) {
      NewTap(home, hub->id(), NewReserve(home, p + "/leaf")->id(), p + "/t")
          ->SetConstantPower(Power::Milliwatts(1 + i % 7));
    }
    phones.push_back(home);
  }

  void Batch(Duration dt) { engine->RunBatch(dt); }
};

// Bit-exact: == on the doubles. The claim is identical bits, not closeness.
void ExpectIdenticalState(ReplanRig& want, ReplanRig& got, const std::string& label) {
  SCOPED_TRACE(label);
  const auto& want_reserves = want.kernel.ObjectsOfType(ObjectType::kReserve);
  const auto& got_reserves = got.kernel.ObjectsOfType(ObjectType::kReserve);
  ASSERT_EQ(want_reserves.size(), got_reserves.size());
  for (size_t i = 0; i < want_reserves.size(); ++i) {
    ASSERT_EQ(want_reserves[i], got_reserves[i]);
    const Reserve* rw = want.kernel.LookupTyped<Reserve>(want_reserves[i]);
    const Reserve* rg = got.kernel.LookupTyped<Reserve>(got_reserves[i]);
    ASSERT_EQ(rw->level(), rg->level()) << rw->name();
    ASSERT_EQ(rw->total_deposited(), rg->total_deposited()) << rw->name();
    ASSERT_EQ(rw->total_consumed(), rg->total_consumed()) << rw->name();
    ASSERT_TRUE(rw->decay_carry() == rg->decay_carry()) << rw->name();
  }
  const auto& want_taps = want.kernel.ObjectsOfType(ObjectType::kTap);
  const auto& got_taps = got.kernel.ObjectsOfType(ObjectType::kTap);
  ASSERT_EQ(want_taps.size(), got_taps.size());
  for (size_t i = 0; i < want_taps.size(); ++i) {
    const Tap* tw = want.kernel.LookupTyped<Tap>(want_taps[i]);
    const Tap* tg = got.kernel.LookupTyped<Tap>(got_taps[i]);
    ASSERT_EQ(tw->total_transferred(), tg->total_transferred()) << tw->name();
    ASSERT_TRUE(tw->carry() == tg->carry()) << tw->name();
  }
  ASSERT_EQ(want.engine->total_tap_flow(), got.engine->total_tap_flow());
  ASSERT_EQ(want.engine->total_decay_flow(), got.engine->total_decay_flow());
}

// -- Which path each change takes ---------------------------------------------------

// A rig past its first churn: the initial plan has no headroom, so the
// first topology change rebuilds in full and reserves it.
std::unique_ptr<ReplanRig> ChurnedRig(int phones = 60, bool plain = false) {
  auto rig = std::make_unique<ReplanRig>(nullptr, /*to_root=*/true);
  for (int p = 0; p < phones; ++p) {
    rig->AddPhone(static_cast<uint64_t>(p), plain);
  }
  rig->Batch(Duration::Millis(10));
  rig->DeletePhone(3);
  rig->AddPhone(1000, plain);
  rig->Batch(Duration::Millis(10));
  EXPECT_EQ(rig->engine->full_rebuilds(), 2u);
  EXPECT_EQ(rig->engine->plan_updates(), 0u);
  return rig;
}

// Applies `change` and one batch; returns (full rebuilds, updates) it added.
template <typename F>
std::pair<uint64_t, uint64_t> PathsTaken(ReplanRig& rig, F change) {
  const uint64_t full = rig.engine->full_rebuilds();
  const uint64_t updates = rig.engine->plan_updates();
  change();
  rig.Batch(Duration::Millis(10));
  return {rig.engine->full_rebuilds() - full, rig.engine->plan_updates() - updates};
}

using Paths = std::pair<uint64_t, uint64_t>;
const Paths kFull{1, 0};
const Paths kUpdate{0, 1};

TEST(ShardReplanTest, WholePhoneSwapUpdatesInPlace) {
  auto rig = ChurnedRig();
  const uint32_t shards = rig->engine->shard_count();
  EXPECT_EQ(PathsTaken(*rig, [&] {
              rig->DeletePhone(10);
              rig->AddPhone(2000);
            }),
            kUpdate);
  // The departed phone's shard is a tombstone; the new one is appended.
  EXPECT_GT(rig->engine->shard_count(), shards);
  uint32_t retired = 0;
  for (uint32_t s = 0; s < rig->engine->shard_count(); ++s) {
    if (!rig->engine->shard_live(s)) {
      ++retired;
      EXPECT_EQ(rig->engine->shard_stats()[s].taps, 0u);
    }
  }
  EXPECT_GE(retired, 1u);
  // A stray joining rides along (it joins the tail shard); one leaving
  // rebuilds in full, since it sits in whichever live shard hosts it.
  EXPECT_EQ(PathsTaken(*rig, [&] { rig->AddStray(1); }), kUpdate);
  EXPECT_EQ(PathsTaken(*rig, [&] { rig->DeleteStray(0); }), kFull);
}

TEST(ShardReplanTest, ObjectsOutsideThePlanOnlyRestampIt) {
  auto rig = ChurnedRig();
  EXPECT_EQ(PathsTaken(*rig,
                       [&] {
                         Thread* t = rig->kernel.Create<Thread>(rig->kernel.root_container_id(),
                                                                Label(Level::k1), "t");
                         ASSERT_EQ(rig->kernel.Delete(t->id()), Status::kOk);
                       }),
            kUpdate);
}

TEST(ShardReplanTest, PartialDeleteRebuildsInFull) {
  auto rig = ChurnedRig();
  EXPECT_EQ(PathsTaken(*rig, [&] { rig->DropBackTap(5); }), kFull);
}

TEST(ShardReplanTest, TapMergingComponentsRebuildsInFull) {
  auto rig = ChurnedRig();
  EXPECT_EQ(PathsTaken(*rig, [&] { rig->Bridge(4, 9); }), kFull);
}

TEST(ShardReplanTest, RelabelRebuildsInFull) {
  auto rig = ChurnedRig();
  EXPECT_EQ(PathsTaken(*rig, [&] { rig->Relabel(7); }), kFull);
}

TEST(ShardReplanTest, RegisteringATapOlderThanThePlanRebuildsInFull) {
  auto rig = ChurnedRig();
  EXPECT_EQ(PathsTaken(*rig, [&] { rig->CreateLateTap(1); }), kUpdate);
  EXPECT_EQ(PathsTaken(*rig, [&] { rig->RegisterLateTap(); }), kFull);
}

TEST(ShardReplanTest, SplitSizeComponentJoiningRebuildsInFull) {
  auto rig = ChurnedRig();
  EXPECT_EQ(PathsTaken(*rig, [&] { rig->AddStar(1, kSplitMin + 8); }), kFull);
  // Retiring it is a full rebuild too: split shards own range tables.
  EXPECT_EQ(PathsTaken(*rig, [&] { rig->DeletePhone(rig->phones.size() - 1); }), kFull);
}

TEST(ShardReplanTest, ExhaustedHeadroomRebuildsInFull) {
  // Plain phones: the one that leaves below owns no stray.
  auto rig = ChurnedRig(60, /*plain=*/true);
  // The spare room holds at least kUnitEntries slots; 600 phones of three
  // or more reserves do not fit, and the fallback compacts.
  EXPECT_EQ(PathsTaken(*rig,
                       [&] {
                         for (int p = 0; p < 600; ++p) {
                           rig->AddPhone(3000 + static_cast<uint64_t>(p));
                         }
                       }),
            kFull);
  EXPECT_EQ(PathsTaken(*rig, [&] {
              rig->DeletePhone(0);
              rig->AddPhone(5000);
            }),
            kUpdate);
}

TEST(ShardReplanTest, ConfigChangesRebuildInFull) {
  auto rig = ChurnedRig();
  EXPECT_EQ(PathsTaken(*rig,
                       [&] {
                         rig->engine->split().ranges = 4;
                         rig->AddPhone(2001);
                       }),
            kFull);
  TelemetryConfig tcfg;
  tcfg.enabled = true;
  TraceDomain domain(tcfg);
  EXPECT_EQ(PathsTaken(*rig,
                       [&] {
                         rig->engine->set_telemetry(&domain);
                         rig->AddPhone(2002);
                       }),
            kFull);
  rig->engine->set_telemetry(nullptr);
  rig->Batch(Duration::Millis(10));
  rig->engine->DisableSharding();
  EXPECT_EQ(PathsTaken(*rig, [&] { rig->AddPhone(2003); }), kFull);
  EXPECT_EQ(PathsTaken(*rig, [&] { rig->AddPhone(2004); }), kFull);
}

// -- Telemetry with tombstones ---------------------------------------------------------

TEST(ShardReplanTest, UpdateWritesPlanRowsOnlyForChangedShards) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.spill_grow = true;
  TraceDomain domain(cfg);
  auto rig = ChurnedRig(30, /*plain=*/true);
  rig->engine->set_telemetry(&domain);
  rig->Batch(Duration::Millis(10));  // Full rebuild: a row per shard.
  const size_t before = domain.spill_size();
  const uint64_t updates = rig->engine->plan_updates();
  rig->DeletePhone(2);
  rig->AddPhone(7000, /*plain=*/true);
  rig->Batch(Duration::Millis(10));
  ASSERT_EQ(rig->engine->plan_updates(), updates + 1);
  domain.FlushFrame();
  TraceReader reader = TraceReader::FromDomain(domain);
  std::vector<TraceRecord> rows;
  uint32_t retired_batches = 0;
  const auto& records = reader.records();
  for (size_t i = before; i < records.size(); ++i) {
    const TraceRecord& r = records[i];
    if (r.kind == static_cast<uint8_t>(RecordKind::kPlanShard)) {
      rows.push_back(r);
    } else if (r.kind == static_cast<uint8_t>(RecordKind::kShardBatch) &&
               !rig->engine->shard_live(r.actor)) {
      ++retired_batches;
    }
  }
  // The departed phone's shard (taps 0) and the appended one: two rows, not
  // one per shard.
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_FALSE(rig->engine->shard_live(rows[0].actor));
  EXPECT_EQ(rows[0].v0, 0);
  EXPECT_TRUE(rig->engine->shard_live(rows[1].actor));
  EXPECT_EQ(rows[1].actor, rig->engine->shard_count() - 1);
  EXPECT_GT(rows[1].v0, 0);
  EXPECT_EQ(retired_batches, 0u) << "a retired shard reported a batch";
}

void ExpectSameFlows(const std::vector<ShardFlow>& a, const std::vector<ShardFlow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].shard, b[i].shard);
    EXPECT_EQ(a[i].taps, b[i].taps) << "shard " << a[i].shard;
    EXPECT_EQ(a[i].decay_reserves, b[i].decay_reserves) << "shard " << a[i].shard;
    EXPECT_EQ(a[i].ranges, b[i].ranges) << "shard " << a[i].shard;
    EXPECT_EQ(a[i].batches, b[i].batches) << "shard " << a[i].shard;
    EXPECT_EQ(a[i].tap_flow, b[i].tap_flow) << "shard " << a[i].shard;
    EXPECT_EQ(a[i].decay_flow, b[i].decay_flow) << "shard " << a[i].shard;
  }
}

TEST(ShardReplanTest, ChurnedFleetStreamsExactlyWithoutAlarms) {
  for (int workers : {0, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const std::string path =
        ::testing::TempDir() + "/replan_churn_w" + std::to_string(workers) + ".trc";
    LiveAggregator agg;
    HealthMonitor monitor;
    agg.set_monitor(&monitor);
    FileStreamSink file;
    ASSERT_TRUE(file.Open(path));
    SimConfig cfg;
    cfg.decay_half_life = Duration::Minutes(2);
    cfg.exec.tap_workers = workers;
    cfg.exec.decay_to_shard_root = true;
    cfg.telemetry.enabled = true;
    auto sim = std::make_unique<Simulator>(cfg);
    sim->telemetry().AddSink(&agg);
    sim->telemetry().AddSink(&file);
    // examples/fleet-shaped phones, one container each.
    Kernel& kernel = sim->kernel();
    uint64_t serial = 0;
    auto add_phone = [&] {
      const std::string p = "phone" + std::to_string(serial);
      const ObjectId home =
          kernel.Create<Container>(kernel.root_container_id(), Label(Level::k1), p)->id();
      Reserve* pool = kernel.Create<Reserve>(home, Label(Level::k1), p + "/pool");
      pool->Deposit(ToQuantity(Energy::Joules(150.0 + static_cast<double>(serial % 250))));
      Reserve* fg = kernel.Create<Reserve>(home, Label(Level::k1), p + "/fg");
      Reserve* bg = kernel.Create<Reserve>(home, Label(Level::k1), p + "/bg");
      Tap* a = kernel.Create<Tap>(home, Label(Level::k1), p + "/feed_fg", pool->id(), fg->id());
      a->SetConstantPower(Power::Milliwatts(150 + static_cast<int64_t>(serial % 300)));
      EXPECT_TRUE(sim->taps().Register(a->id()));
      Tap* b = kernel.Create<Tap>(home, Label(Level::k1), p + "/feed_bg", pool->id(), bg->id());
      b->SetProportionalRate(0.002);
      EXPECT_TRUE(sim->taps().Register(b->id()));
      Tap* c = kernel.Create<Tap>(home, Label(Level::k1), p + "/back", fg->id(), pool->id());
      c->SetProportionalRate(0.1);
      EXPECT_TRUE(sim->taps().Register(c->id()));
      ++serial;
      return home;
    };
    std::vector<ObjectId> phones;
    for (int p = 0; p < 400; ++p) {
      phones.push_back(add_phone());
    }
    Rng rng(17);
    sim->Run(Duration::Millis(15));
    for (int i = 0; i < 60; ++i) {
      const size_t v = rng.UniformU64(phones.size());
      ASSERT_EQ(kernel.Delete(phones[v]), Status::kOk);
      phones[v] = add_phone();
      sim->Run(Duration::Millis(10));
    }
    ASSERT_GT(sim->taps().plan_updates(), 50u);
    // Retired shards report nothing more: their batch counts freeze.
    sim->telemetry().FlushFrame();
    const std::vector<ShardFlow> mid = agg.FlowByShard();
    sim->Run(Duration::Millis(50));
    sim->telemetry().FlushFrame();
    const std::vector<ShardFlow> live = agg.FlowByShard();
    ASSERT_EQ(mid.size(), live.size());
    for (size_t i = 0; i < live.size(); ++i) {
      if (!sim->taps().shard_live(live[i].shard)) {
        EXPECT_EQ(live[i].batches, mid[i].batches) << "shard " << live[i].shard;
        EXPECT_EQ(live[i].taps, 0u) << "shard " << live[i].shard;
      } else {
        EXPECT_GT(live[i].batches, mid[i].batches) << "shard " << live[i].shard;
      }
    }
    // Worker loads count the shard-batches that ran: retired shards left in
    // a unit are not among them.
    uint64_t shard_batches = 0;
    for (const ShardFlow& f : live) {
      shard_batches += f.batches;
    }
    uint64_t shard_runs = 0;
    for (const WorkerLoad& w : agg.WorkerLoads()) {
      shard_runs += w.shard_runs;
    }
    EXPECT_EQ(shard_runs, shard_batches);
    EXPECT_EQ(sim->telemetry().ring_dropped(), 0u);
    EXPECT_EQ(monitor.total_alarms(), 0u);
    EXPECT_EQ(agg.TotalTapFlow(), sim->taps().total_tap_flow());
    EXPECT_EQ(agg.TotalDecayFlow(), sim->taps().total_decay_flow());
    sim.reset();  // Detaches the sinks; the file is finalized.

    // The reader folds the file's records the way the live sink did, so
    // equal flows mean the file carries the records the sink saw.
    TraceReader offline;
    std::string error;
    ASSERT_TRUE(TraceReader::LoadFile(path, &offline, &error)) << error;
    ExpectSameFlows(offline.FlowByShard(), live);
  }
}

// -- The differential suite -----------------------------------------------------------

class ShardReplanProperty : public ::testing::TestWithParam<uint64_t> {};

// A seeded script over twin rigs: `fast` takes whatever path UpdatePlan
// picks, `full` invalidates its plan before every batch. Whole phones and
// strays come and go; every few steps one change of a kind only a full
// rebuild absorbs is mixed in.
void RunScript(uint64_t seed, int workers, bool to_root) {
  const std::string label = "seed=" + std::to_string(seed) + " workers=" +
                            std::to_string(workers) + " to_root=" + std::to_string(to_root);
  std::unique_ptr<ShardExecutor> exec_fast;
  std::unique_ptr<ShardExecutor> exec_full;
  if (workers > 0) {
    exec_fast = std::make_unique<ShardExecutor>(workers);
    exec_full = std::make_unique<ShardExecutor>(workers);
  }
  ReplanRig fast(exec_fast.get(), to_root);
  ReplanRig full(exec_full.get(), to_root);
  auto both = [&](auto op) {
    op(fast);
    op(full);
  };
  Rng script(seed);
  uint64_t serial = 0;
  const int phones = 30 + static_cast<int>(script.UniformU64(30));
  for (int p = 0; p < phones; ++p) {
    both([&](ReplanRig& r) { r.AddPhone(serial); });
    ++serial;
  }
  for (int s = 0; s < 4; ++s) {
    both([&](ReplanRig& r) { r.AddStray(serial); });
    ++serial;
  }
  bool late_pending = false;
  for (int step = 0; step < 60; ++step) {
    // The churn shape: phones leave and join, strays come and go.
    const int leave = static_cast<int>(script.UniformU64(3));
    for (int i = 0; i < leave && fast.phones.size() > 2; ++i) {
      const size_t v = script.UniformU64(fast.phones.size());
      both([&](ReplanRig& r) { r.DeletePhone(v); });
    }
    const int join = static_cast<int>(script.UniformU64(3));
    for (int i = 0; i < join; ++i) {
      both([&](ReplanRig& r) { r.AddPhone(serial); });
      ++serial;
    }
    if (script.Bernoulli(0.2)) {
      both([&](ReplanRig& r) { r.AddStray(serial); });
      ++serial;
    }
    if (script.Bernoulli(0.15) && !fast.strays.empty()) {
      const size_t v = script.UniformU64(fast.strays.size());
      both([&](ReplanRig& r) { r.DeleteStray(v); });
    }
    if (late_pending) {
      both([&](ReplanRig& r) { r.RegisterLateTap(); });
      late_pending = false;
    }
    // One fallback trigger every few steps.
    if (step % 5 == 4 && fast.phones.size() > 4) {
      const size_t a = script.UniformU64(fast.phones.size());
      const size_t b = (a + 1 + script.UniformU64(fast.phones.size() - 1)) % fast.phones.size();
      switch (script.UniformU64(6)) {
        case 0:
          both([&](ReplanRig& r) { r.DropBackTap(a); });
          break;
        case 1:
          both([&](ReplanRig& r) { r.Bridge(a, b); });
          break;
        case 2:
          both([&](ReplanRig& r) { r.Relabel(a); });
          break;
        case 3:
          both([&](ReplanRig& r) { r.CreateLateTap(serial); });
          ++serial;
          late_pending = true;
          break;
        case 4:
          both([&](ReplanRig& r) { r.AddStar(serial, static_cast<int>(kSplitMin) + 4); });
          ++serial;
          break;
        default:
          for (int i = 0; i < 120; ++i) {  // Past the headroom.
            both([&](ReplanRig& r) { r.AddPhone(serial); });
            ++serial;
          }
          break;
      }
    }
    const Duration dt = Duration::Millis(5 + static_cast<int64_t>(script.UniformU64(20)));
    for (int b = 0; b < 2; ++b) {
      fast.Batch(dt);
      full.kernel.InvalidateCaches();
      full.Batch(dt);
      ExpectIdenticalState(full, fast, label + " step=" + std::to_string(step));
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
  // Both paths really ran.
  EXPECT_GT(fast.engine->plan_updates(), 10u) << label;
  EXPECT_GT(fast.engine->full_rebuilds(), 3u) << label;
  EXPECT_EQ(full.engine->plan_updates(), 0u) << label;
}

TEST_P(ShardReplanProperty, UpdatesMatchFullRebuildsThroughChurn) {
  for (int workers : {0, 1, 4}) {
    for (bool to_root : {true, false}) {
      RunScript(GetParam(), workers, to_root);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardReplanProperty, ::testing::Values(1, 7, 29, 101, 233));

}  // namespace
}  // namespace cinder
