// Asserts the acceptance criterion that steady-state RunBatch and
// DecayReserves perform zero heap allocations: after the first batch builds
// the cached flow plan, subsequent batches must be pure loops over flat
// arrays. Lives in its own test binary because it interposes the global
// operator new/delete to count allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/core/scheduler.h"
#include "src/core/tap_engine.h"
#include "src/exec/shard_executor.h"
#include "src/telemetry/trace_domain.h"

namespace {
// Atomic: sharded batches allocate (or rather, must not) from worker threads.
std::atomic<unsigned long long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cinder {
namespace {

TEST(HotPathAllocTest, SteadyStateBatchAndDecayAreAllocationFree) {
  Kernel k;
  Reserve* battery = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "battery");
  battery->set_decay_exempt(true);
  battery->Deposit(INT64_MAX / 2);
  TapEngine engine(&k, battery->id());
  engine.decay().enabled = true;

  // A representative mix: constant and proportional taps, shared sources,
  // plus plain reserves for the decay pass to walk.
  for (int i = 0; i < 64; ++i) {
    Reserve* r = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "r");
    r->Deposit(1000000000);
    Tap* tap =
        k.Create<Tap>(k.root_container_id(), Label(Level::k1), "t", battery->id(), r->id());
    if (i % 2 == 0) {
      tap->SetConstantPower(Power::Milliwatts(1));
    } else {
      tap->SetProportionalRate(0.01);
    }
    ASSERT_TRUE(engine.Register(tap->id()));
  }
  for (int i = 0; i < 32; ++i) {
    k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "hoard")->Deposit(500000000);
  }

  // First batch builds the plan (allocates); from then on: zero.
  engine.RunBatch(Duration::Millis(10));
  const unsigned long long before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    engine.RunBatch(Duration::Millis(10));
  }
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_GT(engine.total_tap_flow(), 0);
  EXPECT_GT(engine.total_decay_flow(), 0);
}

TEST(HotPathAllocTest, DecaySkipListChurnIsAllocationFree) {
  // Reserves that drain to empty and refill mid-epoch bounce on and off the
  // decay skip-list through the listener hook; the list capacity is reserved
  // at plan build, so the churn must never reallocate.
  Kernel k;
  Reserve* battery = k.Create<Reserve>(
      k.root_container_id(), Label(Level::k1), "battery");
  battery->set_decay_exempt(true);
  battery->Deposit(INT64_MAX / 2);
  TapEngine engine(&k, battery->id());
  engine.decay().enabled = true;
  engine.decay().half_life = Duration::Seconds(1);
  std::vector<Reserve*> reserves;
  for (int i = 0; i < 64; ++i) {
    Reserve* r = k.Create<Reserve>(
        k.root_container_id(), Label(Level::k1), "r");
    r->Deposit(1000000);
    reserves.push_back(r);
  }
  engine.RunBatch(Duration::Millis(10));
  const unsigned long long before = g_allocations.load();
  for (int i = 0; i < 500; ++i) {
    // Drain half the reserves to zero, run (prunes them), refill (re-adds).
    for (size_t j = i % 2; j < reserves.size(); j += 2) {
      reserves[j]->Withdraw(reserves[j]->level());
    }
    engine.RunBatch(Duration::Millis(10));
    for (size_t j = i % 2; j < reserves.size(); j += 2) {
      reserves[j]->Deposit(1000000);
    }
    engine.RunBatch(Duration::Millis(10));
  }
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_GT(engine.total_decay_flow(), 0);
}

TEST(HotPathAllocTest, ShardedSteadyStateIsAllocationFree) {
  // Sharded batches on a real worker pool: after the first batch builds the
  // sharded plan (and the pool's threads exist), steady state allocates
  // nothing — on the calling thread or the workers.
  Kernel k;
  Reserve* battery = k.Create<Reserve>(
      k.root_container_id(), Label(Level::k1), "battery");
  battery->set_decay_exempt(true);
  ShardExecutor exec(2);
  TapEngine engine(&k, battery->id());
  engine.set_executor(&exec);
  engine.decay().enabled = true;
  // 128 taps per component: the 8 components fill two work units, so the
  // batches really wake the pool.
  for (int c = 0; c < 8; ++c) {
    Reserve* pool = k.Create<Reserve>(
        k.root_container_id(), Label(Level::k1), "pool");
    pool->Deposit(INT64_MAX / 16);
    for (int i = 0; i < 128; ++i) {
      Reserve* r = k.Create<Reserve>(
          k.root_container_id(), Label(Level::k1), "r");
      Tap* tap = k.Create<Tap>(k.root_container_id(),
                                               Label(Level::k1), "t",
                                               pool->id(), r->id());
      if (i % 2 == 0) {
        tap->SetConstantPower(Power::Milliwatts(1));
      } else {
        tap->SetProportionalRate(0.01);
      }
      ASSERT_TRUE(engine.Register(tap->id()));
    }
  }
  // A ninth component, a third unit: a rich pool feeding 8 hubs (one poor,
  // so its group is constrained and the hub refills from empty, re-adding
  // itself to the decay list mid-batch) which fan out to 4 leaves each, with
  // shared destinations via back-taps into the pool.
  Reserve* pool = k.Create<Reserve>(
      k.root_container_id(), Label(Level::k1), "pool");
  pool->Deposit(INT64_MAX / 16);
  for (int h = 0; h < 8; ++h) {
    Reserve* hub = k.Create<Reserve>(
        k.root_container_id(), Label(Level::k1), "hub");
    if (h != 3) {
      hub->Deposit(INT64_MAX / 64);
    }
    Tap* feed = k.Create<Tap>(k.root_container_id(), Label(Level::k1), "feed",
                              pool->id(), hub->id());
    feed->SetConstantPower(Power::Milliwatts(2));
    ASSERT_TRUE(engine.Register(feed->id()));
    for (int i = 0; i < 4; ++i) {
      Reserve* r = k.Create<Reserve>(
          k.root_container_id(), Label(Level::k1), "r");
      Tap* tap = k.Create<Tap>(k.root_container_id(), Label(Level::k1), "t",
                               hub->id(), i == 0 ? pool->id() : r->id());
      if (i % 2 == 0) {
        tap->SetConstantPower(Power::Milliwatts(1));
      } else {
        tap->SetProportionalRate(0.01);
      }
      ASSERT_TRUE(engine.Register(tap->id()));
    }
  }
  // Warm up: plan build plus a few pooled batches (first wake of a worker
  // thread may lazily allocate inside the runtime).
  for (int i = 0; i < 10; ++i) {
    engine.RunBatch(Duration::Millis(10));
  }
  ASSERT_EQ(engine.shard_count(), 9u);
  ASSERT_EQ(engine.unit_count(), 3u);
  const unsigned long long before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    engine.RunBatch(Duration::Millis(10));
  }
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_GT(engine.total_tap_flow(), 0);
  EXPECT_GT(engine.total_decay_flow(), 0);
}

TEST(HotPathAllocTest, TelemetryShardedSteadyStateIsAllocationFree) {
  // The telemetry acceptance bar: with every record kind enabled and the
  // ring/spill deliberately undersized — so steady state continually takes
  // the overwrite-oldest and drop-oldest paths — a pooled batch still
  // allocates nothing after warmup. Records are lost (and counted), never
  // bought with allocation.
  Kernel k;
  Reserve* battery = k.Create<Reserve>(
      k.root_container_id(), Label(Level::k1), "battery");
  battery->set_decay_exempt(true);
  ShardExecutor exec(2);
  TapEngine engine(&k, battery->id());
  engine.set_executor(&exec);
  engine.decay().enabled = true;
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.record_mask = kAllRecordsMask;  // Fine-grained kinds included.
  cfg.ring_bytes = 32 * sizeof(TraceRecord);
  cfg.spill_bytes = 256 * sizeof(TraceRecord);
  cfg.spill_grow = false;
  TraceDomain domain(cfg);
  engine.set_telemetry(&domain);
  // Two work units of four components each, so the batches are pooled.
  for (int c = 0; c < 8; ++c) {
    Reserve* pool = k.Create<Reserve>(
        k.root_container_id(), Label(Level::k1), "pool");
    pool->Deposit(INT64_MAX / 16);
    for (int i = 0; i < 128; ++i) {
      Reserve* r = k.Create<Reserve>(
          k.root_container_id(), Label(Level::k1), "r");
      Tap* tap = k.Create<Tap>(k.root_container_id(), Label(Level::k1), "t",
                               pool->id(), r->id());
      if (i % 2 == 0) {
        tap->SetConstantPower(Power::Milliwatts(1));
      } else {
        tap->SetProportionalRate(0.01);
      }
      ASSERT_TRUE(engine.Register(tap->id()));
    }
  }
  for (int i = 0; i < 10; ++i) {
    engine.RunBatch(Duration::Millis(10));
  }
  ASSERT_EQ(engine.shard_count(), 8u);
  ASSERT_EQ(engine.unit_count(), 2u);
  const unsigned long long before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    engine.RunBatch(Duration::Millis(10));
  }
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(domain.frames_flushed(), 1010u);
  // The undersized buffers really were exercised.
  EXPECT_GT(domain.dropped_records(), 0u);
  EXPECT_GT(domain.spill_dropped(), 0u);
  EXPECT_GT(engine.total_tap_flow(), 0);
}

TEST(HotPathAllocTest, TelemetryOneShardPlanIsAllocationFree) {
  // A tiny one-shard plan (one unit, run serially with no pool, through the
  // same ticket loop and settle step as a fleet) with telemetry on: emit +
  // flush per batch must stay store-only.
  Kernel k;
  Reserve* battery = k.Create<Reserve>(
      k.root_container_id(), Label(Level::k1), "battery");
  battery->set_decay_exempt(true);
  battery->Deposit(INT64_MAX / 2);
  TapEngine engine(&k, battery->id());
  engine.decay().enabled = true;
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.spill_bytes = 256 * sizeof(TraceRecord);
  cfg.spill_grow = false;
  TraceDomain domain(cfg);
  engine.set_telemetry(&domain);
  for (int i = 0; i < 8; ++i) {
    Reserve* r = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "r");
    r->Deposit(1000000000);
    Tap* tap =
        k.Create<Tap>(k.root_container_id(), Label(Level::k1), "t", battery->id(), r->id());
    tap->SetConstantPower(Power::Milliwatts(1));
    ASSERT_TRUE(engine.Register(tap->id()));
  }
  engine.RunBatch(Duration::Millis(10));
  ASSERT_EQ(engine.shard_count(), 1u);
  const unsigned long long before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    engine.RunBatch(Duration::Millis(10));
  }
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(domain.frames_flushed(), 1001u);
  EXPECT_GT(engine.total_tap_flow(), 0);
}

TEST(HotPathAllocTest, TelemetryMultiUnitFleetIsAllocationFreeAfterRingGrowth) {
  // A 400-phone fleet with the default telemetry config on a 4-worker pool:
  // the rebuild grows every writer ring by the plan's per-batch record
  // budget (that allocates, once), and from then on the pooled multi-unit
  // batches allocate nothing and lose no record.
  Kernel k;
  Reserve* battery = k.Create<Reserve>(
      k.root_container_id(), Label(Level::k1), "battery");
  battery->set_decay_exempt(true);
  ShardExecutor exec(4);
  TapEngine engine(&k, battery->id());
  engine.set_executor(&exec);
  engine.decay().enabled = true;
  engine.decay().to_shard_root = true;
  TelemetryConfig cfg;
  cfg.enabled = true;
  TraceDomain domain(cfg);
  engine.set_telemetry(&domain);
  exec.set_telemetry(&domain);
  for (int p = 0; p < 400; ++p) {
    Reserve* pool = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "pool");
    pool->Deposit(ToQuantity(Energy::Joules(100.0 + p)));
    Reserve* fg = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "fg");
    Reserve* bg = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "bg");
    Tap* feed_fg =
        k.Create<Tap>(k.root_container_id(), Label(Level::k1), "feed_fg", pool->id(), fg->id());
    feed_fg->SetConstantPower(Power::Milliwatts(150 + p % 5 * 50));
    ASSERT_TRUE(engine.Register(feed_fg->id()));
    Tap* feed_bg =
        k.Create<Tap>(k.root_container_id(), Label(Level::k1), "feed_bg", pool->id(), bg->id());
    feed_bg->SetProportionalRate(0.002);
    ASSERT_TRUE(engine.Register(feed_bg->id()));
    Tap* back = k.Create<Tap>(k.root_container_id(), Label(Level::k1), "back", fg->id(),
                              pool->id());
    back->SetProportionalRate(0.1);
    ASSERT_TRUE(engine.Register(back->id()));
  }
  for (int i = 0; i < 10; ++i) {
    engine.RunBatch(Duration::Millis(10));
  }
  ASSERT_GE(engine.unit_count(), 3u);
  const unsigned long long before = g_allocations.load();
  for (int i = 0; i < 500; ++i) {
    engine.RunBatch(Duration::Millis(10));
  }
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(domain.ring_dropped(), 0u);
  EXPECT_GT(engine.total_tap_flow(), 0);
  EXPECT_GT(engine.total_decay_flow(), 0);
}

TEST(HotPathAllocTest, BatchesAfterAnInPlaceUpdateAreAllocationFree) {
  // A 400-phone fleet, telemetry on, churned: the first churn rebuilds in
  // full and reserves headroom; the next swaps phones in place. The update
  // allocates (new decay lists, table growth), but the batches after it
  // allocate nothing — with a retired shard and an appended one in the plan.
  for (int workers : {0, 4}) {
    Kernel k;
    Reserve* battery = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "battery");
    battery->set_decay_exempt(true);
    ShardExecutor exec(workers > 0 ? workers : 1);
    TapEngine engine(&k, battery->id());
    engine.set_executor(workers > 0 ? &exec : nullptr);
    engine.decay().enabled = true;
    engine.decay().to_shard_root = true;
    TelemetryConfig cfg;
    cfg.enabled = true;
    TraceDomain domain(cfg);
    engine.set_telemetry(&domain);
    exec.set_telemetry(&domain);
    std::vector<ObjectId> phones;
    auto add_phone = [&](int p) {
      Container* home = k.Create<Container>(k.root_container_id(), Label(Level::k1), "phone");
      Reserve* pool = k.Create<Reserve>(home->id(), Label(Level::k1), "pool");
      pool->Deposit(ToQuantity(Energy::Joules(100.0 + p)));
      Reserve* fg = k.Create<Reserve>(home->id(), Label(Level::k1), "fg");
      Reserve* bg = k.Create<Reserve>(home->id(), Label(Level::k1), "bg");
      Tap* feed_fg = k.Create<Tap>(home->id(), Label(Level::k1), "feed_fg", pool->id(), fg->id());
      feed_fg->SetConstantPower(Power::Milliwatts(150 + p % 5 * 50));
      ASSERT_TRUE(engine.Register(feed_fg->id()));
      Tap* feed_bg = k.Create<Tap>(home->id(), Label(Level::k1), "feed_bg", pool->id(), bg->id());
      feed_bg->SetProportionalRate(0.002);
      ASSERT_TRUE(engine.Register(feed_bg->id()));
      Tap* back = k.Create<Tap>(home->id(), Label(Level::k1), "back", fg->id(), pool->id());
      back->SetProportionalRate(0.1);
      ASSERT_TRUE(engine.Register(back->id()));
      phones.push_back(home->id());
    };
    for (int p = 0; p < 400; ++p) {
      add_phone(p);
    }
    engine.RunBatch(Duration::Millis(10));
    for (int round = 0; round < 2; ++round) {
      ASSERT_EQ(k.Delete(phones[17 + round]), Status::kOk);
      add_phone(1000 + round);
      for (int i = 0; i < 10; ++i) {
        engine.RunBatch(Duration::Millis(10));
      }
    }
    ASSERT_EQ(engine.full_rebuilds(), 2u) << "workers=" << workers;
    ASSERT_EQ(engine.plan_updates(), 1u) << "workers=" << workers;
    // Phone 18 is shard 17 after the compaction dropped phone 17.
    ASSERT_FALSE(engine.shard_live(17));
    ASSERT_TRUE(engine.shard_live(engine.shard_count() - 1));
    const unsigned long long before = g_allocations.load();
    for (int i = 0; i < 500; ++i) {
      engine.RunBatch(Duration::Millis(10));
    }
    EXPECT_EQ(g_allocations.load(), before) << "workers=" << workers;
    EXPECT_EQ(domain.ring_dropped(), 0u) << "workers=" << workers;
    EXPECT_GT(engine.total_tap_flow(), 0);
  }
}

TEST(HotPathAllocTest, SchedulerRefreshOnSteadyChurnIsAllocationFree) {
  // Reserve traffic between quanta (deposits, withdrawals, active-reserve
  // flips between already-attached reserves) bumps thread reserve epochs, so
  // every pick re-runs RefreshThreadEnergy — which must reuse its per-thread
  // vectors' capacity, never allocate. RefreshCache likewise after the first
  // fill.
  Kernel k;
  std::vector<Thread*> threads;
  std::vector<Reserve*> primary;
  std::vector<Reserve*> backup;
  EnergyAwareScheduler sched(&k);
  for (int i = 0; i < 16; ++i) {
    Thread* t = k.Create<Thread>(k.root_container_id(), Label(Level::k1), "t");
    Reserve* a = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "a");
    Reserve* b = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "b");
    a->Deposit(1000000000);
    b->Deposit(1000000000);
    t->set_active_reserve(a->id());
    t->AttachReserve(b->id());  // Both attached up front: flips never grow the set.
    sched.AddThread(t->id());
    threads.push_back(t);
    primary.push_back(a);
    backup.push_back(b);
  }
  // Warm up: fill the caches (and PickNext's static eligible-all functor).
  for (int i = 0; i < 32; ++i) {
    (void)sched.PickNext(SimTime::FromMicros(i));
  }
  const unsigned long long before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    Reserve* r = primary[i % primary.size()];
    r->Deposit(1000);
    (void)r->Withdraw(500);
    threads[i % threads.size()]->set_active_reserve(
        (i % 2 == 0 ? backup : primary)[i % threads.size()]->id());
    ObjectId picked = sched.PickNext(SimTime::FromMicros(100 + i));
    ASSERT_NE(picked, kInvalidObjectId);
    (void)sched.ChargeCpu(*k.LookupTyped<Thread>(picked), Energy::Microjoules(137));
  }
  EXPECT_EQ(g_allocations.load(), before);
}

TEST(HotPathAllocTest, SchedulerPlanBuildAndReplayAreAllocationFree) {
  // The K-quanta plan machinery sizes its entry/denied/wake/bound scratch on
  // the first build; steady rebuild + replay cycles — including plans cut
  // mid-replay by out-of-band deposits — must then be pure array work.
  Kernel k;
  EnergyAwareScheduler sched(&k);
  std::vector<Reserve*> reserves;
  for (int i = 0; i < 12; ++i) {
    Thread* t = k.Create<Thread>(k.root_container_id(), Label(Level::k1), "t");
    Reserve* r = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "r");
    if (i % 3 != 0) {
      r->Deposit(INT64_MAX / 32);  // Every third thread stays energyless.
    }
    t->set_active_reserve(r->id());
    sched.AddThread(t->id());
    reserves.push_back(r);
  }
  Reserve* battery = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "battery");
  battery->Deposit(INT64_MAX / 4);
  SchedPlanParams params;
  params.max_quanta = 64;
  params.quantum = Duration::Millis(1);
  params.cost_lo = ToQuantity(Energy::Microjoules(137));
  params.cost_hi = ToQuantity(Energy::Microjoules(155));
  params.baseline_reserve = battery;
  params.baseline_drain = ToQuantity(Energy::Microjoules(699));
  // Warm up: one full build + replay sizes every scratch vector.
  ASSERT_GT(sched.BuildPlan(SimTime::Zero(), params), 0u);
  ObjectId picked = kInvalidObjectId;
  while (sched.TryPlannedPick(SimTime::Zero(), &picked)) {
  }
  const unsigned long long before = g_allocations.load();
  SimTime now = SimTime::Zero();
  for (int round = 0; round < 200; ++round) {
    ASSERT_GT(sched.BuildPlan(now, params), 0u);
    int replayed = 0;
    while (sched.TryPlannedPick(now, &picked)) {
      now = now + params.quantum;
      ++replayed;
      if (picked != kInvalidObjectId) {
        (void)sched.ChargeCpu(*k.LookupTyped<Thread>(picked), Energy::Microjoules(140));
      }
      (void)battery->ConsumeUpToAt(battery->level_cell(), params.baseline_drain);
      if (round % 3 == 1 && replayed == 7) {
        // Out-of-band deposit: bumps the reserve-op epoch, cutting the plan
        // on the next TryPlannedPick — the cut path must not allocate either.
        reserves[round % reserves.size()]->Deposit(1000);
      }
    }
    EXPECT_GT(replayed, 0) << "round=" << round;
  }
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_GT(sched.plan_stats().plans_cut, 0u);
  EXPECT_GT(sched.plan_stats().quanta_replayed, 0u);
}

TEST(HotPathAllocTest, KernelLookupAndObjectsOfTypeAreAllocationFree) {
  Kernel k;
  Reserve* r = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "r");
  const unsigned long long before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_NE(k.Lookup(r->id()), nullptr);
    ASSERT_EQ(k.ObjectsOfType(ObjectType::kReserve).size(), 1u);
  }
  EXPECT_EQ(g_allocations.load(), before);
}

}  // namespace
}  // namespace cinder
