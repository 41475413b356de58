// Telemetry integration tests: the trace stream reconstructed by
// TraceReader must agree with the engine's own counters bit-for-bit, at any
// worker count, on a real worker pool — and the simulator-level records
// (scheduler picks, CPU charges, syscall reserve ops) must agree with the
// meter. These suites run under TSAN in CI (the rings are single-writer by
// construction; this is where that claim is checked against real threads).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/syscalls.h"
#include "src/core/tap_engine.h"
#include "src/sim/simulator.h"
#include "src/sim/thread_body.h"
#include "src/telemetry/health_monitor.h"
#include "src/telemetry/live_aggregator.h"
#include "src/telemetry/trace_reader.h"

namespace cinder {
namespace {

// A miniature of the fleet example: `phones` disconnected components, each
// a pool feeding two apps plus a back-tap, so the partitioner finds one
// shard per phone.
void BuildPhones(Simulator& sim, int phones) {
  Kernel& kernel = sim.kernel();
  for (int p = 0; p < phones; ++p) {
    Reserve* pool = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "pool");
    pool->Deposit(ToQuantity(Energy::Joules(50.0 + p)));
    Reserve* fg = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "fg");
    Reserve* bg = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "bg");
    Tap* feed_fg = kernel.Create<Tap>(kernel.root_container_id(), Label(Level::k1), "feed_fg",
                                      pool->id(), fg->id());
    feed_fg->SetConstantPower(Power::Milliwatts(100 + p % 3 * 50));
    ASSERT_TRUE(sim.taps().Register(feed_fg->id()));
    Tap* feed_bg = kernel.Create<Tap>(kernel.root_container_id(), Label(Level::k1), "feed_bg",
                                      pool->id(), bg->id());
    feed_bg->SetProportionalRate(0.01);
    ASSERT_TRUE(sim.taps().Register(feed_bg->id()));
    Tap* back = kernel.Create<Tap>(kernel.root_container_id(), Label(Level::k1), "back",
                                   fg->id(), pool->id());
    back->SetProportionalRate(0.1);
    ASSERT_TRUE(sim.taps().Register(back->id()));
  }
}

SimConfig FleetConfig(int workers) {
  SimConfig cfg;
  cfg.decay_half_life = Duration::Seconds(10);
  cfg.exec.tap_workers = workers;
  cfg.exec.decay_to_shard_root = true;
  cfg.telemetry.enabled = true;
  cfg.telemetry.spill_grow = true;
  return cfg;
}

TEST(TelemetryEngineTest, ReaderTotalsMatchEngineBitForBitAcrossWorkerCounts) {
  int64_t reference_tap = 0;
  int64_t reference_decay = 0;
  for (int workers : {0, 1, 2, 4}) {
    Simulator sim(FleetConfig(workers));
    BuildPhones(sim, 12);
    sim.Run(Duration::Seconds(2));
    ASSERT_EQ(sim.taps().shard_count(), 12u);

    sim.telemetry().FlushFrame();
    TraceReader reader = TraceReader::FromDomain(sim.telemetry());
    EXPECT_EQ(reader.dropped(), 0u) << "workers=" << workers;
    // The acceptance bar: offline reconstruction equals the engine exactly.
    EXPECT_EQ(reader.TotalTapFlow(), sim.taps().total_tap_flow()) << "workers=" << workers;
    EXPECT_EQ(reader.TotalDecayFlow(), sim.taps().total_decay_flow())
        << "workers=" << workers;
    EXPECT_GT(reader.TotalTapFlow(), 0);
    EXPECT_GT(reader.TotalDecayFlow(), 0);
    // And the totals themselves are worker-count invariant.
    if (workers == 0) {
      reference_tap = reader.TotalTapFlow();
      reference_decay = reader.TotalDecayFlow();
    } else {
      EXPECT_EQ(reader.TotalTapFlow(), reference_tap) << "workers=" << workers;
      EXPECT_EQ(reader.TotalDecayFlow(), reference_decay) << "workers=" << workers;
    }
  }
}

TEST(TelemetryEngineTest, FlowByShardJoinsPlanAndBatchRecords) {
  Simulator sim(FleetConfig(2));
  BuildPhones(sim, 8);
  sim.Run(Duration::Seconds(1));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());

  const auto shards = reader.FlowByShard();
  ASSERT_EQ(shards.size(), 8u);
  int64_t tap_sum = 0;
  int64_t decay_sum = 0;
  const auto& stats = sim.taps().shard_stats();
  for (const auto& s : shards) {
    EXPECT_EQ(s.taps, 3u);            // From kPlanShard.
    EXPECT_EQ(s.decay_reserves, 3u);  // Pool/fg/bg all decay-wired.
    EXPECT_GT(s.batches, 0u);
    // Per-shard flows agree with the engine's own per-shard stats.
    ASSERT_LT(s.shard, stats.size());
    EXPECT_EQ(s.tap_flow, stats[s.shard].tap_flow);
    EXPECT_EQ(s.decay_flow, stats[s.shard].decay_flow);
    tap_sum += s.tap_flow;
    decay_sum += s.decay_flow;
  }
  EXPECT_EQ(tap_sum, reader.TotalTapFlow());
  EXPECT_EQ(decay_sum, reader.TotalDecayFlow());
}

TEST(TelemetryEngineTest, ShardTimelineCumulatesToShardTotal) {
  Simulator sim(FleetConfig(2));
  BuildPhones(sim, 4);
  sim.Run(Duration::Seconds(1));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());

  const auto shards = reader.FlowByShard();
  ASSERT_EQ(shards.size(), 4u);
  for (const auto& s : shards) {
    const auto timeline = reader.ShardTimeline(s.shard);
    ASSERT_EQ(timeline.size(), s.batches);
    int64_t running_tap = 0;
    int64_t running_decay = 0;
    uint64_t prev_frame = 0;
    int64_t prev_time = -1;
    for (const auto& point : timeline) {
      running_tap += point.tap_flow;
      running_decay += point.decay_flow;
      EXPECT_EQ(point.cumulative_tap_flow, running_tap);
      EXPECT_EQ(point.cumulative_decay_flow, running_decay);
      // Frames and the epoch stamps advance monotonically.
      EXPECT_GE(point.frame, prev_frame);
      EXPECT_GT(point.time_us, prev_time);
      prev_frame = point.frame;
      prev_time = point.time_us;
    }
    EXPECT_EQ(running_tap, s.tap_flow);
    EXPECT_EQ(running_decay, s.decay_flow);
  }
}

TEST(TelemetryEngineTest, DispatchRecordsCoverEveryPooledTicket) {
  // 400 phones of 3 taps and 3 reserves fill several work units, so every
  // batch wakes the pool: one dispatch per unit, and the per-unit timing
  // records still add up to one timed run per shard-batch.
  Simulator sim(FleetConfig(3));
  BuildPhones(sim, 400);
  sim.Run(Duration::Millis(300));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  ASSERT_EQ(reader.dropped(), 0u);
  const uint32_t units = sim.taps().unit_count();
  ASSERT_GE(units, 2u);
  ASSERT_EQ(sim.taps().shard_count(), 400u);

  uint64_t shard_batches = 0;
  for (const auto& s : reader.FlowByShard()) {
    shard_batches += s.batches;
  }
  const uint64_t batches = shard_batches / 400;
  ASSERT_GT(batches, 0u);
  uint64_t dispatches = 0;
  uint64_t shard_runs = 0;
  for (const auto& w : reader.WorkerLoads()) {
    dispatches += w.dispatches;
    shard_runs += w.shard_runs;
  }
  EXPECT_EQ(dispatches, units * batches);
  EXPECT_EQ(shard_runs, shard_batches);
}

TEST(TelemetryEngineTest, OneUnitFleetRunsInlineWithoutWakingThePool) {
  // Six phones make one work unit: the batch runs on the caller, so the
  // pool claims nothing and writes no dispatch record, while the unit's one
  // timing record per batch still counts all six shard-batches.
  Simulator sim(FleetConfig(3));
  BuildPhones(sim, 6);
  sim.Run(Duration::Seconds(1));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  ASSERT_EQ(sim.taps().unit_count(), 1u);

  uint64_t shard_batches = 0;
  for (const auto& s : reader.FlowByShard()) {
    shard_batches += s.batches;
  }
  EXPECT_GT(shard_batches, 0u);
  uint64_t dispatches = 0;
  uint64_t shard_runs = 0;
  for (const auto& w : reader.WorkerLoads()) {
    EXPECT_EQ(w.worker, 0u) << "only the caller runs a one-unit batch";
    dispatches += w.dispatches;
    shard_runs += w.shard_runs;
  }
  EXPECT_EQ(dispatches, 0u);
  EXPECT_EQ(shard_runs, shard_batches);
}

TEST(TelemetryEngineTest, FleetScaleDefaultRingsLoseNothing) {
  // The default 2048-record rings are grown at plan build by the plan's
  // per-batch record budget, so a 2000-phone fleet (about 4000 engine
  // records per batch) streams losslessly at any worker count and the live
  // fold equals the engine bit for bit. Each unit writes its shards'
  // sink-deposit records into its own worker's ring, so the health monitor
  // must see every window's leak deposits equal its decay flow, and no loss.
  for (int workers : {0, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    SimConfig cfg = FleetConfig(workers);
    cfg.telemetry.spill_grow = false;
    HealthMonitor monitor;
    LiveAggregator agg;
    agg.set_monitor(&monitor);
    uint64_t windows = 0;
    int64_t leak_deposits = 0;
    agg.set_window_callback([&](const WindowStats& w) {
      ++windows;
      leak_deposits += w.decay_leak_deposits;
    });
    Simulator sim(cfg);
    sim.telemetry().AddSink(&agg);
    BuildPhones(sim, 2000);
    sim.Run(Duration::Millis(200));
    sim.telemetry().FlushFrame();
    EXPECT_EQ(sim.telemetry().ring_dropped(), 0u);
    EXPECT_EQ(agg.TotalTapFlow(), sim.taps().total_tap_flow());
    EXPECT_EQ(agg.TotalDecayFlow(), sim.taps().total_decay_flow());
    EXPECT_GT(agg.TotalTapFlow(), 0);
    EXPECT_GT(windows, 0u);
    EXPECT_GT(leak_deposits, 0) << "the conservation check must have armed";
    EXPECT_EQ(monitor.count(AlarmKind::kConservationDrift), 0u);
    EXPECT_EQ(monitor.count(AlarmKind::kRecordLoss), 0u);
    sim.telemetry().RemoveSink(&agg);
  }
}

TEST(TelemetryEngineTest, FineGrainedTapFlowsSumToEngineTotal) {
  SimConfig cfg = FleetConfig(2);
  cfg.telemetry.record_mask = kAllRecordsMask;
  Simulator sim(cfg);
  BuildPhones(sim, 4);
  sim.Run(Duration::Seconds(1));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());

  const auto taps = reader.TapFlows();
  ASSERT_EQ(taps.size(), 12u);  // 3 taps per phone, ids joined from kPlanTap.
  int64_t per_tap_sum = 0;
  for (const auto& t : taps) {
    EXPECT_GT(t.tap_id, 0u);
    EXPECT_NE(t.src_id, 0u);
    EXPECT_NE(t.dst_id, 0u);
    EXPECT_NE(t.src_id, t.dst_id);
    per_tap_sum += t.flow;
  }
  // Every nanojoule of tap flow is attributed to exactly one tap.
  EXPECT_EQ(per_tap_sum, sim.taps().total_tap_flow());
}

TEST(TelemetryEngineTest, OneShardPlanStreamsRecords) {
  // One phone, no executor: a one-shard plan runs its one unit through the
  // same ticket loop and settle step as a fleet; the stream must be
  // complete and exact.
  SimConfig cfg;
  cfg.telemetry.enabled = true;
  cfg.telemetry.spill_grow = true;
  cfg.decay_half_life = Duration::Seconds(10);
  Simulator sim(cfg);
  BuildPhones(sim, 1);
  sim.Run(Duration::Seconds(2));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  EXPECT_EQ(reader.dropped(), 0u);
  EXPECT_EQ(reader.TotalTapFlow(), sim.taps().total_tap_flow());
  EXPECT_EQ(reader.TotalDecayFlow(), sim.taps().total_decay_flow());
  const auto shards = reader.FlowByShard();
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_GT(shards[0].batches, 0u);
}

TEST(TelemetrySimulatorTest, CpuChargesMatchMeterExactly) {
  SimConfig cfg;
  cfg.telemetry.enabled = true;
  cfg.telemetry.spill_grow = true;
  Simulator sim(cfg);
  Kernel& k = sim.kernel();
  Thread* boot = sim.boot_thread();

  auto proc = sim.CreateProcess("worker");
  ObjectId res = ReserveCreate(k, *boot, proc.container, Label(Level::k1), "r").value();
  ASSERT_EQ(ReserveTransfer(k, *boot, sim.battery_reserve_id(), res,
                            ToQuantity(Energy::Joules(50.0))),
            Status::kOk);
  k.LookupTyped<Thread>(proc.thread)->set_active_reserve(res);
  sim.AttachBody(proc.thread, std::make_unique<SpinBody>());

  sim.Run(Duration::Seconds(5));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());

  const auto charges = reader.CpuChargeByThread();
  ASSERT_EQ(charges.size(), 1u);
  EXPECT_EQ(charges[0].thread, static_cast<uint32_t>(proc.thread));
  EXPECT_GT(charges[0].quanta, 0u);
  EXPECT_EQ(charges[0].billed,
            sim.meter().ForPrincipalComponent(proc.thread, Component::kCpu).nj());
  // Every quantum made a scheduling decision, and it always found the spin
  // thread runnable.
  EXPECT_EQ(reader.SchedPicks(), 5000u);
  EXPECT_EQ(reader.SchedIdlePicks(), 0u);
  EXPECT_EQ(charges[0].quanta, 5000u);
}

TEST(TelemetrySimulatorTest, SchedPickRecordsIdleWhenNoThreadHasEnergy) {
  SimConfig cfg;
  cfg.telemetry.enabled = true;
  cfg.telemetry.spill_grow = true;
  Simulator sim(cfg);
  Kernel& k = sim.kernel();
  auto proc = sim.CreateProcess("starved");
  // A runnable body whose active reserve stays empty: picked never.
  ObjectId res =
      ReserveCreate(k, *sim.boot_thread(), proc.container, Label(Level::k1), "empty").value();
  k.LookupTyped<Thread>(proc.thread)->set_active_reserve(res);
  sim.AttachBody(proc.thread, std::make_unique<SpinBody>());

  sim.Run(Duration::Millis(100));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  EXPECT_EQ(reader.SchedPicks(), 100u);
  EXPECT_EQ(reader.SchedIdlePicks(), 100u);
  EXPECT_TRUE(reader.CpuChargeByThread().empty());
}

TEST(TelemetrySimulatorTest, SyscallReserveOpsAreRecordedWithLevels) {
  SimConfig cfg;
  cfg.telemetry.enabled = true;
  Simulator sim(cfg);
  Kernel& k = sim.kernel();
  Thread* boot = sim.boot_thread();

  ObjectId a = ReserveCreate(k, *boot, k.root_container_id(), Label(Level::k1), "a").value();
  ObjectId b = ReserveCreate(k, *boot, k.root_container_id(), Label(Level::k1), "b").value();
  ASSERT_EQ(ReserveTransfer(k, *boot, sim.battery_reserve_id(), a, 1000), Status::kOk);
  ASSERT_EQ(ReserveTransfer(k, *boot, a, b, 400), Status::kOk);
  ASSERT_EQ(ReserveConsume(k, *boot, b, 150), Status::kOk);
  // Failed ops must not be recorded.
  ASSERT_NE(ReserveConsume(k, *boot, b, 1 << 30), Status::kOk);

  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  struct Op {
    RecordKind kind;
    uint32_t actor;
    uint8_t flags;
    int64_t amount;
    int64_t level_after;
  };
  std::vector<Op> ops;
  for (const TraceRecord& r : reader.records()) {
    if (r.kind == static_cast<uint8_t>(RecordKind::kReserveDeposit) ||
        r.kind == static_cast<uint8_t>(RecordKind::kReserveWithdraw)) {
      ops.push_back({static_cast<RecordKind>(r.kind), r.actor, r.flags, r.v0, r.v1});
    }
  }
  ASSERT_EQ(ops.size(), 5u);  // 2 per transfer (x2) + 1 consume + 0 failed.
  // The a -> b transfer: withdraw from a at level 600, deposit to b at 400.
  EXPECT_EQ(ops[2].kind, RecordKind::kReserveWithdraw);
  EXPECT_EQ(ops[2].actor, static_cast<uint32_t>(a));
  EXPECT_EQ(ops[2].flags, kReserveOpTransfer);
  EXPECT_EQ(ops[2].amount, 400);
  EXPECT_EQ(ops[2].level_after, 600);
  EXPECT_EQ(ops[3].kind, RecordKind::kReserveDeposit);
  EXPECT_EQ(ops[3].actor, static_cast<uint32_t>(b));
  EXPECT_EQ(ops[3].amount, 400);
  EXPECT_EQ(ops[3].level_after, 400);
  EXPECT_EQ(ops[4].kind, RecordKind::kReserveWithdraw);
  EXPECT_EQ(ops[4].flags, kReserveOpConsume);
  EXPECT_EQ(ops[4].amount, 150);
  EXPECT_EQ(ops[4].level_after, 250);
}

TEST(TelemetrySimulatorTest, EmptyRunQueueStillEmitsIdlePickRecords) {
  // No process ever registers with the scheduler, so PickNext takes its
  // empty-queue early return — which must still emit the actor-0 idle record
  // per EmitPick's contract (one kSchedPick per scheduling decision, pinned
  // here so the record stream never has silent gaps on an idle kernel).
  // Disable planning so every quantum exercises the PickNext path itself.
  SimConfig cfg;
  cfg.telemetry.enabled = true;
  cfg.telemetry.spill_grow = true;
  cfg.exec.sched_plan_quanta = 0;
  Simulator sim(cfg);
  sim.Run(Duration::Millis(100));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  EXPECT_EQ(reader.SchedPicks(), 100u);
  EXPECT_EQ(reader.SchedIdlePicks(), 100u);
  EXPECT_EQ(reader.SchedPlannedPicks(), 0u);
}

TEST(TelemetrySimulatorTest, PlannedPicksCarryTheFlagAndBuildRecords) {
  // Under the default batched stepper, replayed quanta keep emitting one
  // kSchedPick each — distinguished only by the planned flag — and each
  // BuildPlan emits one kSchedPlanBuild whose v0 sums to the planned total.
  // One funded spinner among seven energyless ones: every pick scans the
  // whole queue, so the stepper's plans pay and it builds them.
  SimConfig cfg;
  cfg.telemetry.enabled = true;
  cfg.telemetry.spill_grow = true;
  cfg.decay_enabled = false;
  Simulator sim(cfg);
  Kernel& k = sim.kernel();
  for (int i = 0; i < 8; ++i) {
    auto proc = sim.CreateProcess("spin" + std::to_string(i));
    ObjectId r =
        ReserveCreate(k, *sim.boot_thread(), proc.container, Label(Level::k1), "r").value();
    if (i == 0) {
      ASSERT_EQ(ReserveTransfer(k, *sim.boot_thread(), sim.battery_reserve_id(), r,
                                ToQuantity(Energy::Joules(10.0))),
                Status::kOk);
    }
    k.LookupTyped<Thread>(proc.thread)->set_active_reserve(r);
    sim.AttachBody(proc.thread, std::make_unique<SpinBody>());
  }
  sim.Run(Duration::Seconds(2));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  EXPECT_EQ(reader.SchedPicks(), 2000u);  // One record per quantum, planned or not.
  const SchedPlanStats& stats = sim.scheduler().plan_stats();
  EXPECT_GT(stats.plans_built, 0u);
  EXPECT_EQ(reader.SchedPlannedPicks(), stats.quanta_replayed);
  EXPECT_EQ(reader.SchedPlanBuilds(), stats.plans_built);
  EXPECT_GE(reader.SchedPlannedQuanta(), reader.SchedPlannedPicks());
}

TEST(TelemetryConfigTest, DisabledByDefaultAndInert) {
  Simulator sim;
  EXPECT_FALSE(sim.telemetry().enabled());
  sim.Run(Duration::Millis(50));
  EXPECT_EQ(sim.telemetry().spill_size(), 0u);
  EXPECT_EQ(sim.telemetry().frames_flushed(), 0u);
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  EXPECT_TRUE(reader.records().empty());
}

TEST(TelemetryConfigTest, ExecConfigDrivesTheLiveSimulator) {
  // End to end: the nested exec fields give the simulator a sharded pool,
  // and config() readers see them.
  SimConfig cfg;
  cfg.exec.tap_workers = 2;
  cfg.exec.decay_to_shard_root = true;
  Simulator sim(cfg);
  EXPECT_NE(sim.shard_executor(), nullptr);
  EXPECT_EQ(sim.config().exec.tap_workers, 2);
  EXPECT_TRUE(sim.config().exec.decay_to_shard_root);
  BuildPhones(sim, 3);
  sim.Run(Duration::Millis(200));
  EXPECT_EQ(sim.taps().shard_count(), 3u);
  EXPECT_GT(sim.taps().total_tap_flow(), 0);
}

}  // namespace
}  // namespace cinder
