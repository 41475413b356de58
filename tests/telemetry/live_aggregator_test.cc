// LiveAggregator + HealthMonitor tests: the live windowed view must answer
// the TraceReader query vocabulary identically to the offline reader on the
// same stream, windows must close on the frame cadence with correct EWMAs,
// and each alarm in the catalog must fire on its synthesized fault — and
// stay silent on a clean real-simulator run. The LiveAggregatorTest suite
// runs under TSAN in CI (the aggregator rides the flush path of a real
// worker pool).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/tap_engine.h"
#include "src/sim/simulator.h"
#include "src/telemetry/health_monitor.h"
#include "src/telemetry/live_aggregator.h"
#include "src/telemetry/trace_reader.h"

namespace cinder {
namespace {

void BuildPhones(Simulator& sim, int phones) {
  Kernel& kernel = sim.kernel();
  for (int p = 0; p < phones; ++p) {
    Reserve* pool =
        kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "pool");
    pool->Deposit(ToQuantity(Energy::Joules(50.0 + p)));
    Reserve* app = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "app");
    Tap* feed = kernel.Create<Tap>(kernel.root_container_id(), Label(Level::k1), "feed",
                                   pool->id(), app->id());
    feed->SetConstantPower(Power::Milliwatts(80 + 20 * (p % 3)));
    ASSERT_TRUE(sim.taps().Register(feed->id()));
    Tap* back = kernel.Create<Tap>(kernel.root_container_id(), Label(Level::k1), "back",
                                   app->id(), pool->id());
    back->SetProportionalRate(0.05);
    ASSERT_TRUE(sim.taps().Register(back->id()));
  }
}

// A synthetic record, for driving the aggregator without a domain.
TraceRecord Rec(RecordKind kind, uint32_t actor, int64_t v0, int64_t v1, uint8_t flags = 0,
                uint16_t aux = 0, int64_t t = 0) {
  TraceRecord r;
  r.time_us = t;
  r.v0 = v0;
  r.v1 = v1;
  r.actor = actor;
  r.kind = static_cast<uint8_t>(kind);
  r.flags = flags;
  r.aux = aux;
  return r;
}

TraceRecord Mark(uint64_t seq, uint64_t ring_drops = 0, int64_t t = 0) {
  return Rec(RecordKind::kFrameMark, 0, static_cast<int64_t>(seq),
             static_cast<int64_t>(ring_drops), 0, 1, t);
}

// -- Live == offline on the same stream ------------------------------------------

TEST(LiveAggregatorTest, LiveQueriesMatchOfflineReaderOnSameStream) {
  // A real sharded run, streamed live into the aggregator AND retained for
  // the offline reader: every shared query must agree exactly.
  SimConfig cfg;
  cfg.exec.tap_workers = 3;
  cfg.exec.decay_to_shard_root = true;
  cfg.decay_half_life = Duration::Minutes(1);
  cfg.telemetry.enabled = true;
  cfg.telemetry.spill_grow = true;
  cfg.telemetry.retain_with_sinks = true;
  LiveAggregator agg;
  Simulator sim(cfg);
  sim.telemetry().AddSink(&agg);
  BuildPhones(sim, 12);
  sim.Run(Duration::Millis(800));
  sim.telemetry().FlushFrame();

  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  ASSERT_EQ(reader.dropped(), 0u);

  EXPECT_EQ(agg.TotalTapFlow(), reader.TotalTapFlow());
  EXPECT_EQ(agg.TotalDecayFlow(), reader.TotalDecayFlow());
  EXPECT_EQ(agg.TotalTapFlow(), sim.taps().total_tap_flow());
  EXPECT_EQ(agg.SchedPicks(), reader.SchedPicks());
  EXPECT_EQ(agg.SchedIdlePicks(), reader.SchedIdlePicks());
  EXPECT_EQ(agg.frames(), reader.frames());
  EXPECT_EQ(agg.records_seen(), reader.records().size());

  const auto live_shards = agg.FlowByShard();
  const auto offline_shards = reader.FlowByShard();
  ASSERT_EQ(live_shards.size(), offline_shards.size());
  for (size_t i = 0; i < live_shards.size(); ++i) {
    EXPECT_EQ(live_shards[i].shard, offline_shards[i].shard);
    EXPECT_EQ(live_shards[i].taps, offline_shards[i].taps);
    EXPECT_EQ(live_shards[i].decay_reserves, offline_shards[i].decay_reserves);
    EXPECT_EQ(live_shards[i].ranges, offline_shards[i].ranges);
    EXPECT_EQ(live_shards[i].batches, offline_shards[i].batches);
    EXPECT_EQ(live_shards[i].tap_flow, offline_shards[i].tap_flow);
    EXPECT_EQ(live_shards[i].decay_flow, offline_shards[i].decay_flow);
  }

  const auto live_workers = agg.WorkerLoads();
  const auto offline_workers = reader.WorkerLoads();
  ASSERT_EQ(live_workers.size(), offline_workers.size());
  for (size_t i = 0; i < live_workers.size(); ++i) {
    EXPECT_EQ(live_workers[i].worker, offline_workers[i].worker);
    EXPECT_EQ(live_workers[i].dispatches, offline_workers[i].dispatches);
    EXPECT_EQ(live_workers[i].shard_runs, offline_workers[i].shard_runs);
    EXPECT_EQ(live_workers[i].range_runs, offline_workers[i].range_runs);
    EXPECT_EQ(live_workers[i].busy_ns, offline_workers[i].busy_ns);
  }

  const auto live_threads = agg.CpuChargeByThread();
  const auto offline_threads = reader.CpuChargeByThread();
  ASSERT_EQ(live_threads.size(), offline_threads.size());
  for (size_t i = 0; i < live_threads.size(); ++i) {
    EXPECT_EQ(live_threads[i].thread, offline_threads[i].thread);
    EXPECT_EQ(live_threads[i].quanta, offline_threads[i].quanta);
    EXPECT_EQ(live_threads[i].billed, offline_threads[i].billed);
  }
}

TEST(LiveAggregatorTest, ShardTimingCountsCoveredShardsAndOldRecordsAsOne) {
  // A unit's timing record carries the shards it covers in v1; a record
  // from a file written before work units has v1 = 0 and timed one shard.
  // The live fold and the offline reader (through a file) agree on both.
  TelemetryConfig tcfg;
  tcfg.enabled = true;
  tcfg.retain_with_sinks = true;
  LiveAggregator agg;  // Declared before the domain: sinks outlive it.
  TraceDomain domain(tcfg);
  domain.AddSink(&agg);
  domain.EnsureWriters(2);
  domain.ring(1)->Emit(0, RecordKind::kShardTiming, 3, 1, 0, 400, 0);
  domain.ring(1)->Emit(0, RecordKind::kShardTiming, 4, 1, 0, 600, 5);
  domain.FlushFrame();

  const std::string path = ::testing::TempDir() + "shard_timing_units.bin";
  ASSERT_TRUE(domain.WriteFile(path));
  TraceReader reader;
  std::string error;
  ASSERT_TRUE(TraceReader::LoadFile(path, &reader, &error)) << error;
  std::remove(path.c_str());

  const auto offline = reader.WorkerLoads();
  ASSERT_EQ(offline.size(), 1u);
  EXPECT_EQ(offline[0].worker, 1u);
  EXPECT_EQ(offline[0].shard_runs, 6u);
  EXPECT_EQ(offline[0].busy_ns, 1000u);
  const auto live = agg.WorkerLoads();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].shard_runs, 6u);
  EXPECT_EQ(live[0].busy_ns, 1000u);
}

// -- Window mechanics -------------------------------------------------------------

TEST(LiveAggregatorTest, WindowsCloseOnFrameCadenceWithEwmaFold) {
  LiveAggregatorConfig cfg;
  cfg.frames_per_window = 2;
  cfg.ewma_alpha = 0.5;
  LiveAggregator agg(cfg);
  std::vector<WindowStats> windows;
  agg.set_window_callback([&windows](const WindowStats& w) { windows.push_back(w); });

  uint64_t seq = 0;
  // Window 0: shard 0 flows 100 nJ across two frames.
  agg.OnRecord(Rec(RecordKind::kShardBatch, 0, 60, 0));
  agg.OnRecord(Mark(seq++));
  agg.OnRecord(Rec(RecordKind::kShardBatch, 0, 40, 0));
  agg.OnRecord(Mark(seq++));
  // Window 1: 200 nJ.
  agg.OnRecord(Rec(RecordKind::kShardBatch, 0, 200, 0));
  agg.OnRecord(Mark(seq++));
  agg.OnRecord(Mark(seq++));

  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(agg.windows_closed(), 2u);
  EXPECT_EQ(windows[0].index, 0u);
  EXPECT_EQ(windows[0].frames, 2u);
  EXPECT_EQ(windows[0].last_frame, 1u);
  EXPECT_EQ(windows[0].tap_flow, 100);
  EXPECT_EQ(windows[1].tap_flow, 200);
  EXPECT_EQ(agg.last_window().index, 1u);

  // EWMA: primed to 100 by window 0, then 0.5*200 + 0.5*100 = 150.
  ASSERT_GT(agg.shard_live().size(), 0u);
  EXPECT_DOUBLE_EQ(agg.shard_live()[0].tap_flow_ewma, 150.0);
  // Open-window state reset after each close.
  EXPECT_EQ(agg.shard_live()[0].window_tap_flow, 0);
  // Exact totals unaffected by windowing.
  EXPECT_EQ(agg.TotalTapFlow(), 300);
}

TEST(LiveAggregatorTest, WorkerHistogramsTrackBusyAndIdleWindows) {
  LiveAggregatorConfig cfg;
  cfg.frames_per_window = 1;
  LiveAggregator agg(cfg);
  uint64_t seq = 0;
  // Window 0: worker 1 busy 1000 ns (bucket log2(1000) ~ 9). Worker 2 idle
  // but seen (a dispatch, no timed work).
  agg.OnRecord(Rec(RecordKind::kShardTiming, 7, 1000, 0, 0, 1));
  agg.OnRecord(Rec(RecordKind::kDispatch, 7, 0, 0, 0, 2 << 8));
  agg.OnRecord(Mark(seq++));
  // Window 1: both idle.
  agg.OnRecord(Mark(seq++));

  const auto& workers = agg.worker_live();
  ASSERT_GE(workers.size(), 3u);
  EXPECT_TRUE(workers[1].seen);
  EXPECT_EQ(workers[1].idle_windows, 1u);  // Window 1 only.
  uint64_t hist_total = 0;
  for (uint32_t b = 0; b < LiveAggregator::kBusyHistBuckets; ++b) {
    hist_total += workers[1].busy_hist[b];
  }
  EXPECT_EQ(hist_total, 1u);
  EXPECT_EQ(workers[1].busy_hist[9], 1u);  // 2^9 <= 1000 < 2^10.
  EXPECT_EQ(workers[2].idle_windows, 2u);
  EXPECT_EQ(workers[2].dispatches, 1u);
}

TEST(LiveAggregatorTest, AttachResetsForFreshEpoch) {
  TelemetryConfig tcfg;
  tcfg.enabled = true;
  LiveAggregator agg;  // Declared before the domain: sinks outlive it.
  TraceDomain domain(tcfg);
  agg.OnRecord(Rec(RecordKind::kShardBatch, 0, 999, 0));
  EXPECT_EQ(agg.TotalTapFlow(), 999);
  domain.AddSink(&agg);  // OnAttach resets all state.
  EXPECT_EQ(agg.TotalTapFlow(), 0);
  EXPECT_EQ(agg.records_seen(), 0u);
}

// -- Alarm catalog ----------------------------------------------------------------

struct AlarmLog {
  std::vector<Alarm> fired;
  void Hook(HealthMonitor& m) {
    m.set_callback([this](const Alarm& a) { fired.push_back(a); });
  }
  uint64_t Count(AlarmKind k) const {
    uint64_t n = 0;
    for (const auto& a : fired) {
      if (a.kind == k) {
        ++n;
      }
    }
    return n;
  }
};

TEST(LiveAggregatorTest, ConservationDriftFiresWithinOneWindowOnSkippedDeposit) {
  LiveAggregatorConfig cfg;
  cfg.frames_per_window = 1;
  LiveAggregator agg(cfg);
  HealthMonitor monitor;
  AlarmLog log;
  log.Hook(monitor);
  agg.set_monitor(&monitor);

  uint64_t seq = 0;
  // Window 0: balanced — decay flow 50, leak deposits 50. Arms the check.
  agg.OnRecord(Rec(RecordKind::kShardBatch, 0, 100, 50));
  agg.OnRecord(Rec(RecordKind::kReserveDeposit, 3, 50, 1000, kReserveOpDecayLeak));
  agg.OnRecord(Mark(seq++));
  EXPECT_EQ(log.Count(AlarmKind::kConservationDrift), 0u);

  // Window 1: the injected fault — 60 nJ of decay outflow, only 40 deposited.
  agg.OnRecord(Rec(RecordKind::kShardBatch, 0, 100, 60));
  agg.OnRecord(Rec(RecordKind::kReserveDeposit, 3, 40, 1040, kReserveOpDecayLeak));
  agg.OnRecord(Mark(seq++));
  ASSERT_EQ(log.Count(AlarmKind::kConservationDrift), 1u);
  EXPECT_EQ(log.fired.back().value, 20);  // The drift, in nJ.
  EXPECT_EQ(log.fired.back().window, 1u);
  EXPECT_EQ(monitor.count(AlarmKind::kConservationDrift), 1u);
}

TEST(LiveAggregatorTest, ConservationCheckSkipsUnarmedAndLossyWindows) {
  LiveAggregatorConfig cfg;
  cfg.frames_per_window = 1;
  LiveAggregator agg(cfg);
  HealthMonitor monitor;
  AlarmLog log;
  log.Hook(monitor);
  agg.set_monitor(&monitor);

  uint64_t seq = 0;
  // Decay flow with NO deposit records at all: the mask may exclude reserve
  // ops — never armed, never fired.
  agg.OnRecord(Rec(RecordKind::kShardBatch, 0, 100, 60));
  agg.OnRecord(Mark(seq++));
  EXPECT_EQ(log.Count(AlarmKind::kConservationDrift), 0u);

  // Arm it, then a lossy window with imbalance: record loss fires, but the
  // conservation check skips (an incomplete window legitimately misses
  // deposits).
  agg.OnRecord(Rec(RecordKind::kReserveDeposit, 3, 60, 1000, kReserveOpDecayLeak));
  agg.OnRecord(Rec(RecordKind::kShardBatch, 0, 100, 60));
  agg.OnRecord(Mark(seq++));
  agg.OnRecord(Rec(RecordKind::kShardBatch, 0, 100, 60));
  agg.OnRecord(Mark(seq++, /*ring_drops=*/5));
  EXPECT_EQ(log.Count(AlarmKind::kRecordLoss), 1u);
  EXPECT_EQ(log.Count(AlarmKind::kConservationDrift), 0u);
  EXPECT_EQ(log.fired.back().value, 5);
}

TEST(LiveAggregatorTest, WorkerImbalanceAlarmFiresOnLopsidedWindow) {
  LiveAggregatorConfig cfg;
  cfg.frames_per_window = 1;
  LiveAggregator agg(cfg);
  HealthConfig hcfg;
  hcfg.imbalance_ratio = 2.0;
  hcfg.imbalance_min_mean_busy_ns = 100;
  HealthMonitor monitor(hcfg);
  AlarmLog log;
  log.Hook(monitor);
  agg.set_monitor(&monitor);

  // Worker 0: 10'000 ns. Workers 1..3: 100 ns. Mean = 2575, max/mean ~ 3.9.
  agg.OnRecord(Rec(RecordKind::kShardTiming, 1, 10'000, 0, 0, 0));
  for (uint16_t w = 1; w <= 3; ++w) {
    agg.OnRecord(Rec(RecordKind::kShardTiming, 1, 100, 0, 0, w));
  }
  agg.OnRecord(Mark(0));
  ASSERT_EQ(log.Count(AlarmKind::kWorkerImbalance), 1u);
  EXPECT_EQ(log.fired.back().subject, 0u);  // The hot worker.
  EXPECT_EQ(log.fired.back().value, 10'000);
}

TEST(LiveAggregatorTest, ReserveStarvationAlarmFiresOnDrainedReserve) {
  LiveAggregatorConfig cfg;
  cfg.frames_per_window = 1;
  LiveAggregator agg(cfg);
  HealthMonitor monitor;
  AlarmLog log;
  log.Hook(monitor);
  agg.set_monitor(&monitor);

  // Reserve 9 withdrawn down to level 0 within the window: starving.
  agg.OnRecord(Rec(RecordKind::kReserveWithdraw, 9, 500, 0, kReserveOpConsume));
  agg.OnRecord(Mark(0));
  ASSERT_EQ(log.Count(AlarmKind::kReserveStarvation), 1u);
  EXPECT_EQ(log.fired.back().subject, 9u);

  // A healthy reserve (level stays positive) never fires.
  agg.OnRecord(Rec(RecordKind::kReserveWithdraw, 9, 500, 2000, kReserveOpConsume));
  agg.OnRecord(Mark(1));
  EXPECT_EQ(log.Count(AlarmKind::kReserveStarvation), 1u);
}

TEST(LiveAggregatorTest, ShardStallAlarmFiresWhenFlowStopsAbruptly) {
  LiveAggregatorConfig cfg;
  cfg.frames_per_window = 1;
  LiveAggregator agg(cfg);
  HealthMonitor monitor;
  AlarmLog log;
  log.Hook(monitor);
  agg.set_monitor(&monitor);

  uint64_t seq = 0;
  // Shard 0 has taps planned and flows for two windows (primes the EWMA).
  agg.OnRecord(Rec(RecordKind::kPlanShard, 0, 3, 1, 0, 1));
  for (int w = 0; w < 2; ++w) {
    agg.OnRecord(Rec(RecordKind::kShardBatch, 0, 5000, 0));
    agg.OnRecord(Mark(seq++));
  }
  EXPECT_EQ(log.Count(AlarmKind::kShardStall), 0u);
  // Then a window where its batches run but move nothing: stalled.
  agg.OnRecord(Rec(RecordKind::kShardBatch, 0, 0, 0));
  agg.OnRecord(Mark(seq++));
  ASSERT_EQ(log.Count(AlarmKind::kShardStall), 1u);
  EXPECT_EQ(log.fired.back().subject, 0u);
  // A shard absent from the plan (no batches) must NOT keep alarming.
  agg.OnRecord(Mark(seq++));
  EXPECT_EQ(log.Count(AlarmKind::kShardStall), 1u);
}

TEST(LiveAggregatorTest, AlarmLogIsBoundedButCountersAreNot) {
  LiveAggregatorConfig cfg;
  cfg.frames_per_window = 1;
  LiveAggregator agg(cfg);
  HealthConfig hcfg;
  hcfg.max_retained_alarms = 3;
  HealthMonitor monitor(hcfg);
  agg.set_monitor(&monitor);
  for (uint64_t w = 0; w < 10; ++w) {
    agg.OnRecord(Mark(w, /*ring_drops=*/w + 1));  // Drop delta 1 per window.
  }
  EXPECT_EQ(monitor.count(AlarmKind::kRecordLoss), 10u);
  EXPECT_EQ(monitor.total_alarms(), 10u);
  ASSERT_EQ(monitor.alarms().size(), 3u);
  EXPECT_EQ(monitor.alarms().back().window, 9u);  // Newest kept.
}

TEST(LiveAggregatorTest, CleanSimulatorRunRaisesNoAccountingAlarms) {
  // The whole catalog against a real run: a healthy sharded simulation with
  // decay must close many windows without a single conservation, loss, or
  // starvation alarm.
  SimConfig cfg;
  cfg.exec.tap_workers = 2;
  cfg.exec.decay_to_shard_root = true;
  cfg.decay_half_life = Duration::Minutes(1);
  cfg.telemetry.enabled = true;
  LiveAggregatorConfig acfg;
  acfg.frames_per_window = 4;
  LiveAggregator agg(acfg);
  HealthMonitor monitor;
  Simulator sim(cfg);
  sim.telemetry().AddSink(&agg);
  agg.set_monitor(&monitor);
  BuildPhones(sim, 8);
  sim.Run(Duration::Millis(600));
  sim.telemetry().FlushFrame();

  EXPECT_GE(agg.windows_closed(), 10u);
  EXPECT_EQ(monitor.count(AlarmKind::kConservationDrift), 0u);
  EXPECT_EQ(monitor.count(AlarmKind::kRecordLoss), 0u);
  EXPECT_EQ(monitor.count(AlarmKind::kReserveStarvation), 0u);
  EXPECT_EQ(monitor.count(AlarmKind::kShardStall), 0u);
}

}  // namespace
}  // namespace cinder
