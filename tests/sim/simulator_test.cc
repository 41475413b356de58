#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include "src/core/syscalls.h"

namespace cinder {
namespace {

SimConfig QuietConfig() {
  SimConfig cfg;
  cfg.decay_enabled = false;
  return cfg;
}

TEST(SimulatorTest, BootStateSane) {
  Simulator sim(QuietConfig());
  EXPECT_EQ(sim.now(), SimTime::Zero());
  ASSERT_NE(sim.battery_reserve(), nullptr);
  EXPECT_EQ(sim.battery_reserve()->energy(), Energy::Joules(15000.0));
  ASSERT_NE(sim.boot_thread(), nullptr);
}

TEST(SimulatorTest, ClockAdvances) {
  Simulator sim(QuietConfig());
  sim.Run(Duration::Seconds(1));
  EXPECT_EQ(sim.now(), SimTime::Zero() + Duration::Seconds(1));
}

TEST(SimulatorTest, IdleDrawsBaselinePower) {
  Simulator sim(QuietConfig());
  sim.Run(Duration::Seconds(10));
  // 699 mW for 10 s = 6.99 J true drain (no threads, radio asleep).
  EXPECT_NEAR(sim.total_true_energy().joules_f(), 6.99, 0.01);
  EXPECT_NEAR(sim.meter().ForComponent(Component::kBaseline).joules_f(), 6.99, 0.01);
}

TEST(SimulatorTest, BacklightAddsPower) {
  Simulator sim(QuietConfig());
  sim.set_backlight(true);
  sim.Run(Duration::Seconds(10));
  EXPECT_NEAR(sim.total_true_energy().joules_f(), 6.99 + 5.55, 0.02);
}

TEST(SimulatorTest, SpinningThreadBillsCpuToItsReserve) {
  Simulator sim(QuietConfig());
  Kernel& k = sim.kernel();
  Thread* boot = sim.boot_thread();
  auto proc = sim.CreateProcess("spin");
  ObjectId r = ReserveCreate(k, *boot, proc.container, Label(Level::k1), "r").value();
  (void)ReserveTransfer(k, *boot, sim.battery_reserve_id(), r, ToQuantity(Energy::Joules(10.0)));
  k.LookupTyped<Thread>(proc.thread)->set_active_reserve(r);
  sim.AttachBody(proc.thread, std::make_unique<SpinBody>());
  sim.Run(Duration::Seconds(10));
  // CPU at 137 mW for 10 s = 1.37 J billed to the thread.
  EXPECT_NEAR(sim.meter().ForPrincipalComponent(proc.thread, Component::kCpu).joules_f(), 1.37,
              0.01);
  // And the reserve lost exactly that.
  EXPECT_NEAR(ToEnergy(ReserveLevel(k, *boot, r).value()).joules_f(), 10.0 - 1.37, 0.01);
  // True drain = baseline + CPU.
  EXPECT_NEAR(sim.total_true_energy().joules_f(), 6.99 + 1.37, 0.02);
}

TEST(SimulatorTest, ThreadStopsWhenReserveEmpty) {
  Simulator sim(QuietConfig());
  Kernel& k = sim.kernel();
  Thread* boot = sim.boot_thread();
  auto proc = sim.CreateProcess("spin");
  ObjectId r = ReserveCreate(k, *boot, proc.container, Label(Level::k1), "r").value();
  // 137 mJ: exactly 1 s of CPU.
  (void)ReserveTransfer(k, *boot, sim.battery_reserve_id(), r,
                        ToQuantity(Energy::Millijoules(137)));
  k.LookupTyped<Thread>(proc.thread)->set_active_reserve(r);
  sim.AttachBody(proc.thread, std::make_unique<SpinBody>());
  sim.Run(Duration::Seconds(5));
  Thread* t = k.LookupTyped<Thread>(proc.thread);
  // Ran ~1000 quanta then starved for the rest.
  EXPECT_NEAR(static_cast<double>(t->quanta_run()), 1000.0, 5.0);
  EXPECT_GT(t->quanta_denied(), 0);
  EXPECT_EQ(ReserveLevel(k, *boot, r).value(), 0);
}

TEST(SimulatorTest, MemoryIntensiveBodyDrawsPremiumTruePower) {
  class MemBody : public ThreadBody {
   public:
    void OnQuantum(QuantumContext&) override {}
    bool memory_intensive() const override { return true; }
  };
  Simulator sim(QuietConfig());
  Kernel& k = sim.kernel();
  Thread* boot = sim.boot_thread();
  auto proc = sim.CreateProcess("mem");
  ObjectId r = ReserveCreate(k, *boot, proc.container, Label(Level::k1), "r").value();
  (void)ReserveTransfer(k, *boot, sim.battery_reserve_id(), r, ToQuantity(Energy::Joules(10.0)));
  k.LookupTyped<Thread>(proc.thread)->set_active_reserve(r);
  sim.AttachBody(proc.thread, std::make_unique<MemBody>());
  sim.Run(Duration::Seconds(10));
  // +13% on the CPU's 1.37 J.
  EXPECT_NEAR(sim.total_true_energy().joules_f(), 6.99 + 1.37 * 1.13, 0.03);
}

TEST(SimulatorTest, TimedCallbacksFireInOrder) {
  Simulator sim(QuietConfig());
  std::vector<int> fired;
  sim.ScheduleAfter(Duration::Millis(20), [&] { fired.push_back(2); });
  sim.ScheduleAfter(Duration::Millis(10), [&] { fired.push_back(1); });
  sim.ScheduleAfter(Duration::Millis(10), [&] { fired.push_back(10); });  // Same time: FIFO.
  sim.Run(Duration::Millis(50));
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(fired[1], 10);
  EXPECT_EQ(fired[2], 2);
}

TEST(SimulatorTest, ProbeSamplesTruePower) {
  Simulator sim(QuietConfig());
  sim.Run(Duration::Seconds(5));
  const TimeSeries& trace = sim.probe().trace();
  ASSERT_GT(trace.size(), 20u);  // 200 ms cadence over 5 s.
  EXPECT_NEAR(trace.MeanValue(), 0.699, 0.005);
}

TEST(SimulatorTest, RadioTransmitShowsUpInTruePower) {
  Simulator sim(QuietConfig());
  sim.ScheduleAfter(Duration::Seconds(1), [&] { sim.RadioTransmit(1); });
  sim.Run(Duration::Seconds(30));
  // One activation episode: ~9.5 J above the 0.699 W baseline over 30 s.
  const double baseline = 0.699 * 30.0;
  EXPECT_NEAR(sim.total_true_energy().joules_f() - baseline, 9.5, 1.5);
  EXPECT_GT(sim.radio_active_time().secs(), 20);
  EXPECT_EQ(sim.radio().activation_count(), 1);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run = [] {
    Simulator sim(QuietConfig());
    sim.ScheduleAfter(Duration::Seconds(1), [&] { sim.RadioTransmit(100); });
    sim.Run(Duration::Seconds(40));
    return sim.total_true_energy().nj();
  };
  EXPECT_EQ(run(), run());
}

TEST(SimulatorTest, NonPositiveQuantumAndBatchPeriodFallBackToDefaults) {
  // A zero quantum would never advance the clock and a negative batch period
  // would never run a batch; both are replaced by their defaults.
  SimConfig cfg = QuietConfig();
  cfg.quantum = Duration::Zero();
  cfg.tap_batch = Duration::Millis(-10);
  Simulator sim(cfg);
  EXPECT_EQ(sim.config().quantum.us(), SimConfig{}.quantum.us());
  EXPECT_EQ(sim.config().tap_batch.us(), SimConfig{}.tap_batch.us());
  Kernel& k = sim.kernel();
  Thread* boot = sim.boot_thread();
  ObjectId r = ReserveCreate(k, *boot, k.root_container_id(), Label(Level::k1), "r").value();
  ObjectId tap = TapCreate(k, sim.taps(), *boot, k.root_container_id(), sim.battery_reserve_id(),
                           r, Label(Level::k1), "feed")
                     .value();
  ASSERT_EQ(TapSetConstantPower(k, *boot, tap, Power::Milliwatts(100)), Status::kOk);
  sim.Run(Duration::Millis(5));
  EXPECT_EQ(sim.now(), SimTime::Zero() + Duration::Millis(5));
  sim.Run(Duration::Millis(10));
  // The batch at t = 10 ms moved 10 ms of the 100 mW feed.
  EXPECT_EQ(ReserveLevel(k, *boot, r).value(), ToQuantity(Energy::Millijoules(1)));
}

TEST(SimulatorTest, BatteryReserveTracksBaseline) {
  Simulator sim(QuietConfig());
  Energy before = sim.battery_reserve()->energy();
  sim.Run(Duration::Seconds(10));
  Energy spent = before - sim.battery_reserve()->energy();
  EXPECT_NEAR(spent.joules_f(), 6.99, 0.01);
}

TEST(SimulatorTest, TapSplitConfigReachesEngineWithoutChangingResults) {
  // SimConfig's split knobs must reach the tap engine — the battery fan-out
  // below is one component, so a low threshold splits it — and, with demand
  // far under the battery level, split runs must stay bit-identical to the
  // unsharded serial engine.
  auto run = [](int workers, uint32_t threshold, uint32_t ranges) {
    SimConfig cfg;
    cfg.decay_enabled = false;
    cfg.tap_workers = workers;
    cfg.tap_split_threshold = threshold;
    cfg.tap_split_ranges = ranges;
    Simulator sim(cfg);
    Kernel& k = sim.kernel();
    Thread* boot = sim.boot_thread();
    auto proc = sim.CreateProcess("apps");
    std::vector<ObjectId> apps;
    for (int i = 0; i < 48; ++i) {
      ObjectId r =
          ReserveCreate(k, *boot, proc.container, Label(Level::k1), "app").value();
      ObjectId tap = TapCreate(k, sim.taps(), *boot, proc.container,
                               sim.battery_reserve_id(), r, Label(Level::k1), "t")
                         .value();
      (void)TapSetConstantPower(k, *boot, tap, Power::Milliwatts(1 + i % 7));
      apps.push_back(r);
    }
    sim.Run(Duration::Seconds(5));
    std::vector<Quantity> levels;
    for (ObjectId id : apps) {
      levels.push_back(k.LookupTyped<Reserve>(id)->level());
    }
    levels.push_back(sim.battery_reserve()->level());
    bool any_split = false;
    for (const auto& s : sim.taps().shard_stats()) {
      any_split |= s.ranges > 1;
    }
    return std::pair(levels, any_split);
  };
  auto [serial, serial_split] = run(0, 8, 4);
  EXPECT_FALSE(serial_split);  // tap_workers = 0: unsharded, nothing splits.
  auto [split, did_split] = run(2, 8, 4);
  EXPECT_TRUE(did_split);
  EXPECT_EQ(serial, split);
  auto [off, off_split] = run(2, 0, 4);  // Threshold 0 disables splitting.
  EXPECT_FALSE(off_split);
  EXPECT_EQ(serial, off);
}

TEST(SimulatorTest, CreateThreadInSharesProcess) {
  Simulator sim(QuietConfig());
  auto proc = sim.CreateProcess("app");
  ObjectId t2 = sim.CreateThreadIn(proc, "worker");
  Thread* t = sim.kernel().LookupTyped<Thread>(t2);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->home_address_space(), proc.address_space);
  EXPECT_EQ(sim.scheduler().threads().size(), 2u);
}

}  // namespace
}  // namespace cinder
