// Golden bit-identity tests for quantum-batched scheduling (PR 9).
//
// The K-quanta run-plan path is an execution strategy, never a semantic
// change: for any sched_plan_quanta setting the simulator must produce
// bit-identical reserve levels, meter totals, thread quanta counters, and
// scheduler pick order to the plan-free (K = 0) reference — including runs
// where timed callbacks mutate the object graph mid-plan and bodies issue
// out-of-band deposits from inside a replayed stretch. These suites are the
// acceptance bar named in docs/PERFORMANCE.md "PR 9".
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/syscalls.h"
#include "src/sim/simulator.h"
#include "src/sim/thread_body.h"
#include "src/telemetry/trace_reader.h"

namespace cinder {
namespace {

// Everything the scheduler and billing paths can influence, captured after a
// run: compared with EXPECT_EQ so any divergence is a hard failure.
struct RunFingerprint {
  std::vector<Quantity> reserve_levels;
  std::vector<int64_t> thread_quanta;  // quanta_run, quanta_denied pairs.
  std::vector<uint32_t> pick_order;    // kSchedPick actors in stream order.
  int64_t battery_level = 0;
  int64_t true_energy_nj = 0;
  int64_t baseline_meter_nj = 0;
  int64_t cpu_meter_nj = 0;

  bool operator==(const RunFingerprint& o) const {
    return reserve_levels == o.reserve_levels && thread_quanta == o.thread_quanta &&
           pick_order == o.pick_order && battery_level == o.battery_level &&
           true_energy_nj == o.true_energy_nj && baseline_meter_nj == o.baseline_meter_nj &&
           cpu_meter_nj == o.cpu_meter_nj;
  }
};

// Captures the fingerprint of a finished run whose telemetry retains every
// record (spill_grow): `reserves`' levels, every queued thread's counters,
// battery, true energy, meter, and the pick order from the trace.
RunFingerprint TakeFingerprint(Simulator& sim, const std::vector<ObjectId>& reserves) {
  Kernel& k = sim.kernel();
  RunFingerprint fp;
  for (ObjectId r : reserves) {
    fp.reserve_levels.push_back(k.LookupTyped<Reserve>(r)->level());
  }
  for (const auto& entry : sim.scheduler().threads()) {
    const Thread* t = k.LookupTyped<Thread>(entry);
    fp.thread_quanta.push_back(t->quanta_run());
    fp.thread_quanta.push_back(t->quanta_denied());
  }
  fp.battery_level = sim.battery_reserve()->level();
  fp.true_energy_nj = sim.total_true_energy().nj();
  fp.baseline_meter_nj = sim.meter().ForComponent(Component::kBaseline).nj();
  fp.cpu_meter_nj = sim.meter().ForComponent(Component::kCpu).nj();

  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  EXPECT_EQ(reader.dropped(), 0u);
  for (const TraceRecord& r : reader.records()) {
    if (r.kind == static_cast<uint8_t>(RecordKind::kSchedPick)) {
      fp.pick_order.push_back(r.actor);
    }
  }
  return fp;
}

// Field by field, so a mismatch pinpoints the divergence in the log.
void ExpectSameRun(const RunFingerprint& got, const RunFingerprint& want) {
  EXPECT_TRUE(got == want);
  EXPECT_EQ(got.reserve_levels, want.reserve_levels);
  EXPECT_EQ(got.thread_quanta, want.thread_quanta);
  EXPECT_EQ(got.pick_order, want.pick_order);
  EXPECT_EQ(got.battery_level, want.battery_level);
  EXPECT_EQ(got.true_energy_nj, want.true_energy_nj);
  EXPECT_EQ(got.baseline_meter_nj, want.baseline_meter_nj);
  EXPECT_EQ(got.cpu_meter_nj, want.cpu_meter_nj);
}

// A mixed fleet exercising every plan end/cut path: a steady spinner (full
// plans), a thread that starves mid-run and is refilled by a timed callback
// (out-of-band deposit cutting a live plan), a permanently energyless thread
// (denied entries), a periodic sleeper (sleeper horizon + wake replay), a
// body that moves energy via syscalls every 64th quantum (reserve-op epoch
// bumps from inside a replayed stretch), a process created mid-run (mutation
// epoch bump), flowing taps + decay (batch-boundary horizon capping), and a
// radio transmit (timed-callback stretch breaks). A queue this small never
// pays for a plan, so the batched runs build one at every decision
// (PlanBuildPolicy::kAlways): the contract must hold wherever plans run.
RunFingerprint RunMixedFleet(uint32_t plan_quanta) {
  SimConfig cfg;
  cfg.decay_half_life = Duration::Seconds(10);
  cfg.exec.sched_plan_quanta = plan_quanta;
  cfg.telemetry.enabled = true;
  cfg.telemetry.spill_grow = true;
  cfg.backlight_on = true;
  Simulator sim(cfg);
  sim.scheduler().set_plan_build_policy(PlanBuildPolicy::kAlways);
  Kernel& k = sim.kernel();
  Thread* boot = sim.boot_thread();

  auto fund = [&](ObjectId proc_container, Energy e, const char* name) {
    ObjectId r = ReserveCreate(k, *boot, proc_container, Label(Level::k1), name).value();
    if (e.nj() > 0) {
      EXPECT_EQ(ReserveTransfer(k, *boot, sim.battery_reserve_id(), r, ToQuantity(e)),
                Status::kOk);
    }
    return r;
  };

  auto spin = sim.CreateProcess("spin");
  ObjectId spin_r = fund(spin.container, Energy::Joules(50.0), "spin_r");
  k.LookupTyped<Thread>(spin.thread)->set_active_reserve(spin_r);
  sim.AttachBody(spin.thread, std::make_unique<SpinBody>());

  auto starve = sim.CreateProcess("starve");
  // 137 mJ = ~1 s of CPU; empties mid-run, refilled at t = 2 s below.
  ObjectId starve_r = fund(starve.container, Energy::Millijoules(137), "starve_r");
  k.LookupTyped<Thread>(starve.thread)->set_active_reserve(starve_r);
  sim.AttachBody(starve.thread, std::make_unique<SpinBody>());

  auto empty = sim.CreateProcess("empty");
  ObjectId empty_r = fund(empty.container, Energy::Joules(0.0), "empty_r");
  k.LookupTyped<Thread>(empty.thread)->set_active_reserve(empty_r);
  sim.AttachBody(empty.thread, std::make_unique<SpinBody>());

  auto sleeper = sim.CreateProcess("sleeper");
  ObjectId sleeper_r = fund(sleeper.container, Energy::Joules(10.0), "sleeper_r");
  k.LookupTyped<Thread>(sleeper.thread)->set_active_reserve(sleeper_r);
  sim.AttachBody(sleeper.thread, MakeBody([](QuantumContext& ctx) {
                   ctx.thread.SleepUntil(ctx.now + Duration::Millis(37));
                 }));

  auto mover = sim.CreateProcess("mover");
  ObjectId mover_r = fund(mover.container, Energy::Joules(10.0), "mover_r");
  ObjectId side_r = fund(mover.container, Energy::Joules(1.0), "side_r");
  k.LookupTyped<Thread>(mover.thread)->set_active_reserve(mover_r);
  sim.AttachBody(mover.thread, MakeBody([mover_r, side_r, n = 0](QuantumContext& ctx) mutable {
                   if (++n % 64 == 0) {
                     // Out-of-band reserve op from inside a replayed stretch.
                     (void)ReserveTransfer(ctx.kernel, ctx.thread, mover_r, side_r, 1000);
                   }
                 }));

  // A flowing tap so batches move flow (exercises the batch-boundary cap).
  ObjectId tapped_r = fund(k.root_container_id(), Energy::Joules(0.0), "tapped_r");
  ObjectId tap = TapCreate(k, sim.taps(), *boot, k.root_container_id(),
                           sim.battery_reserve_id(), tapped_r, Label(Level::k1), "feed")
                     .value();
  EXPECT_EQ(TapSetConstantPower(k, *boot, tap, Power::Milliwatts(30)), Status::kOk);

  sim.ScheduleAfter(Duration::Millis(700), [&] { sim.RadioTransmit(256); });
  sim.ScheduleAfter(Duration::Millis(1200), [&] {
    // Mid-run topology mutation: a new runnable process joins the fleet.
    auto late = sim.CreateProcess("late");
    ObjectId late_r = fund(late.container, Energy::Joules(20.0), "late_r");
    k.LookupTyped<Thread>(late.thread)->set_active_reserve(late_r);
    sim.AttachBody(late.thread, std::make_unique<SpinBody>());
  });
  sim.ScheduleAfter(Duration::Seconds(2), [&] {
    // Out-of-band deposit into the starved reserve while a plan may hold
    // certain-denied entries for it: the epoch guard must cut the plan.
    (void)ReserveTransfer(k, *boot, sim.battery_reserve_id(), starve_r,
                          ToQuantity(Energy::Millijoules(500)));
  });

  sim.Run(Duration::Seconds(3));

  const RunFingerprint fp = TakeFingerprint(
      sim, {spin_r, starve_r, empty_r, sleeper_r, mover_r, side_r, tapped_r});
  EXPECT_EQ(fp.pick_order.size(), 3000u) << "one pick record per quantum, K=" << plan_quanta;
  const TraceReader reader = TraceReader::FromDomain(sim.telemetry());

  if (plan_quanta > 0) {
    // Non-vacuity: the batched runs really did build and replay plans.
    const SchedPlanStats& stats = sim.scheduler().plan_stats();
    EXPECT_GT(stats.plans_built, 0u) << "K=" << plan_quanta;
    EXPECT_GT(stats.quanta_replayed, 0u) << "K=" << plan_quanta;
    EXPECT_EQ(reader.SchedPlannedPicks(), stats.quanta_replayed);
    EXPECT_EQ(reader.SchedPlanBuilds(), stats.plans_built);
  } else {
    EXPECT_EQ(sim.scheduler().plan_stats().plans_built, 0u);
    EXPECT_EQ(reader.SchedPlannedPicks(), 0u);
  }
  return fp;
}

TEST(SchedPlanGoldenTest, BatchedRunsBitIdenticalToPlanFreeAtEveryK) {
  const RunFingerprint reference = RunMixedFleet(0);
  ASSERT_FALSE(reference.pick_order.empty());
  for (uint32_t plan_quanta : {1u, 4u, 16u, 64u}) {
    SCOPED_TRACE("K=" + std::to_string(plan_quanta));
    ExpectSameRun(RunMixedFleet(plan_quanta), reference);
  }
}

TEST(SchedPlanGoldenTest, StepNeverPlans) {
  // Step() is the single-quantum public API; it must stay plan-free so
  // callers single-stepping a simulator observe the classic path.
  Simulator sim;
  auto proc = sim.CreateProcess("spin");
  ObjectId r = ReserveCreate(sim.kernel(), *sim.boot_thread(), proc.container, Label(Level::k1),
                             "r")
                   .value();
  (void)ReserveTransfer(sim.kernel(), *sim.boot_thread(), sim.battery_reserve_id(), r,
                        ToQuantity(Energy::Joules(1.0)));
  sim.kernel().LookupTyped<Thread>(proc.thread)->set_active_reserve(r);
  sim.AttachBody(proc.thread, std::make_unique<SpinBody>());
  for (int i = 0; i < 50; ++i) {
    sim.Step();
  }
  const SchedPlanStats& stats = sim.scheduler().plan_stats();
  EXPECT_EQ(stats.plans_built, 0u);
  EXPECT_EQ(stats.quanta_replayed, 0u);
  EXPECT_EQ(stats.single_step_picks, 50u);
}

TEST(SchedPlanGoldenTest, IdleFleetReplaysFullPlans) {
  // The perf-motivating case: an idle-heavy fleet (every thread blocked or
  // energyless) should replay nearly every quantum from plans, with plan
  // builds amortized across the full horizon.
  SimConfig cfg;
  cfg.decay_enabled = false;
  cfg.exec.sched_plan_quanta = 64;
  Simulator sim(cfg);
  Kernel& k = sim.kernel();
  for (int i = 0; i < 8; ++i) {
    auto proc = sim.CreateProcess("idle" + std::to_string(i));
    ObjectId r =
        ReserveCreate(k, *sim.boot_thread(), proc.container, Label(Level::k1), "r").value();
    k.LookupTyped<Thread>(proc.thread)->set_active_reserve(r);  // Empty: denied forever.
    sim.AttachBody(proc.thread, std::make_unique<SpinBody>());
  }
  sim.Run(Duration::Seconds(2));
  const SchedPlanStats& stats = sim.scheduler().plan_stats();
  EXPECT_GT(stats.plans_built, 0u);
  EXPECT_GT(stats.quanta_replayed, 0u);
  const uint64_t total = stats.quanta_replayed + stats.single_step_picks;
  EXPECT_EQ(total, 2000u);
  // At least 90% of quanta came from plans (build quanta are replays too).
  EXPECT_GT(stats.quanta_replayed * 10, total * 9);
}

// A fleet of `threads` SpinBody processes: the first `funded` draw on a
// well-filled reserve of their own, the rest on an empty one. With
// `flowing_tap`, one constant tap makes every batch move flow, which caps
// each plan at the 10 quanta before the next batch; without it batches are
// dry and a plan may run its full K quanta. Plans are built where the
// scheduler's pay-off model says they pay.
struct SpinFleetRun {
  RunFingerprint fp;
  SchedPlanStats stats;
};

SpinFleetRun RunSpinFleet(int threads, int funded, uint32_t plan_quanta, bool flowing_tap) {
  SimConfig cfg;
  cfg.decay_enabled = false;
  cfg.exec.sched_plan_quanta = plan_quanta;
  cfg.telemetry.enabled = true;
  cfg.telemetry.spill_grow = true;
  Simulator sim(cfg);
  Kernel& k = sim.kernel();
  Thread* boot = sim.boot_thread();
  std::vector<ObjectId> reserves;
  for (int i = 0; i < threads; ++i) {
    auto proc = sim.CreateProcess("p" + std::to_string(i));
    ObjectId r = ReserveCreate(k, *boot, proc.container, Label(Level::k1), "r").value();
    if (i < funded) {
      EXPECT_EQ(ReserveTransfer(k, *boot, sim.battery_reserve_id(), r,
                                ToQuantity(Energy::Joules(10.0))),
                Status::kOk);
    }
    k.LookupTyped<Thread>(proc.thread)->set_active_reserve(r);
    sim.AttachBody(proc.thread, std::make_unique<SpinBody>());
    reserves.push_back(r);
  }
  if (flowing_tap) {
    ObjectId fed =
        ReserveCreate(k, *boot, k.root_container_id(), Label(Level::k1), "fed").value();
    ObjectId tap = TapCreate(k, sim.taps(), *boot, k.root_container_id(),
                             sim.battery_reserve_id(), fed, Label(Level::k1), "feed")
                       .value();
    EXPECT_EQ(TapSetConstantPower(k, *boot, tap, Power::Milliwatts(30)), Status::kOk);
    reserves.push_back(fed);
  }
  sim.Run(Duration::Seconds(1));
  return {TakeFingerprint(sim, reserves), sim.scheduler().plan_stats()};
}

TEST(SchedPlanGoldenTest, FundedFleetRunsPlanFree) {
  // Every pick in a funded queue stops at the first thread it examines, so
  // no plan could win back its classify pass: the batched RunUntil never
  // builds one, and the run is the plan-free one.
  const SpinFleetRun reference = RunSpinFleet(32, 32, 0, true);
  const SpinFleetRun run = RunSpinFleet(32, 32, 64, true);
  EXPECT_EQ(run.stats.plans_built, 0u);
  EXPECT_EQ(run.stats.quanta_replayed, 0u);
  EXPECT_EQ(run.stats.single_step_picks, 1000u);
  EXPECT_EQ(run.stats.scan_positions, 1000u);
  ExpectSameRun(run.fp, reference.fp);
}

TEST(SchedPlanGoldenTest, StarvedFleetWithFlowingTapPlans) {
  // One funded thread among 64: every pick scans the whole queue, so even a
  // plan capped at the 10 quanta before the next (flow-moving) batch pays.
  // The first stretch has no scan history and runs plan-free; every later
  // one builds.
  const SpinFleetRun reference = RunSpinFleet(64, 1, 0, true);
  const SpinFleetRun run = RunSpinFleet(64, 1, 64, true);
  EXPECT_EQ(run.stats.plans_built, 99u);
  EXPECT_EQ(run.stats.quanta_planned, 990u);
  EXPECT_EQ(run.stats.quanta_replayed, 990u);
  // The first pick starts at the funded thread; every later one scans the
  // whole queue back round to it.
  EXPECT_EQ(run.stats.scan_positions, 1u + 999u * 64u);
  ExpectSameRun(run.fp, reference.fp);
}

TEST(SchedPlanGoldenTest, PlanChoiceWeighsTheHorizon) {
  // Two funded threads among 32 and dry batches: picks average 16 positions.
  // Over a 64-quantum horizon that is 1024 positions, which pays for a plan;
  // over 16 quanta it is 256, under the 6 * 32 + 128 a build costs, so K = 16
  // runs plan-free. A flowing tap caps the horizon at 10 quanta: plan-free
  // too. Every run matches the plan-free reference.
  for (const bool flowing_tap : {false, true}) {
    SCOPED_TRACE(flowing_tap ? "flowing tap" : "dry batches");
    const SpinFleetRun reference = RunSpinFleet(32, 2, 0, flowing_tap);
    for (const uint32_t plan_quanta : {16u, 64u}) {
      SCOPED_TRACE("K=" + std::to_string(plan_quanta));
      const SpinFleetRun run = RunSpinFleet(32, 2, plan_quanta, flowing_tap);
      if (plan_quanta == 64 && !flowing_tap) {
        EXPECT_GT(run.stats.plans_built, 0u);
        EXPECT_GT(run.stats.quanta_replayed * 10, 1000u * 9);
      } else {
        EXPECT_EQ(run.stats.plans_built, 0u);
      }
      ExpectSameRun(run.fp, reference.fp);
    }
  }
}

TEST(SchedPlanGoldenTest, ScanCountSkipsDiscardedQuanta) {
  // A plan counts what PickNext would have examined for each quantum it
  // replays, and nothing for the quanta an epoch guard discards, so the scan
  // count of a cut run equals the plan-free run's at every quantum.
  constexpr size_t kThreads = 16;
  constexpr int kQuanta = 12;
  constexpr int kCutAfter = 5;
  const Energy cost = Energy::Microjoules(140);
  struct Queue {
    Kernel k;
    EnergyAwareScheduler sched{&k};
    Reserve* funded = nullptr;
  };
  auto populate = [&](Queue& q) {
    q.funded = q.k.Create<Reserve>(q.k.root_container_id(), Label(Level::k1), "funded");
    q.funded->Deposit(ToQuantity(Energy::Joules(1.0)));
    Reserve* empty = q.k.Create<Reserve>(q.k.root_container_id(), Label(Level::k1), "empty");
    for (size_t i = 0; i < kThreads; ++i) {
      Thread* t = q.k.Create<Thread>(q.k.root_container_id(), Label(Level::k1), "t");
      t->set_active_reserve(i == kThreads / 2 ? q.funded->id() : empty->id());
      q.sched.AddThread(t->id());
    }
  };

  Queue reference;
  populate(reference);
  std::vector<uint64_t> ref_counts;
  for (int q = 0; q < kQuanta; ++q) {
    if (q == kCutAfter) {
      reference.funded->Deposit(1000);
    }
    const ObjectId id = reference.sched.PickNext(SimTime::Zero());
    ASSERT_NE(id, kInvalidObjectId);
    (void)reference.sched.ChargeCpu(*reference.k.LookupTyped<Thread>(id), cost);
    ref_counts.push_back(reference.sched.plan_stats().scan_positions);
  }

  Queue planned;
  populate(planned);
  SchedPlanParams params;
  params.max_quanta = kQuanta;
  params.quantum = Duration::Millis(1);
  params.cost_lo = ToQuantity(cost);
  params.cost_hi = ToQuantity(cost);
  ASSERT_EQ(planned.sched.BuildPlan(SimTime::Zero(), params), static_cast<size_t>(kQuanta));
  EXPECT_EQ(planned.sched.plan_stats().scan_positions, 0u);
  std::vector<uint64_t> counts;
  for (int q = 0; q < kQuanta; ++q) {
    if (q == kCutAfter) {
      planned.funded->Deposit(1000);  // Out-of-band: cuts the plan.
    }
    ObjectId id = kInvalidObjectId;
    if (!planned.sched.TryPlannedPick(SimTime::Zero(), &id)) {
      id = planned.sched.PickNext(SimTime::Zero());
    }
    ASSERT_NE(id, kInvalidObjectId);
    (void)planned.sched.ChargeCpu(*planned.k.LookupTyped<Thread>(id), cost);
    counts.push_back(planned.sched.plan_stats().scan_positions);
  }
  EXPECT_EQ(counts, ref_counts);
  EXPECT_EQ(planned.sched.plan_stats().quanta_replayed, static_cast<uint64_t>(kCutAfter));
  EXPECT_EQ(planned.sched.plan_stats().quanta_discarded,
            static_cast<uint64_t>(kQuanta - kCutAfter));
}

TEST(SchedPlanGoldenTest, SharedReserveMapsToOneBound) {
  // 64 threads bill one shared reserve that holds exactly 40 worst-case
  // quanta. Their level cells are one cell, so the build must price them as
  // one bound: the plan picks 40 quanta and truncates at the 41st, where the
  // plan-free scheduler, billing the same costs, starts denying.
  constexpr size_t kThreads = 64;
  constexpr size_t kFundedQuanta = 40;
  const Quantity cost_lo = ToQuantity(Energy::Microjoules(137));
  const Quantity cost_hi = ToQuantity(Energy::Microjoules(155));
  auto populate = [&](Kernel& k, EnergyAwareScheduler& sched) {
    Reserve* shared = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "shared");
    shared->Deposit(static_cast<Quantity>(kFundedQuanta) * cost_hi);
    for (size_t i = 0; i < kThreads; ++i) {
      Thread* t = k.Create<Thread>(k.root_container_id(), Label(Level::k1), "t");
      t->set_active_reserve(shared->id());
      sched.AddThread(t->id());
    }
  };
  auto index_of = [](const EnergyAwareScheduler& sched, ObjectId id) {
    const auto& q = sched.threads();
    return static_cast<size_t>(std::find(q.begin(), q.end(), id) - q.begin());
  };

  Kernel ref_kernel;
  EnergyAwareScheduler reference(&ref_kernel);
  populate(ref_kernel, reference);
  std::vector<size_t> ref_picks;
  for (size_t q = 0; q < kThreads; ++q) {
    const ObjectId id = reference.PickNext(SimTime::Zero());
    if (id == kInvalidObjectId) {
      break;
    }
    ref_picks.push_back(index_of(reference, id));
    (void)reference.ChargeCpu(*ref_kernel.LookupTyped<Thread>(id), ToEnergy(cost_hi));
  }
  ASSERT_EQ(ref_picks.size(), kFundedQuanta);

  Kernel kernel;
  EnergyAwareScheduler sched(&kernel);
  populate(kernel, sched);
  SchedPlanParams params;
  params.max_quanta = kThreads;
  params.quantum = Duration::Millis(1);
  params.cost_lo = cost_lo;
  params.cost_hi = cost_hi;
  EXPECT_EQ(sched.BuildPlan(SimTime::Zero(), params), kFundedQuanta);
  std::vector<size_t> picks;
  ObjectId picked = kInvalidObjectId;
  while (sched.TryPlannedPick(SimTime::Zero(), &picked)) {
    ASSERT_NE(picked, kInvalidObjectId);
    picks.push_back(index_of(sched, picked));
    (void)sched.ChargeCpu(*kernel.LookupTyped<Thread>(picked), ToEnergy(cost_hi));
  }
  EXPECT_EQ(picks, ref_picks);
  EXPECT_EQ(sched.PickNext(SimTime::Zero()), kInvalidObjectId);
}

}  // namespace
}  // namespace cinder
