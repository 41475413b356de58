// Property test: quantum-batched scheduling is invisible under churn.
//
// Randomized fleets run the same deterministic op script — deposits,
// withdrawals, active-reserve flips, reserve attach/detach, mid-run process
// spawns, thread sleeps — once on the plan-free reference path (K = 0) and
// once per batched setting K in {1, 4, 16, 64}. Every fingerprint the
// scheduler can influence (reserve levels, quanta counters, battery, meter)
// must match the reference bit-for-bit: the epoch guards have to cut plans
// at every mutation the script throws, or a stale entry diverges the run.
// The sharded variant reruns the property with a tap worker pool so the
// plan path is exercised under TSAN in CI alongside the other shard suites.
// These fleets are far too small for a plan to pay, so the batched runs
// build one at every decision (PlanBuildPolicy::kAlways) and check that
// plans really were built and replayed.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/syscalls.h"
#include "src/sim/simulator.h"
#include "src/sim/thread_body.h"

namespace cinder {
namespace {

// One scripted mutation, pre-generated so every K replays the identical
// sequence (the Rng is consumed during script construction only).
struct ChurnOp {
  enum Kind { kDeposit, kConsume, kFlipActive, kAttach, kDetach, kSpawn } kind;
  int64_t at_ms;
  uint32_t thread_idx;
  uint32_t reserve_idx;
  Quantity amount;
};

struct ChurnScript {
  int threads = 0;
  int reserves = 0;
  std::vector<Quantity> seed_levels;  // Initial per-reserve funding.
  std::vector<uint32_t> body_kind;    // Per thread: 0 spin, 1 sleeper.
  std::vector<ChurnOp> ops;
};

ChurnScript MakeScript(uint64_t seed) {
  Rng rng(seed);
  ChurnScript s;
  s.threads = 3 + static_cast<int>(rng.UniformU64(5));
  s.reserves = s.threads + static_cast<int>(rng.UniformU64(4));
  for (int r = 0; r < s.reserves; ++r) {
    s.seed_levels.push_back(rng.Bernoulli(0.7)
                                ? static_cast<Quantity>(rng.UniformU64(200000000))
                                : 0);
  }
  for (int t = 0; t < s.threads; ++t) {
    s.body_kind.push_back(rng.Bernoulli(0.25) ? 1 : 0);
  }
  const int n_ops = 24 + static_cast<int>(rng.UniformU64(24));
  for (int i = 0; i < n_ops; ++i) {
    ChurnOp op;
    const uint64_t k = rng.UniformU64(12);
    op.kind = k < 4   ? ChurnOp::kDeposit
              : k < 6 ? ChurnOp::kConsume
              : k < 8 ? ChurnOp::kFlipActive
              : k < 9 ? ChurnOp::kAttach
              : k < 10 ? ChurnOp::kDetach
                       : ChurnOp::kSpawn;
    if (k >= 10 && rng.Bernoulli(0.5)) {
      op.kind = ChurnOp::kDeposit;  // Keep spawns rarer than reserve traffic.
    }
    op.at_ms = 1 + static_cast<int64_t>(rng.UniformU64(990));
    op.thread_idx = static_cast<uint32_t>(rng.UniformU64(s.threads));
    op.reserve_idx = static_cast<uint32_t>(rng.UniformU64(s.reserves));
    op.amount = static_cast<Quantity>(rng.UniformU64(50000000));
    s.ops.push_back(op);
  }
  return s;
}

struct ChurnFingerprint {
  std::vector<Quantity> levels;
  std::vector<int64_t> quanta;
  int64_t battery = 0;
  int64_t true_energy_nj = 0;
  int64_t cpu_meter_nj = 0;
  SchedPlanStats plan;
};

ChurnFingerprint RunScript(const ChurnScript& script, uint32_t plan_quanta, int workers) {
  SimConfig cfg;
  cfg.decay_half_life = Duration::Seconds(10);
  cfg.exec.sched_plan_quanta = plan_quanta;
  cfg.exec.tap_workers = workers;
  Simulator sim(cfg);
  sim.scheduler().set_plan_build_policy(PlanBuildPolicy::kAlways);
  Kernel& k = sim.kernel();
  Thread* boot = sim.boot_thread();

  std::vector<ObjectId> reserves;
  for (int r = 0; r < script.reserves; ++r) {
    ObjectId id = ReserveCreate(k, *boot, k.root_container_id(), Label(Level::k1),
                                "r" + std::to_string(r))
                      .value();
    if (script.seed_levels[r] > 0) {
      EXPECT_EQ(ReserveTransfer(k, *boot, sim.battery_reserve_id(), id, script.seed_levels[r]),
                Status::kOk);
    }
    reserves.push_back(id);
  }
  std::vector<ObjectId> threads;
  for (int t = 0; t < script.threads; ++t) {
    auto proc = sim.CreateProcess("t" + std::to_string(t));
    Thread* th = k.LookupTyped<Thread>(proc.thread);
    th->set_active_reserve(reserves[t % reserves.size()]);
    if (script.body_kind[t] == 1) {
      sim.AttachBody(proc.thread, MakeBody([](QuantumContext& ctx) {
                       ctx.thread.SleepUntil(ctx.now + Duration::Millis(23));
                     }));
    } else {
      sim.AttachBody(proc.thread, std::make_unique<SpinBody>());
    }
    threads.push_back(proc.thread);
  }
  // A flowing tap keeps batches moving flow, so plans race batch boundaries.
  EXPECT_EQ(TapSetConstantPower(
                k, *boot,
                TapCreate(k, sim.taps(), *boot, k.root_container_id(),
                          sim.battery_reserve_id(), reserves[0], Label(Level::k1), "feed")
                    .value(),
                Power::Milliwatts(20)),
            Status::kOk);

  for (const ChurnOp& op : script.ops) {
    sim.ScheduleAfter(Duration::Millis(op.at_ms), [&, op] {
      Thread* th = k.LookupTyped<Thread>(threads[op.thread_idx]);
      ObjectId res = reserves[op.reserve_idx];
      switch (op.kind) {
        case ChurnOp::kDeposit:
          (void)ReserveTransfer(k, *boot, sim.battery_reserve_id(), res, op.amount);
          break;
        case ChurnOp::kConsume:
          (void)ReserveConsume(k, *boot, res, op.amount);
          break;
        case ChurnOp::kFlipActive:
          th->set_active_reserve(res);
          break;
        case ChurnOp::kAttach:
          th->AttachReserve(res);
          break;
        case ChurnOp::kDetach:
          th->DetachReserve(res);
          break;
        case ChurnOp::kSpawn: {
          auto proc = sim.CreateProcess("spawn");
          k.LookupTyped<Thread>(proc.thread)->set_active_reserve(res);
          sim.AttachBody(proc.thread, std::make_unique<SpinBody>());
          threads.push_back(proc.thread);
          break;
        }
      }
    });
  }

  sim.Run(Duration::Seconds(1));

  ChurnFingerprint fp;
  for (ObjectId r : reserves) {
    fp.levels.push_back(k.LookupTyped<Reserve>(r)->level());
  }
  for (ObjectId t : threads) {
    const Thread* th = k.LookupTyped<Thread>(t);
    fp.quanta.push_back(th->quanta_run());
    fp.quanta.push_back(th->quanta_denied());
  }
  fp.battery = sim.battery_reserve()->level();
  fp.true_energy_nj = sim.total_true_energy().nj();
  fp.cpu_meter_nj = sim.meter().ForComponent(Component::kCpu).nj();
  fp.plan = sim.scheduler().plan_stats();
  return fp;
}

class SchedPlanProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedPlanProperty, ChurnedRunsMatchPlanFreeReferenceAtEveryK) {
  const ChurnScript script = MakeScript(GetParam());
  const ChurnFingerprint reference = RunScript(script, 0, 0);
  for (uint32_t plan_quanta : {1u, 4u, 16u, 64u}) {
    const ChurnFingerprint got = RunScript(script, plan_quanta, 0);
    EXPECT_EQ(got.levels, reference.levels) << "seed=" << GetParam() << " K=" << plan_quanta;
    EXPECT_EQ(got.quanta, reference.quanta) << "seed=" << GetParam() << " K=" << plan_quanta;
    EXPECT_EQ(got.battery, reference.battery) << "seed=" << GetParam() << " K=" << plan_quanta;
    EXPECT_EQ(got.true_energy_nj, reference.true_energy_nj)
        << "seed=" << GetParam() << " K=" << plan_quanta;
    EXPECT_EQ(got.cpu_meter_nj, reference.cpu_meter_nj)
        << "seed=" << GetParam() << " K=" << plan_quanta;
    EXPECT_GT(got.plan.plans_built, 0u) << "seed=" << GetParam() << " K=" << plan_quanta;
    EXPECT_GT(got.plan.quanta_replayed, 0u) << "seed=" << GetParam() << " K=" << plan_quanta;
  }
  EXPECT_EQ(reference.plan.plans_built, 0u);
}

TEST_P(SchedPlanProperty, ShardedChurnedRunsMatchSerialReference) {
  // Same property with a tap worker pool: the scheduler plan path must stay
  // exact while batches run on real threads (the TSAN-covered variant).
  const ChurnScript script = MakeScript(GetParam() * 7919 + 5);
  const ChurnFingerprint reference = RunScript(script, 0, 0);
  const ChurnFingerprint got = RunScript(script, 64, 2);
  EXPECT_EQ(got.levels, reference.levels) << "seed=" << GetParam();
  EXPECT_EQ(got.quanta, reference.quanta) << "seed=" << GetParam();
  EXPECT_EQ(got.battery, reference.battery) << "seed=" << GetParam();
  EXPECT_EQ(got.true_energy_nj, reference.true_energy_nj) << "seed=" << GetParam();
  EXPECT_EQ(got.cpu_meter_nj, reference.cpu_meter_nj) << "seed=" << GetParam();
  EXPECT_GT(got.plan.plans_built, 0u) << "seed=" << GetParam();
  EXPECT_GT(got.plan.quanta_replayed, 0u) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedPlanProperty, ::testing::Values(3, 17, 41, 97, 131, 257));

}  // namespace
}  // namespace cinder
