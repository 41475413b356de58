// Ablation (simulator execution strategy, not a paper result): when does a
// scheduler run plan pay for itself? Each queue shape runs the batched
// stepper three ways in the same stretch loop: plans forced off, plans forced
// on at every decision, and the default pay-off rule
// (EnergyAwareScheduler::BuildPlanIfItPays). Results are bit-identical in all
// three; only host time differs. The table reports per-quantum wall time, the
// rule's prediction against its threshold, and the rule's choice, so the
// constants kPlanPayoffScansPerThread / kPlanPayoffScansPerBuild can be
// re-checked on any machine. Shapes: N SpinBody threads, the first F funded
// and the rest starved (picks average N / F positions); "flowing" adds one
// constant tap so every batch moves flow and caps plans at 10 quanta, "dry"
// has no tap and lets plans run the full 64.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/simulator.h"
#include "src/sim/thread_body.h"

namespace cinder {
namespace {

constexpr int kQuantaPerRep = 2000;
constexpr int kReps = 15;

std::unique_ptr<Simulator> MakeFleet(int threads, int funded, bool flowing,
                                     PlanBuildPolicy policy) {
  SimConfig cfg;
  cfg.decay_enabled = false;
  auto sim = std::make_unique<Simulator>(cfg);
  sim->scheduler().set_plan_build_policy(policy);
  Kernel& k = sim->kernel();
  for (int i = 0; i < threads; ++i) {
    auto proc = sim->CreateProcess("p" + std::to_string(i));
    Reserve* r = k.Create<Reserve>(proc.container, Label(Level::k1), "r");
    if (i < funded) {
      r->Deposit(INT64_MAX / 4);
    }
    k.LookupTyped<Thread>(proc.thread)->set_active_reserve(r->id());
    sim->AttachBody(proc.thread, std::make_unique<SpinBody>());
  }
  if (flowing) {
    Reserve* fed = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "fed");
    Tap* feed = k.Create<Tap>(k.root_container_id(), Label(Level::k1), "feed",
                              sim->battery_reserve_id(), fed->id());
    feed->SetConstantPower(Power::Milliwatts(1));
    sim->taps().Register(feed->id());
  }
  return sim;
}

struct ShapeResult {
  double off_ns = 0;      // Median ns per quantum, plans forced off.
  double on_ns = 0;       // Plans forced on.
  double rule_ns = 0;     // Default pay-off rule.
  double scans_per_quantum = 0;
  uint64_t rule_plans = 0;
};

ShapeResult MeasureShape(int threads, int funded, bool flowing) {
  const PlanBuildPolicy policies[3] = {PlanBuildPolicy::kNever, PlanBuildPolicy::kAlways,
                                       PlanBuildPolicy::kWhenItPays};
  std::unique_ptr<Simulator> sims[3];
  for (int i = 0; i < 3; ++i) {
    sims[i] = MakeFleet(threads, funded, flowing, policies[i]);
    sims[i]->Run(Duration::Millis(200));  // Warm caches and scan history.
  }
  std::vector<double> ns[3];
  for (int rep = 0; rep < kReps; ++rep) {
    for (int i = 0; i < 3; ++i) {  // Interleaved, so host drift hits all three.
      const auto start = std::chrono::steady_clock::now();
      sims[i]->Run(Duration::Millis(kQuantaPerRep));
      const auto end = std::chrono::steady_clock::now();
      ns[i].push_back(std::chrono::duration<double, std::nano>(end - start).count() /
                      kQuantaPerRep);
    }
  }
  ShapeResult r;
  double* medians[3] = {&r.off_ns, &r.on_ns, &r.rule_ns};
  for (int i = 0; i < 3; ++i) {
    std::sort(ns[i].begin(), ns[i].end());
    *medians[i] = ns[i][kReps / 2];
  }
  const SchedPlanStats& off = sims[0]->scheduler().plan_stats();
  r.scans_per_quantum = static_cast<double>(off.scan_positions) /
                        static_cast<double>(off.single_step_picks + off.quanta_replayed);
  r.rule_plans = sims[2]->scheduler().plan_stats().plans_built;
  return r;
}

void Run() {
  PrintHeader("Ablation — scheduler run-plan pay-off (plans off vs on vs the default rule)",
              "n/a: an execution strategy; every run is bit-identical, only host time moves");
  TableWriter t("ns per quantum, median of 15 interleaved 2000-quantum runs");
  t.SetColumns({"threads", "funded", "batches", "scan/q", "predicted/cost", "off_ns", "on_ns",
                "on/off", "rule", "rule_ns"});
  int shapes = 0;
  int wrong = 0;
  double regret = 0;
  for (const int threads : {4, 16, 64, 256, 1024}) {
    for (const int funded : {1, 2, 4, 8, threads}) {
      if (funded > threads || (funded == threads && funded <= 8)) {
        continue;
      }
      for (const bool flowing : {true, false}) {
        const ShapeResult r = MeasureShape(threads, funded, flowing);
        const double horizon = flowing ? 10.0 : 64.0;
        const double cost =
            static_cast<double>(EnergyAwareScheduler::kPlanPayoffScansPerThread * threads +
                                EnergyAwareScheduler::kPlanPayoffScansPerBuild);
        const bool builds = r.rule_plans > 0;
        const double chosen = builds ? r.on_ns : r.off_ns;
        const double best = std::min(r.on_ns, r.off_ns);
        ++shapes;
        regret += (chosen - best) / best;
        wrong += chosen > best * 1.05 ? 1 : 0;
        t.AddRow({std::to_string(threads), std::to_string(funded), flowing ? "flowing" : "dry",
                  TableWriter::Num(r.scans_per_quantum, 1),
                  TableWriter::Num(r.scans_per_quantum * horizon / cost, 2),
                  TableWriter::Num(r.off_ns, 0), TableWriter::Num(r.on_ns, 0),
                  TableWriter::Num(r.on_ns / r.off_ns, 2), builds ? "plan" : "skip",
                  TableWriter::Num(r.rule_ns, 0)});
      }
    }
  }
  t.Print();
  std::printf("summary: the rule plans when predicted/cost > 1. It chose the side more than\n"
              "5%% slower on %d of %d shapes; mean regret against the faster side %.1f%%.\n",
              wrong, shapes, 100.0 * regret / shapes);
}

}  // namespace
}  // namespace cinder

int main() {
  cinder::Run();
  return 0;
}
