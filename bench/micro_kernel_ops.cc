// Microbenchmarks (google-benchmark) for Cinder's kernel primitives: label
// checks, reserve operations, tap-engine batches at varying scale, gate
// calls, and scheduler picks. These quantify the claim of section 3.3 that
// taps are cheaper than dedicated transfer threads: a full tap batch over N
// taps is a tight loop, not N context switches.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <vector>

#include "src/core/syscalls.h"
#include "src/core/tap_engine.h"
#include "src/exec/shard_executor.h"
#include "src/histar/kernel.h"
#include "src/sim/simulator.h"
#include "src/telemetry/file_stream_sink.h"
#include "src/telemetry/trace_domain.h"

namespace cinder {
namespace {

void BM_LabelFlowsTo(benchmark::State& state) {
  Label a(Level::k1);
  Label b(Level::k1);
  for (int i = 0; i < 4; ++i) {
    a.Set(static_cast<Category>(i + 1), Level::k2);
    b.Set(static_cast<Category>(i + 1), Level::k3);
  }
  CategorySet privs;
  privs.Add(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Label::FlowsTo(a, b, privs));
  }
}
BENCHMARK(BM_LabelFlowsTo);

void BM_ReserveConsume(benchmark::State& state) {
  Reserve r(1, Label(Level::k1), "r");
  r.Deposit(INT64_MAX / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.Consume(137));
  }
}
BENCHMARK(BM_ReserveConsume);

void BM_ReserveTransferSyscall(benchmark::State& state) {
  Kernel k;
  Thread* t = k.Create<Thread>(k.root_container_id(), Label(Level::k1), "t");
  Reserve* a = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "a");
  Reserve* b = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "b");
  a->Deposit(INT64_MAX / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReserveTransfer(k, *t, a->id(), b->id(), 1000));
  }
}
BENCHMARK(BM_ReserveTransferSyscall);

void BM_TapBatch(benchmark::State& state) {
  const int n_taps = static_cast<int>(state.range(0));
  Kernel k;
  Reserve* battery = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "battery");
  battery->set_decay_exempt(true);
  battery->Deposit(INT64_MAX / 2);
  TapEngine engine(&k, battery->id());
  engine.decay().enabled = false;
  for (int i = 0; i < n_taps; ++i) {
    Reserve* r = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "r");
    Tap* tap = k.Create<Tap>(k.root_container_id(), Label(Level::k1), "t", battery->id(),
                             r->id());
    tap->SetConstantPower(Power::Milliwatts(1));
    engine.Register(tap->id());
  }
  for (auto _ : state) {
    engine.RunBatch(Duration::Millis(10));
  }
  state.SetItemsProcessed(state.iterations() * n_taps);
}
BENCHMARK(BM_TapBatch)->Arg(1)->Arg(8)->Arg(64)->Arg(512)->Arg(4096)->Arg(32768);

// BM_TapBatch with always-on telemetry attached (default record mask,
// bounded spill, per-batch flush). Tracked as an ordinary benchmark for the
// cross-PR trend; the <2% overhead CI gate is measured by the paired
// --telemetry_gate probe below, not by comparing the two benchmarks' own
// timings (sequential runs drift too much to resolve 2%).
void BM_TapBatchTelemetry(benchmark::State& state) {
  const int n_taps = static_cast<int>(state.range(0));
  Kernel k;
  Reserve* battery = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "battery");
  battery->set_decay_exempt(true);
  battery->Deposit(INT64_MAX / 2);
  TapEngine engine(&k, battery->id());
  engine.decay().enabled = false;
  TelemetryConfig cfg;
  cfg.enabled = true;
  TraceDomain domain(cfg);
  engine.set_telemetry(&domain);
  for (int i = 0; i < n_taps; ++i) {
    Reserve* r = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "r");
    Tap* tap = k.Create<Tap>(k.root_container_id(), Label(Level::k1), "t", battery->id(),
                             r->id());
    tap->SetConstantPower(Power::Milliwatts(1));
    engine.Register(tap->id());
  }
  for (auto _ : state) {
    engine.RunBatch(Duration::Millis(10));
  }
  state.SetItemsProcessed(state.iterations() * n_taps);
}
BENCHMARK(BM_TapBatchTelemetry)->Arg(512)->Arg(32768);

// A scratch file for streaming benchmarks: tmpfs when available so the
// numbers measure the sink's CPU cost, not disk latency.
std::string StreamScratchPath(const char* name) {
  std::string shm = std::string("/dev/shm/") + name;
  if (std::FILE* probe = std::fopen(shm.c_str(), "wb")) {
    std::fclose(probe);
    return shm;
  }
  return std::string("/tmp/") + name;
}

// BM_TapBatchTelemetry with a FileStreamSink attached: the full streaming
// pipeline (ring flush -> sink -> stdio buffer -> tmpfs), no retention. The
// <2% CI budget versus the bare batch is enforced by the paired probe below,
// same as the telemetry-only overhead.
void BM_TapBatchStreaming(benchmark::State& state) {
  const int n_taps = static_cast<int>(state.range(0));
  Kernel k;
  Reserve* battery = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "battery");
  battery->set_decay_exempt(true);
  battery->Deposit(INT64_MAX / 2);
  TapEngine engine(&k, battery->id());
  engine.decay().enabled = false;
  FileStreamSink sink;  // Declared before the domain: sinks outlive it.
  TelemetryConfig cfg;
  cfg.enabled = true;
  TraceDomain domain(cfg);
  const std::string path = StreamScratchPath("cinder_bench_stream.bin");
  std::string err;
  if (!sink.Open(path, {}, &err)) {
    state.SkipWithError(err.c_str());
    return;
  }
  domain.AddSink(&sink);
  engine.set_telemetry(&domain);
  for (int i = 0; i < n_taps; ++i) {
    Reserve* r = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "r");
    Tap* tap = k.Create<Tap>(k.root_container_id(), Label(Level::k1), "t", battery->id(),
                             r->id());
    tap->SetConstantPower(Power::Milliwatts(1));
    engine.Register(tap->id());
  }
  for (auto _ : state) {
    engine.RunBatch(Duration::Millis(10));
  }
  state.SetItemsProcessed(state.iterations() * n_taps);
  domain.RemoveSink(&sink);
  std::remove(path.c_str());
}
BENCHMARK(BM_TapBatchStreaming)->Arg(512)->Arg(32768);

// The sharded path on a fleet-like topology: `n_taps` taps spread over 16
// disconnected components (one source pool each). arg1 is the worker count;
// 0 runs the same topology through the unsharded engine for a direct
// baseline. Flows are bit-identical across all variants by construction.
void BM_TapBatchSharded(benchmark::State& state) {
  const int n_taps = static_cast<int>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  constexpr int kComponents = 16;
  Kernel k;
  Reserve* battery = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "battery");
  battery->set_decay_exempt(true);
  TapEngine engine(&k, battery->id());
  engine.decay().enabled = false;
  ShardExecutor exec(workers > 0 ? workers : 1);
  if (workers > 0) {
    engine.EnableSharding(&exec);
  }
  std::vector<Reserve*> pools;
  for (int c = 0; c < kComponents; ++c) {
    Reserve* pool = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "pool");
    pool->Deposit(INT64_MAX / (2 * kComponents));
    pools.push_back(pool);
  }
  for (int i = 0; i < n_taps; ++i) {
    Reserve* r = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "r");
    Tap* tap = k.Create<Tap>(k.root_container_id(), Label(Level::k1), "t",
                             pools[i % kComponents]->id(), r->id());
    tap->SetConstantPower(Power::Milliwatts(1));
    engine.Register(tap->id());
  }
  for (auto _ : state) {
    engine.RunBatch(Duration::Millis(10));
  }
  state.SetItemsProcessed(state.iterations() * n_taps);
}
BENCHMARK(BM_TapBatchSharded)
    ->ArgNames({"taps", "workers"})
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({512, 4})
    ->Args({32768, 0})
    ->Args({32768, 1})
    ->Args({32768, 2})
    ->Args({32768, 4});

// The per-shard fixed cost at fleet scale: `phones` phones in the
// examples/fleet shape (a seeded pool feeding a constant foreground and a
// proportional background reserve, plus a backward tap), so every phone is
// its own three-tap shard, with decay leaking to each phone's own pool
// (to_shard_root) and telemetry off. One 10 ms batch per iteration.
// workers=0 runs the sharded engine serially in the caller.
void BM_TapBatchFleet(benchmark::State& state) {
  const int phones = static_cast<int>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  Kernel k;
  Reserve* battery = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "battery");
  battery->set_decay_exempt(true);
  TapEngine engine(&k, battery->id());
  engine.decay().enabled = true;
  engine.decay().half_life = Duration::Minutes(2);
  engine.decay().to_shard_root = true;
  ShardExecutor exec(workers > 0 ? workers : 1);
  engine.EnableSharding(workers > 0 ? &exec : nullptr);
  const ObjectId root = k.root_container_id();
  for (int p = 0; p < phones; ++p) {
    Reserve* pool = k.Create<Reserve>(root, Label(Level::k1), "pool");
    pool->Deposit(ToQuantity(Energy::Joules(200.0 + (p % 7) * 25.0)));
    Reserve* fg = k.Create<Reserve>(root, Label(Level::k1), "fg");
    Reserve* bg = k.Create<Reserve>(root, Label(Level::k1), "bg");
    Tap* feed_fg = k.Create<Tap>(root, Label(Level::k1), "feed_fg", pool->id(), fg->id());
    feed_fg->SetConstantPower(Power::Milliwatts(200 + (p % 5) * 60));
    engine.Register(feed_fg->id());
    Tap* feed_bg = k.Create<Tap>(root, Label(Level::k1), "feed_bg", pool->id(), bg->id());
    feed_bg->SetProportionalRate(0.002 + 0.0005 * (p % 4));
    engine.Register(feed_bg->id());
    Tap* back = k.Create<Tap>(root, Label(Level::k1), "back", fg->id(), pool->id());
    back->SetProportionalRate(0.1);
    engine.Register(back->id());
  }
  for (auto _ : state) {
    engine.RunBatch(Duration::Millis(10));
  }
  state.SetItemsProcessed(state.iterations() * phones);
}
BENCHMARK(BM_TapBatchFleet)->ArgNames({"phones", "workers"})->Args({2000, 0})->Args({2000, 4});

// The intra-shard range split on a giant single component: one pool fans out
// to `n_taps` sinks, so shard-level parallelism has exactly one shard to
// offer and all scaling must come from splitting its plan into ranges.
// workers=0 runs the sharded engine with splitting disabled (the whole-shard
// baseline); workers>=1 split into 8 ranges on that many workers (1 = the
// split pipeline run serially in the caller, isolating the split overhead
// from pool parallelism).
void BM_TapBatchGiant(benchmark::State& state) {
  const int n_taps = static_cast<int>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  Kernel k;
  Reserve* battery = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "battery");
  battery->set_decay_exempt(true);
  TapEngine engine(&k, battery->id());
  engine.decay().enabled = false;
  if (workers == 0) {
    engine.split().min_entries = 0;
  }
  ShardExecutor exec(workers > 0 ? workers : 1);
  engine.EnableSharding(&exec);
  Reserve* pool = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "pool");
  pool->Deposit(INT64_MAX / 2);
  for (int i = 0; i < n_taps; ++i) {
    Reserve* r = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "r");
    Tap* tap = k.Create<Tap>(k.root_container_id(), Label(Level::k1), "t", pool->id(),
                             r->id());
    tap->SetConstantPower(Power::Milliwatts(1));
    engine.Register(tap->id());
  }
  for (auto _ : state) {
    engine.RunBatch(Duration::Millis(10));
  }
  state.SetItemsProcessed(state.iterations() * n_taps);
}
BENCHMARK(BM_TapBatchGiant)
    ->ArgNames({"taps", "workers"})
    ->Args({32768, 0})
    ->Args({32768, 1})
    ->Args({32768, 2})
    ->Args({32768, 4});

// The deep-ladder topology the range split cannot parallelize: one chain of
// `depth` taps is a single component, but its plan is thousands of one-entry
// demand groups with chained destinations — range tickets would defer nearly
// every deposit, so splitting buys nothing and the uncut engine serializes
// the whole chain as one work item. Articulation cuts bound every sub-shard
// at 512 entries (depth/512 independent work items) and settle the severed
// taps' transfers in one serial pass at the batch boundary. Every node is
// pre-funded so all demand groups stay provably unconstrained and the lane
// path runs (the fused fallback would re-serialize). workers=0 is the
// sharded engine with cutting off (the whole-shard baseline); workers=1 runs
// the cut pipeline serially in the caller, isolating the cut machinery's
// overhead from pool parallelism.
void BM_TapBatchChain(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  Kernel k;
  Reserve* battery = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "battery");
  battery->set_decay_exempt(true);
  TapEngine engine(&k, battery->id());
  engine.decay().enabled = false;
  if (workers > 0) {
    engine.set_cut_threshold(512);
  }
  ShardExecutor exec(workers > 0 ? workers : 1);
  engine.EnableSharding(&exec);
  Reserve* prev = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "head");
  prev->Deposit(INT64_MAX / (2 * depth));
  for (int i = 0; i < depth; ++i) {
    Reserve* r = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "r");
    r->Deposit(INT64_MAX / (2 * depth));
    Tap* tap = k.Create<Tap>(k.root_container_id(), Label(Level::k1), "t", prev->id(),
                             r->id());
    tap->SetConstantPower(Power::Milliwatts(1));
    engine.Register(tap->id());
    prev = r;
  }
  for (auto _ : state) {
    engine.RunBatch(Duration::Millis(10));
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_TapBatchChain)
    ->ArgNames({"depth", "workers"})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({1024, 4})
    ->Args({8192, 0})
    ->Args({8192, 1})
    ->Args({8192, 4});

void BM_TapBatchWithDecay(benchmark::State& state) {
  const int n_reserves = static_cast<int>(state.range(0));
  Kernel k;
  Reserve* battery = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "battery");
  battery->set_decay_exempt(true);
  battery->Deposit(INT64_MAX / 2);
  TapEngine engine(&k, battery->id());
  engine.decay().enabled = true;
  for (int i = 0; i < n_reserves; ++i) {
    Reserve* r = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "r");
    r->Deposit(1000000000);
  }
  for (auto _ : state) {
    engine.RunBatch(Duration::Millis(10));
  }
  state.SetItemsProcessed(state.iterations() * n_reserves);
}
BENCHMARK(BM_TapBatchWithDecay)->Arg(8)->Arg(64)->Arg(512);

// The decay skip-list at fleet scale: almost every reserve is empty (level
// 0), and the pass must only pay for the non-empty 1%. Before the skip-list
// this walked all `n_reserves` every batch.
void BM_DecaySparse(benchmark::State& state) {
  const int n_reserves = static_cast<int>(state.range(0));
  Kernel k;
  Reserve* battery = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "battery");
  battery->set_decay_exempt(true);
  battery->Deposit(INT64_MAX / 2);
  TapEngine engine(&k, battery->id());
  engine.decay().enabled = true;
  // Near-infinite half-life: each visit still withdraws ~1 unit (so the full
  // carry/withdraw path runs), but the non-empty set drains by <5% over even
  // the longest benchmark run — we measure the steady visit cost, not the
  // transient toward an empty skip-list.
  engine.decay().half_life = Duration::Minutes(100000);
  for (int i = 0; i < n_reserves; ++i) {
    Reserve* r = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "r");
    if (i % 100 == 0) {
      r->Deposit(1000000000);
    }
  }
  for (auto _ : state) {
    engine.RunBatch(Duration::Millis(10));
  }
  state.SetItemsProcessed(state.iterations() * n_reserves);
}
BENCHMARK(BM_DecaySparse)->Arg(4096)->Arg(32768);

void BM_KernelLookup(benchmark::State& state) {
  const int n_objects = static_cast<int>(state.range(0));
  Kernel k;
  std::vector<ObjectId> ids;
  ids.reserve(n_objects);
  for (int i = 0; i < n_objects; ++i) {
    ids.push_back(k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "r")->id());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.Lookup(ids[i]));
    i = (i + 1) % ids.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelLookup)->Arg(64)->Arg(4096)->Arg(32768);

void BM_ObjectsOfType(benchmark::State& state) {
  const int n_objects = static_cast<int>(state.range(0));
  Kernel k;
  for (int i = 0; i < n_objects; ++i) {
    k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "r");
    k.Create<Thread>(k.root_container_id(), Label(Level::k1), "t");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.ObjectsOfType(ObjectType::kReserve));
  }
  state.SetItemsProcessed(state.iterations() * n_objects);
}
BENCHMARK(BM_ObjectsOfType)->Arg(64)->Arg(4096)->Arg(32768);

void BM_GateCall(benchmark::State& state) {
  Kernel k;
  Thread* t = k.Create<Thread>(k.root_container_id(), Label(Level::k1), "t");
  AddressSpace* as = k.Create<AddressSpace>(k.root_container_id(), Label(Level::k1), "as");
  Gate* g = k.Create<Gate>(k.root_container_id(), Label(Level::k1), "g", as->id());
  g->set_handler([](Thread&, const GateMessage& msg) {
    GateReply r;
    r.rets.push_back(msg.args.empty() ? 0 : msg.args[0]);
    return r;
  });
  GateMessage msg;
  msg.args.push_back(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.GateCall(*t, g->id(), msg));
  }
}
BENCHMARK(BM_GateCall);

void BM_SchedulerPick(benchmark::State& state) {
  const int n_threads = static_cast<int>(state.range(0));
  Kernel k;
  EnergyAwareScheduler sched(&k);
  Reserve* r = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "r");
  r->Deposit(INT64_MAX / 2);
  for (int i = 0; i < n_threads; ++i) {
    Thread* t = k.Create<Thread>(k.root_container_id(), Label(Level::k1), "t");
    t->set_active_reserve(r->id());
    sched.AddThread(t->id());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.PickNext(SimTime::Zero()));
  }
}
BENCHMARK(BM_SchedulerPick)->Arg(2)->Arg(16)->Arg(128);

void BM_SimulatorStep(benchmark::State& state) {
  SimConfig cfg;
  cfg.decay_enabled = true;
  Simulator sim(cfg);
  Kernel& k = sim.kernel();
  for (int i = 0; i < 4; ++i) {
    auto proc = sim.CreateProcess("p" + std::to_string(i));
    Reserve* r = k.Create<Reserve>(proc.container, Label(Level::k1), "r");
    r->Deposit(INT64_MAX / 4);
    k.LookupTyped<Thread>(proc.thread)->set_active_reserve(r->id());
    sim.AttachBody(proc.thread, std::make_unique<SpinBody>());
  }
  for (auto _ : state) {
    sim.Step();
  }
}
BENCHMARK(BM_SimulatorStep);

// The pick cost the K-quanta plans amortize: an idle-heavy fleet (one funded
// spinner among N-1 energyless threads) where every single-quantum PickNext
// is a full O(N) scan that mostly counts denials. Compare against
// BM_SimStepBatched below, which replays the same decision from a plan.
void BM_SchedPick(benchmark::State& state) {
  const int n_threads = static_cast<int>(state.range(0));
  Kernel k;
  EnergyAwareScheduler sched(&k);
  Reserve* funded = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "funded");
  funded->Deposit(INT64_MAX / 2);
  Reserve* empty = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "empty");
  for (int i = 0; i < n_threads; ++i) {
    Thread* t = k.Create<Thread>(k.root_container_id(), Label(Level::k1), "t");
    t->set_active_reserve(i == 0 ? funded->id() : empty->id());
    sched.AddThread(t->id());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.PickNext(SimTime::Zero()));
  }
}
BENCHMARK(BM_SchedPick)->Arg(32)->Arg(128);

// Per-quantum cost of the batched stepper on an idle-heavy fleet (the
// fleet-scenario steady state: most threads energyless, a couple runnable)
// at plan horizons K in {1, 16, 64}, against K = 0 (no plans, the plain Step
// loop). Batches are dry (no taps, decay off), so a plan may run all K
// quanta: picks average 16 positions, which pays for a plan at K = 64 but
// not at 16 or 1, where the stepper runs plan-free. Results are bit-identical
// across K (golden-tested); only the per-quantum overhead moves.
// items_per_second is quanta per second — the honest single-CPU number for
// docs/PERFORMANCE.md.
void BM_SimStepBatched(benchmark::State& state) {
  SimConfig cfg;
  cfg.decay_enabled = false;
  cfg.exec.sched_plan_quanta = static_cast<uint32_t>(state.range(0));
  Simulator sim(cfg);
  Kernel& k = sim.kernel();
  for (int i = 0; i < 32; ++i) {
    auto proc = sim.CreateProcess("p" + std::to_string(i));
    Reserve* r = k.Create<Reserve>(proc.container, Label(Level::k1), "r");
    if (i < 2) {
      r->Deposit(INT64_MAX / 4);  // Two spinners stay runnable; 30 starve.
    }
    k.LookupTyped<Thread>(proc.thread)->set_active_reserve(r->id());
    sim.AttachBody(proc.thread, std::make_unique<SpinBody>());
  }
  constexpr int64_t kQuantaPerIter = 64;
  for (auto _ : state) {
    sim.Run(Duration::Millis(kQuantaPerIter));
  }
  state.SetItemsProcessed(state.iterations() * kQuantaPerIter);
}
BENCHMARK(BM_SimStepBatched)->ArgName("K")->Arg(0)->Arg(1)->Arg(16)->Arg(64);

// The plan choice at scale: N processes, two funded and the rest starved,
// plus one flowing tap so every tap batch moves flow and caps a plan at the
// 10 quanta before the next batch. Picks average N/2 positions, so a plan
// would cover 5N of them, under the 6N + 128 its classify pass costs: the
// default stepper declines (BM_SimStepStarved). The PlansOff arm never
// builds and the PlansForced arm builds one every stretch, in the same
// stretch loop, so the three compare the decision's two sides directly;
// PlansForced also guards the build against growing faster than linearly
// in N. One iteration is one 10 ms Run (one stretch).
void RunStarvedFleet(benchmark::State& state, PlanBuildPolicy policy) {
  SimConfig cfg;
  cfg.decay_enabled = false;
  Simulator sim(cfg);
  sim.scheduler().set_plan_build_policy(policy);
  Kernel& k = sim.kernel();
  const int n_threads = static_cast<int>(state.range(0));
  for (int i = 0; i < n_threads; ++i) {
    auto proc = sim.CreateProcess("p" + std::to_string(i));
    Reserve* r = k.Create<Reserve>(proc.container, Label(Level::k1), "r");
    if (i < 2) {
      r->Deposit(INT64_MAX / 4);
    }
    k.LookupTyped<Thread>(proc.thread)->set_active_reserve(r->id());
    sim.AttachBody(proc.thread, std::make_unique<SpinBody>());
  }
  Reserve* fed = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "fed");
  Tap* feed = k.Create<Tap>(k.root_container_id(), Label(Level::k1), "feed",
                            sim.battery_reserve_id(), fed->id());
  feed->SetConstantPower(Power::Milliwatts(1));
  sim.taps().Register(feed->id());
  constexpr int64_t kQuantaPerIter = 10;
  for (auto _ : state) {
    sim.Run(Duration::Millis(kQuantaPerIter));
  }
  benchmark::DoNotOptimize(fed->level());
  state.SetItemsProcessed(state.iterations() * kQuantaPerIter);
}
void BM_SimStepStarved(benchmark::State& state) {
  RunStarvedFleet(state, PlanBuildPolicy::kWhenItPays);
}
void BM_SimStepStarvedPlansOff(benchmark::State& state) {
  RunStarvedFleet(state, PlanBuildPolicy::kNever);
}
void BM_SimStepStarvedPlansForced(benchmark::State& state) {
  RunStarvedFleet(state, PlanBuildPolicy::kAlways);
}
BENCHMARK(BM_SimStepStarved)->ArgName("threads")->Arg(256)->Arg(1024);
BENCHMARK(BM_SimStepStarvedPlansOff)->ArgName("threads")->Arg(256)->Arg(1024);
BENCHMARK(BM_SimStepStarvedPlansForced)->ArgName("threads")->Arg(256)->Arg(1024);

void BM_ObjectCreateDelete(benchmark::State& state) {
  Kernel k;
  for (auto _ : state) {
    Reserve* r = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "r");
    benchmark::DoNotOptimize(r);
    (void)k.Delete(r->id());
  }
}
BENCHMARK(BM_ObjectCreateDelete);

// --- Paired telemetry-overhead probe ---------------------------------------
// `micro_kernel_ops --telemetry_gate=OUT.json` measures the telemetry-on tap
// batch against the telemetry-off one by alternating the two engines in
// ~100-batch blocks on one thread, then writes the paired per-batch medians
// in google-benchmark JSON shape under the usual names, so
// compare_bench.py --relative-gate consumes the file unchanged.
//
// Why not just compare the two benchmarks above? On shared/virtualized
// runners, CPU steal and frequency drift move *sequential* measurements by
// ±10% — two orders of magnitude above the real overhead (<0.5%) and far
// above the 2% budget the gate enforces. Alternating at ~25ms granularity
// exposes both engines to the same machine conditions, which cancels the
// drift; repeated probe runs agree to well under 1%.

struct TelemetryGateRig {
  Kernel k;
  FileStreamSink sink;  // Declared before the domain: sinks outlive it.
  TraceDomain domain;
  std::unique_ptr<TapEngine> engine;
  std::string stream_path;

  // `stream_to` non-null additionally attaches a FileStreamSink writing
  // there, measuring the whole streaming pipeline (implies telemetry on).
  explicit TelemetryGateRig(bool telemetry_on, int n_taps,
                            const char* stream_to = nullptr) {
    Reserve* battery =
        k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "battery");
    battery->set_decay_exempt(true);
    battery->Deposit(INT64_MAX / 2);
    engine = std::make_unique<TapEngine>(&k, battery->id());
    engine->decay().enabled = false;
    TelemetryConfig cfg;
    cfg.enabled = telemetry_on;
    domain.Configure(cfg);
    if (stream_to != nullptr) {
      stream_path = StreamScratchPath(stream_to);
      if (sink.Open(stream_path, {})) {
        domain.AddSink(&sink);
      }
    }
    engine->set_telemetry(&domain);
    for (int i = 0; i < n_taps; ++i) {
      Reserve* r = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "r");
      Tap* tap = k.Create<Tap>(k.root_container_id(), Label(Level::k1), "t",
                               battery->id(), r->id());
      tap->SetConstantPower(Power::Milliwatts(1));
      engine->Register(tap->id());
    }
  }

  ~TelemetryGateRig() {
    if (!stream_path.empty()) {
      domain.RemoveSink(&sink);
      std::remove(stream_path.c_str());
    }
  }

  // Thread CPU time for one block of batches, in ns. Thread time (rather
  // than wall time) additionally excludes preemption by other processes.
  double TimeBlock(int batches) {
    timespec t0, t1;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
    for (int i = 0; i < batches; ++i) engine->RunBatch(Duration::Millis(10));
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
    return (t1.tv_sec - t0.tv_sec) * 1e9 + (t1.tv_nsec - t0.tv_nsec);
  }
};

int RunTelemetryGate(const char* out_path) {
  constexpr int kTaps = 32768;  // Matches BM_TapBatch*/32768.
  constexpr int kBlockBatches = 100;
  constexpr int kRounds = 60;
  TelemetryGateRig off(false, kTaps);
  TelemetryGateRig on(true, kTaps);
  TelemetryGateRig stream(true, kTaps, "cinder_gate_stream.bin");
  off.TimeBlock(20);  // Warm up allocator, caches, and tap order.
  on.TimeBlock(20);
  stream.TimeBlock(20);
  TelemetryGateRig* rigs[3] = {&off, &on, &stream};
  std::vector<double> times[3];
  for (int round = 0; round < kRounds; ++round) {
    // Rotate which rig goes first so within-round drift (a later block
    // always runs on a slightly different machine state than an earlier
    // one) cancels across rounds instead of biasing one rig.
    for (int j = 0; j < 3; ++j) {
      const int idx = (j + round) % 3;
      times[idx].push_back(rigs[idx]->TimeBlock(kBlockBatches));
    }
  }
  // The blocks of one round are adjacent in time, so machine-state drift
  // hits them near-identically: the per-round ratio cancels it, and the
  // median of per-round ratios is far tighter than the ratio of the
  // independent medians.
  auto paired_overhead = [&](const std::vector<double>& t) {
    std::vector<double> ratios;
    for (int round = 0; round < kRounds; ++round) {
      ratios.push_back(t[round] / times[0][round]);
    }
    std::sort(ratios.begin(), ratios.end());
    return ratios[kRounds / 2] - 1.0;
  };
  const double on_overhead = paired_overhead(times[1]);
  const double stream_overhead = paired_overhead(times[2]);
  std::vector<double> t_off = times[0];
  std::sort(t_off.begin(), t_off.end());
  const double off_ns = t_off[kRounds / 2] / kBlockBatches;
  const double on_ns = off_ns * (1.0 + on_overhead);
  const double stream_ns = off_ns * (1.0 + stream_overhead);
  std::fprintf(stderr,
               "telemetry gate probe: off %.0f ns/batch, paired overhead "
               "telemetry %+.2f%%, streaming %+.2f%%\n",
               off_ns, 100.0 * on_overhead, 100.0 * stream_overhead);
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::perror(out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"context\": {\"telemetry_gate_probe\": true},\n"
               "  \"benchmarks\": [\n"
               "    {\"name\": \"BM_TapBatch/32768\", \"run_type\": \"iteration\",\n"
               "     \"iterations\": %d, \"real_time\": %.1f, \"cpu_time\": %.1f,\n"
               "     \"time_unit\": \"ns\"},\n"
               "    {\"name\": \"BM_TapBatchTelemetry/32768\", \"run_type\": \"iteration\",\n"
               "     \"iterations\": %d, \"real_time\": %.1f, \"cpu_time\": %.1f,\n"
               "     \"time_unit\": \"ns\"},\n"
               "    {\"name\": \"BM_TapBatchStreaming/32768\", \"run_type\": \"iteration\",\n"
               "     \"iterations\": %d, \"real_time\": %.1f, \"cpu_time\": %.1f,\n"
               "     \"time_unit\": \"ns\"}\n"
               "  ]\n"
               "}\n",
               kRounds * kBlockBatches, off_ns, off_ns, kRounds * kBlockBatches,
               on_ns, on_ns, kRounds * kBlockBatches, stream_ns, stream_ns);
  std::fclose(f);
  return 0;
}

}  // namespace
}  // namespace cinder

int main(int argc, char** argv) {
  constexpr char kGateFlag[] = "--telemetry_gate=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kGateFlag, sizeof(kGateFlag) - 1) == 0) {
      return cinder::RunTelemetryGate(argv[i] + sizeof(kGateFlag) - 1);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
