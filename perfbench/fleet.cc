// The fleet workloads: many phones in one kernel, in the examples/fleet
// shape (budget pool, constant foreground feed, proportional background
// feed, backward tap), with decay routed to each phone's own pool and
// telemetry folded live by a LiveAggregator + HealthMonitor.
//
//   fleet_steady  2000 phones, taps only: tap passes, decay, merge, dispatch
//                 and the telemetry fold do the work; the plan is built once.
//   fleet_churn   the same fleet, but one phone retires (container delete)
//                 and one joins every batch interval, off the 10 ms grid, so
//                 every batch rebuilds the plan and re-partitions.
//   fleet_apps    50 phones, each with a foreground and a background app
//                 thread; one phone in ten also runs a poller through one
//                 shared cooperative netd, so sleeps and wakes cut plans.
//
// Each simulation runs once at tap_workers = 0 and once at 4 and must end
// with the same fingerprint at both.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/apps/poller.h"
#include "src/base/rng.h"
#include "src/core/tap_engine.h"
#include "src/net/netd.h"
#include "src/sim/simulator.h"
#include "src/telemetry/live_aggregator.h"

namespace perfbench {
namespace {

using namespace cinder;

// Setup ends after the first tap batch (t = 10 ms) and its quantum.
const Duration kSetupRun = Duration::Millis(11);
// Set-up-only samples taken per pair of full runs.
constexpr int kExtraSetups = 4;

struct FleetSpec {
  int phones = 0;
  Duration horizon;
  bool churn = false;
  bool apps = false;
};

bool SpecFor(const std::string& workload, FleetSpec* spec) {
  if (workload == "fleet_steady") {
    *spec = {2000, Duration::Seconds(6), false, false};
  } else if (workload == "fleet_churn") {
    *spec = {2000, Duration::Seconds(1), true, false};
  } else if (workload == "fleet_apps") {
    *spec = {50, Duration::Seconds(20), false, true};
  } else {
    return false;
  }
  return true;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  return SplitMix64(seed * 0x9e3779b97f4a7c15ULL + stream).Next();
}

// Everything about one phone that comes from the seed.
struct PhoneParams {
  double budget_j = 0.0;
  int64_t fg_mw = 0;
  double bg_rate = 0.0;
};

PhoneParams ParamsFor(uint64_t seed, uint64_t serial) {
  Rng rng(MixSeed(seed, serial + 1));
  PhoneParams p;
  p.budget_j = rng.UniformRange(150.0, 400.0);
  p.fg_mw = rng.UniformInt(150, 450);
  p.bg_rate = rng.UniformRange(0.001, 0.004);
  return p;
}

class Fleet {
 public:
  // Builds the simulator and every phone. `spans` is null for untraced runs;
  // traced runs time each phone build and delete, and (with telemetry on)
  // every frame's sink delivery.
  Fleet(const FleetSpec& spec, uint64_t seed, const PassConfig& pass, Spans* spans)
      : spec_(spec),
        seed_(seed),
        spans_(spans),
        rig_(FleetConfig(), pass, spans, spec.horizon),
        churn_rng_(MixSeed(seed, 0)) {
    for (int p = 0; p < spec.phones; ++p) {
      phones_.push_back(TimedBuildPhone());
    }
    if (spec.apps) {
      AddPollers();
    }
    if (spec.churn) {
      ScheduleChurn(SimTime::Zero() + Duration::Millis(15));
    }
  }

  Simulator& sim() { return rig_.sim(); }
  const SimRig& rig() const { return rig_; }
  double* child_ns() { return &child_ns_; }
  bool ops_ok() const { return ops_ok_; }

  std::string FingerprintHex() {
    Fingerprint fp;
    AddSimState(&fp, sim());
    return fp.Hex();
  }

  // Deletes up to `n` phones, timing each Kernel::Delete (traced runs only;
  // called after the fingerprint is taken).
  void TimeDeletes(size_t n) {
    for (size_t i = 0; i < n && i < phones_.size(); ++i) {
      TimedDelete(phones_[i]);
    }
  }

 private:
  // The examples/fleet configuration; SimRig applies the pass on top.
  static SimConfig FleetConfig() {
    SimConfig cfg;
    cfg.decay_half_life = Duration::Minutes(2);
    cfg.exec.decay_to_shard_root = true;
    return cfg;
  }

  ObjectId BuildPhone(uint64_t serial) {
    const PhoneParams pp = ParamsFor(seed_, serial);
    Kernel& kernel = sim().kernel();
    const std::string prefix = "phone" + std::to_string(serial);
    const Label label(Level::k1);
    Container* home = kernel.Create<Container>(kernel.root_container_id(), label, prefix);
    Reserve* pool = kernel.Create<Reserve>(home->id(), label, prefix + "/pool");
    pool->Deposit(ToQuantity(Energy::Joules(pp.budget_j)));
    Reserve* fg = kernel.Create<Reserve>(home->id(), label, prefix + "/fg");
    Reserve* bg = kernel.Create<Reserve>(home->id(), label, prefix + "/bg");
    TapEngine& taps = sim().taps();
    Tap* feed_fg =
        kernel.Create<Tap>(home->id(), label, prefix + "/feed_fg", pool->id(), fg->id());
    feed_fg->SetConstantPower(Power::Milliwatts(pp.fg_mw));
    taps.Register(feed_fg->id());
    Tap* feed_bg =
        kernel.Create<Tap>(home->id(), label, prefix + "/feed_bg", pool->id(), bg->id());
    feed_bg->SetProportionalRate(pp.bg_rate);
    taps.Register(feed_bg->id());
    Tap* back = kernel.Create<Tap>(home->id(), label, prefix + "/back", fg->id(), pool->id());
    back->SetProportionalRate(0.1);
    taps.Register(back->id());
    if (spec_.apps) {
      // A foreground and a background app thread, each billed to its reserve.
      const Simulator::Process proc = sim().CreateProcess(prefix + "/app", home->id());
      kernel.LookupTyped<Thread>(proc.thread)->set_active_reserve(fg->id());
      sim().AttachBody(proc.thread, std::make_unique<SpinBody>());
      const ObjectId bg_thread = sim().CreateThreadIn(proc, prefix + "/app_bg");
      kernel.LookupTyped<Thread>(bg_thread)->set_active_reserve(bg->id());
      sim().AttachBody(bg_thread, std::make_unique<SpinBody>());
    }
    return home->id();
  }

  ObjectId TimedBuildPhone() {
    const int64_t t0 = spans_ != nullptr ? NowNs() : 0;
    const ObjectId home = BuildPhone(next_serial_++);
    if (spans_ != nullptr) {
      const auto ns = static_cast<double>(NowNs() - t0);
      spans_->build_ns.push_back(ns);
      child_ns_ += ns;
    }
    return home;
  }

  void TimedDelete(ObjectId home) {
    const int64_t t0 = spans_ != nullptr ? NowNs() : 0;
    ops_ok_ = sim().kernel().Delete(home) == Status::kOk && ops_ok_;
    if (spans_ != nullptr) {
      const auto ns = static_cast<double>(NowNs() - t0);
      spans_->delete_ns.push_back(ns);
      child_ns_ += ns;
    }
  }

  // Exactly one phone in ten runs a poller through the shared cooperative
  // netd, so every seed does the same amount of work; which phones, and
  // each poller's timing, come from the seed.
  void AddPollers() {
    netd_ = std::make_unique<NetdService>(&sim(), NetdMode::kCooperative);
    Rng rng(MixSeed(seed_, 1ULL << 40));
    std::vector<size_t> order(phones_.size());
    for (size_t p = 0; p < order.size(); ++p) {
      order[p] = p;
    }
    for (size_t i = 0; i < order.size() / 10; ++i) {
      std::swap(order[i], order[i + rng.UniformU64(order.size() - i)]);
      PollerApp::Config pc;
      pc.name = "phone" + std::to_string(order[i]) + "/poller";
      pc.poll_interval = Duration::Millis(rng.UniformInt(1500, 4000));
      pc.start_delay = Duration::Millis(rng.UniformInt(0, 1500));
      pc.payload_bytes = 3000;
      pollers_.push_back(std::make_unique<PollerApp>(&sim(), netd_.get(), pc));
    }
  }

  // Every batch interval, 5 ms past the batch grid: a seeded victim retires
  // and a new phone joins.
  void ScheduleChurn(SimTime at) {
    sim().ScheduleAt(at, [this, at] {
      const size_t victim = churn_rng_.UniformU64(phones_.size());
      TimedDelete(phones_[victim]);
      phones_[victim] = TimedBuildPhone();
      if (at + kBatch < SimTime::Zero() + spec_.horizon) {
        ScheduleChurn(at + kBatch);
      }
    });
  }

  const FleetSpec spec_;
  const uint64_t seed_;
  Spans* spans_;
  SimRig rig_;
  std::unique_ptr<NetdService> netd_;
  std::vector<std::unique_ptr<PollerApp>> pollers_;
  std::vector<ObjectId> phones_;
  Rng churn_rng_;
  uint64_t next_serial_ = 0;
  double child_ns_ = 0.0;
  bool ops_ok_ = true;
};

struct Episode {
  double setup_s = 0.0;
  double run_s = 0.0;    // Host seconds after set-up.
  double phone_s = 0.0;  // Simulated phone-seconds after set-up.
  double sim_wall_ns = 0.0;  // Both Run calls, for the tracing-overhead ratio.
  uint64_t records = 0;
  uint64_t dropped = 0;
  std::string fingerprint;
  bool ok = true;
};

// One untraced simulation, run to the horizon as fast as the host allows.
Episode RunEpisode(const FleetSpec& spec, uint64_t seed, const PassConfig& pass) {
  Episode e;
  const int64_t t0 = NowNs();
  Fleet fleet(spec, seed, pass, nullptr);
  Simulator& sim = fleet.sim();
  const int64_t t_run0 = NowNs();
  sim.Run(kSetupRun);
  const int64_t t1 = NowNs();
  sim.Run(spec.horizon - kSetupRun);
  const int64_t t2 = NowNs();
  e.setup_s = static_cast<double>(t1 - t0) / 1e9;
  e.run_s = static_cast<double>(t2 - t1) / 1e9;
  e.sim_wall_ns = static_cast<double>(t2 - t_run0);
  e.phone_s = spec.phones * (spec.horizon - kSetupRun).seconds_f();
  e.fingerprint = fleet.FingerprintHex();
  e.ok = fleet.ops_ok() && fleet.rig().LiveMatchesEngine();
  const LiveAggregator& agg = fleet.rig().agg();
  e.records = agg.records_seen() - agg.frames();
  e.dropped = sim.telemetry().ring_dropped();
  return e;
}

// Set-up alone: simulator construction, every phone, and the first batch.
double MeasureSetup(const FleetSpec& spec, uint64_t seed) {
  const int64_t t0 = NowNs();
  Fleet fleet(spec, seed, {}, nullptr);
  fleet.sim().Run(kSetupRun);
  return static_cast<double>(NowNs() - t0) / 1e9;
}

// What one traced pass measured beyond its spans.
struct PassReport {
  std::string fingerprint;
  bool ok = true;
  uint32_t shards = 0;
  uint64_t dispatches = 0;
  uint64_t busy_ns = 0;
  uint64_t dropped = 0;
  SchedPlanStats plan;
  std::vector<double> partition_ns;
};

PassReport RunTracedPass(const FleetSpec& spec, uint64_t seed, const PassConfig& pass,
                         Spans* s) {
  PassReport r;
  Fleet fleet(spec, seed, pass, s);
  Simulator& sim = fleet.sim();
  RunTraced(sim, SimTime::Zero() + spec.horizon, spec.phones, s, fleet.child_ns());
  r.fingerprint = fleet.FingerprintHex();
  r.ok = fleet.ops_ok() && fleet.rig().LiveMatchesEngine();
  r.shards = sim.taps().shard_count();
  for (const auto& w : fleet.rig().agg().WorkerLoads()) {
    r.dispatches += w.dispatches;
    r.busy_ns += w.busy_ns;
  }
  r.plan = sim.scheduler().plan_stats();
  r.dropped = sim.telemetry().ring_dropped();
  s->ring_dropped += r.dropped;
  TimePartition(sim.kernel(), &r.partition_ns);
  fleet.TimeDeletes(200);
  r.ok = r.ok && fleet.ops_ok();
  return r;
}

Result RunUntraced(const FleetSpec& spec, const Options& opt) {
  Result res;
  // Per-simulation rates and set-up times, per worker count.
  std::vector<double> rate[2];
  std::vector<double> setup;
  std::string reference;
  double record_loss = -1.0;
  const int64_t start = NowNs();
  const PassConfig w0{0};
  const PassConfig w4{4};
  do {
    for (const PassConfig& pass : {w0, w4}) {
      const Episode e = RunEpisode(spec, opt.seed, pass);
      if (reference.empty()) {
        reference = e.fingerprint;
      }
      res.Check("workers " + std::to_string(pass.workers), e.ok, e.fingerprint, reference);
      rate[pass.workers == 0 ? 0 : 1].push_back(e.phone_s / e.run_s);
      if (pass.workers == 0) {
        setup.push_back(e.setup_s);
        // Every record goes through ring 0 at 0 workers: the loss repeats.
        const double loss = static_cast<double>(e.dropped) /
                            static_cast<double>(e.records + e.dropped);
        if (record_loss >= 0.0 && loss != record_loss) {
          res.Fail("record loss changed between identical runs");
        }
        record_loss = loss;
      }
    }
    for (int i = 0; i < kExtraSetups; ++i) {
      setup.push_back(MeasureSetup(spec, opt.seed));
    }
  } while (static_cast<double>(NowNs() - start) / 1e9 < opt.seconds);

  AddEndToEnd(&res, Quantile(rate[1], kFastQuantile), Quantile(rate[0], kFastQuantile), setup);
  std::printf("info rate medians: %.1f at 4 workers, %.1f at 0, over %zu simulations each\n",
              Median(rate[1]), Median(rate[0]), rate[0].size());
  std::printf("info record_loss %.6f (records overwritten before flush / emitted, 0 workers)\n",
              record_loss);
  res.checks.push_back({"fingerprint", reference});
  return res;
}

// The untraced reference run, then one traced pass per configuration, each
// of which must reproduce the reference fingerprint; repeated while time
// remains, with every pass's spans pooled.
Result RunTracedMode(const FleetSpec& spec, const Options& opt) {
  Result res;
  Spans base, w4, lossless, telem_off, no_plans;
  LayerCounts counts;
  std::string reference;
  const int64_t start = NowNs();
  do {
    const Episode e = RunEpisode(spec, opt.seed, {0});
    if (reference.empty()) {
      reference = e.fingerprint;
    }
    res.Check("untraced, 0 workers", e.ok, e.fingerprint, reference);
    base.untraced_ns += e.sim_wall_ns;
    const struct {
      const char* name;
      PassConfig pass;
      Spans* spans;
    } passes[] = {
        {"traced, 0 workers", {0}, &base},
        {"traced, 4 workers", {4}, &w4},
        {"traced, 4 workers, lossless rings", {4, true, true, true}, &lossless},
        {"traced, telemetry off", {0, false}, &telem_off},
        {"traced, plans off", {0, true, false}, &no_plans},
    };
    for (const auto& p : passes) {
      const PassReport r = RunTracedPass(spec, opt.seed, p.pass, p.spans);
      res.Check(p.name, r.ok, r.fingerprint, reference);
      if (p.spans == &base) {
        AddPlanStats(&counts.plan, r.plan);
        counts.partition_ns.insert(counts.partition_ns.end(), r.partition_ns.begin(),
                                   r.partition_ns.end());
      } else if (p.spans == &w4) {
        counts.shards = r.shards;
      } else if (p.spans == &lossless) {
        counts.dispatches += r.dispatches;
        counts.busy_ns += r.busy_ns;
        counts.lossless_dropped += r.dropped;
      }
    }
  } while (static_cast<double>(NowNs() - start) / 1e9 < opt.seconds);

  counts.lossless_batches = lossless.AllBatches().size();
  counts.lossless_batch_ns = Sum(lossless.AllBatches());
  res.checks.push_back({"fingerprint", reference});
  AddLayerMetrics(&res, {&base, &w4, &telem_off, &no_plans}, counts);
  return res;
}

}  // namespace

bool IsFleetWorkload(const std::string& workload) {
  FleetSpec spec;
  return SpecFor(workload, &spec);
}

Result RunFleet(const Options& opt) {
  FleetSpec spec;
  SpecFor(opt.workload, &spec);
  return opt.trace ? RunTracedMode(spec, opt) : RunUntraced(spec, opt);
}

}  // namespace perfbench
