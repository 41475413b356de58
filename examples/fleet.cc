// Fleet-scale sharded simulation: hundreds of simulated phones in one
// kernel, each an isolated reserve/tap component, with tap batches running
// on the shard executor. Demonstrates the src/exec layer end to end — and,
// since PR 8, the *streaming* telemetry stack: instead of retaining the
// whole run in the spill and analyzing post-hoc, the run streams through
// live sinks as it executes:
//
//   - a LiveAggregator + HealthMonitor fold every frame into windowed
//     state (flow EWMAs, busy histograms, invariant checks) in-process;
//   - with a trace-file argument, a FileStreamSink writes the same records
//     to disk incrementally (O(ring) memory however long the run), and the
//     finalized file is re-read offline to prove live == offline == engine.
//
// Each phone gets a budget pool (seeded once, decaying like any hoard), a
// foreground app fed at a constant rate, a background app on a proportional
// tap, and a backward tap returning unused foreground energy — a miniature
// of the paper's Figure 6 configuration, times N. Decay leakage goes back to
// each phone's own pool (ExecConfig::decay_to_shard_root) instead of the
// global battery: one phone's hoarding never subsidizes another.
//
// Build & run:  ./build/example_fleet [phones] [workers] [sim_seconds] [trace_file]
// With a trace_file the stream can be watched from another terminal:
//   ./build/energytop <trace_file>            (live windows + alarms)
//   ./build/energytrace <trace_file> --follow (summary once finalized)
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "src/base/table_writer.h"
#include "src/base/units.h"
#include "src/core/tap_engine.h"
#include "src/sim/simulator.h"
#include "src/telemetry/health_monitor.h"
#include "src/telemetry/live_aggregator.h"
#include "src/telemetry/trace_reader.h"

using namespace cinder;

namespace {

void BuildPhone(Simulator& sim, int p) {
  Kernel& kernel = sim.kernel();
  const std::string prefix = "phone" + std::to_string(p);
  Container* home =
      kernel.Create<Container>(kernel.root_container_id(), Label(Level::k1), prefix);

  // The phone's energy budget. Seeded once — no tap from the global battery,
  // so every phone stays its own connected component (its own shard).
  Reserve* pool = kernel.Create<Reserve>(home->id(), Label(Level::k1), prefix + "/pool");
  pool->Deposit(ToQuantity(Energy::Joules(200.0 + (p % 7) * 25.0)));
  Reserve* fg = kernel.Create<Reserve>(home->id(), Label(Level::k1), prefix + "/fg");
  Reserve* bg = kernel.Create<Reserve>(home->id(), Label(Level::k1), prefix + "/bg");

  TapEngine& taps = sim.taps();
  Tap* feed_fg = kernel.Create<Tap>(home->id(), Label(Level::k1), prefix + "/feed_fg",
                                    pool->id(), fg->id());
  feed_fg->SetConstantPower(Power::Milliwatts(200 + (p % 5) * 60));
  taps.Register(feed_fg->id());
  Tap* feed_bg = kernel.Create<Tap>(home->id(), Label(Level::k1), prefix + "/feed_bg",
                                    pool->id(), bg->id());
  feed_bg->SetProportionalRate(0.002 + 0.0005 * (p % 4));
  taps.Register(feed_bg->id());
  Tap* back = kernel.Create<Tap>(home->id(), Label(Level::k1), prefix + "/back", fg->id(),
                                 pool->id());
  back->SetProportionalRate(0.1);
  taps.Register(back->id());
}

}  // namespace

int main(int argc, char** argv) {
  int positional[3] = {200, 4, 30};  // phones, workers, sim_seconds.
  int n_positional = 0;
  const char* trace_file = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-' && argv[i][1] == '-') {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: %s [phones] [workers] [sim_seconds] "
                   "[trace_file]\n",
                   argv[i], argv[0]);
      return 2;
    } else if (n_positional < 3) {
      positional[n_positional++] = std::atoi(argv[i]);
    } else if (trace_file == nullptr) {
      trace_file = argv[i];
    }
  }
  const int phones = positional[0];
  const int workers = positional[1];
  const int sim_seconds = positional[2];

  SimConfig cfg;
  cfg.decay_half_life = Duration::Minutes(2);  // Visible decay in a short run.
  cfg.exec.tap_workers = workers;
  cfg.exec.decay_to_shard_root = true;  // Leakage returns to each phone's pool.
  cfg.telemetry.enabled = true;
  // Streaming mode: sinks consume every frame as it flushes, the domain
  // retains nothing, and telemetry memory stays O(rings) no matter how long
  // the run is (the retained-spill + spill_grow full-history mode this
  // example used pre-PR-8 is now only needed when no sink is attached).
  if (trace_file != nullptr) {
    cfg.telemetry.stream_path = trace_file;
  }

  // The in-process live view: windowed aggregation plus invariant checks,
  // fed by the same frames the file sink streams. Declared before the
  // simulator: the domain's destructor detaches its sinks, so they must
  // still be alive when the simulator goes down.
  uint64_t serious_alarms = 0;
  LiveAggregator agg;
  HealthMonitor monitor;
  Simulator sim(cfg);
  agg.set_monitor(&monitor);
  monitor.set_callback([&serious_alarms](const Alarm& a) {
    if (a.kind == AlarmKind::kConservationDrift || a.kind == AlarmKind::kRecordLoss) {
      ++serious_alarms;  // Accounting invariants — a clean run never fires these.
    }
    std::printf("ALARM %s: window %llu subject %u value %lld\n", AlarmKindName(a.kind),
                static_cast<unsigned long long>(a.window), a.subject,
                static_cast<long long>(a.value));
  });
  agg.set_window_callback([](const WindowStats& w) {
    if (w.index % 64 == 0) {  // A heartbeat, not a flood.
      std::printf("live: window %llu t=%.1fs tap %.3f mJ decay %.3f mJ drops %llu\n",
                  static_cast<unsigned long long>(w.index),
                  static_cast<double>(w.end_time_us) / 1e6,
                  static_cast<double>(w.tap_flow) / 1e6,
                  static_cast<double>(w.decay_flow) / 1e6,
                  static_cast<unsigned long long>(w.ring_drop_delta));
    }
  });
  sim.telemetry().AddSink(&agg);

  for (int p = 0; p < phones; ++p) {
    BuildPhone(sim, p);
  }

  std::printf("fleet: %d phones, %d tap workers, %d simulated seconds%s\n", phones, workers,
              sim_seconds, trace_file != nullptr ? " (streaming to file)" : "");
  const auto wall_start = std::chrono::steady_clock::now();
  sim.Run(Duration::Seconds(sim_seconds));
  const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();

  TapEngine& taps = sim.taps();
  std::printf("shards: %u (expected %d), wall time %lld ms\n", taps.shard_count(), phones,
              static_cast<long long>(wall_ms));

  // Flush the scheduler records written since the last batch so the sinks
  // see the whole run, then read every statistic from the *live* aggregator
  // — the domain retained nothing (the O(ring) memory claim, printed so a
  // reader can see it hold).
  sim.telemetry().FlushFrame();
  std::printf("telemetry: %llu frames streamed, %llu windows closed, retained spill %zu "
              "records (capacity %zu)\n",
              static_cast<unsigned long long>(agg.frames()),
              static_cast<unsigned long long>(agg.windows_closed()),
              sim.telemetry().spill_size(), sim.telemetry().spill_capacity());

  // Per-shard tap flow attribution for the first few phones — same
  // TraceReader vocabulary, answered live.
  const auto shards = agg.FlowByShard();
  TableWriter table("Per-shard flow from live telemetry (first 8 shards)");
  table.SetColumns({"shard", "taps", "decay reserves", "batches", "tap flow (mJ)",
                    "decay flow (mJ)"});
  const size_t show = shards.size() < 8 ? shards.size() : 8;
  for (size_t s = 0; s < show; ++s) {
    table.AddRow({std::to_string(shards[s].shard), std::to_string(shards[s].taps),
                  std::to_string(shards[s].decay_reserves),
                  std::to_string(shards[s].batches),
                  TableWriter::Num(ToEnergy(shards[s].tap_flow).millijoules_f()),
                  TableWriter::Num(ToEnergy(shards[s].decay_flow).millijoules_f())});
  }
  table.Print();

  // The windowed view the offline reader cannot give: per-shard flow EWMAs.
  const auto& live = agg.shard_live();
  if (!live.empty() && live[0].seen) {
    std::printf("\nphone 0 live: %.4f mJ/window tap EWMA, %.4f mJ/window decay EWMA\n",
                live[0].tap_flow_ewma / 1e6, live[0].decay_flow_ewma / 1e6);
  }

  Quantity tap_flow = 0;
  uint32_t tap_count = 0;
  for (const auto& s : shards) {
    tap_flow += s.tap_flow;
    tap_count += s.taps;
  }
  std::printf("\nfleet totals: %u taps, tap flow %s, decay flow %s\n", tap_count,
              ToEnergy(tap_flow).ToString().c_str(),
              ToEnergy(agg.TotalDecayFlow()).ToString().c_str());

  // The acceptance bar: the live reconstruction must equal the engine's own
  // counters exactly — not approximately.
  const bool tap_match = agg.TotalTapFlow() == taps.total_tap_flow();
  const bool decay_match = agg.TotalDecayFlow() == taps.total_decay_flow();
  std::printf("live totals match engine: tap %s decay %s\n", tap_match ? "yes" : "NO",
              decay_match ? "yes" : "NO");

  // Load balance across the pool (slot 0 is the calling thread). These rows
  // reflect real execution interleaving, so — unlike every line above — they
  // vary with the worker count and from run to run.
  for (const auto& w : agg.WorkerLoads()) {
    std::printf("worker %u: %llu dispatches, %llu shard runs, busy %.1f ms\n", w.worker,
                static_cast<unsigned long long>(w.dispatches),
                static_cast<unsigned long long>(w.shard_runs),
                static_cast<double>(w.busy_ns) / 1e6);
  }

  // Offline cross-check: finalize the streamed file now (detaching the sink
  // patches the header), re-read it, and require the offline answers to
  // match the live ones exactly — only when the stream is provably complete.
  bool file_ok = true;
  if (trace_file != nullptr && sim.stream_sink() != nullptr) {
    sim.telemetry().RemoveSink(sim.stream_sink());
    TraceReader reader;
    std::string error;
    if (!TraceReader::LoadFile(trace_file, &reader, &error)) {
      std::fprintf(stderr, "failed to read streamed trace: %s\n", error.c_str());
      file_ok = false;
    } else {
      const bool complete = reader.complete();
      const bool totals_match = reader.TotalTapFlow() == agg.TotalTapFlow() &&
                                reader.TotalDecayFlow() == agg.TotalDecayFlow();
      file_ok = !complete || totals_match;
      std::printf("trace streamed: %s (%zu records, %s, offline == live: %s)\n", trace_file,
                  reader.records().size(),
                  complete ? "complete" : "incomplete — drops or truncation",
                  !complete ? "skipped" : (totals_match ? "yes" : "NO"));
    }
  }

  if (serious_alarms > 0) {
    std::printf("health: %llu accounting alarms (conservation/record-loss) — FAILING\n",
                static_cast<unsigned long long>(serious_alarms));
  }

  return tap_match && decay_match && file_ok && serious_alarms == 0 ? 0 : 1;
}
