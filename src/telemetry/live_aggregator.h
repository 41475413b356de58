// LiveAggregator — fixed-cost online aggregation over a telemetry stream.
//
// A TraceSink that folds each frame into windowed state as the run executes:
// exact running totals (the flow/load/billing queries; TraceReader feeds the
// records it loads through a LiveAggregator too, so this is the one fold
// behind them), plus per-shard flow EWMAs, per-reserve level EWMAs,
// per-worker busy/idle histograms, and scheduler/syscall rates per window.
// Memory is O(shards + workers + threads + reserves) and per-record work is
// O(1): run length never grows the aggregator, which is what makes it safe
// to leave attached to an unbounded fleet run (the streaming half of
// docs/TELEMETRY.md).
//
// A *window* is a fixed number of frames (frames_per_window; one frame ==
// one tap batch in the engine's wiring). When a window closes, the window's
// accumulators are folded into the EWMAs (ewma' = alpha*window + (1-alpha)*
// ewma; the first window initializes the EWMA), the attached HealthMonitor
// checks its invariants against the still-intact window state, the window
// callback fires, and the accumulators reset.
//
// The aggregator is stream-driven, not domain-driven: window ticks come
// from kFrameMark records, so feeding it records from a file (energytop's
// --follow loop) behaves identically to attaching it as a live sink.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/telemetry/trace_sink.h"

namespace cinder {

class HealthMonitor;

// The fold's exact query results (LiveAggregator::FlowByShard, WorkerLoads,
// CpuChargeByThread; TraceReader answers with the same ones).
struct ShardFlow {
  uint32_t shard = 0;
  uint32_t taps = 0;            // From the latest kPlanShard record.
  uint32_t decay_reserves = 0;  // From the latest kPlanShard record.
  uint64_t batches = 0;         // kShardBatch records seen.
  int64_t tap_flow = 0;
  int64_t decay_flow = 0;
};

struct WorkerLoad {
  uint32_t worker = 0;      // Slot: 0 = the calling thread.
  uint64_t dispatches = 0;  // Tickets claimed (kDispatch).
  uint64_t shard_runs = 0;  // Shard-batches timed (kShardTiming, summed v1).
  uint64_t busy_ns = 0;     // Summed timed nanoseconds.
};

struct ThreadCharge {
  uint32_t thread = 0;  // Low 32 bits of the thread id.
  uint64_t quanta = 0;  // kCpuCharge records.
  int64_t billed = 0;   // Summed nJ — equals the meter's per-thread CPU row.
};

struct LiveAggregatorConfig {
  // Frames folded into one window. With the simulator's 10 ms tap batches,
  // the default 16 makes a ~160 ms (sim time) window.
  uint32_t frames_per_window = 16;
  // Per-window EWMA smoothing: ewma' = alpha * window + (1 - alpha) * ewma.
  double ewma_alpha = 0.25;
};

// Summary of one closed window — handed to the HealthMonitor and the window
// callback while the per-shard / per-worker window state is still intact.
struct WindowStats {
  uint64_t index = 0;       // 0-based closed-window counter.
  uint64_t last_frame = 0;  // Sequence number of the closing frame mark.
  uint32_t frames = 0;
  int64_t start_time_us = 0;  // Domain clock spanned by the window's marks.
  int64_t end_time_us = 0;
  int64_t tap_flow = 0;   // Sum of kShardBatch flows in the window (nJ).
  int64_t decay_flow = 0;
  // Sum of decay-leak deposit records (kReserveDeposit with
  // kReserveOpDecayLeak). With a complete stream and the default mask this
  // equals decay_flow exactly — the conservation monitor's invariant.
  int64_t decay_leak_deposits = 0;
  uint64_t sched_picks = 0;
  uint64_t sched_idle_picks = 0;
  // Picks replayed from a scheduler run plan (kSchedPickPlanned flag) and
  // plan builds in the window; planned/picks is the live plan-hit ratio.
  uint64_t sched_planned_picks = 0;
  uint64_t sched_plan_builds = 0;
  uint64_t reserve_ops = 0;  // Deposit + withdraw records (syscall rate).
  uint64_t dispatches = 0;
  uint64_t records = 0;  // All records in the window, marks included.
  // Ring-overwrite drops that happened during this window (delta of the
  // frame marks' cumulative counter). Nonzero = the window undercounts.
  uint64_t ring_drop_delta = 0;
};

class LiveAggregator : public TraceSink {
 public:
  // Per-window busy-ns histogram bucket count: bucket i holds windows whose
  // busy time was in [2^i, 2^(i+1)) ns (bucket 31 clamps); all-idle windows
  // count in WorkerLive::idle_windows instead.
  static constexpr uint32_t kBusyHistBuckets = 32;

  explicit LiveAggregator(LiveAggregatorConfig cfg = {});

  // The monitor's OnWindow runs at every window close, before the window
  // accumulators reset. Not owned; null detaches.
  void set_monitor(HealthMonitor* monitor) { monitor_ = monitor; }
  void set_window_callback(std::function<void(const WindowStats&)> cb) {
    window_cb_ = std::move(cb);
  }
  const LiveAggregatorConfig& config() const { return cfg_; }

  // Discards all state (a fresh epoch). Attaching to a domain resets too.
  void Reset();

  // TraceSink: feed records here directly when consuming a file instead of
  // a live domain (energytop does) — the aggregator cannot tell the
  // difference, window ticks ride on the kFrameMark records either way.
  void OnAttach(const TraceDomain& domain) override;
  void OnRecord(const TraceRecord& r) override;

  // -- Query vocabulary (exact running totals) -----------------------------------
  // Integer sums over every record folded, in stream order. TraceReader's
  // aggregates forward here, so a live run and a file of its records get
  // their answers from this one fold.
  //
  // Sums of the kShardBatch records. With a complete stream (nothing
  // dropped, every batch flushed) these equal TapEngine::total_tap_flow() /
  // total_decay_flow() bit-for-bit — the fleet example asserts it.
  int64_t TotalTapFlow() const { return total_tap_flow_; }
  int64_t TotalDecayFlow() const { return total_decay_flow_; }
  // One entry per shard index seen, ascending.
  std::vector<ShardFlow> FlowByShard() const;
  // One entry per worker slot seen, ascending. Unlike the flow queries this
  // reflects the actual execution interleaving — it varies run to run and
  // with the worker count (that is the point: it shows the balance).
  std::vector<WorkerLoad> WorkerLoads() const;
  // One entry per billed thread, ascending.
  std::vector<ThreadCharge> CpuChargeByThread() const;
  // kSchedPick records; idle ones found nothing runnable (actor == 0), and
  // planned ones were replayed from a K-quanta run plan (kSchedPickPlanned
  // flag; the plan-hit ratio is SchedPlannedPicks() / SchedPicks()).
  uint64_t SchedPicks() const { return sched_picks_; }
  uint64_t SchedIdlePicks() const { return sched_idle_picks_; }
  uint64_t SchedPlannedPicks() const { return sched_planned_picks_; }
  // kSchedPlanBuild records.
  uint64_t SchedPlanBuilds() const { return sched_plan_builds_; }
  uint64_t frames() const { return frames_; }
  uint64_t records_seen() const { return records_seen_; }
  // Cumulative ring-overwrite drops as stamped into the latest frame mark.
  uint64_t ring_dropped() const { return ring_dropped_; }

  // -- Windowed live state -------------------------------------------------------
  uint64_t windows_closed() const { return windows_closed_; }
  // The most recently closed window (index windows_closed()-1); zeros until
  // the first window closes.
  const WindowStats& last_window() const { return last_window_; }

  struct ShardLive {
    uint32_t shard = 0;
    bool seen = false;
    // Topology from the latest kPlanShard record.
    uint32_t taps = 0;
    uint32_t decay_reserves = 0;
    uint64_t batches = 0;
    int64_t tap_flow = 0;  // Exact running sums.
    int64_t decay_flow = 0;
    // Current (open) window accumulators — the monitor reads these at close.
    int64_t window_tap_flow = 0;
    int64_t window_decay_flow = 0;
    uint64_t window_batches = 0;
    // Per-window EWMAs (nJ per window), folded at each close.
    double tap_flow_ewma = 0.0;
    double decay_flow_ewma = 0.0;
    bool ewma_primed = false;
  };
  // Indexed by shard (dense; untouched shards have batches == 0).
  const std::vector<ShardLive>& shard_live() const { return shards_; }

  struct WorkerLive {
    uint32_t worker = 0;
    bool seen = false;
    uint64_t dispatches = 0;
    uint64_t shard_runs = 0;
    uint64_t busy_ns = 0;  // Exact running sum of timed work.
    uint64_t window_busy_ns = 0;
    double busy_ewma_ns = 0.0;
    bool ewma_primed = false;
    uint64_t idle_windows = 0;  // Closed windows with zero busy ns.
    uint64_t busy_hist[kBusyHistBuckets] = {};
  };
  const std::vector<WorkerLive>& worker_live() const { return workers_; }

  struct ReserveLive {
    uint32_t id = 0;  // Low 32 bits of the reserve id (record `actor`).
    int64_t level = 0;  // Level-after of the newest deposit/withdraw record.
    double level_ewma = 0.0;
    bool ewma_primed = false;
    uint64_t ops = 0;
    uint64_t window_ops = 0;
    uint64_t window_withdraws = 0;
  };
  // Keyed by reserve id; populated only for reserves that appear in
  // deposit/withdraw records (syscall traffic or decay-leak sink deposits).
  const std::map<uint32_t, ReserveLive>& reserve_live() const { return reserves_; }

 private:
  void CloseWindow(uint64_t closing_frame_seq, int64_t mark_time_us);
  ShardLive& ShardAt(uint32_t shard);
  WorkerLive& WorkerAt(uint32_t worker);

  LiveAggregatorConfig cfg_;
  HealthMonitor* monitor_ = nullptr;
  std::function<void(const WindowStats&)> window_cb_;

  // Exact running totals (the query-vocabulary side).
  int64_t total_tap_flow_ = 0;
  int64_t total_decay_flow_ = 0;
  uint64_t sched_picks_ = 0;
  uint64_t sched_idle_picks_ = 0;
  uint64_t sched_planned_picks_ = 0;
  uint64_t sched_plan_builds_ = 0;
  uint64_t frames_ = 0;
  uint64_t records_seen_ = 0;
  uint64_t ring_dropped_ = 0;

  std::vector<ShardLive> shards_;
  std::vector<WorkerLive> workers_;
  std::map<uint32_t, ThreadCharge> threads_;
  std::map<uint32_t, ReserveLive> reserves_;

  // Open-window accumulators (the scalar half; per-shard/worker/reserve
  // window fields live in their structs above).
  uint32_t frames_in_window_ = 0;
  bool window_has_start_ = false;
  int64_t window_start_time_us_ = 0;
  int64_t window_tap_flow_ = 0;
  int64_t window_decay_flow_ = 0;
  int64_t window_leak_deposits_ = 0;
  uint64_t window_sched_picks_ = 0;
  uint64_t window_sched_idle_ = 0;
  uint64_t window_sched_planned_ = 0;
  uint64_t window_plan_builds_ = 0;
  uint64_t window_reserve_ops_ = 0;
  uint64_t window_dispatches_ = 0;
  uint64_t window_records_ = 0;
  uint64_t window_drop_base_ = 0;  // ring_dropped_ at the last close.

  uint64_t windows_closed_ = 0;
  WindowStats last_window_;
};

}  // namespace cinder
