#include "src/telemetry/live_aggregator.h"

#include "src/telemetry/health_monitor.h"
#include "src/telemetry/trace_domain.h"

namespace cinder {

namespace {
uint32_t BusyBucket(uint64_t busy_ns) {
  // log2 bucket of a nonzero busy-ns value, clamped to the last bucket.
  uint32_t b = 0;
  while (busy_ns > 1 && b + 1 < LiveAggregator::kBusyHistBuckets) {
    busy_ns >>= 1;
    ++b;
  }
  return b;
}
}  // namespace

LiveAggregator::LiveAggregator(LiveAggregatorConfig cfg) : cfg_(cfg) {
  if (cfg_.frames_per_window == 0) {
    cfg_.frames_per_window = 1;
  }
}

void LiveAggregator::Reset() {
  total_tap_flow_ = 0;
  total_decay_flow_ = 0;
  sched_picks_ = 0;
  sched_idle_picks_ = 0;
  sched_planned_picks_ = 0;
  sched_plan_builds_ = 0;
  frames_ = 0;
  records_seen_ = 0;
  ring_dropped_ = 0;
  shards_.clear();
  workers_.clear();
  threads_.clear();
  reserves_.clear();
  frames_in_window_ = 0;
  window_has_start_ = false;
  window_start_time_us_ = 0;
  window_tap_flow_ = 0;
  window_decay_flow_ = 0;
  window_leak_deposits_ = 0;
  window_sched_picks_ = 0;
  window_sched_idle_ = 0;
  window_sched_planned_ = 0;
  window_plan_builds_ = 0;
  window_reserve_ops_ = 0;
  window_dispatches_ = 0;
  window_records_ = 0;
  window_drop_base_ = 0;
  windows_closed_ = 0;
  last_window_ = WindowStats{};
}

void LiveAggregator::OnAttach(const TraceDomain& domain) {
  (void)domain;
  Reset();
}

LiveAggregator::ShardLive& LiveAggregator::ShardAt(uint32_t shard) {
  if (shard >= shards_.size()) {
    const uint32_t old = static_cast<uint32_t>(shards_.size());
    shards_.resize(shard + 1);
    for (uint32_t s = old; s < shards_.size(); ++s) {
      shards_[s].shard = s;
    }
  }
  shards_[shard].seen = true;
  return shards_[shard];
}

LiveAggregator::WorkerLive& LiveAggregator::WorkerAt(uint32_t worker) {
  if (worker >= workers_.size()) {
    const uint32_t old = static_cast<uint32_t>(workers_.size());
    workers_.resize(worker + 1);
    for (uint32_t w = old; w < workers_.size(); ++w) {
      workers_[w].worker = w;
    }
  }
  workers_[worker].seen = true;
  return workers_[worker];
}

void LiveAggregator::OnRecord(const TraceRecord& r) {
  ++records_seen_;
  ++window_records_;
  if (!window_has_start_) {
    window_has_start_ = true;
    window_start_time_us_ = r.time_us;
  }
  switch (static_cast<RecordKind>(r.kind)) {
    case RecordKind::kShardBatch: {
      ShardLive& s = ShardAt(r.actor);
      ++s.batches;
      ++s.window_batches;
      s.tap_flow += r.v0;
      s.decay_flow += r.v1;
      s.window_tap_flow += r.v0;
      s.window_decay_flow += r.v1;
      total_tap_flow_ += r.v0;
      total_decay_flow_ += r.v1;
      window_tap_flow_ += r.v0;
      window_decay_flow_ += r.v1;
      break;
    }
    case RecordKind::kPlanShard: {
      ShardLive& s = ShardAt(r.actor);
      s.taps = static_cast<uint32_t>(r.v0);
      s.decay_reserves = static_cast<uint32_t>(r.v1);
      break;
    }
    case RecordKind::kShardTiming: {
      WorkerLive& w = WorkerAt(r.aux);
      w.shard_runs += ShardsTimed(r);
      w.busy_ns += static_cast<uint64_t>(r.v0);
      w.window_busy_ns += static_cast<uint64_t>(r.v0);
      break;
    }
    case RecordKind::kDispatch: {
      ++WorkerAt(r.aux >> 8).dispatches;
      ++window_dispatches_;
      break;
    }
    case RecordKind::kSchedPick: {
      ++sched_picks_;
      ++window_sched_picks_;
      if (r.actor == 0) {
        ++sched_idle_picks_;
        ++window_sched_idle_;
      }
      if ((r.flags & kSchedPickPlanned) != 0) {
        ++sched_planned_picks_;
        ++window_sched_planned_;
      }
      break;
    }
    case RecordKind::kSchedPlanBuild: {
      ++sched_plan_builds_;
      ++window_plan_builds_;
      break;
    }
    case RecordKind::kCpuCharge: {
      ThreadCharge& t = threads_[r.actor];
      t.thread = r.actor;
      ++t.quanta;
      t.billed += r.v0;
      break;
    }
    case RecordKind::kReserveDeposit:
    case RecordKind::kReserveWithdraw: {
      ReserveLive& res = reserves_[r.actor];
      res.id = r.actor;
      res.level = r.v1;
      ++res.ops;
      ++res.window_ops;
      ++window_reserve_ops_;
      if (static_cast<RecordKind>(r.kind) == RecordKind::kReserveWithdraw) {
        ++res.window_withdraws;
      } else if (r.flags == kReserveOpDecayLeak) {
        window_leak_deposits_ += r.v0;
      }
      break;
    }
    case RecordKind::kFrameMark: {
      ++frames_;
      // v1 carries the cumulative ring-overwrite count at flush time
      // (pre-PR-8 files carry 0 here — the delta then stays 0 too).
      if (static_cast<uint64_t>(r.v1) > ring_dropped_) {
        ring_dropped_ = static_cast<uint64_t>(r.v1);
      }
      if (++frames_in_window_ >= cfg_.frames_per_window) {
        CloseWindow(static_cast<uint64_t>(r.v0), r.time_us);
      }
      break;
    }
    default:
      break;  // Kinds no query folds, retired kind 3 in older files included.
  }
}

void LiveAggregator::CloseWindow(uint64_t closing_frame_seq, int64_t mark_time_us) {
  WindowStats w;
  w.index = windows_closed_;
  w.last_frame = closing_frame_seq;
  w.frames = frames_in_window_;
  w.start_time_us = window_start_time_us_;
  w.end_time_us = mark_time_us;
  w.tap_flow = window_tap_flow_;
  w.decay_flow = window_decay_flow_;
  w.decay_leak_deposits = window_leak_deposits_;
  w.sched_picks = window_sched_picks_;
  w.sched_idle_picks = window_sched_idle_;
  w.sched_planned_picks = window_sched_planned_;
  w.sched_plan_builds = window_plan_builds_;
  w.reserve_ops = window_reserve_ops_;
  w.dispatches = window_dispatches_;
  w.records = window_records_;
  w.ring_drop_delta = ring_dropped_ - window_drop_base_;
  last_window_ = w;
  ++windows_closed_;

  // Monitor and callback run while the per-entity window accumulators are
  // still intact (and before the EWMAs fold this window in), so invariant
  // checks see exactly what happened in the window.
  if (monitor_ != nullptr) {
    monitor_->OnWindow(*this, w);
  }
  if (window_cb_) {
    window_cb_(w);
  }

  const double a = cfg_.ewma_alpha;
  for (ShardLive& s : shards_) {
    if (!s.seen) {
      continue;
    }
    const double tap = static_cast<double>(s.window_tap_flow);
    const double decay = static_cast<double>(s.window_decay_flow);
    if (!s.ewma_primed) {
      s.tap_flow_ewma = tap;
      s.decay_flow_ewma = decay;
      s.ewma_primed = true;
    } else {
      s.tap_flow_ewma = a * tap + (1.0 - a) * s.tap_flow_ewma;
      s.decay_flow_ewma = a * decay + (1.0 - a) * s.decay_flow_ewma;
    }
    s.window_tap_flow = 0;
    s.window_decay_flow = 0;
    s.window_batches = 0;
  }
  for (WorkerLive& wk : workers_) {
    if (!wk.seen) {
      continue;
    }
    if (wk.window_busy_ns == 0) {
      ++wk.idle_windows;
    } else {
      ++wk.busy_hist[BusyBucket(wk.window_busy_ns)];
    }
    const double busy = static_cast<double>(wk.window_busy_ns);
    if (!wk.ewma_primed) {
      wk.busy_ewma_ns = busy;
      wk.ewma_primed = true;
    } else {
      wk.busy_ewma_ns = a * busy + (1.0 - a) * wk.busy_ewma_ns;
    }
    wk.window_busy_ns = 0;
  }
  for (auto& [id, res] : reserves_) {
    const double level = static_cast<double>(res.level);
    if (!res.ewma_primed) {
      res.level_ewma = level;
      res.ewma_primed = true;
    } else {
      res.level_ewma = a * level + (1.0 - a) * res.level_ewma;
    }
    res.window_ops = 0;
    res.window_withdraws = 0;
  }

  frames_in_window_ = 0;
  window_has_start_ = false;
  window_start_time_us_ = mark_time_us;
  window_tap_flow_ = 0;
  window_decay_flow_ = 0;
  window_leak_deposits_ = 0;
  window_sched_picks_ = 0;
  window_sched_idle_ = 0;
  window_sched_planned_ = 0;
  window_plan_builds_ = 0;
  window_reserve_ops_ = 0;
  window_dispatches_ = 0;
  window_records_ = 0;
  window_drop_base_ = ring_dropped_;
}

std::vector<ShardFlow> LiveAggregator::FlowByShard() const {
  std::vector<ShardFlow> out;
  for (const ShardLive& s : shards_) {
    if (!s.seen) {
      continue;
    }
    ShardFlow f;
    f.shard = s.shard;
    f.taps = s.taps;
    f.decay_reserves = s.decay_reserves;
    f.batches = s.batches;
    f.tap_flow = s.tap_flow;
    f.decay_flow = s.decay_flow;
    out.push_back(f);
  }
  return out;
}

std::vector<WorkerLoad> LiveAggregator::WorkerLoads() const {
  std::vector<WorkerLoad> out;
  for (const WorkerLive& w : workers_) {
    if (!w.seen) {
      continue;
    }
    WorkerLoad l;
    l.worker = w.worker;
    l.dispatches = w.dispatches;
    l.shard_runs = w.shard_runs;
    l.busy_ns = w.busy_ns;
    out.push_back(l);
  }
  return out;
}

std::vector<ThreadCharge> LiveAggregator::CpuChargeByThread() const {
  std::vector<ThreadCharge> out;
  out.reserve(threads_.size());
  for (const auto& [id, t] : threads_) {
    out.push_back(t);
  }
  return out;
}

}  // namespace cinder
