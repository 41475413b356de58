// TraceReader — the first-class query API over a telemetry stream.
//
// Reads either a live TraceDomain's retained spill or a trace file written
// by TraceDomain::WriteFile, and reconstructs the aggregates the examples
// and the energytrace tool print: engine flow totals (bit-for-bit equal to
// TapEngine's counters when no records were dropped), per-shard flow
// attribution and timelines, worker load balance, and per-thread CPU
// billing. Aggregation is integer arithmetic over the records in stream
// order, so every result is as deterministic as the stream itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/telemetry/trace_record.h"

namespace cinder {

class TraceDomain;

class TraceReader {
 public:
  // Snapshots the domain's retained spill (flush pending rings first if the
  // tail of the run matters — Simulator and the examples do).
  static TraceReader FromDomain(const TraceDomain& domain);
  // Loads a WriteFile dump or a FileStreamSink stream. Returns false (with a
  // message) only on a missing/unreadable file, bad magic, or a record-size
  // mismatch. A file whose on-disk records disagree with its header count —
  // a run killed mid-stream (unfinalized placeholder header), or a file
  // chopped mid-record — parses best-effort: every whole record on disk is
  // loaded and truncated() turns true, so consumers can analyze the prefix
  // while knowing the stream is provably incomplete.
  static bool LoadFile(const std::string& path, TraceReader* out, std::string* error = nullptr);

  const std::vector<TraceRecord>& records() const { return records_; }
  // Frames retained (kFrameMark count) and the stream's loss accounting.
  uint64_t frames() const { return frames_; }
  uint64_t dropped() const { return dropped_; }
  // The drop split: ring overwrites (lost before a flush drained them)
  // vs spill drop-oldest evictions. Exact from a domain; from a file the
  // ring share is recovered from the frame marks' cumulative v1 stamp
  // (pre-PR-8 files report every drop as spill). ring + spill == dropped().
  uint64_t ring_dropped() const { return ring_dropped_; }
  uint64_t spill_dropped() const { return dropped_ - ring_dropped_; }
  // True when LoadFile detected an incomplete stream (see LoadFile).
  bool truncated() const { return truncated_; }
  // A provably complete stream: nothing dropped, nothing truncated — the
  // precondition for bit-for-bit cross-checks against engine counters.
  bool complete() const { return !truncated_ && dropped_ == 0; }
  uint32_t writer_count() const { return writer_count_; }
  // Per-kind record counts, indexed by RecordKind.
  const std::vector<uint64_t>& kind_counts() const { return kind_counts_; }

  // -- Engine totals -------------------------------------------------------------
  // Sums of the kShardBatch records. With a complete stream (dropped() == 0,
  // every batch flushed) these equal TapEngine::total_tap_flow() /
  // total_decay_flow() bit-for-bit — the fleet example asserts it.
  int64_t TotalTapFlow() const { return total_tap_flow_; }
  int64_t TotalDecayFlow() const { return total_decay_flow_; }

  // -- Tap flow attribution / shard load ------------------------------------------
  struct ShardFlow {
    uint32_t shard = 0;
    uint32_t taps = 0;            // From the latest kPlanShard record.
    uint32_t decay_reserves = 0;  // From the latest kPlanShard record.
    uint32_t ranges = 1;          // From the latest kPlanShard record.
    uint64_t batches = 0;         // kShardBatch records seen.
    int64_t tap_flow = 0;
    int64_t decay_flow = 0;
  };
  // One entry per shard index seen, ascending. Flow sums cover the whole
  // retained stream.
  std::vector<ShardFlow> FlowByShard() const;

  // Per-batch flow timeline of one shard: the raw material for a per-phone
  // energy timeline (each fleet phone is one shard). `frame` is the flush
  // sequence number of the batch; cumulative_* are running sums, so the last
  // point is the shard's total.
  struct TimelinePoint {
    uint64_t frame = 0;
    int64_t time_us = 0;
    int64_t tap_flow = 0;
    int64_t decay_flow = 0;
    int64_t cumulative_tap_flow = 0;
    int64_t cumulative_decay_flow = 0;
  };
  std::vector<TimelinePoint> ShardTimeline(uint32_t shard) const;

  // -- Worker load balance ---------------------------------------------------------
  struct WorkerLoad {
    uint32_t worker = 0;    // Slot: 0 = the calling thread.
    uint64_t dispatches = 0;  // Tickets claimed (kDispatch).
    uint64_t shard_runs = 0;  // Shard-batches timed (kShardTiming, summed v1).
    uint64_t range_runs = 0;  // Range passes timed (kRangeTiming).
    uint64_t busy_ns = 0;     // Summed timed nanoseconds.
  };
  // One entry per worker slot seen, ascending. Unlike the flow queries this
  // reflects the actual execution interleaving — it varies run to run and
  // with the worker count (that is the point: it shows the balance).
  std::vector<WorkerLoad> WorkerLoads() const;

  // -- Scheduler / threads ----------------------------------------------------------
  struct ThreadCharge {
    uint32_t thread = 0;  // Low 32 bits of the thread id.
    uint64_t quanta = 0;  // kCpuCharge records.
    int64_t billed = 0;   // Summed nJ — equals the meter's per-thread CPU row.
  };
  std::vector<ThreadCharge> CpuChargeByThread() const;
  // kSchedPick records where nothing was runnable (actor == 0).
  uint64_t SchedIdlePicks() const;
  uint64_t SchedPicks() const;
  // kSchedPick records replayed from a K-quanta run plan (kSchedPickPlanned
  // flag); the remainder were full single-quantum scans. The plan-hit ratio
  // is SchedPlannedPicks() / SchedPicks().
  uint64_t SchedPlannedPicks() const;
  // kSchedPlanBuild records, and the total quanta those builds planned (v0).
  uint64_t SchedPlanBuilds() const;
  uint64_t SchedPlannedQuanta() const;

  // -- Fine-grained tap attribution (kTapTransfer + kPlanTap opt-in) ---------------
  struct TapFlow {
    uint64_t tap_id = 0;
    uint32_t src_id = 0;  // Low 32 bits (kPlanTap packing).
    uint32_t dst_id = 0;
    uint64_t transfers = 0;
    int64_t flow = 0;
  };
  // One entry per tap id seen in the plan tables, ascending id, with flows
  // joined from kTapTransfer records via the plan-entry index. Empty unless
  // the fine-grained kinds were enabled.
  std::vector<TapFlow> TapFlows() const;

 private:
  void Index();  // Fills the totals/counters after records_ is set.

  std::vector<TraceRecord> records_;
  std::vector<uint64_t> kind_counts_;
  int64_t total_tap_flow_ = 0;
  int64_t total_decay_flow_ = 0;
  uint64_t frames_ = 0;
  uint64_t dropped_ = 0;
  uint64_t ring_dropped_ = 0;
  bool truncated_ = false;
  uint32_t writer_count_ = 0;
};

}  // namespace cinder
