// TraceReader — the first-class query API over a telemetry stream.
//
// Reads either a live TraceDomain's retained spill or a trace file written
// by TraceDomain::WriteFile or a FileStreamSink. Its own jobs are loading,
// the stream's loss accounting, per-kind record counts, and the two queries
// that need the record history (ShardTimeline, TapFlows). Every aggregate —
// engine flow totals (bit-for-bit equal to TapEngine's counters when no
// records were dropped), per-shard flow attribution, worker load balance,
// per-thread CPU billing, scheduler counts — comes from the LiveAggregator
// it feeds the records through while loading: the same fold a live run
// attaches as a sink, so the live and offline answers are one computation.
// Aggregation is integer arithmetic over the records in stream order, so
// every result is as deterministic as the stream itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/telemetry/live_aggregator.h"
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
  uint64_t frames() const { return fold_.frames(); }
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

  // -- Aggregates: forwards to the fold (see LiveAggregator) ---------------------
  int64_t TotalTapFlow() const { return fold_.TotalTapFlow(); }
  int64_t TotalDecayFlow() const { return fold_.TotalDecayFlow(); }
  std::vector<ShardFlow> FlowByShard() const { return fold_.FlowByShard(); }
  std::vector<WorkerLoad> WorkerLoads() const { return fold_.WorkerLoads(); }
  std::vector<ThreadCharge> CpuChargeByThread() const { return fold_.CpuChargeByThread(); }
  uint64_t SchedPicks() const { return fold_.SchedPicks(); }
  uint64_t SchedIdlePicks() const { return fold_.SchedIdlePicks(); }
  uint64_t SchedPlannedPicks() const { return fold_.SchedPlannedPicks(); }
  uint64_t SchedPlanBuilds() const { return fold_.SchedPlanBuilds(); }
  // The total quanta the kSchedPlanBuild records planned (v0).
  uint64_t SchedPlannedQuanta() const;

  // -- Record-history queries ----------------------------------------------------
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
  // Counts the kinds and feeds the fold, once records_ is set.
  void Index();

  std::vector<TraceRecord> records_;
  std::vector<uint64_t> kind_counts_;
  LiveAggregator fold_;
  uint64_t dropped_ = 0;
  uint64_t ring_dropped_ = 0;
  bool truncated_ = false;
  uint32_t writer_count_ = 0;
};

}  // namespace cinder
