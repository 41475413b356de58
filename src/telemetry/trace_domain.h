// TraceDomain — the owner of one telemetry stream: a ring per writer
// (worker slot), a retained spill buffer the rings flush into at batch
// boundaries, the record mask, and the domain clock.
//
// Lifecycle per batch (docs/TELEMETRY.md):
//
//   1. Writers append to their own ring during the batch (TraceRing's
//      single-writer contract; ShardExecutor::current_worker_slot() is the
//      slot). Appends are mask-gated by the caller via on()/record_mask().
//   2. After the batch — on the main thread, past the executor's
//      happens-before edge — FlushFrame drains every ring in slot order
//      into the spill and appends one kFrameMark carrying the frame
//      sequence number and the domain clock. The spill is therefore a
//      frame-ordered, epoch-stamped record stream.
//
// The spill is preallocated and bounded by default (drop-oldest with a
// counter, alloc-free in steady state — the HotPathAllocTest telemetry
// variants pin this); set TelemetryConfig::spill_grow for full-history runs
// feeding TraceReader / the energytrace tool.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/telemetry/trace_record.h"
#include "src/telemetry/trace_ring.h"
#include "src/telemetry/trace_sink.h"

namespace cinder {

struct TelemetryConfig {
  // Compile-time default: -DCINDER_TELEMETRY_DEFAULT_ON (CMake option
  // CINDER_TELEMETRY_DEFAULT_ON) ships binaries with telemetry on unless a
  // config turns it off; the stock build defaults off.
#if defined(CINDER_TELEMETRY_DEFAULT_ON)
  bool enabled = true;
#else
  bool enabled = false;
#endif
  // Per-writer ring capacity in bytes (rounded up to a power-of-two record
  // count): 64 KiB = 2048 records. This is the headroom for records written
  // between batches (scheduler picks, CPU charges, syscall reserve ops); the
  // tap engine grows every ring at plan build by the records its plan can
  // emit in one batch, so the default config loses nothing at any fleet
  // size (docs/TELEMETRY.md "Ring sizing").
  uint32_t ring_bytes = 64 * 1024;
  // Which RecordKinds are written (1 << kind). The default covers every
  // O(shards)-volume kind; see trace_record.h for the fine-grained opt-ins.
  uint32_t record_mask = kDefaultRecordMask;
  // Retained spill capacity in bytes (rounded to a power-of-two record
  // count). When full: drop-oldest unless spill_grow.
  uint32_t spill_bytes = 8 * 1024 * 1024;
  // Grow the spill geometrically instead of dropping — full-history mode
  // for offline analysis. Growth allocates, so steady state is only
  // alloc-free with this off.
  bool spill_grow = false;
  // With sinks attached, FlushFrame hands records to the sinks *instead of*
  // retaining them (the spill stays empty and telemetry memory is O(rings)
  // for any run length). Set this to both stream and retain — e.g. to
  // cross-check a streamed file against WriteFile byte-for-byte.
  bool retain_with_sinks = false;
  // Consumed by embeddings that own the domain (Simulator): a non-empty path
  // attaches a FileStreamSink streaming the run to this file, finalized when
  // the domain is destroyed. The domain itself never opens files. Ignored
  // when `enabled` is false (no sink, no allocation).
  std::string stream_path;
  // FileStreamSink fsync cadence for the configured stream_path: fsync the
  // file every N frames; 0 never fsyncs (page cache only — the default, and
  // the right call for tmpfs or benchmarks).
  uint32_t stream_fsync_frames = 0;
};

class TraceDomain {
 public:
  TraceDomain() = default;
  explicit TraceDomain(const TelemetryConfig& cfg) { Configure(cfg); }
  // Flushes any pending ring records into one final frame (only if some
  // exist — an already-flushed domain adds nothing), then detaches every
  // sink (OnDetach), so a streamed file is finalized even when the embedding
  // never detached explicitly.
  ~TraceDomain();

  TraceDomain(const TraceDomain&) = delete;
  TraceDomain& operator=(const TraceDomain&) = delete;

  // (Re)builds rings and spill from `cfg`. Existing contents are discarded
  // and any attached sinks are detached first (OnDetach). An enabled domain
  // always has at least writer slot 0.
  void Configure(const TelemetryConfig& cfg);

  // -- Sinks -------------------------------------------------------------------
  // Attaches a streaming consumer (not owned; it must outlive the domain or
  // be removed first). Records drained by subsequent FlushFrame calls are
  // handed to every sink in attach order instead of being retained in the
  // spill (unless TelemetryConfig::retain_with_sinks). A sink attached
  // mid-run starts a fresh epoch: it sees nothing earlier, and its first
  // frame mark carries the current sequence number. No-op (the sink is not
  // registered) when the domain is disabled. Duplicate adds are ignored.
  void AddSink(TraceSink* sink);
  // Detaches (OnDetach) — for FileStreamSink this finalizes the file.
  void RemoveSink(TraceSink* sink);
  size_t sink_count() const { return sinks_.size(); }

  const TelemetryConfig& config() const { return cfg_; }
  bool enabled() const { return cfg_.enabled; }
  uint32_t record_mask() const { return cfg_.enabled ? cfg_.record_mask : 0; }
  bool on(RecordKind k) const { return (record_mask() & RecordBit(k)) != 0; }

  // Grows the writer-slot table to `n` rings, and every ring to hold
  // `batch_records` more than ring_bytes' worth — exactly, not rounded, and
  // never shrinking; pending records survive. Idempotent; cold path — call
  // from the main thread with no batch in flight, e.g. at plan rebuild.
  void EnsureWriters(uint32_t n, uint32_t batch_records = 0);
  uint32_t writers() const { return static_cast<uint32_t>(rings_.size()); }
  // The ring a writer on `slot` appends to; null when the domain is disabled
  // or the slot has no ring (then skip the event — never share another
  // slot's ring, that would race).
  TraceRing* ring(uint32_t slot) {
    return slot < rings_.size() ? rings_[slot].get() : nullptr;
  }

  // The domain clock, stamped into records by writers. The simulator sets
  // it to sim-time µs each Step; standalone embeddings may leave it 0 or
  // drive their own clock.
  void set_time_us(int64_t t) { time_us_ = t; }
  int64_t time_us() const { return time_us_; }

  // Mask-checked convenience emit into ring 0 — for cold main-thread call
  // sites (syscalls, scheduler, batch merges). Hot per-worker paths fetch
  // their ring once and use TraceRing::Emit directly.
  void Emit(RecordKind kind, uint32_t actor, uint16_t aux, uint8_t flags, int64_t v0, int64_t v1) {
    if (!on(kind) || rings_.empty()) {
      return;
    }
    rings_[0]->Emit(time_us_, kind, actor, aux, flags, v0, v1);
  }

  // Appends directly to the spill, bypassing the rings — for rebuild-time
  // plan tables whose size can exceed any ring. Main thread only.
  void EmitSpill(RecordKind kind, uint32_t actor, uint16_t aux, uint8_t flags, int64_t v0,
                 int64_t v1);

  // Drains every ring (slot order) and appends the frame mark — into the
  // spill, or to the attached sinks (see AddSink). Returns the frame
  // sequence number. No-op returning 0 when disabled.
  uint64_t FlushFrame();

  uint64_t frames_flushed() const { return next_frame_; }
  size_t spill_size() const { return spill_size_; }
  // Allocated spill capacity in records. 0 until the first *retained* record
  // (the spill is lazy): a streaming-only domain keeps it at 0 forever,
  // which is the O(ring)-memory guarantee tests pin.
  size_t spill_capacity() const { return spill_.size(); }
  // Loss accounting: ring overwrites plus spill drop-oldest evictions. A
  // nonzero value means the retained stream is a suffix of the run.
  uint64_t dropped_records() const;
  uint64_t spill_dropped() const { return spill_dropped_; }
  // Ring overwrites alone (records lost before a flush could drain them).
  // Also stamped cumulatively into each kFrameMark's v1, so file consumers
  // can tell ring loss from spill eviction per frame.
  uint64_t ring_dropped() const;

  // FIFO over the retained spill records.
  template <typename Fn>
  void ForEachSpilled(Fn&& fn) const {
    for (size_t i = 0; i < spill_size_; ++i) {
      fn(spill_[(spill_head_ + i) & spill_mask_]);
    }
  }

  // Serializes the retained spill (header + raw records) to `path`.
  // Pending un-flushed ring contents are NOT included — FlushFrame first.
  bool WriteFile(const std::string& path, std::string* error = nullptr) const;

 private:
  void AppendSpill(const TraceRecord& r);
  void GrowSpill();
  // Routes one drained/spill-direct record: to the sinks when any are
  // attached (plus the spill under retain_with_sinks), to the spill alone
  // otherwise.
  void Deliver(const TraceRecord& r);
  void DetachSinks();

  TelemetryConfig cfg_;
  std::vector<TraceSink*> sinks_;  // Not owned; attach order.
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::vector<TraceRecord> spill_;  // Power-of-two ring, like TraceRing.
  size_t spill_mask_ = 0;
  size_t spill_head_ = 0;
  size_t spill_size_ = 0;
  uint64_t spill_dropped_ = 0;
  uint64_t next_frame_ = 0;
  int64_t time_us_ = 0;
};

// The trace file header. Records follow raw (record_count of them, 32 bytes
// each, little-endian as written by the host).
struct TraceFileHeader {
  char magic[8];  // "CNDTRC01"
  uint32_t record_size;
  uint32_t writer_count;
  uint64_t record_count;
  uint64_t dropped_records;
};
inline constexpr char kTraceFileMagic[8] = {'C', 'N', 'D', 'T', 'R', 'C', '0', '1'};

}  // namespace cinder
