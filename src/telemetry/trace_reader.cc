#include "src/telemetry/trace_reader.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <unordered_map>

#include "src/telemetry/trace_domain.h"

namespace cinder {

namespace {
constexpr size_t kNumKinds = static_cast<size_t>(RecordKind::kKindCount);

bool IsKind(const TraceRecord& r, RecordKind k) {
  return r.kind == static_cast<uint8_t>(k);
}
}  // namespace

void TraceReader::Index() {
  kind_counts_.assign(kNumKinds, 0);
  total_tap_flow_ = 0;
  total_decay_flow_ = 0;
  frames_ = 0;
  ring_dropped_ = 0;
  for (const TraceRecord& r : records_) {
    if (r.kind < kNumKinds) {
      ++kind_counts_[r.kind];
    }
    if (IsKind(r, RecordKind::kShardBatch)) {
      total_tap_flow_ += r.v0;
      total_decay_flow_ += r.v1;
    } else if (IsKind(r, RecordKind::kFrameMark)) {
      ++frames_;
      // Recover the ring-drop share from the marks' cumulative v1 stamp
      // (zero in pre-stamp files, which then report all drops as spill).
      if (static_cast<uint64_t>(r.v1) > ring_dropped_) {
        ring_dropped_ = static_cast<uint64_t>(r.v1);
      }
    }
  }
}

TraceReader TraceReader::FromDomain(const TraceDomain& domain) {
  TraceReader reader;
  reader.records_.reserve(domain.spill_size());
  domain.ForEachSpilled([&reader](const TraceRecord& r) { reader.records_.push_back(r); });
  reader.dropped_ = domain.dropped_records();
  reader.writer_count_ = domain.writers();
  reader.Index();
  // The domain's split is exact; override whatever the marks implied.
  reader.ring_dropped_ = domain.ring_dropped();
  return reader;
}

bool TraceReader::LoadFile(const std::string& path, TraceReader* out, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  TraceFileHeader h{};
  bool ok = std::fread(&h, sizeof(h), 1, f) == 1 &&
            std::memcmp(h.magic, kTraceFileMagic, sizeof(h.magic)) == 0 &&
            h.record_size == sizeof(TraceRecord);
  if (!ok) {
    std::fclose(f);
    if (error != nullptr) {
      *error = path + ": not a Cinder trace (bad magic or record size)";
    }
    return false;
  }
  // Size the parse from the bytes actually on disk, never from the header
  // count: a stream cut mid-run has a placeholder header (record_count 0)
  // with records following, and a chopped file has fewer bytes than the
  // header promises. Either way every whole record is loaded and the
  // mismatch marks the reader truncated instead of failing (or worse,
  // trusting a count the disk cannot back).
  long data_end = 0;
  ok = std::fseek(f, 0, SEEK_END) == 0 && (data_end = std::ftell(f)) >= 0 &&
       std::fseek(f, sizeof(TraceFileHeader), SEEK_SET) == 0;
  if (!ok) {
    std::fclose(f);
    if (error != nullptr) {
      *error = path + ": unseekable trace file";
    }
    return false;
  }
  const uint64_t data_bytes = static_cast<uint64_t>(data_end) - sizeof(TraceFileHeader);
  const uint64_t on_disk = data_bytes / sizeof(TraceRecord);
  const bool partial_tail = data_bytes % sizeof(TraceRecord) != 0;
  out->records_.resize(on_disk);
  if (on_disk > 0) {
    ok = std::fread(out->records_.data(), sizeof(TraceRecord), on_disk, f) == on_disk;
  }
  std::fclose(f);
  if (!ok) {
    if (error != nullptr) {
      *error = path + ": short read of record stream";
    }
    return false;
  }
  out->truncated_ = partial_tail || h.record_count != on_disk;
  out->dropped_ = h.dropped_records;
  out->writer_count_ = h.writer_count;
  out->Index();
  // An unfinalized header may undercount drops; the marks' cumulative ring
  // stamp is a floor (keeps ring + spill == dropped()).
  if (out->ring_dropped_ > out->dropped_) {
    out->dropped_ = out->ring_dropped_;
  }
  return true;
}

std::vector<TraceReader::ShardFlow> TraceReader::FlowByShard() const {
  std::vector<ShardFlow> by_shard;
  std::vector<uint8_t> seen;
  auto at = [&](uint32_t shard) -> ShardFlow& {
    if (shard >= by_shard.size()) {
      by_shard.resize(shard + 1);
      seen.resize(shard + 1, 0);
      for (uint32_t s = 0; s < by_shard.size(); ++s) {
        by_shard[s].shard = s;
      }
    }
    seen[shard] = 1;
    return by_shard[shard];
  };
  for (const TraceRecord& r : records_) {
    if (IsKind(r, RecordKind::kShardBatch)) {
      ShardFlow& s = at(r.actor);
      ++s.batches;
      s.tap_flow += r.v0;
      s.decay_flow += r.v1;
    } else if (IsKind(r, RecordKind::kPlanShard)) {
      ShardFlow& s = at(r.actor);
      s.taps = static_cast<uint32_t>(r.v0);
      s.decay_reserves = static_cast<uint32_t>(r.v1);
      s.ranges = r.aux;
    }
  }
  std::vector<ShardFlow> out;
  out.reserve(by_shard.size());
  for (uint32_t s = 0; s < by_shard.size(); ++s) {
    if (seen[s] != 0) {
      out.push_back(by_shard[s]);
    }
  }
  return out;
}

std::vector<TraceReader::TimelinePoint> TraceReader::ShardTimeline(uint32_t shard) const {
  std::vector<TimelinePoint> out;
  // Records precede the frame mark that closes their frame, so batch points
  // stay "pending" until the next mark supplies the sequence number.
  size_t pending_from = 0;
  int64_t cum_tap = 0;
  int64_t cum_decay = 0;
  for (const TraceRecord& r : records_) {
    if (IsKind(r, RecordKind::kFrameMark)) {
      for (size_t i = pending_from; i < out.size(); ++i) {
        out[i].frame = static_cast<uint64_t>(r.v0);
      }
      pending_from = out.size();
      continue;
    }
    if (!IsKind(r, RecordKind::kShardBatch) || r.actor != shard) {
      continue;
    }
    cum_tap += r.v0;
    cum_decay += r.v1;
    TimelinePoint p;
    p.frame = frames_;  // Placeholder for an unterminated tail frame.
    p.time_us = r.time_us;
    p.tap_flow = r.v0;
    p.decay_flow = r.v1;
    p.cumulative_tap_flow = cum_tap;
    p.cumulative_decay_flow = cum_decay;
    out.push_back(p);
  }
  return out;
}

std::vector<TraceReader::WorkerLoad> TraceReader::WorkerLoads() const {
  std::vector<WorkerLoad> loads;
  std::vector<uint8_t> seen;
  auto at = [&](uint32_t worker) -> WorkerLoad& {
    if (worker >= loads.size()) {
      loads.resize(worker + 1);
      seen.resize(worker + 1, 0);
      for (uint32_t w = 0; w < loads.size(); ++w) {
        loads[w].worker = w;
      }
    }
    seen[worker] = 1;
    return loads[worker];
  };
  for (const TraceRecord& r : records_) {
    if (IsKind(r, RecordKind::kDispatch)) {
      ++at(r.aux >> 8).dispatches;
    } else if (IsKind(r, RecordKind::kShardTiming)) {
      WorkerLoad& w = at(r.aux);
      w.shard_runs += ShardsTimed(r);
      w.busy_ns += static_cast<uint64_t>(r.v0);
    } else if (IsKind(r, RecordKind::kRangeTiming)) {
      WorkerLoad& w = at(r.aux >> 8);
      ++w.range_runs;
      w.busy_ns += static_cast<uint64_t>(r.v0);
    }
  }
  std::vector<WorkerLoad> out;
  for (uint32_t w = 0; w < loads.size(); ++w) {
    if (seen[w] != 0) {
      out.push_back(loads[w]);
    }
  }
  return out;
}

std::vector<TraceReader::ThreadCharge> TraceReader::CpuChargeByThread() const {
  std::map<uint32_t, ThreadCharge> by_thread;
  for (const TraceRecord& r : records_) {
    if (!IsKind(r, RecordKind::kCpuCharge)) {
      continue;
    }
    ThreadCharge& t = by_thread[r.actor];
    t.thread = r.actor;
    ++t.quanta;
    t.billed += r.v0;
  }
  std::vector<ThreadCharge> out;
  out.reserve(by_thread.size());
  for (const auto& [id, t] : by_thread) {
    out.push_back(t);
  }
  return out;
}

uint64_t TraceReader::SchedPicks() const {
  return kind_counts_.empty() ? 0 : kind_counts_[static_cast<size_t>(RecordKind::kSchedPick)];
}

uint64_t TraceReader::SchedIdlePicks() const {
  uint64_t idle = 0;
  for (const TraceRecord& r : records_) {
    if (IsKind(r, RecordKind::kSchedPick) && r.actor == 0) {
      ++idle;
    }
  }
  return idle;
}

uint64_t TraceReader::SchedPlannedPicks() const {
  uint64_t planned = 0;
  for (const TraceRecord& r : records_) {
    if (IsKind(r, RecordKind::kSchedPick) && (r.flags & kSchedPickPlanned) != 0) {
      ++planned;
    }
  }
  return planned;
}

uint64_t TraceReader::SchedPlanBuilds() const {
  return kind_counts_.empty() ? 0
                              : kind_counts_[static_cast<size_t>(RecordKind::kSchedPlanBuild)];
}

uint64_t TraceReader::SchedPlannedQuanta() const {
  uint64_t quanta = 0;
  for (const TraceRecord& r : records_) {
    if (IsKind(r, RecordKind::kSchedPlanBuild)) {
      quanta += static_cast<uint64_t>(r.v0);
    }
  }
  return quanta;
}

std::vector<TraceReader::TapFlow> TraceReader::TapFlows() const {
  // Plan tables appear in the stream before the batches that use them
  // (rebuild-time spill records), so a single forward walk keeps the
  // entry -> tap mapping current across rebuilds.
  struct PlanEntry {
    uint64_t tap_id;
    uint32_t src_id;
    uint32_t dst_id;
  };
  std::unordered_map<uint32_t, PlanEntry> plan;
  std::map<uint64_t, TapFlow> by_tap;
  for (const TraceRecord& r : records_) {
    if (IsKind(r, RecordKind::kPlanTap)) {
      PlanEntry e;
      e.tap_id = static_cast<uint64_t>(r.v0);
      e.src_id = static_cast<uint32_t>(static_cast<uint64_t>(r.v1) >> 32);
      e.dst_id = static_cast<uint32_t>(static_cast<uint64_t>(r.v1) & 0xffffffffu);
      plan[r.actor] = e;
      TapFlow& t = by_tap[e.tap_id];
      t.tap_id = e.tap_id;
      t.src_id = e.src_id;
      t.dst_id = e.dst_id;
    } else if (IsKind(r, RecordKind::kTapTransfer)) {
      auto it = plan.find(r.actor);
      if (it == plan.end()) {
        continue;  // Transfer without a retained plan table (e.g. dropped).
      }
      TapFlow& t = by_tap[it->second.tap_id];
      ++t.transfers;
      t.flow += r.v0;
    }
  }
  std::vector<TapFlow> out;
  out.reserve(by_tap.size());
  for (const auto& [id, t] : by_tap) {
    out.push_back(t);
  }
  return out;
}

}  // namespace cinder
