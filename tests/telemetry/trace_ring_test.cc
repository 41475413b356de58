// TraceRing / TraceDomain unit tests: FIFO order, overwrite-on-overflow
// with loss accounting, frame flush semantics, bounded vs growable spill,
// and the trace-file round trip through TraceReader.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/telemetry/trace_domain.h"
#include "src/telemetry/trace_reader.h"
#include "src/telemetry/trace_ring.h"

namespace cinder {
namespace {

TraceRecord Rec(int64_t v0, RecordKind kind = RecordKind::kShardBatch) {
  TraceRecord r;
  r.kind = static_cast<uint8_t>(kind);
  r.v0 = v0;
  return r;
}

std::vector<int64_t> DrainV0(TraceRing& ring) {
  std::vector<int64_t> out;
  ring.Drain([&out](const TraceRecord& r) { out.push_back(r.v0); });
  return out;
}

TEST(TraceRingTest, AppendsDrainInFifoOrder) {
  TraceRing ring(16);
  for (int64_t i = 0; i < 10; ++i) {
    ring.Append(Rec(i));
  }
  EXPECT_EQ(ring.size(), 10u);
  const auto got = DrainV0(ring);
  ASSERT_EQ(got.size(), 10u);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], i);
  }
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwoWithFloor) {
  EXPECT_EQ(TraceRing(1).capacity(), 16u);
  EXPECT_EQ(TraceRing(16).capacity(), 16u);
  EXPECT_EQ(TraceRing(17).capacity(), 32u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
}

TEST(TraceRingTest, OverflowOverwritesOldestAndCountsDrops) {
  TraceRing ring(16);
  for (int64_t i = 0; i < 40; ++i) {
    ring.Append(Rec(i));
  }
  EXPECT_EQ(ring.size(), 16u);
  EXPECT_EQ(ring.dropped(), 24u);
  const auto got = DrainV0(ring);
  ASSERT_EQ(got.size(), 16u);
  // Newest data wins: the retained window is the suffix 24..39, in order.
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], static_cast<int64_t>(24 + i));
  }
}

TEST(TraceRingTest, DrainThenRefillKeepsOrderAcrossWraparound) {
  TraceRing ring(16);
  for (int round = 0; round < 7; ++round) {
    for (int64_t i = 0; i < 11; ++i) {
      ring.Append(Rec(round * 100 + i));
    }
    const auto got = DrainV0(ring);
    ASSERT_EQ(got.size(), 11u);
    for (int64_t i = 0; i < 11; ++i) {
      EXPECT_EQ(got[static_cast<size_t>(i)], round * 100 + i);
    }
  }
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRingTest, GrowSizesExactlyAndKeepsPendingRecordsInOrder) {
  TraceRing ring(16);
  for (int64_t i = 0; i < 20; ++i) {
    ring.Append(Rec(i));  // Wraps: 4 dropped, 4..19 pending across the seam.
  }
  ring.Grow(50);
  EXPECT_EQ(ring.capacity(), 50u);  // Exact, not the next power of two.
  EXPECT_EQ(ring.size(), 16u);
  for (int64_t i = 20; i < 54; ++i) {
    ring.Append(Rec(i));
  }
  EXPECT_EQ(ring.dropped(), 4u);
  ring.Grow(40);  // Never shrinks.
  EXPECT_EQ(ring.capacity(), 50u);
  const auto got = DrainV0(ring);
  ASSERT_EQ(got.size(), 50u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], static_cast<int64_t>(4 + i));
  }
  // A full odd-sized ring still overwrites oldest-first.
  for (int64_t i = 0; i < 53; ++i) {
    ring.Append(Rec(i));
  }
  EXPECT_EQ(ring.dropped(), 7u);
  const auto tail = DrainV0(ring);
  ASSERT_EQ(tail.size(), 50u);
  EXPECT_EQ(tail.front(), 3);
  EXPECT_EQ(tail.back(), 52);
}

TEST(TelemetryDomainTest, EnsureWritersGrowsEveryRingByTheBatchBudget) {
  TelemetryConfig cfg;
  cfg.enabled = true;  // Default ring_bytes: 2048 records.
  TraceDomain domain(cfg);
  domain.Emit(RecordKind::kShardBatch, 0, 0, 0, 7, 0);  // Pending in ring 0.
  domain.EnsureWriters(3, 500);
  ASSERT_EQ(domain.writers(), 3u);
  for (uint32_t w = 0; w < 3; ++w) {
    EXPECT_EQ(domain.ring(w)->capacity(), 2048u + 500u) << "ring " << w;
  }
  domain.EnsureWriters(2, 100);  // A smaller plan never shrinks a ring.
  EXPECT_EQ(domain.writers(), 3u);
  EXPECT_EQ(domain.ring(2)->capacity(), 2548u);
  domain.FlushFrame();
  ASSERT_EQ(domain.spill_size(), 2u);  // The pending record survived, plus the mark.
  EXPECT_EQ(domain.dropped_records(), 0u);
}

TEST(TelemetryDomainTest, DisabledDomainIsInert) {
  TelemetryConfig cfg;
  cfg.enabled = false;
  TraceDomain domain(cfg);
  EXPECT_EQ(domain.record_mask(), 0u);
  EXPECT_FALSE(domain.on(RecordKind::kShardBatch));
  EXPECT_EQ(domain.ring(0), nullptr);
  domain.Emit(RecordKind::kShardBatch, 1, 0, 0, 1, 1);
  domain.EmitSpill(RecordKind::kPlanShard, 1, 0, 0, 1, 1);
  EXPECT_EQ(domain.FlushFrame(), 0u);
  EXPECT_EQ(domain.spill_size(), 0u);
  domain.EnsureWriters(4);
  EXPECT_EQ(domain.writers(), 0u);
}

TEST(TelemetryDomainTest, RecordMaskGatesEmission) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.record_mask = RecordBit(RecordKind::kShardBatch);
  TraceDomain domain(cfg);
  EXPECT_TRUE(domain.on(RecordKind::kShardBatch));
  EXPECT_FALSE(domain.on(RecordKind::kTapTransfer));
  domain.Emit(RecordKind::kShardBatch, 1, 0, 0, 7, 0);
  domain.Emit(RecordKind::kTapTransfer, 1, 0, 0, 9, 0);  // Masked off.
  domain.FlushFrame();
  size_t batches = 0, transfers = 0;
  domain.ForEachSpilled([&](const TraceRecord& r) {
    batches += r.kind == static_cast<uint8_t>(RecordKind::kShardBatch);
    transfers += r.kind == static_cast<uint8_t>(RecordKind::kTapTransfer);
  });
  EXPECT_EQ(batches, 1u);
  EXPECT_EQ(transfers, 0u);
}

TEST(TelemetryDomainTest, FlushDrainsRingsInSlotOrderAndAppendsFrameMark) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  TraceDomain domain(cfg);
  domain.EnsureWriters(3);
  ASSERT_EQ(domain.writers(), 3u);
  domain.set_time_us(123);
  // Writers append out of slot order; the flush must still linearize 0,1,2.
  domain.ring(2)->Emit(123, RecordKind::kShardBatch, 2, 0, 0, 20, 0);
  domain.ring(0)->Emit(123, RecordKind::kShardBatch, 0, 0, 0, 0, 0);
  domain.ring(1)->Emit(123, RecordKind::kShardBatch, 1, 0, 0, 10, 0);
  EXPECT_EQ(domain.FlushFrame(), 0u);
  EXPECT_EQ(domain.frames_flushed(), 1u);

  std::vector<TraceRecord> got;
  domain.ForEachSpilled([&](const TraceRecord& r) { got.push_back(r); });
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].actor, 0u);
  EXPECT_EQ(got[1].actor, 1u);
  EXPECT_EQ(got[2].actor, 2u);
  EXPECT_EQ(got[3].kind, static_cast<uint8_t>(RecordKind::kFrameMark));
  EXPECT_EQ(got[3].v0, 0);         // Frame sequence number.
  EXPECT_EQ(got[3].time_us, 123);  // Epoch stamp: the domain clock at flush.
  EXPECT_EQ(got[3].aux, 3u);       // Rings drained.

  // Second frame: sequence advances, rings were emptied by the first flush.
  EXPECT_EQ(domain.FlushFrame(), 1u);
  EXPECT_EQ(domain.frames_flushed(), 2u);
  EXPECT_EQ(domain.spill_size(), 5u);
}

TEST(TelemetryDomainTest, BoundedSpillDropsOldestAndKeepsSuffix) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.spill_bytes = 64 * sizeof(TraceRecord);  // Pow2 floor: 64 records.
  cfg.spill_grow = false;
  TraceDomain domain(cfg);
  for (int64_t i = 0; i < 200; ++i) {
    domain.EmitSpill(RecordKind::kShardBatch, 0, 0, 0, i, 0);
  }
  EXPECT_EQ(domain.spill_size(), 64u);
  EXPECT_EQ(domain.spill_dropped(), 136u);
  EXPECT_EQ(domain.dropped_records(), 136u);
  int64_t expect = 136;
  domain.ForEachSpilled([&](const TraceRecord& r) { EXPECT_EQ(r.v0, expect++); });
  EXPECT_EQ(expect, 200);
}

TEST(TelemetryDomainTest, GrowableSpillRetainsFullHistory) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.spill_bytes = 64 * sizeof(TraceRecord);
  cfg.spill_grow = true;
  TraceDomain domain(cfg);
  for (int64_t i = 0; i < 500; ++i) {
    domain.EmitSpill(RecordKind::kShardBatch, 0, 0, 0, i, 0);
  }
  EXPECT_EQ(domain.spill_size(), 500u);
  EXPECT_EQ(domain.spill_dropped(), 0u);
  int64_t expect = 0;
  domain.ForEachSpilled([&](const TraceRecord& r) { EXPECT_EQ(r.v0, expect++); });
  EXPECT_EQ(expect, 500);
}

TEST(TelemetryDomainTest, RingOverflowLossShowsUpInDomainAccounting) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.ring_bytes = 16 * sizeof(TraceRecord);
  TraceDomain domain(cfg);
  for (int64_t i = 0; i < 48; ++i) {
    domain.Emit(RecordKind::kShardBatch, 0, 0, 0, i, 0);
  }
  domain.FlushFrame();
  EXPECT_EQ(domain.dropped_records(), 32u);
  // The retained frame holds the newest 16 plus the mark.
  EXPECT_EQ(domain.spill_size(), 17u);
}

TEST(TelemetryFileTest, WriteLoadRoundTripPreservesRecordsAndCounters) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  TraceDomain domain(cfg);
  domain.EnsureWriters(2);
  domain.set_time_us(5000);
  domain.ring(0)->Emit(5000, RecordKind::kShardBatch, 0, 0, 0, 111, 222);
  domain.ring(1)->Emit(5000, RecordKind::kShardBatch, 1, 0, 0, 333, 444);
  domain.ring(1)->Emit(5000, RecordKind::kShardTiming, 1, 1 << 8, 0, 999, 0);
  domain.FlushFrame();

  const std::string path = ::testing::TempDir() + "trace_roundtrip.bin";
  ASSERT_TRUE(domain.WriteFile(path));

  TraceReader from_file;
  std::string error;
  ASSERT_TRUE(TraceReader::LoadFile(path, &from_file, &error)) << error;
  TraceReader from_domain = TraceReader::FromDomain(domain);

  EXPECT_EQ(from_file.writer_count(), 2u);
  EXPECT_EQ(from_file.dropped(), 0u);
  EXPECT_EQ(from_file.frames(), 1u);
  ASSERT_EQ(from_file.records().size(), from_domain.records().size());
  for (size_t i = 0; i < from_file.records().size(); ++i) {
    const TraceRecord& a = from_file.records()[i];
    const TraceRecord& b = from_domain.records()[i];
    EXPECT_EQ(a.time_us, b.time_us);
    EXPECT_EQ(a.v0, b.v0);
    EXPECT_EQ(a.v1, b.v1);
    EXPECT_EQ(a.actor, b.actor);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.flags, b.flags);
    EXPECT_EQ(a.aux, b.aux);
  }
  EXPECT_EQ(from_file.TotalTapFlow(), 444);
  EXPECT_EQ(from_file.TotalDecayFlow(), 666);
  std::remove(path.c_str());
}

TEST(TelemetryFileTest, WrappedSpillWritesFifoOrder) {
  // Force the spill ring to wrap so WriteFile exercises its two-chunk path.
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.spill_bytes = 64 * sizeof(TraceRecord);
  TraceDomain domain(cfg);
  for (int64_t i = 0; i < 150; ++i) {
    domain.EmitSpill(RecordKind::kShardBatch, 0, 0, 0, i, 0);
  }
  const std::string path = ::testing::TempDir() + "trace_wrapped.bin";
  ASSERT_TRUE(domain.WriteFile(path));
  TraceReader reader;
  ASSERT_TRUE(TraceReader::LoadFile(path, &reader));
  ASSERT_EQ(reader.records().size(), 64u);
  EXPECT_EQ(reader.dropped(), 86u);
  for (size_t i = 0; i < reader.records().size(); ++i) {
    EXPECT_EQ(reader.records()[i].v0, static_cast<int64_t>(86 + i));
  }
  std::remove(path.c_str());
}

TEST(TelemetryFileTest, LoadRejectsMissingAndMalformedFiles) {
  TraceReader reader;
  std::string error;
  EXPECT_FALSE(TraceReader::LoadFile(::testing::TempDir() + "no_such_trace.bin", &reader,
                                     &error));
  EXPECT_FALSE(error.empty());

  const std::string path = ::testing::TempDir() + "bad_magic.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOTATRACEFILE___________________________", f);
  std::fclose(f);
  error.clear();
  EXPECT_FALSE(TraceReader::LoadFile(path, &reader, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cinder
