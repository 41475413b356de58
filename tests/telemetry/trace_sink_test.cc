// Streaming sink tests: the TraceSink interface on TraceDomain, the
// FileStreamSink's file-identity and finalization protocol, O(ring) memory
// in streaming mode, sink lifecycle edge cases (mid-run attach, destruction
// with a sink attached, disabled domains), and TraceReader's truncated-file
// handling. The TraceSinkTest suite runs under TSAN in CI (sinks live on
// the flush path, past the executor's happens-before edge).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/tap_engine.h"
#include "src/sim/simulator.h"
#include "src/telemetry/file_stream_sink.h"
#include "src/telemetry/trace_domain.h"
#include "src/telemetry/trace_reader.h"

namespace cinder {
namespace {

// Counts everything it sees; optionally records the records themselves.
class CountingSink : public TraceSink {
 public:
  void OnAttach(const TraceDomain& domain) override {
    ++attaches;
    first_seen_frame_seq = domain.frames_flushed();
  }
  void OnRecord(const TraceRecord& r) override {
    ++records;
    if (keep) {
      seen.push_back(r);
    }
  }
  void OnFrame(uint64_t seq, const TraceDomain& domain) override {
    (void)domain;
    ++frames;
    last_frame_seq = seq;
  }
  void OnDetach(const TraceDomain& domain) override {
    (void)domain;
    ++detaches;
  }

  bool keep = false;
  std::vector<TraceRecord> seen;
  int attaches = 0;
  int detaches = 0;
  uint64_t records = 0;
  uint64_t frames = 0;
  uint64_t last_frame_seq = 0;
  uint64_t first_seen_frame_seq = 0;
};

TelemetryConfig SmallConfig() {
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.ring_bytes = 4 * 1024;
  cfg.spill_bytes = 4 * 1024;  // 128 records — tiny, to make drops easy.
  return cfg;
}

std::string TempPath(const std::string& name) { return ::testing::TempDir() + name; }

std::vector<unsigned char> Slurp(const std::string& path) {
  std::vector<unsigned char> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return bytes;
  }
  std::fseek(f, 0, SEEK_END);
  bytes.resize(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  if (!bytes.empty() && std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    bytes.clear();
  }
  std::fclose(f);
  return bytes;
}

void Chop(const std::string& path, size_t keep_bytes) {
  const auto bytes = Slurp(path);
  ASSERT_LE(keep_bytes, bytes.size());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, keep_bytes, f), keep_bytes);
  std::fclose(f);
}

void EmitBatch(TraceDomain& domain, int count, int64_t base) {
  for (int i = 0; i < count; ++i) {
    domain.ring(0)->Emit(domain.time_us(), RecordKind::kShardBatch, 0, 0, 0, base + i, 1);
  }
  domain.FlushFrame();
}

// -- Routing & lifecycle --------------------------------------------------------

TEST(TraceSinkTest, SinksReceiveRecordsInsteadOfSpillRetention) {
  TraceDomain domain(SmallConfig());
  CountingSink sink;
  domain.AddSink(&sink);
  EXPECT_EQ(domain.sink_count(), 1u);

  EmitBatch(domain, 10, 0);
  // 10 records + 1 frame mark reached the sink; nothing was retained.
  EXPECT_EQ(sink.records, 11u);
  EXPECT_EQ(sink.frames, 1u);
  EXPECT_EQ(domain.spill_size(), 0u);
  EXPECT_EQ(domain.spill_capacity(), 0u);

  domain.RemoveSink(&sink);
  EXPECT_EQ(sink.detaches, 1);
  EXPECT_EQ(domain.sink_count(), 0u);
  // Without sinks the spill retains again.
  EmitBatch(domain, 5, 100);
  EXPECT_EQ(domain.spill_size(), 6u);
  EXPECT_EQ(sink.records, 11u);
}

TEST(TraceSinkTest, RetainWithSinksStreamsAndRetains) {
  TelemetryConfig cfg = SmallConfig();
  cfg.retain_with_sinks = true;
  CountingSink sink;  // Declared before the domain: sinks outlive it.
  TraceDomain domain(cfg);
  domain.AddSink(&sink);
  EmitBatch(domain, 10, 0);
  EXPECT_EQ(sink.records, 11u);
  EXPECT_EQ(domain.spill_size(), 11u);
}

TEST(TraceSinkTest, MidRunAttachStartsFreshEpoch) {
  CountingSink sink;  // Declared before the domain: sinks outlive it.
  sink.keep = true;
  TraceDomain domain(SmallConfig());
  EmitBatch(domain, 4, 0);  // Frame 0, retained (no sinks yet).
  EmitBatch(domain, 4, 10);  // Frame 1.

  domain.AddSink(&sink);
  EXPECT_EQ(sink.attaches, 1);
  EXPECT_EQ(sink.first_seen_frame_seq, 2u);  // Next frame it will see.

  EmitBatch(domain, 3, 20);
  // The sink saw only the post-attach epoch: 3 records + the mark, whose
  // sequence number continues the domain's (2), not a restart.
  ASSERT_EQ(sink.seen.size(), 4u);
  EXPECT_EQ(sink.seen[0].v0, 20);
  EXPECT_EQ(sink.last_frame_seq, 2u);
  EXPECT_EQ(sink.seen.back().kind, static_cast<uint8_t>(RecordKind::kFrameMark));
  EXPECT_EQ(sink.seen.back().v0, 2);
}

TEST(TraceSinkTest, DomainDestructionDetachesAndFlushesPendingRecords) {
  CountingSink sink;
  {
    TraceDomain domain(SmallConfig());
    domain.AddSink(&sink);
    EmitBatch(domain, 5, 0);
    // Leave 3 records undrained in the ring; the destructor must flush them
    // as one final frame before detaching.
    for (int i = 0; i < 3; ++i) {
      domain.ring(0)->Emit(0, RecordKind::kShardBatch, 0, 0, 0, 100 + i, 0);
    }
  }
  EXPECT_EQ(sink.detaches, 1);
  EXPECT_EQ(sink.frames, 2u);
  EXPECT_EQ(sink.records, 5u + 1u + 3u + 1u);
}

TEST(TraceSinkTest, DestructorAddsNoEmptyFrameWhenAlreadyFlushed) {
  CountingSink sink;
  {
    TraceDomain domain(SmallConfig());
    domain.AddSink(&sink);
    EmitBatch(domain, 5, 0);
  }
  EXPECT_EQ(sink.frames, 1u);  // No trailing empty frame.
  EXPECT_EQ(sink.detaches, 1);
}

TEST(TraceSinkTest, DisabledDomainIgnoresSinksEntirely) {
  TelemetryConfig cfg;
  cfg.enabled = false;
  TraceDomain domain(cfg);
  CountingSink sink;
  domain.AddSink(&sink);
  EXPECT_EQ(domain.sink_count(), 0u);
  EXPECT_EQ(sink.attaches, 0);
  domain.FlushFrame();
  EXPECT_EQ(sink.records, 0u);
  EXPECT_EQ(sink.frames, 0u);
  EXPECT_EQ(domain.spill_capacity(), 0u);
}

TEST(TraceSinkTest, DisabledSimulatorWithStreamPathIsNoOp) {
  const std::string path = TempPath("disabled_stream.bin");
  std::remove(path.c_str());
  SimConfig cfg;
  cfg.telemetry.enabled = false;
  cfg.telemetry.stream_path = path;
  Simulator sim(cfg);
  EXPECT_EQ(sim.stream_sink(), nullptr);
  sim.Run(Duration::Millis(30));
  // No sink, no file, no spill allocation.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) {
    std::fclose(f);
  }
  EXPECT_EQ(sim.telemetry().spill_capacity(), 0u);
}

// -- File identity & O(ring) memory ---------------------------------------------

TEST(TraceSinkTest, StreamedFileIsByteIdenticalToWriteFile) {
  // One run, streamed and retained simultaneously: the incremental file a
  // FileStreamSink produces must equal the post-hoc WriteFile dump of the
  // same records byte for byte (timing records differ across runs, so the
  // comparison must happen within a single run).
  SimConfig cfg;
  cfg.exec.tap_workers = 2;
  cfg.telemetry.enabled = true;
  cfg.telemetry.spill_grow = true;
  cfg.telemetry.retain_with_sinks = true;
  const std::string streamed = TempPath("streamed.bin");
  const std::string posthoc = TempPath("posthoc.bin");
  cfg.telemetry.stream_path = streamed;
  {
    Simulator sim(cfg);
    Kernel& kernel = sim.kernel();
    for (int p = 0; p < 6; ++p) {
      Reserve* pool =
          kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "pool");
      pool->Deposit(ToQuantity(Energy::Joules(10.0)));
      Reserve* app = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "app");
      Tap* tap = kernel.Create<Tap>(kernel.root_container_id(), Label(Level::k1), "tap",
                                    pool->id(), app->id());
      tap->SetConstantPower(Power::Milliwatts(50 + p));
      ASSERT_TRUE(sim.taps().Register(tap->id()));
    }
    ASSERT_NE(sim.stream_sink(), nullptr);
    sim.Run(Duration::Millis(500));
    sim.telemetry().FlushFrame();
    // Finalize the stream, then dump the retained copy of the same records.
    sim.telemetry().RemoveSink(sim.stream_sink());
    ASSERT_TRUE(sim.telemetry().WriteFile(posthoc));
    EXPECT_EQ(sim.telemetry().dropped_records(), 0u);
  }
  const auto streamed_bytes = Slurp(streamed);
  const auto posthoc_bytes = Slurp(posthoc);
  ASSERT_GT(streamed_bytes.size(), sizeof(TraceFileHeader));
  EXPECT_EQ(streamed_bytes, posthoc_bytes);
  std::remove(streamed.c_str());
  std::remove(posthoc.c_str());
}

TEST(TraceSinkTest, LongStreamingRunKeepsMemoryAtRingScaleWithZeroDrops) {
  // >= 10x the spill capacity worth of records, streamed: the spill must
  // never allocate and nothing may drop.
  TelemetryConfig cfg = SmallConfig();  // Spill capacity: 128 records.
  TraceDomain domain(cfg);
  const std::string path = TempPath("long_stream.bin");
  FileStreamSink sink;
  ASSERT_TRUE(sink.Open(path));
  domain.AddSink(&sink);
  const int kBatches = 200;
  const int kPerBatch = 20;  // 4200 records total, ~33x spill capacity.
  for (int b = 0; b < kBatches; ++b) {
    EmitBatch(domain, kPerBatch, b * 1000);
  }
  EXPECT_EQ(domain.spill_capacity(), 0u);
  EXPECT_EQ(domain.spill_size(), 0u);
  EXPECT_EQ(domain.dropped_records(), 0u);
  domain.RemoveSink(&sink);
  ASSERT_TRUE(sink.ok());

  TraceReader reader;
  std::string error;
  ASSERT_TRUE(TraceReader::LoadFile(path, &reader, &error)) << error;
  EXPECT_FALSE(reader.truncated());
  EXPECT_TRUE(reader.complete());
  EXPECT_EQ(reader.records().size(), static_cast<size_t>(kBatches * (kPerBatch + 1)));
  EXPECT_EQ(reader.frames(), static_cast<uint64_t>(kBatches));
  std::remove(path.c_str());
}

TEST(TraceSinkTest, MultipleSinksSeeTheSameStream) {
  CountingSink counter;  // Declared before the domain: sinks outlive it.
  TraceDomain domain(SmallConfig());
  const std::string path = TempPath("multi_sink.bin");
  FileStreamSink file_sink;
  ASSERT_TRUE(file_sink.Open(path));
  domain.AddSink(&file_sink);
  domain.AddSink(&counter);
  EmitBatch(domain, 7, 0);
  domain.RemoveSink(&file_sink);
  EXPECT_EQ(counter.records, 8u);
  EXPECT_EQ(file_sink.records_written(), 8u);
  TraceReader reader;
  ASSERT_TRUE(TraceReader::LoadFile(path, &reader));
  EXPECT_EQ(reader.records().size(), 8u);
  std::remove(path.c_str());
}

TEST(TraceSinkTest, FsyncPolicyStreamsCorrectly) {
  TraceDomain domain(SmallConfig());
  const std::string path = TempPath("fsync_stream.bin");
  FileStreamSink sink;
  FileStreamSinkOptions opts;
  opts.fsync_every_frames = 2;
  ASSERT_TRUE(sink.Open(path, opts));
  domain.AddSink(&sink);
  for (int b = 0; b < 5; ++b) {
    EmitBatch(domain, 3, b * 10);
  }
  domain.RemoveSink(&sink);
  ASSERT_TRUE(sink.ok());
  TraceReader reader;
  ASSERT_TRUE(TraceReader::LoadFile(path, &reader));
  EXPECT_EQ(reader.frames(), 5u);
  EXPECT_TRUE(reader.complete());
  std::remove(path.c_str());
}

// -- Truncated files -------------------------------------------------------------

TEST(TraceSinkTest, UnfinalizedStreamParsesAsTruncatedPrefix) {
  // A "killed" writer: records on disk behind a placeholder header.
  TraceDomain domain(SmallConfig());
  const std::string path = TempPath("killed_stream.bin");
  {
    FileStreamSink sink;
    ASSERT_TRUE(sink.Open(path));
    domain.AddSink(&sink);
    EmitBatch(domain, 6, 0);
    EmitBatch(domain, 6, 10);
    domain.RemoveSink(&sink);  // Flushes stdio; also patches the header.
  }
  // Reconstruct the killed-mid-run state: the records as streamed, behind
  // the placeholder header Finish never got to patch.
  auto bytes = Slurp(path);
  ASSERT_GT(bytes.size(), sizeof(TraceFileHeader));
  TraceFileHeader placeholder{};
  std::memcpy(placeholder.magic, kTraceFileMagic, sizeof(placeholder.magic));
  placeholder.record_size = sizeof(TraceRecord);
  placeholder.record_count = 0;
  std::memcpy(bytes.data(), &placeholder, sizeof(placeholder));
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  TraceReader reader;
  std::string error;
  ASSERT_TRUE(TraceReader::LoadFile(path, &reader, &error)) << error;
  EXPECT_TRUE(reader.truncated());
  EXPECT_FALSE(reader.complete());
  EXPECT_EQ(reader.records().size(), 14u);  // Every whole record on disk.
  EXPECT_EQ(reader.frames(), 2u);
  std::remove(path.c_str());
}

TEST(TraceSinkTest, ByteChoppedFileParsesWholeRecordsAndFlagsTruncation) {
  TraceDomain domain(SmallConfig());
  const std::string path = TempPath("chopped_stream.bin");
  {
    FileStreamSink sink;
    ASSERT_TRUE(sink.Open(path));
    domain.AddSink(&sink);
    EmitBatch(domain, 9, 0);
    domain.RemoveSink(&sink);  // Finalized: header says 10 records.
  }
  const size_t full = Slurp(path).size();
  ASSERT_EQ(full, sizeof(TraceFileHeader) + 10 * sizeof(TraceRecord));

  // Chop mid-record: 4 whole records + 7 stray bytes.
  Chop(path, sizeof(TraceFileHeader) + 4 * sizeof(TraceRecord) + 7);
  TraceReader reader;
  std::string error;
  ASSERT_TRUE(TraceReader::LoadFile(path, &reader, &error)) << error;
  EXPECT_TRUE(reader.truncated());
  ASSERT_EQ(reader.records().size(), 4u);
  EXPECT_EQ(reader.records()[3].v0, 3);  // The prefix parsed correctly.

  // Chop inside the header: a clean error, never a crash or misparse.
  Chop(path, sizeof(TraceFileHeader) / 2);
  TraceReader half;
  error.clear();
  EXPECT_FALSE(TraceReader::LoadFile(path, &half, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST(TraceSinkTest, EveryChopLengthEitherFailsCleanlyOrFlagsTruncation) {
  // The regression sweep: byte-chop a real streamed file at many lengths;
  // LoadFile must never crash, never misparse, and only report a complete
  // stream at the full length.
  TraceDomain domain(SmallConfig());
  const std::string path = TempPath("chop_sweep.bin");
  std::vector<unsigned char> full_bytes;
  {
    FileStreamSink sink;
    ASSERT_TRUE(sink.Open(path));
    domain.AddSink(&sink);
    EmitBatch(domain, 5, 0);
    domain.RemoveSink(&sink);
    full_bytes = Slurp(path);
  }
  for (size_t keep = 0; keep <= full_bytes.size(); keep += 9) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (keep > 0) {
      ASSERT_EQ(std::fwrite(full_bytes.data(), 1, keep, f), keep);
    }
    std::fclose(f);
    TraceReader reader;
    const bool loaded = TraceReader::LoadFile(path, &reader);
    if (keep < sizeof(TraceFileHeader)) {
      EXPECT_FALSE(loaded) << "chop at " << keep;
    } else if (loaded && keep < full_bytes.size()) {
      EXPECT_TRUE(reader.truncated()) << "chop at " << keep;
    }
  }
  // And the untouched file is complete.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(full_bytes.data(), 1, full_bytes.size(), f), full_bytes.size());
    std::fclose(f);
  }
  TraceReader reader;
  ASSERT_TRUE(TraceReader::LoadFile(path, &reader));
  EXPECT_TRUE(reader.complete());
  std::remove(path.c_str());
}

// -- Drop accounting -------------------------------------------------------------

TEST(TraceSinkTest, RingDropSplitSurfacesInReaderFromDomainAndFile) {
  TelemetryConfig cfg = SmallConfig();
  cfg.ring_bytes = 16 * sizeof(TraceRecord);  // Tiny ring: overwrites easily.
  cfg.spill_grow = true;
  TraceDomain domain(cfg);
  // Overflow the ring before flushing: 40 into a 16-slot ring = 24 dropped.
  for (int i = 0; i < 40; ++i) {
    domain.ring(0)->Emit(0, RecordKind::kShardBatch, 0, 0, 0, i, 0);
  }
  domain.FlushFrame();
  EXPECT_EQ(domain.ring_dropped(), 24u);

  TraceReader from_domain = TraceReader::FromDomain(domain);
  EXPECT_EQ(from_domain.ring_dropped(), 24u);
  EXPECT_EQ(from_domain.spill_dropped(), 0u);
  EXPECT_EQ(from_domain.dropped(), 24u);
  EXPECT_FALSE(from_domain.complete());

  const std::string path = TempPath("ring_drops.bin");
  ASSERT_TRUE(domain.WriteFile(path));
  TraceReader from_file;
  ASSERT_TRUE(TraceReader::LoadFile(path, &from_file));
  // The frame mark's v1 stamp carries the split into the file.
  EXPECT_EQ(from_file.ring_dropped(), 24u);
  EXPECT_EQ(from_file.spill_dropped(), 0u);
  EXPECT_FALSE(from_file.complete());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cinder
