// Binary record traces: the CSV→binary→ingest round trip must be
// indistinguishable from reading the CSV directly (identical record
// sequences, identical skip accounting, bit-identical anomalies through
// the pipeline), at least twice as fast to ingest, and a corrupted or
// truncated file must always surface as a clean persist::SnapshotError —
// never a crash, over-read, or OOM.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "hierarchy/builder.h"
#include "persist/snapshot.h"
#include "report/store.h"
#include "stream/binary_source.h"
#include "stream/source.h"
#include "timeseries/ewma.h"
#include "workload/ccd.h"
#include "cpu_timing.h"

namespace tiresias {
namespace {

using persist::SnapshotError;

std::vector<Record> drainBatched(RecordSource& src, std::size_t max) {
  std::vector<Record> out, chunk;
  while (src.nextBatch(chunk, max) > 0) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

std::vector<std::uint8_t> readBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in));
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void writeBytes(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t le64At(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[at + static_cast<std::size_t>(i)];
  return v;
}

/// The junk-laden CSV from the batched-ingest tests: every skip reason
/// (unknown path, malformed row, bad/empty timestamp) plus quoted, CRLF
/// and blank lines, so the converter faces everything CsvSource does.
std::string writeJunkLadenTrace(const Hierarchy& h) {
  const std::string path = ::testing::TempDir() + "/bin_junk.csv";
  std::ofstream out(path);
  for (int rep = 0; rep < 50; ++rep) {
    out << h.path(h.leaves()[rep % 3]) << "," << 100 + rep << "\n";
  }
  out << "no/such/path,200\n";
  out << "no/such/path,201\n";
  out << "not a csv row\n";
  out << "a,b,c\n";
  out << h.path(h.leaves()[0]) << ",notatime\n";
  out << h.path(h.leaves()[0]) << ",\n";
  out << "\n";
  out << "\"" << h.path(h.leaves()[1]) << "\",300\n";
  out << h.path(h.leaves()[2]) << ",400\r\n";
  out << h.path(h.leaves()[2]) << ",500\n";
  return path;
}

TEST(BinaryTrace, RoundTripMatchesCsvSource) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const std::string csv = writeJunkLadenTrace(h);
  const std::string bin = ::testing::TempDir() + "/bin_junk.tsrb";
  const auto stats = convertCsvTraceToBinary(csv, bin);

  for (std::size_t max : {1u, 3u, 64u, 4096u}) {
    CsvSource reference(csv, h);
    const auto want = drainBatched(reference, max);
    ASSERT_EQ(want.size(), 53u) << "max=" << max;
    EXPECT_EQ(reference.skippedRecords(), 6u) << "max=" << max;

    BinarySource binary(bin, h);
    EXPECT_EQ(drainBatched(binary, max), want) << "max=" << max;
    // The CSV's skips split across the two stages — junk rows die at
    // convert time, unknown paths at read time — but the total matches.
    EXPECT_EQ(binary.skippedRecords(), 2u) << "max=" << max;
    EXPECT_EQ(stats.skippedRows + binary.skippedRecords(),
              reference.skippedRecords())
        << "max=" << max;
    EXPECT_EQ(binary.unresolvedPaths(), 1u);  // "no/such/path"
  }
  std::remove(csv.c_str());
  std::remove(bin.c_str());
}

TEST(BinaryTrace, ConvertStatsAndFraming) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const std::string csv = writeJunkLadenTrace(h);
  const std::string bin = ::testing::TempDir() + "/bin_stats.tsrb";
  const auto stats = convertCsvTraceToBinary(csv, bin);

  // 50 repeated + quoted + CRLF + plain = 53 records survive conversion
  // (the two unknown-path rows stay — resolution is the reader's job);
  // 4 junk rows die at convert time.
  EXPECT_EQ(stats.records, 55u);
  EXPECT_EQ(stats.skippedRows, 4u);
  EXPECT_EQ(stats.paths, 4u);  // 3 leaves + "no/such/path"

  const auto bytes = readBytes(bin);
  EXPECT_EQ(stats.bytesWritten, bytes.size());
  ASSERT_GE(bytes.size(), 24u);
  EXPECT_EQ(bytes[0], 'T');
  EXPECT_EQ(bytes[1], 'S');
  EXPECT_EQ(bytes[2], 'R');
  EXPECT_EQ(bytes[3], 'B');
  EXPECT_EQ(le64At(bytes, 8), 55u);  // declared record count
  std::remove(csv.c_str());
  std::remove(bin.c_str());
}

TEST(BinaryTrace, OpenTraceSourceSniffsFormat) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const std::string csv = writeJunkLadenTrace(h);
  const std::string bin = ::testing::TempDir() + "/bin_sniff.tsrb";
  convertCsvTraceToBinary(csv, bin);

  auto fromCsv = openTraceSource(csv, h);
  auto fromBin = openTraceSource(bin, h);
  ASSERT_NE(dynamic_cast<CsvSource*>(fromCsv.get()), nullptr);
  ASSERT_NE(dynamic_cast<BinarySource*>(fromBin.get()), nullptr);
  EXPECT_EQ(drainBatched(*fromBin, 64), drainBatched(*fromCsv, 64));

  // A file shorter than any binary prologue falls back to CSV cleanly.
  const std::string tiny = ::testing::TempDir() + "/bin_tiny.csv";
  { std::ofstream out(tiny); out << "x"; }
  auto fromTiny = openTraceSource(tiny, h);
  ASSERT_NE(dynamic_cast<CsvSource*>(fromTiny.get()), nullptr);
  EXPECT_TRUE(drainBatched(*fromTiny, 64).empty());
  std::remove(csv.c_str());
  std::remove(bin.c_str());
  std::remove(tiny.c_str());
}

TEST(BinaryTrace, MissingFileThrowsSnapshotError) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const std::string missing = ::testing::TempDir() + "/no_such_trace";
  EXPECT_THROW(openTraceSource(missing, h), SnapshotError);
  EXPECT_THROW(CsvSource(missing, h), SnapshotError);
  EXPECT_THROW(BinarySource(missing, h), SnapshotError);
}

/// End-to-end: a pipeline fed the converted trace produces bit-identical
/// anomalies and summaries to one fed the original CSV.
TEST(BinaryTrace, PipelineEquivalentToCsvIngest) {
  const auto spec = workload::ccdNetworkWorkload(workload::Scale::kTest);
  workload::SpikeSpec spike;
  spike.node = spec.hierarchy.children(spec.hierarchy.root()).front();
  spike.startUnit = 30;
  spike.durationUnits = 3;
  spike.extraPerUnit = 40.0 * spec.baseRatePerUnit;
  workload::GroundTruthLedger ledger;
  ledger.add(spike);
  const auto injector = std::make_shared<workload::AnomalyInjector>(
      spec.hierarchy, std::move(ledger));

  workload::GeneratorSource gen(spec, 0, 48, 7, injector);
  const std::vector<Record> records = drainBatched(gen, 4096);
  const std::string csv = ::testing::TempDir() + "/bin_pipe.csv";
  const std::string bin = ::testing::TempDir() + "/bin_pipe.tsrb";
  writeRecordsCsv(csv, spec.hierarchy, records);
  const auto stats = convertCsvTraceToBinary(csv, bin);
  EXPECT_EQ(stats.records, records.size());
  EXPECT_EQ(stats.skippedRows, 0u);

  PipelineConfig cfg;
  cfg.delta = spec.unit;
  cfg.detector.theta = 8.0;
  cfg.detector.windowLength = 16;
  cfg.detector.forecasterFactory = std::make_shared<EwmaFactory>(0.5);

  auto runWith = [&](const std::string& trace, RunSummary& sum) {
    auto src = openTraceSource(trace, spec.hierarchy);
    TiresiasPipeline pipeline(borrowHierarchy(spec.hierarchy), cfg);
    report::AnomalyStore store(spec.hierarchy);
    sum = pipeline.run(*src, [&](const InstanceResult& r) { store.add(r); });
    return store.all();
  };

  RunSummary csvSum, binSum;
  const auto fromCsv = runWith(csv, csvSum);
  const auto fromBin = runWith(bin, binSum);
  EXPECT_EQ(binSum.unitsProcessed, csvSum.unitsProcessed);
  EXPECT_EQ(binSum.recordsProcessed, csvSum.recordsProcessed);
  EXPECT_EQ(binSum.instancesDetected, csvSum.instancesDetected);
  EXPECT_EQ(binSum.anomaliesReported, csvSum.anomaliesReported);
  ASSERT_EQ(fromBin.size(), fromCsv.size());
  for (std::size_t i = 0; i < fromBin.size(); ++i) {
    EXPECT_EQ(fromBin[i].anomaly, fromCsv[i].anomaly);
    EXPECT_EQ(fromBin[i].path, fromCsv[i].path);
  }
  EXPECT_GT(fromBin.size(), 0u);
  std::remove(csv.c_str());
  std::remove(bin.c_str());
}

// The binary format's reason to exist: batched ingest of a converted
// trace (parse-free decode) must be at least twice as fast as batched
// ingest of the same records from CSV.
TEST(BinaryTrace, BatchedIngestAtLeastTwiceCsv) {
  SKIP_TIMING_UNDER_SANITIZERS();
  const auto spec = workload::ccdNetworkWorkload(workload::Scale::kMedium);
  workload::GeneratorSource gen(spec, 0, 512, 1);
  const std::vector<Record> records = drainBatched(gen, 65536);
  const std::string csv = ::testing::TempDir() + "/bin_speed.csv";
  const std::string bin = ::testing::TempDir() + "/bin_speed.tsrb";
  writeRecordsCsv(csv, spec.hierarchy, records);
  convertCsvTraceToBinary(csv, bin);

  // One full pass through the timeunit batcher, after opening the source.
  const auto passSeconds = [&](const auto& open) {
    return bestOfThree([&] {
      auto src = open();
      const CpuStopwatch watch;
      TimeUnitBatcher batcher(*src, spec.unit, 0);
      TimeUnitBatch batch;
      std::size_t n = 0;
      while (batcher.next(batch)) n += batch.records.size();
      EXPECT_EQ(n, records.size());
      return watch.elapsedSeconds();
    });
  };
  const double csvSeconds = passSeconds(
      [&] { return std::make_unique<CsvSource>(csv, spec.hierarchy); });
  const double binSeconds = passSeconds(
      [&] { return std::make_unique<BinarySource>(bin, spec.hierarchy); });
  const double speedup = csvSeconds / binSeconds;
  RecordProperty("speedup", std::to_string(speedup));
  EXPECT_GE(speedup, 2.0) << "batched binary vs batched CSV ingest";
  std::remove(csv.c_str());
  std::remove(bin.c_str());
}

// ---------------------------------------------------------------------
// Corruption fuzzing: every mutation must surface as SnapshotError (at
// construction or while draining), never as a crash or silent data.

class BinaryTraceFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    h_ = HierarchyBuilder::balanced({3, 2});
    csv_ = writeJunkLadenTrace(h_);
    bin_ = ::testing::TempDir() + "/bin_fuzz.tsrb";
    convertCsvTraceToBinary(csv_, bin_);
    bytes_ = readBytes(bin_);
    tableBytes_ = le64At(bytes_, 16);
  }

  void TearDown() override {
    std::remove(csv_.c_str());
    std::remove(bin_.c_str());
  }

  /// Construct + drain the mutated file, expecting SnapshotError from one
  /// of the two phases (header errors throw in the constructor, block
  /// errors while draining).
  void expectCorrupt(const std::vector<std::uint8_t>& mutated,
                     const char* what) {
    writeBytes(bin_, mutated);
    EXPECT_THROW(
        {
          BinarySource src(bin_, h_);
          std::vector<Record> chunk;
          while (src.nextBatch(chunk, 64) > 0) {
          }
        },
        SnapshotError)
        << what;
  }

  std::size_t firstBlockAt() const { return 24 + tableBytes_; }

  Hierarchy h_;
  std::string csv_, bin_;
  std::vector<std::uint8_t> bytes_;
  std::uint64_t tableBytes_ = 0;
};

TEST_F(BinaryTraceFuzz, IntactFileDrainsClean) {
  BinarySource src(bin_, h_);
  EXPECT_GT(drainBatched(src, 64).size(), 0u);
}

TEST_F(BinaryTraceFuzz, BadMagic) {
  auto b = bytes_;
  b[0] ^= 0xFF;
  expectCorrupt(b, "bad magic");
}

TEST_F(BinaryTraceFuzz, UnknownVersion) {
  auto b = bytes_;
  b[4] = 99;
  expectCorrupt(b, "unknown version");
}

TEST_F(BinaryTraceFuzz, TruncatedPrologue) {
  auto b = bytes_;
  b.resize(10);
  expectCorrupt(b, "truncated prologue");
}

TEST_F(BinaryTraceFuzz, EmptyFile) {
  expectCorrupt({}, "empty file");
}

TEST_F(BinaryTraceFuzz, TableOverrunsFile) {
  auto b = bytes_;
  // tableBytes far past the end: must be rejected before any allocation
  // sized from it.
  for (int i = 0; i < 8; ++i) b[16 + i] = 0xFF;
  expectCorrupt(b, "table overruns file");
}

TEST_F(BinaryTraceFuzz, TruncatedPathTable) {
  auto b = bytes_;
  b.resize(24 + static_cast<std::size_t>(tableBytes_) / 2);
  expectCorrupt(b, "truncated path table");
}

TEST_F(BinaryTraceFuzz, TruncatedBlockHeader) {
  auto b = bytes_;
  b.resize(firstBlockAt() + 2);
  expectCorrupt(b, "truncated block header");
}

TEST_F(BinaryTraceFuzz, TruncatedRecordBlock) {
  auto b = bytes_;
  b.resize(b.size() - 5);  // chop mid-record
  expectCorrupt(b, "truncated record block");
}

TEST_F(BinaryTraceFuzz, MissingRecordsAtCleanBoundary) {
  auto b = bytes_;
  // Remove the whole record payload but keep the block prefix intact at
  // zero records... actually: keep the file ending exactly after the
  // prologue + table. The prologue still declares records, so a clean EOF
  // with too few decoded records is truncation.
  b.resize(firstBlockAt());
  expectCorrupt(b, "missing records");
}

TEST_F(BinaryTraceFuzz, ZeroBlockCount) {
  auto b = bytes_;
  const std::size_t at = firstBlockAt();
  b[at] = b[at + 1] = b[at + 2] = b[at + 3] = 0;
  expectCorrupt(b, "zero block count");
}

TEST_F(BinaryTraceFuzz, ImplausibleBlockCount) {
  auto b = bytes_;
  const std::size_t at = firstBlockAt();
  for (int i = 0; i < 4; ++i) b[at + static_cast<std::size_t>(i)] = 0xFF;
  expectCorrupt(b, "oversized block count");
}

TEST_F(BinaryTraceFuzz, BlockOverrunsDeclaredTotal) {
  auto b = bytes_;
  // Declare fewer records than the blocks actually carry.
  for (int i = 0; i < 8; ++i) b[8 + i] = 0;
  b[8] = 1;  // recordCount = 1
  expectCorrupt(b, "more records than declared");
}

TEST_F(BinaryTraceFuzz, FileIdOutsideTable) {
  auto b = bytes_;
  const std::size_t rec = firstBlockAt() + 4;  // first record's fileId
  for (int i = 0; i < 4; ++i) b[rec + static_cast<std::size_t>(i)] = 0xFF;
  expectCorrupt(b, "file id outside table");
}

TEST_F(BinaryTraceFuzz, TrailingBytesInPathTable) {
  auto b = bytes_;
  // Grow the declared table size by 1 so it swallows the first block
  // byte: the table deserializer must reject the trailing byte.
  const std::uint64_t grown = tableBytes_ + 1;
  for (int i = 0; i < 8; ++i) {
    b[16 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(grown >> (8 * i));
  }
  expectCorrupt(b, "trailing table bytes");
}

TEST_F(BinaryTraceFuzz, RandomByteFlipsNeverCrash) {
  // Deterministic sweep: flip one byte at a spread of offsets; every
  // outcome must be either a clean drain (the flip hit a timestamp or a
  // path char that still resolves/skips) or SnapshotError — never a crash
  // (ASan enforces the never-over-read part).
  for (std::size_t at = 0; at < bytes_.size();
       at += std::max<std::size_t>(1, bytes_.size() / 97)) {
    auto b = bytes_;
    b[at] ^= 0x5A;
    writeBytes(bin_, b);
    try {
      BinarySource src(bin_, h_);
      std::vector<Record> chunk;
      while (src.nextBatch(chunk, 64) > 0) {
      }
    } catch (const SnapshotError&) {
      // fine: rejected cleanly
    }
  }
}

}  // namespace
}  // namespace tiresias
