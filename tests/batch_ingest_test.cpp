// The one pull API, RecordSource::nextBatch: every chunk size yields the
// same literal records and skip counts, and the timeunit batcher slices
// units the same whatever chunks it is fed.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/rng.h"
#include "hierarchy/builder.h"
#include "stream/window.h"
#include "workload/ccd.h"
#include "workload/generator.h"

namespace tiresias {
namespace {

std::vector<Record> drainBatched(RecordSource& src, std::size_t max) {
  std::vector<Record> out, chunk;
  while (src.nextBatch(chunk, max) > 0) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

TEST(NextBatch, ClearsTheBufferAndStopsAtMax) {
  VectorSource src({{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 50}});
  std::vector<Record> chunk{{9, 0}};
  EXPECT_EQ(src.nextBatch(chunk, 2), 2u);
  EXPECT_EQ(chunk, (std::vector<Record>{{1, 10}, {2, 20}}));
  EXPECT_EQ(src.nextBatch(chunk, 4), 3u);  // clears, then the remainder
  EXPECT_EQ(chunk, (std::vector<Record>{{3, 30}, {4, 40}, {5, 50}}));
  EXPECT_EQ(src.nextBatch(chunk, 4), 0u);
  EXPECT_TRUE(chunk.empty());
}

TEST(NextBatch, VectorSourceReplaysAtAnyChunkSize) {
  std::vector<Record> records;
  for (int i = 0; i < 257; ++i) {
    records.push_back({static_cast<NodeId>(i % 5), i * 3});
  }
  for (std::size_t max : {1u, 2u, 7u, 256u, 1024u}) {
    VectorSource src(records);
    EXPECT_EQ(drainBatched(src, max), records) << "max=" << max;
  }
}

TEST(NextBatch, GeneratorSourceIgnoresChunkSize) {
  const auto spec = workload::ccdNetworkWorkload(workload::Scale::kTest);
  workload::GeneratorSource whole(spec, 0, 24, 42);
  const auto want = drainBatched(whole, 1 << 20);
  ASSERT_GT(want.size(), 0u);
  EXPECT_EQ(whole.produced(), want.size());
  for (std::size_t i = 1; i < want.size(); ++i) {
    ASSERT_LE(want[i - 1].time, want[i].time) << "at " << i;
  }
  EXPECT_GE(want.front().time, 0);
  EXPECT_LT(want.back().time, 24 * spec.unit);
  for (std::size_t max : {1u, 7u, 100u}) {
    workload::GeneratorSource src(spec, 0, 24, 42);
    EXPECT_EQ(drainBatched(src, max), want) << "max=" << max;
    EXPECT_EQ(src.produced(), want.size()) << "max=" << max;
  }
}

/// One trace exercising every skip reason plus cache-relevant repetition:
/// unknown paths (cached negatively), malformed rows, bad timestamps,
/// quoted and CRLF rows (slow path), and heavy path repetition (cache
/// hits). Every chunk size must yield the same literal records and skips.
TEST(NextBatch, CsvSourceJunkLadenTraceAtAnyChunkSize) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const auto leaf = [&](int i) {
    return h.leaves()[static_cast<std::size_t>(i)];
  };
  const std::string path = ::testing::TempDir() + "/batch_junk.csv";
  std::vector<Record> want;
  {
    std::ofstream out(path);
    for (int rep = 0; rep < 50; ++rep) {  // repeated categories: cache hits
      out << h.path(leaf(rep % 3)) << "," << 100 + rep << "\n";
      want.push_back({leaf(rep % 3), 100 + rep});
    }
    out << "no/such/path,200\n";            // unknown -> skipped
    out << "no/such/path,201\n";            // repeated unknown (cached)
    out << "not a csv row\n";               // one field -> skipped
    out << "a,b,c\n";                       // three fields -> skipped
    out << h.path(leaf(0)) << ",notatime\n";  // bad time -> skipped
    out << h.path(leaf(0)) << ",\n";          // empty time -> skipped
    out << "\n";                              // blank line (not junk)
    out << "\"" << h.path(leaf(1)) << "\",300\n";  // quoted row
    out << h.path(leaf(2)) << ",400\r\n";          // CRLF row
    // Embedded NUL after digits: strtoll stops at the NUL and accepts.
    out << h.path(leaf(0)) << ",450" << '\0' << "x\n";
    out << h.path(leaf(2)) << ",500\n";
  }
  want.push_back({leaf(1), 300});
  want.push_back({leaf(2), 400});
  want.push_back({leaf(0), 450});
  want.push_back({leaf(2), 500});
  ASSERT_EQ(want.size(), 54u);

  for (std::size_t max : {1u, 3u, 64u, 4096u}) {
    CsvSource src(path, h);
    EXPECT_EQ(drainBatched(src, max), want) << "max=" << max;
    EXPECT_EQ(src.skippedRecords(), 6u) << "max=" << max;
  }
  std::remove(path.c_str());
}

TEST(Batcher, ReuseApiMatchesOptionalApi) {
  Rng rng(99);
  for (int round = 0; round < 8; ++round) {
    const Duration delta = 60 + static_cast<Duration>(rng.below(900));
    std::vector<Record> records;
    Timestamp t = static_cast<Timestamp>(rng.below(2000));
    for (int i = 0; i < 400; ++i) {
      t += static_cast<Timestamp>(rng.below(static_cast<std::uint64_t>(
          delta * 3)));
      records.push_back({static_cast<NodeId>(rng.below(6)), t});
    }
    const Timestamp start = records.front().time + 2 * delta;

    VectorSource a(records);
    TimeUnitBatcher optionalApi(a, delta, start);
    VectorSource b(records);
    TimeUnitBatcher reuseApi(b, delta, start);

    TimeUnitBatch reused;
    while (auto batch = optionalApi.next()) {
      ASSERT_TRUE(reuseApi.next(reused));
      EXPECT_EQ(reused.unit, batch->unit);
      EXPECT_EQ(reused.records, batch->records);
    }
    EXPECT_FALSE(reuseApi.next(reused));
    EXPECT_EQ(reuseApi.droppedRecords(), optionalApi.droppedRecords());
  }
}

TEST(Batcher, TinyChunksPreserveUnitSlicing) {
  // Chunk boundaries land mid-unit; slicing must not care.
  std::vector<Record> records;
  for (int i = 0; i < 100; ++i) records.push_back({1, i * 37});
  for (std::size_t chunk : {1u, 2u, 3u, 5u}) {
    VectorSource src(records);
    TimeUnitBatcher batcher(src, 300, 0, chunk);
    std::size_t total = 0;
    TimeUnitBatch batch;
    TimeUnit expect = 0;
    while (batcher.next(batch)) {
      EXPECT_EQ(batch.unit, expect++);
      for (const auto& r : batch.records) {
        EXPECT_EQ(timeUnitOf(r.time, 300), batch.unit);
      }
      total += batch.records.size();
    }
    EXPECT_EQ(total, records.size()) << "chunk=" << chunk;
  }
}

}  // namespace
}  // namespace tiresias
