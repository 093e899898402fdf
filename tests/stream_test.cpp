// Unit tests for record sources, the CSV row parser and timeunit batching.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string_view>

#include "common/csv.h"
#include "common/rng.h"
#include "hierarchy/builder.h"
#include "stream/window.h"

namespace tiresias {
namespace {

Hierarchy tree() { return HierarchyBuilder::balanced({2, 2}); }

TEST(VectorSource, ReplaysInOrder) {
  VectorSource src({{1, 10}, {2, 20}, {1, 20}});
  EXPECT_EQ(src.next()->time, 10);
  EXPECT_EQ(src.next()->time, 20);
  EXPECT_EQ(src.next()->category, 1u);
  EXPECT_FALSE(src.next().has_value());
}

TEST(Batcher, GroupsByUnit) {
  VectorSource src({{1, 0}, {1, 899}, {2, 900}, {1, 1800}});
  TimeUnitBatcher batcher(src, 900, 0);
  auto b0 = batcher.next();
  ASSERT_TRUE(b0);
  EXPECT_EQ(b0->unit, 0);
  EXPECT_EQ(b0->records.size(), 2u);
  auto b1 = batcher.next();
  ASSERT_TRUE(b1);
  EXPECT_EQ(b1->records.size(), 1u);
  auto b2 = batcher.next();
  ASSERT_TRUE(b2);
  EXPECT_EQ(b2->unit, 2);
  EXPECT_FALSE(batcher.next());
}

TEST(Batcher, EmitsEmptyUnitsBetweenRecords) {
  VectorSource src({{1, 0}, {1, 3 * 900 + 1}});
  TimeUnitBatcher batcher(src, 900, 0);
  EXPECT_EQ(batcher.next()->records.size(), 1u);
  EXPECT_EQ(batcher.next()->records.size(), 0u);  // unit 1
  EXPECT_EQ(batcher.next()->records.size(), 0u);  // unit 2
  auto b3 = batcher.next();
  ASSERT_TRUE(b3);
  EXPECT_EQ(b3->unit, 3);
  EXPECT_EQ(b3->records.size(), 1u);
  EXPECT_FALSE(batcher.next());
}

TEST(Batcher, DropsRecordsBeforeStart) {
  VectorSource src({{1, 100}, {1, 200}, {1, 2000}});
  TimeUnitBatcher batcher(src, 900, 1800);
  auto b = batcher.next();
  ASSERT_TRUE(b);
  EXPECT_EQ(b->unit, 2);
  EXPECT_EQ(b->records.size(), 1u);
  EXPECT_EQ(batcher.droppedRecords(), 2u);
}

TEST(Batcher, EmptySource) {
  VectorSource src({});
  TimeUnitBatcher batcher(src, 900, 0);
  EXPECT_FALSE(batcher.next());
}

TEST(Batcher, NegativeTimestamps) {
  VectorSource src({{1, -1800}, {1, -1}});
  TimeUnitBatcher batcher(src, 900, -1800);
  auto b = batcher.next();
  ASSERT_TRUE(b);
  EXPECT_EQ(b->unit, -2);
  EXPECT_EQ(b->records.size(), 1u);
  EXPECT_EQ(batcher.next()->records.size(), 1u);  // unit -1 holds t=-1
  EXPECT_FALSE(batcher.next());
}

/// Serves scripted chunks and counts nextBatch calls. An empty chunk in
/// the script is an idle pull (a live source with nothing yet); past the
/// script the source has ended.
class ScriptedSource final : public RecordSource {
 public:
  explicit ScriptedSource(std::vector<std::vector<Record>> chunks)
      : chunks_(std::move(chunks)) {}

  std::size_t nextBatch(std::vector<Record>& out, std::size_t) override {
    ++calls;
    out.clear();
    idle_ = false;
    if (next_ == chunks_.size()) {
      ended = true;
      return 0;
    }
    out = chunks_[next_++];
    idle_ = out.empty();
    return out.size();
  }
  bool idle() const override { return idle_; }

  std::size_t calls = 0;
  bool ended = false;

 private:
  std::vector<std::vector<Record>> chunks_;
  std::size_t next_ = 0;
  bool idle_ = false;
};

TEST(Batcher, NextUnitBufferedWhenTheChunkClosesTheUnit) {
  // Units of 900 s; the first chunk closes units 0-2 and ends inside 3.
  ScriptedSource src({{{1, 0}, {1, 900}, {1, 1000}, {1, 2700}, {1, 2800}},
                      {{1, 3700}}});
  TimeUnitBatcher batcher(src, 900, 0);
  EXPECT_FALSE(batcher.nextUnitBuffered());  // nothing pulled yet
  TimeUnitBatch b;
  ASSERT_EQ(batcher.pull(b), TimeUnitBatcher::Pull::kUnit);
  EXPECT_EQ(b.unit, 0);
  EXPECT_EQ(src.calls, 1u);

  EXPECT_TRUE(batcher.nextUnitBuffered());  // unit 1 closes at t=2700
  ASSERT_EQ(batcher.pull(b), TimeUnitBatcher::Pull::kUnit);
  EXPECT_EQ(b.unit, 1);
  EXPECT_EQ(b.records.size(), 2u);
  EXPECT_TRUE(batcher.nextUnitBuffered());  // unit 2 is empty but closed
  ASSERT_EQ(batcher.pull(b), TimeUnitBatcher::Pull::kUnit);
  EXPECT_EQ(b.unit, 2);
  EXPECT_TRUE(b.records.empty());
  EXPECT_EQ(src.calls, 1u);

  // Unit 3 holds the chunk's last records: only a pull can close it.
  EXPECT_FALSE(batcher.nextUnitBuffered());
  ASSERT_EQ(batcher.pull(b), TimeUnitBatcher::Pull::kUnit);
  EXPECT_EQ(b.unit, 3);
  EXPECT_EQ(b.records.size(), 2u);
  EXPECT_EQ(src.calls, 2u);
}

TEST(Batcher, NextUnitBufferedIsFalseWithAParkedPartialUnit) {
  // The chunk ends inside unit 0 and the source then goes idle, so the
  // partial unit is parked; the next record arrives in a later chunk.
  ScriptedSource src({{{1, 0}, {1, 100}}, {}, {{1, 950}, {1, 2000}}});
  TimeUnitBatcher batcher(src, 900, 0);
  TimeUnitBatch b;
  ASSERT_EQ(batcher.pull(b), TimeUnitBatcher::Pull::kIdle);
  EXPECT_FALSE(batcher.nextUnitBuffered());
  ASSERT_EQ(batcher.pull(b), TimeUnitBatcher::Pull::kUnit);
  EXPECT_EQ(b.unit, 0);
  EXPECT_EQ(b.records.size(), 2u);
  EXPECT_TRUE(batcher.nextUnitBuffered());  // t=2000 closes unit 1
}

/// Over random chunkings with idle gaps, the query is true exactly when
/// the next pull yields a unit without calling the source (checked while
/// the source has not yet reported its end, after which it is never
/// called again).
TEST(Batcher, NextUnitBufferedExactlyWhenPullSkipsTheSource) {
  Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::vector<Record>> chunks;
    Timestamp t = 0;
    const int n = 1 + static_cast<int>(rng.below(40));
    for (int i = 0; i < n; ++i) {
      if (chunks.empty() || rng.below(4) == 0) {
        if (rng.below(5) == 0) chunks.emplace_back();  // idle pull
        chunks.emplace_back();
      }
      t += static_cast<Timestamp>(rng.below(2000));
      chunks.back().push_back({1, t});
    }
    ScriptedSource src(chunks);
    TimeUnitBatcher batcher(src, 900, 0);
    TimeUnitBatch b;
    for (int step = 0; step < 10 * n + 10 && !src.ended; ++step) {
      const bool buffered = batcher.nextUnitBuffered();
      const std::size_t before = src.calls;
      const auto pull = batcher.pull(b);
      EXPECT_EQ(buffered, pull == TimeUnitBatcher::Pull::kUnit &&
                              src.calls == before)
          << "trial " << trial << " step " << step;
      if (pull == TimeUnitBatcher::Pull::kEnd) break;
    }
  }
}

TEST(CsvSource, RoundTripAndJunkRows) {
  const auto h = tree();
  const std::string path = ::testing::TempDir() + "/trace.csv";
  {
    std::ofstream out(path);
    out << h.path(h.leaves()[0]) << ",100\n";
    out << "bogus/path,200\n";          // unknown category -> skipped
    out << h.path(h.leaves()[1]) << ",300\n";
    out << h.path(h.leaves()[1]) << ",notatime\n";  // bad time -> skipped
    out << "onlyonefield\n";            // malformed -> skipped
  }
  CsvSource src(path, h);
  auto r1 = src.next();
  ASSERT_TRUE(r1);
  EXPECT_EQ(r1->category, h.leaves()[0]);
  EXPECT_EQ(r1->time, 100);
  auto r2 = src.next();
  ASSERT_TRUE(r2);
  EXPECT_EQ(r2->time, 300);
  EXPECT_FALSE(src.next());
  EXPECT_EQ(src.skippedRecords(), 3u);
  std::remove(path.c_str());
}

TEST(CsvSource, RepeatedPathsHitThePathCache) {
  // Regression: paths must resolve through the path->NodeId cache, not a
  // bare hierarchy find per row, so repeated categories skip the tree
  // walk: the first row misses, the other nine hit.
  const auto h = tree();
  const std::string path = ::testing::TempDir() + "/trace_cache.csv";
  {
    std::ofstream out(path);
    for (int i = 0; i < 10; ++i) {
      out << h.path(h.leaves()[0]) << "," << 100 + i << "\n";
    }
  }
  CsvSource src(path, h);
  std::vector<Record> chunk;
  std::size_t records = 0;
  while (src.nextBatch(chunk, 1) > 0) records += chunk.size();
  EXPECT_EQ(records, 10u);
  EXPECT_EQ(src.pathCacheSize(), 1u);
  EXPECT_EQ(src.pathCacheHits(), 9u);
  std::remove(path.c_str());
}

TEST(CsvSource, WriteReadRoundTrip) {
  const auto h = tree();
  const std::string path = ::testing::TempDir() + "/trace_rt.csv";
  const std::vector<Record> records{{h.leaves()[0], 1}, {h.leaves()[2], 5}};
  writeRecordsCsv(path, h, records);
  CsvSource src(path, h);
  std::vector<Record> back;
  while (auto r = src.next()) back.push_back(*r);
  EXPECT_EQ(back, records);
  std::remove(path.c_str());
}

/// The row rules spelled out the plain way: csvSplit the row, demand two
/// fields, strtoll the timestamp and demand it consumed the whole field
/// (strtoll stops at an embedded NUL, which therefore ends the field).
bool oracleRow(const std::string& line, std::string& path, Timestamp& time) {
  const auto fields = csvSplit(line);
  if (fields.size() != 2) return false;
  char* end = nullptr;
  const long long t = std::strtoll(fields[1].c_str(), &end, 10);
  if (end == fields[1].c_str() || *end != '\0') return false;
  path = fields[0];
  time = static_cast<Timestamp>(t);
  return true;
}

/// One random edit of a CSV row, drawn from the shapes operational junk
/// takes: quotes, CRs, extra commas, NULs, signs and spaces before the
/// timestamp, 20-digit timestamps, stray bytes, deletions.
void mutateRow(std::string& row, Rng& rng) {
  const auto at = [&] {
    return static_cast<std::size_t>(rng.below(row.size() + 1));
  };
  const std::size_t comma = row.find(',');
  const std::size_t timeAt = comma == std::string::npos ? 0 : comma + 1;
  switch (rng.below(10)) {
    case 0: row.insert(at(), 1, '"'); break;
    case 1: row.insert(at(), 1, '\r'); break;
    case 2: row.insert(at(), 1, ','); break;
    case 3: row.insert(at(), 1, '\0'); break;
    case 4: row.insert(timeAt, 1, "+- "[rng.below(3)]); break;
    case 5: {  // 20 digits: past int64, so strtoll clamps
      std::string digits;
      for (int i = 0; i < 20; ++i) {
        digits += static_cast<char>('0' + rng.below(10));
      }
      row = row.substr(0, timeAt) + digits;
      break;
    }
    case 6: {  // quote the path field
      const std::size_t end = std::min(comma, row.size());
      row = "\"" + row.substr(0, end) + "\"" + row.substr(end);
      break;
    }
    case 7: row.insert(at(), 1, "x9 \t."[rng.below(5)]); break;
    case 8:
      if (!row.empty()) row.erase(at() % row.size(), 1);
      break;
    default: row.insert(at(), "\"\""); break;
  }
}

TEST(CsvRowParser, AgreesWithSplitAndStrtollUnderMutation) {
  const auto h = tree();
  Rng rng(2012);
  std::vector<std::string> scratch;
  std::size_t accepted = 0, rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    const NodeId leaf = h.leaves()[rng.below(h.leaves().size())];
    const auto time =
        static_cast<long long>(rng.below(1ULL << 40)) - (1LL << 39);
    std::string row = h.path(leaf) + "," + std::to_string(time);
    const auto edits = rng.below(4);  // 0 edits: the valid row itself
    for (std::uint64_t e = 0; e < edits; ++e) mutateRow(row, rng);

    std::string wantPath;
    Timestamp wantTime = 0;
    const bool want = oracleRow(row, wantPath, wantTime);
    std::string_view gotPath;
    Timestamp gotTime = 0;
    const bool got = parseCsvTraceRow(row, scratch, gotPath, gotTime);
    ASSERT_EQ(got, want) << "row #" << i << ": '" << row << "'";
    if (!want) {
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_EQ(gotPath, wantPath) << "row #" << i << ": '" << row << "'";
    ASSERT_EQ(gotTime, wantTime) << "row #" << i << ": '" << row << "'";
  }
  // Both verdicts must be exercised in volume, or the loop proves little.
  EXPECT_GT(accepted, 5000u);
  EXPECT_GT(rejected, 5000u);
}

}  // namespace
}  // namespace tiresias
