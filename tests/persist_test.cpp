// Round-trip property tests for the persist subsystem (src/persist/ and
// every component's saveState/loadState): randomized state -> save ->
// load into a fresh object -> identical observable state AND bit-identical
// subsequent outputs. The forecasters, rings, detectors and pipeline are
// all deterministic, so "feed both copies the same future and compare
// exactly" is the strongest equivalence there is.
#include <gtest/gtest.h>

#include <random>

#include "core/ada.h"
#include "core/pipeline.h"
#include "core/split_rules.h"
#include "core/sta.h"
#include "hierarchy/builder.h"
#include "persist/le.h"
#include "persist/snapshot.h"
#include "report/concurrent_store.h"
#include "report/store.h"
#include "timeseries/ewma.h"
#include "timeseries/holt_winters.h"
#include "timeseries/multiscale.h"
#include "timeseries/ring.h"

namespace tiresias {
namespace {

using persist::Deserializer;
using persist::Serializer;

/// save -> reload helper: returns a Deserializer over the saved bytes
/// (kept alive by the caller-owned Serializer).
template <typename T>
Serializer saved(const T& object) {
  Serializer out;
  object.saveState(out);
  return out;
}

TEST(Snapshot, PrimitivesRoundTrip) {
  Serializer out;
  out.u8(0xAB);
  out.u32(0xDEADBEEF);
  out.u64(0x0123456789ABCDEFull);
  out.i64(-42);
  out.f64(3.141592653589793);
  out.f64(-0.0);
  out.boolean(true);
  out.boolean(false);
  out.str("hello/world");
  out.str("");

  Deserializer in(out.data());
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.i64(), -42);
  EXPECT_EQ(in.f64(), 3.141592653589793);
  const double negZero = in.f64();
  EXPECT_EQ(negZero, 0.0);
  EXPECT_TRUE(std::signbit(negZero));
  EXPECT_TRUE(in.boolean());
  EXPECT_FALSE(in.boolean());
  EXPECT_EQ(in.str(), "hello/world");
  EXPECT_EQ(in.str(), "");
  EXPECT_TRUE(in.atEnd());
}

TEST(Snapshot, SectionsRoundTripWithCrc) {
  persist::SnapshotWriter writer;
  Serializer a, b;
  a.u64(7);
  b.str("payload");
  writer.addSection(10, a);
  writer.addSection(20, b);
  const auto bytes = writer.encode();

  const auto reader = persist::SnapshotReader::parse(bytes);
  ASSERT_EQ(reader.sections().size(), 2u);
  EXPECT_EQ(reader.sections()[0].tag, 10u);
  EXPECT_EQ(reader.sections()[1].tag, 20u);
  Deserializer in(reader.sections()[1].payload);
  EXPECT_EQ(in.str(), "payload");
}

TEST(Snapshot, CrcMatchesKnownVector) {
  // CRC-32("123456789") == 0xCBF43926 (the classic check value).
  const std::string s = "123456789";
  EXPECT_EQ(persist::crc32(std::span(
                reinterpret_cast<const std::uint8_t*>(s.data()), s.size())),
            0xCBF43926u);
}

TEST(RingPersist, RandomizedRoundTrip) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> value(-100.0, 100.0);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t capacity = 1 + rng() % 32;
    const std::size_t pushes = rng() % (3 * capacity);
    RingSeries ring(capacity);
    for (std::size_t i = 0; i < pushes; ++i) ring.push(value(rng));

    const Serializer bytes = saved(ring);
    RingSeries restored;  // default-constructed: shape comes from the bytes
    Deserializer in(bytes.data());
    restored.loadState(in);
    EXPECT_TRUE(in.atEnd());

    EXPECT_EQ(restored.capacity(), ring.capacity());
    EXPECT_EQ(restored.toVector(), ring.toVector());
    // Subsequent pushes behave identically (eviction order preserved).
    for (int i = 0; i < 20; ++i) {
      const double v = value(rng);
      ring.push(v);
      restored.push(v);
    }
    EXPECT_EQ(restored.toVector(), ring.toVector());
  }
}

TEST(ForecasterPersist, EwmaRoundTrip) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> value(0.0, 50.0);
  for (int warm = 0; warm < 5; ++warm) {
    EwmaForecaster model(0.3);
    for (int i = 0; i < warm * 3; ++i) model.update(value(rng));

    const Serializer bytes = saved(model);
    EwmaForecaster restored(0.9);  // alpha is overwritten from the snapshot
    Deserializer in(bytes.data());
    restored.loadState(in);

    EXPECT_EQ(restored.alpha(), model.alpha());
    for (int i = 0; i < 25; ++i) {
      EXPECT_EQ(restored.forecast(), model.forecast());
      const double v = value(rng);
      model.update(v);
      restored.update(v);
    }
  }
}

TEST(ForecasterPersist, HoltWintersRoundTripAcrossBootstrap) {
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> value(0.0, 50.0);
  const std::vector<SeasonSpec> seasons{{4, 0.7}, {6, 0.3}};
  // Feed counts spanning the pre-bootstrap buffer (< 12), the bootstrap
  // point, and deep post-bootstrap operation.
  for (const int feed : {0, 3, 11, 12, 13, 40}) {
    HoltWintersForecaster model({0.5, 0.1, 0.3}, seasons);
    for (int i = 0; i < feed; ++i) model.update(value(rng));

    const Serializer bytes = saved(model);
    // Restored instance starts with a different shape on purpose: the
    // snapshot overwrites it.
    HoltWintersForecaster restored({0.9, 0.9, 0.9}, {});
    Deserializer in(bytes.data());
    restored.loadState(in);

    EXPECT_EQ(restored.bootstrapped(), model.bootstrapped());
    for (int i = 0; i < 30; ++i) {
      EXPECT_EQ(restored.forecast(), model.forecast()) << "feed=" << feed;
      const double v = value(rng);
      model.update(v);
      restored.update(v);
    }
  }
}

TEST(ForecasterPersist, TypeMismatchIsCleanError) {
  EwmaForecaster ewma(0.5);
  const Serializer bytes = saved(ewma);
  HoltWintersForecaster hw({0.5, 0.1, 0.3}, {});
  Deserializer in(bytes.data());
  EXPECT_THROW(hw.loadState(in), persist::SnapshotError);
}

TEST(MultiScalePersist, RandomizedRoundTrip) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> value(0.0, 10.0);
  for (const std::size_t pushes : {0u, 1u, 5u, 23u, 100u}) {
    MultiScaleSeries series(3, 4, 16, 0.5);
    for (std::size_t i = 0; i < pushes; ++i) series.push(value(rng));

    const Serializer bytes = saved(series);
    MultiScaleSeries restored(1, 2, 1, 0.1);  // shape overwritten
    Deserializer in(bytes.data());
    restored.loadState(in);
    EXPECT_TRUE(in.atEnd());

    ASSERT_EQ(restored.scales(), series.scales());
    EXPECT_EQ(restored.lambda(), series.lambda());
    EXPECT_EQ(restored.pushCount(), series.pushCount());
    // Continue pushing through cascade boundaries on both copies.
    for (int i = 0; i < 40; ++i) {
      const double v = value(rng);
      series.push(v);
      restored.push(v);
    }
    for (std::size_t s = 0; s < series.scales(); ++s) {
      EXPECT_EQ(restored.actual(s).toVector(), series.actual(s).toVector());
      EXPECT_EQ(restored.forecastSeries(s).toVector(),
                series.forecastSeries(s).toVector());
    }
  }
}

TEST(SplitRulePersist, EveryRuleRoundTrips) {
  std::mt19937_64 rng(19);
  std::uniform_real_distribution<double> weight(0.0, 30.0);
  for (const SplitRule rule :
       {SplitRule::kUniform, SplitRule::kLastTimeUnit,
        SplitRule::kLongTermHistory, SplitRule::kEwma}) {
    SplitRuleEngine engine(rule, 0.4);
    for (int inst = 0; inst < 12; ++inst) {
      std::vector<std::pair<NodeId, double>> raws;
      for (NodeId n = 0; n < 8; ++n) {
        if (rng() % 2) raws.emplace_back(n, weight(rng));
      }
      engine.observeInstance(raws);
    }

    const Serializer bytes = saved(engine);
    SplitRuleEngine restored(SplitRule::kUniform, 0.9);  // overwritten
    Deserializer in(bytes.data());
    restored.loadState(in);
    EXPECT_TRUE(in.atEnd());

    EXPECT_EQ(restored.rule(), engine.rule());
    EXPECT_EQ(restored.trackedNodes(), engine.trackedNodes());
    for (NodeId n = 0; n < 8; ++n) {
      EXPECT_EQ(restored.weightOf(n), engine.weightOf(n));
    }
    const std::vector<NodeId> group{1, 2, 5};
    EXPECT_EQ(restored.ratios(group), engine.ratios(group));
    // Future observations keep both copies in lockstep (EWMA lazy decay
    // depends on the persisted instance counter).
    engine.observeInstance({{3, 7.0}});
    restored.observeInstance({{3, 7.0}});
    for (NodeId n = 0; n < 8; ++n) {
      EXPECT_EQ(restored.weightOf(n), engine.weightOf(n));
    }
  }
}

// --- Detector-level round trips -------------------------------------------

DetectorConfig detectorConfig(std::size_t window) {
  DetectorConfig cfg;
  cfg.theta = 6.0;
  cfg.windowLength = window;
  cfg.ratioThreshold = 2.0;
  cfg.diffThreshold = 3.0;
  cfg.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
  return cfg;
}

TimeUnitBatch randomBatch(TimeUnit unit, const Hierarchy& h,
                          std::mt19937_64& rng, std::size_t maxPerLeaf = 6) {
  TimeUnitBatch b;
  b.unit = unit;
  for (NodeId leaf : h.leaves()) {
    const std::size_t count = rng() % (maxPerLeaf + 1);
    for (std::size_t i = 0; i < count; ++i) {
      b.records.push_back({leaf, unitStart(unit, 900)});
    }
  }
  return b;
}

void expectSameResult(const std::optional<InstanceResult>& a,
                      const std::optional<InstanceResult>& b, TimeUnit unit) {
  ASSERT_EQ(a.has_value(), b.has_value()) << "unit " << unit;
  if (!a) return;
  EXPECT_EQ(a->unit, b->unit);
  EXPECT_EQ(a->shhh, b->shhh) << "unit " << unit;
  EXPECT_EQ(a->anomalies, b->anomalies) << "unit " << unit;
}

template <typename DetectorT>
void runDetectorRoundTrip(std::size_t checkpointAfter) {
  const auto h = HierarchyBuilder::balanced({3, 2, 2});
  std::mt19937_64 rng(23 + checkpointAfter);
  DetectorT original(h, detectorConfig(8));
  for (TimeUnit u = 0; u < static_cast<TimeUnit>(checkpointAfter); ++u) {
    original.step(randomBatch(u, h, rng));
  }

  const Serializer bytes = saved(original);
  DetectorT restored(h, detectorConfig(8));
  Deserializer in(bytes.data());
  restored.loadState(in);
  EXPECT_TRUE(in.atEnd());

  EXPECT_EQ(restored.currentShhh(), original.currentShhh());
  for (NodeId n = 0; n < h.size(); ++n) {
    EXPECT_EQ(restored.seriesOf(n), original.seriesOf(n));
    EXPECT_EQ(restored.forecastSeriesOf(n), original.forecastSeriesOf(n));
  }
  // Identical subsequent outputs, including occasional spikes that force
  // splits/merges in ADA.
  for (TimeUnit u = static_cast<TimeUnit>(checkpointAfter);
       u < static_cast<TimeUnit>(checkpointAfter) + 24; ++u) {
    auto batch = randomBatch(u, h, rng);
    if (u % 7 == 0 && !h.leaves().empty()) {
      for (int i = 0; i < 40; ++i) {
        batch.records.push_back({h.leaves()[0], unitStart(u, 900)});
      }
    }
    expectSameResult(restored.step(batch), original.step(batch), u);
    EXPECT_EQ(restored.currentShhh(), original.currentShhh()) << u;
  }
}

TEST(DetectorPersist, StaRoundTripMidWarmup) { runDetectorRoundTrip<StaDetector>(3); }
TEST(DetectorPersist, StaRoundTripWarm) { runDetectorRoundTrip<StaDetector>(20); }
TEST(DetectorPersist, AdaRoundTripMidBootstrap) {
  runDetectorRoundTrip<AdaDetector>(5);
}
TEST(DetectorPersist, AdaRoundTripAdaptive) {
  runDetectorRoundTrip<AdaDetector>(30);
}

// The detectors' slot-table storage hands out slots in acquisition order
// (splits/merges/free-list reuse scramble it), but the snapshot encoding
// must stay the canonical ascending-node byte stream of the historical
// map-based storage: save -> load into a fresh detector -> save must
// reproduce the exact bytes, and a second generation of churn after the
// restore must keep the copies in lockstep.
template <typename DetectorT>
void runSnapshotByteStability() {
  const auto h = HierarchyBuilder::balanced({3, 2, 2});
  std::mt19937_64 rng(57);
  DetectorT original(h, detectorConfig(8));
  // Churn: shifting hot spots force ADA splits/merges (slot reuse) and
  // rotate STA's raw-aggregate slot table through its free list.
  for (TimeUnit u = 0; u < 40; ++u) {
    auto batch = randomBatch(u, h, rng, 3);
    const NodeId hot = h.leaves()[static_cast<std::size_t>(u / 6) %
                                  h.leafCount()];
    for (int i = 0; i < 30; ++i) {
      batch.records.push_back({hot, unitStart(u, 900)});
    }
    original.step(batch);
  }

  const Serializer bytes = saved(original);
  DetectorT restored(h, detectorConfig(8));
  Deserializer in(bytes.data());
  restored.loadState(in);
  EXPECT_TRUE(in.atEnd());

  const Serializer again = saved(restored);
  ASSERT_EQ(again.size(), bytes.size());
  EXPECT_TRUE(std::equal(bytes.data().begin(), bytes.data().end(),
                         again.data().begin()))
      << "snapshot bytes changed across a load/save round trip";

  // Post-restore churn stays bit-identical too (and so do its snapshots).
  for (TimeUnit u = 40; u < 60; ++u) {
    const auto batch = randomBatch(u, h, rng, 4);
    expectSameResult(restored.step(batch), original.step(batch), u);
  }
  const Serializer finalOriginal = saved(original);
  const Serializer finalRestored = saved(restored);
  ASSERT_EQ(finalOriginal.size(), finalRestored.size());
  EXPECT_TRUE(std::equal(finalOriginal.data().begin(),
                         finalOriginal.data().end(),
                         finalRestored.data().begin()));
}

TEST(DetectorPersist, StaSnapshotBytesStableAcrossRoundTrip) {
  runSnapshotByteStability<StaDetector>();
}
TEST(DetectorPersist, AdaSnapshotBytesStableAcrossRoundTrip) {
  runSnapshotByteStability<AdaDetector>();
}

TEST(DetectorPersist, AdaDetectorTagMismatchIsCleanError) {
  const auto h = HierarchyBuilder::balanced({2, 2});
  StaDetector sta(h, detectorConfig(4));
  const Serializer bytes = saved(sta);
  AdaDetector ada(h, detectorConfig(4));
  Deserializer in(bytes.data());
  EXPECT_THROW(ada.loadState(in), persist::SnapshotError);
}

// ADA buffers its warm-up units as ascending (node, count) runs, and the
// snapshot stores them as such: a unit whose ids are out of order or
// repeated is rejected instead of being loaded into runs that are not runs.
TEST(DetectorPersist, AdaWarmupIdsMustBeStrictlyAscending) {
  const auto h = HierarchyBuilder::balanced({3, 2, 2});
  AdaDetector ada(h, detectorConfig(8));
  TimeUnitBatch batch;
  batch.records = {{h.leaves()[1], 0}, {h.leaves()[0], 0}, {h.leaves()[1], 0}};
  ada.step(batch);
  const std::vector<std::uint8_t> good = saved(ada).data();
  // tag u8, window u64, bootstrapped u8, unit count u64, then the first
  // unit: run count u64 and (id u32, count f64) pairs.
  constexpr std::size_t kFirstId = 1 + 8 + 1 + 8 + 8;
  constexpr std::size_t kSecondId = kFirstId + 4 + 8;
  ASSERT_GE(good.size(), kSecondId + 4 + 8);
  ASSERT_EQ(persist::le32(good.data() + kFirstId), h.leaves()[0]);
  ASSERT_EQ(persist::le32(good.data() + kSecondId), h.leaves()[1]);
  {
    AdaDetector restored(h, detectorConfig(8));
    Deserializer in(good);
    restored.loadState(in);
    EXPECT_TRUE(in.atEnd());
  }

  const std::pair<NodeId, NodeId> bad[] = {
      {h.leaves()[1], h.leaves()[0]},  // descending
      {h.leaves()[0], h.leaves()[0]},  // duplicate
  };
  for (const auto& [first, second] : bad) {
    std::vector<std::uint8_t> bytes = good;
    persist::putLe32(bytes.data() + kFirstId, first);
    persist::putLe32(bytes.data() + kSecondId, second);
    AdaDetector restored(h, detectorConfig(8));
    Deserializer in(bytes);
    EXPECT_THROW(restored.loadState(in), persist::SnapshotError)
        << first << ", " << second;
  }
}

// --- Batcher position ------------------------------------------------------

TEST(BatcherPersist, ResumesOnARepositionedSource) {
  std::mt19937_64 rng(37);
  std::vector<Record> trace;
  Timestamp t = 100;
  for (int i = 0; i < 500; ++i) {
    t += static_cast<Timestamp>(rng() % 40);
    trace.push_back({static_cast<NodeId>(rng() % 4), t});
  }
  const Duration delta = 120;

  // Uninterrupted reference run.
  std::vector<TimeUnitBatch> reference;
  {
    VectorSource source(trace);
    TimeUnitBatcher batcher(source, delta, 0, /*chunkSize=*/32);
    TimeUnitBatch b;
    while (batcher.next(b)) reference.push_back(b);
  }

  for (const std::size_t splitAt : {0u, 1u, 3u, 7u}) {
    VectorSource source(trace);
    TimeUnitBatcher first(source, delta, 0, 32);
    TimeUnitBatch b;
    std::vector<TimeUnitBatch> units;
    for (std::size_t i = 0; i < splitAt && first.next(b); ++i) units.push_back(b);

    const Serializer bytes = saved(first);
    // A second source positioned exactly past what the first batcher
    // consumed (delivered + read-ahead); the snapshot carries the
    // read-ahead records themselves.
    std::vector<Record> rest(trace.begin() + static_cast<std::ptrdiff_t>(
                                                 first.consumedRecords()),
                             trace.end());
    VectorSource resumedSource(rest);
    TimeUnitBatcher resumed(resumedSource, delta, 0, 32);
    Deserializer in(bytes.data());
    resumed.loadState(in);
    EXPECT_TRUE(in.atEnd());
    EXPECT_EQ(resumed.droppedRecords(), first.droppedRecords());

    while (resumed.next(b)) units.push_back(b);
    ASSERT_EQ(units.size(), reference.size()) << "splitAt=" << splitAt;
    for (std::size_t i = 0; i < units.size(); ++i) {
      EXPECT_EQ(units[i].unit, reference[i].unit);
      EXPECT_EQ(units[i].records, reference[i].records) << "unit " << i;
    }
  }
}

// --- Pipeline --------------------------------------------------------------

std::vector<Record> pipelineTrace(std::size_t units, Duration delta,
                                  const Hierarchy& h, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Record> trace;
  for (std::size_t u = 0; u < units; ++u) {
    for (NodeId leaf : h.leaves()) {
      // Mild diurnal shape so the Step-3 seasonality analysis has
      // something to find.
      const std::size_t base = 2 + (u % 8 < 4 ? 3 : 0);
      const std::size_t count = base + rng() % 3;
      for (std::size_t i = 0; i < count; ++i) {
        trace.push_back(
            {leaf, unitStart(static_cast<TimeUnit>(u), delta) +
                       static_cast<Timestamp>(rng() % static_cast<std::uint64_t>(
                                                  delta))});
      }
    }
  }
  std::sort(trace.begin(), trace.end(),
            [](const Record& a, const Record& b) { return a.time < b.time; });
  return trace;
}

/// Every unit's detection result, in order (SHHH set and anomalies).
using ResultLog = std::vector<InstanceResult>;

void expectSameResults(const ResultLog& got, const ResultLog& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].unit, want[i].unit) << i;
    EXPECT_EQ(got[i].shhh, want[i].shhh) << "unit " << want[i].unit;
    EXPECT_EQ(got[i].anomalies, want[i].anomalies) << "unit " << want[i].unit;
  }
}

/// Interrupt a pipeline after `splitUnits` units — save/restore into a
/// fresh pipeline, or hibernate/wake in place — and check that its output
/// equals an uninterrupted run's. The sweep covers every unit of the
/// warm-up window and its boundary (0 … ℓ+2) for ADA and STA, each with a
/// supplied and a Step-3-derived forecaster factory.
class PipelineRoundTrip
    : public ::testing::TestWithParam<std::tuple<bool, bool, std::size_t>> {
 public:
  static constexpr std::size_t kWindow = 24;

 protected:
  static constexpr std::size_t kUnits = 64;
  static constexpr Duration kDelta = 900;

  PipelineRoundTrip() : h_(HierarchyBuilder::balanced({2, 2, 2})) {
    const auto [useAda, deriveFactory, splitUnits] = GetParam();
    cfg_.delta = kDelta;
    cfg_.useAda = useAda;
    cfg_.detector.theta = 5.0;
    cfg_.detector.windowLength = kWindow;
    if (!deriveFactory) {
      cfg_.detector.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
    }
    cfg_.candidatePeriods = {8};
    splitUnits_ = splitUnits;
    trace_ = pipelineTrace(kUnits, kDelta, h_, 41);

    TiresiasPipeline reference(borrowHierarchy(h_), cfg_);
    VectorSource source(trace_);
    refSummary_ = reference.run(
        source, [&](const InstanceResult& r) { refResults_.push_back(r); });
  }

  /// Feed the first `splitUnits_` units of the trace to `pipeline`.
  void processPrefix(TiresiasPipeline& pipeline, ResultLog& results,
                     RunSummary& summary) const {
    VectorSource source(trace_);
    TimeUnitBatcher batcher(source, kDelta, 0);
    TimeUnitBatch b;
    for (std::size_t i = 0; i < splitUnits_ && batcher.next(b); ++i) {
      pipeline.processUnit(
          b, [&](const InstanceResult& r) { results.push_back(r); }, summary);
    }
    EXPECT_EQ(summary.warmupUnitsBuffered,
              splitUnits_ < kWindow ? splitUnits_ : 0u);
  }

  /// Run `pipeline` over the whole trace again (its resume point skips the
  /// processed prefix) and compare everything with the uninterrupted run.
  void finishAndCompare(TiresiasPipeline& pipeline, ResultLog& results,
                        const RunSummary& summary) const {
    EXPECT_EQ(pipeline.resumeTime(),
              unitStart(static_cast<TimeUnit>(splitUnits_), kDelta));
    VectorSource source(trace_);
    const RunSummary tail = pipeline.run(
        source, [&](const InstanceResult& r) { results.push_back(r); });
    EXPECT_EQ(summary.unitsProcessed + tail.unitsProcessed,
              refSummary_.unitsProcessed);
    EXPECT_EQ(summary.recordsProcessed + tail.recordsProcessed,
              refSummary_.recordsProcessed);
    EXPECT_EQ(summary.instancesDetected + tail.instancesDetected,
              refSummary_.instancesDetected);
    EXPECT_EQ(summary.anomaliesReported + tail.anomaliesReported,
              refSummary_.anomaliesReported);
    EXPECT_EQ(tail.warmupUnitsBuffered, 0u);
    expectSameResults(results, refResults_);
  }

  Hierarchy h_;
  PipelineConfig cfg_;
  std::size_t splitUnits_ = 0;
  std::vector<Record> trace_;
  RunSummary refSummary_;
  ResultLog refResults_;
};

TEST_P(PipelineRoundTrip, SaveRestoreMatchesUninterruptedRun) {
  ResultLog results;
  RunSummary summary;
  Serializer bytes;
  {
    TiresiasPipeline first(borrowHierarchy(h_), cfg_);
    processPrefix(first, results, summary);
    first.saveState(bytes);
  }
  TiresiasPipeline restored(borrowHierarchy(h_), cfg_);
  Deserializer in(bytes.data());
  restored.loadState(in);
  EXPECT_TRUE(in.atEnd());
  finishAndCompare(restored, results, summary);
}

TEST_P(PipelineRoundTrip, HibernateWakeMatchesUninterruptedRun) {
  ResultLog results;
  RunSummary summary;
  TiresiasPipeline pipeline(borrowHierarchy(h_), cfg_);
  processPrefix(pipeline, results, summary);
  EXPECT_EQ(pipeline.holdsState(), splitUnits_ > 0);
  Serializer bytes;
  pipeline.hibernate(bytes);
  EXPECT_FALSE(pipeline.holdsState());
  EXPECT_EQ(pipeline.detector(), nullptr);
  pipeline.attachWorkspace(std::make_shared<DetectWorkspace>());
  Deserializer in(bytes.data());
  pipeline.wake(in);
  EXPECT_TRUE(in.atEnd());
  EXPECT_EQ(pipeline.holdsState(), splitUnits_ > 0);
  finishAndCompare(pipeline, results, summary);
}

INSTANTIATE_TEST_SUITE_P(
    WarmupBoundary, PipelineRoundTrip,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Range<std::size_t>(
                           0, PipelineRoundTrip::kWindow + 3)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "Ada" : "Sta") +
             (std::get<1>(info.param) ? "Derived" : "Supplied") + "Unit" +
             std::to_string(std::get<2>(info.param));
    });

TEST(PipelinePersist, FactoryParameterMismatchIsCleanError) {
  // The fingerprint of the snapshot's factory (a fresh forecaster's
  // serialized state) must reject a restore under differently
  // parameterized models — otherwise restored holders and newly promoted
  // heavy hitters would run with mixed semantics.
  const auto h = HierarchyBuilder::balanced({2, 2});
  PipelineConfig cfg;
  cfg.delta = 900;
  cfg.detector.theta = 4.0;
  cfg.detector.windowLength = 4;
  cfg.detector.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
  TiresiasPipeline pipeline(borrowHierarchy(h), cfg);
  RunSummary summary;
  std::mt19937_64 rng(47);
  for (TimeUnit u = 0; u < 6; ++u) {
    TimeUnitBatch b;
    b.unit = u;
    for (int i = 0; i < 12; ++i) {
      b.records.push_back({h.leaves()[rng() % h.leaves().size()],
                           unitStart(u, cfg.delta)});
    }
    pipeline.processUnit(b, nullptr, summary);
  }
  Serializer bytes;
  pipeline.saveState(bytes);

  PipelineConfig other = cfg;
  other.detector.forecasterFactory = std::make_shared<EwmaFactory>(0.9);
  TiresiasPipeline mismatched(borrowHierarchy(h), other);
  Deserializer in(bytes.data());
  EXPECT_THROW(mismatched.loadState(in), persist::SnapshotError);

  // Same parameters restore fine.
  TiresiasPipeline matched(borrowHierarchy(h), cfg);
  Deserializer again(bytes.data());
  matched.loadState(again);
  EXPECT_TRUE(again.atEnd());
}

TEST(PipelinePersist, ConfigMismatchIsCleanError) {
  const auto h = HierarchyBuilder::balanced({2, 2});
  PipelineConfig cfg;
  cfg.delta = 900;
  cfg.detector.windowLength = 8;
  cfg.detector.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
  TiresiasPipeline pipeline(borrowHierarchy(h), cfg);
  Serializer bytes;
  pipeline.saveState(bytes);

  PipelineConfig other = cfg;
  other.detector.windowLength = 16;
  TiresiasPipeline mismatched(borrowHierarchy(h), other);
  Deserializer in(bytes.data());
  EXPECT_THROW(mismatched.loadState(in), persist::SnapshotError);
}

// --- Report stores ---------------------------------------------------------

TEST(StorePersist, AnomalyStoreRoundTripRederivesPaths) {
  const auto h = HierarchyBuilder::balanced({2, 3});
  report::AnomalyStore store(h);
  std::mt19937_64 rng(43);
  for (int i = 0; i < 40; ++i) {
    Anomaly a;
    a.node = static_cast<NodeId>(rng() % h.size());
    a.unit = static_cast<TimeUnit>(i);
    a.actual = static_cast<double>(rng() % 1000) / 7.0;
    a.forecast = a.actual / 3.0;
    a.ratio = 3.0;
    store.add(a);
  }

  Serializer bytes;
  store.saveState(bytes);
  report::AnomalyStore restored(h);
  Deserializer in(bytes.data());
  restored.loadState(in);
  EXPECT_TRUE(in.atEnd());

  ASSERT_EQ(restored.size(), store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(restored.all()[i].anomaly, store.all()[i].anomaly);
    EXPECT_EQ(restored.all()[i].path, store.all()[i].path);
    EXPECT_EQ(restored.all()[i].depth, store.all()[i].depth);
  }
}

TEST(StorePersist, ConcurrentStoreRoundTripPerStream) {
  const auto h1 = HierarchyBuilder::balanced({2, 2});
  const auto h2 = HierarchyBuilder::balanced({3});
  report::ConcurrentAnomalyStore store;
  store.registerStream("alpha", h1);
  store.registerStream("beta", h2);
  InstanceResult r;
  r.unit = 5;
  r.anomalies.push_back({1, 5, 10.0, 2.0, 5.0});
  store.add("alpha", r);
  store.add("beta", r);
  store.add("beta", r);

  Serializer bytes;
  store.saveState(bytes);
  report::ConcurrentAnomalyStore restored;
  restored.registerStream("alpha", h1);
  restored.registerStream("beta", h2);
  Deserializer in(bytes.data());
  restored.loadState(in);

  EXPECT_EQ(restored.totalSize(), store.totalSize());
  EXPECT_EQ(restored.store("alpha").size(), 1u);
  EXPECT_EQ(restored.store("beta").size(), 2u);
  EXPECT_EQ(restored.store("beta").all()[0].anomaly, r.anomalies[0]);

  // A snapshot naming an unregistered stream is a clean error.
  report::ConcurrentAnomalyStore missing;
  missing.registerStream("alpha", h1);
  Deserializer again(bytes.data());
  EXPECT_THROW(missing.loadState(again), persist::SnapshotError);
}

}  // namespace
}  // namespace tiresias
