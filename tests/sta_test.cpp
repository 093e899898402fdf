// Unit tests for the STA strawman detector (Fig 4), the randomized
// equivalence property pinning the incremental sliding-window rewrite to
// the retained window-copy reference implementation, and the timed check
// that the rewrite is worth its code.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/ada.h"
#include "core/shhh_reference.h"
#include "core/sta.h"
#include "hierarchy/builder.h"
#include "timeseries/ewma.h"
#include "cpu_timing.h"

namespace tiresias {
namespace {

DetectorConfig smallConfig(std::size_t window = 8) {
  DetectorConfig cfg;
  cfg.theta = 4.0;
  cfg.windowLength = window;
  cfg.ratioThreshold = 2.0;
  cfg.diffThreshold = 3.0;
  cfg.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
  return cfg;
}

TimeUnitBatch batchOf(TimeUnit unit, std::vector<std::pair<NodeId, int>> counts,
                      Duration delta = 900) {
  TimeUnitBatch b;
  b.unit = unit;
  for (const auto& [node, c] : counts) {
    for (int i = 0; i < c; ++i) {
      b.records.push_back({node, unitStart(unit, delta)});
    }
  }
  return b;
}

TEST(Sta, WarmsUpBeforeDetecting) {
  const auto h = HierarchyBuilder::balanced({2, 2});
  StaDetector sta(h, smallConfig(4));
  const NodeId leaf = h.leaves()[0];
  for (TimeUnit u = 0; u < 3; ++u) {
    EXPECT_FALSE(sta.step(batchOf(u, {{leaf, 5}})).has_value());
  }
  EXPECT_TRUE(sta.step(batchOf(3, {{leaf, 5}})).has_value());
}

TEST(Sta, DetectsObviousSpike) {
  const auto h = HierarchyBuilder::balanced({2, 2});
  StaDetector sta(h, smallConfig(8));
  const NodeId leaf = h.leaves()[0];
  std::optional<InstanceResult> result;
  for (TimeUnit u = 0; u < 10; ++u) {
    result = sta.step(batchOf(u, {{leaf, 5}}));
  }
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->anomalies.empty());  // steady state

  result = sta.step(batchOf(10, {{leaf, 50}}));
  ASSERT_TRUE(result);
  ASSERT_EQ(result->anomalies.size(), 1u);
  EXPECT_EQ(result->anomalies[0].node, leaf);
  EXPECT_DOUBLE_EQ(result->anomalies[0].actual, 50.0);
}

TEST(Sta, ShhhTracksDetectionUnitOnly) {
  const auto h = HierarchyBuilder::balanced({2, 2});
  StaDetector sta(h, smallConfig(4));
  const NodeId hot = h.leaves()[0];
  const NodeId other = h.leaves()[3];
  for (TimeUnit u = 0; u < 4; ++u) sta.step(batchOf(u, {{hot, 6}}));
  // Shift the mass: the HH set must follow the newest unit.
  auto result = sta.step(batchOf(4, {{other, 6}}));
  ASSERT_TRUE(result);
  EXPECT_EQ(result->shhh, std::vector<NodeId>{other});
}

TEST(Sta, SeriesReconstructionIsExact) {
  const auto h = HierarchyBuilder::balanced({2, 2});
  auto cfg = smallConfig(4);
  cfg.theta = 3.0;
  StaDetector sta(h, cfg);
  const NodeId leaf = h.leaves()[0];
  sta.step(batchOf(0, {{leaf, 1}}));
  sta.step(batchOf(1, {{leaf, 2}}));
  sta.step(batchOf(2, {{leaf, 3}}));
  auto result = sta.step(batchOf(3, {{leaf, 4}}));
  ASSERT_TRUE(result);
  ASSERT_EQ(result->shhh, std::vector<NodeId>{leaf});
  EXPECT_EQ(sta.seriesOf(leaf), (std::vector<double>{1, 2, 3, 4}));
  // Forecast series is the EWMA recursion over that history.
  const auto fc = sta.forecastSeriesOf(leaf);
  ASSERT_EQ(fc.size(), 4u);
  EXPECT_DOUBLE_EQ(fc[1], 1.0);
  EXPECT_DOUBLE_EQ(fc[2], 1.5);
  EXPECT_DOUBLE_EQ(fc[3], 2.25);
}

TEST(Sta, EmptyUnitsKeepWindowMoving) {
  const auto h = HierarchyBuilder::balanced({2});
  StaDetector sta(h, smallConfig(3));
  const NodeId leaf = h.leaves()[0];
  sta.step(batchOf(0, {{leaf, 9}}));
  sta.step(batchOf(1, {}));
  auto result = sta.step(batchOf(2, {}));
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->shhh.empty());
  // Root series exists and shows the fade-out.
  EXPECT_EQ(sta.seriesOf(h.root()), (std::vector<double>{9, 0, 0}));
}

// Randomized hierarchies, unit counts and regime shifts: every step of the
// incremental detector must be *bit-identical* to the historical
// window-copy reconstruction — same SHHH sets, anomalies, series and
// forecast series. Counts are unit record weights, so all aggregates are
// integers and the incremental subtraction is exact.
class StaEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StaEquivalence, MatchesWindowCopyReferenceBitForBit) {
  Rng rng(GetParam());
  HierarchyBuilder b("root");
  std::vector<NodeId> nodes{0};
  for (int i = 0; i < 30 + static_cast<int>(rng.below(70)); ++i) {
    nodes.push_back(
        b.addChild(nodes[rng.below(nodes.size())], "n" + std::to_string(i)));
  }
  const auto h = b.build();

  DetectorConfig cfg;
  cfg.theta = 2.0 + static_cast<double>(rng.below(4));
  cfg.windowLength = 4 + rng.below(8);
  cfg.ratioThreshold = 2.0;
  cfg.diffThreshold = 3.0;
  cfg.forecasterFactory = std::make_shared<EwmaFactory>(0.5);

  StaDetector sta(h, cfg);
  reference::StaReplica replica(h, cfg);

  for (TimeUnit u = 0; u < 60; ++u) {
    TimeUnitBatch batch;
    batch.unit = u;
    if (rng.below(9) != 0) {  // occasional silent unit
      const NodeId hot = h.leaves()[(u / 5) % h.leafCount()];
      const int hotCount = static_cast<int>(rng.below(12));
      for (int i = 0; i < hotCount; ++i) {
        batch.records.push_back({hot, unitStart(u, 900)});
      }
      const int noise = static_cast<int>(rng.below(15));
      for (int i = 0; i < noise; ++i) {
        batch.records.push_back(
            {h.leaves()[rng.below(h.leafCount())], unitStart(u, 900)});
      }
    }
    const auto got = sta.step(batch);
    const auto want = replica.step(batch);
    ASSERT_EQ(got.has_value(), want.has_value()) << "unit " << u;
    if (!got) continue;
    EXPECT_EQ(got->unit, want->unit);
    EXPECT_EQ(got->shhh, want->shhh) << "unit " << u;
    EXPECT_EQ(got->anomalies, want->anomalies) << "unit " << u;
    // Exact (not approximate) series agreement for every node that holds
    // a series — including the root residual.
    for (NodeId n = 0; n < h.size(); ++n) {
      EXPECT_EQ(sta.seriesOf(n), replica.seriesOf(n))
          << "node " << n << " unit " << u;
      EXPECT_EQ(sta.forecastSeriesOf(n), replica.forecastSeriesOf(n))
          << "node " << n << " unit " << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaEquivalence,
                         ::testing::Values(5, 17, 23, 42, 77, 101));

TEST(Sta, MemoryStatsCountLTrees) {
  const auto h = HierarchyBuilder::balanced({2, 2});
  StaDetector sta(h, smallConfig(4));
  const NodeId leaf = h.leaves()[0];
  for (TimeUnit u = 0; u < 4; ++u) sta.step(batchOf(u, {{leaf, 5}}));
  const auto stats = sta.memoryStats();
  // Each unit tree holds the leaf + 2 ancestors.
  EXPECT_EQ(stats.treeNodesStored, 4u * 3u);
  EXPECT_GT(stats.bytesEstimate, 0u);
}

/// Best-of-3 CPU seconds of stepping a fresh `Detector` through every unit
/// after the first window, warmed untimed on that window.
template <typename Detector>
double steadyStepSeconds(const TimedWorkload& w, const DetectorConfig& cfg) {
  return bestOfThree([&] {
    Detector detector(w.spec.hierarchy, cfg);
    for (std::size_t u = 0; u < cfg.windowLength; ++u) {
      detector.step(w.units[u]);
    }
    const CpuStopwatch watch;
    for (std::size_t u = cfg.windowLength; u < w.units.size(); ++u) {
      detector.step(w.units[u]);
    }
    return watch.elapsedSeconds();
  });
}

// Warm steady state on the CCD-network workload (window 64): stepping the
// incremental STA must cost at most half of the window-copy reference's
// step, and ADA at most twice STA's — a sanity floor, not a ranking.
TEST(StaSpeed, IncrementalBeatsReferenceAndAdaKeepsUp) {
  SKIP_TIMING_UNDER_SANITIZERS();
  DetectorConfig cfg;
  cfg.theta = 8.0;
  cfg.windowLength = 64;
  cfg.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
  const auto w = ccdMediumWorkload(cfg.windowLength + 32);
  ASSERT_GT(w.units.size(), cfg.windowLength);

  const double replicaSeconds =
      steadyStepSeconds<reference::StaReplica>(w, cfg);
  const double staSeconds = steadyStepSeconds<StaDetector>(w, cfg);
  const double adaSeconds = steadyStepSeconds<AdaDetector>(w, cfg);
  const double staSpeedup = replicaSeconds / staSeconds;
  const double adaVsSta = staSeconds / adaSeconds;
  RecordProperty("sta_speedup", std::to_string(staSpeedup));
  RecordProperty("ada_vs_sta", std::to_string(adaVsSta));
  EXPECT_GE(staSpeedup, 2.0) << "incremental STA vs window-copy reference";
  EXPECT_GE(adaVsSta, 0.5) << "ADA step rate relative to STA's";
}

}  // namespace
}  // namespace tiresias
