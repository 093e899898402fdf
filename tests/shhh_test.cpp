// Unit + property tests for Definition 2 (SHHH) and Definition 3 (fixed-set
// time series reconstruction).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/shhh.h"
#include "fixed_set_sweep.h"
#include "hierarchy/builder.h"

namespace tiresias {
namespace {

// Brute-force Definition 2 evaluation over the full tree (dense).
std::vector<NodeId> bruteForceShhh(const Hierarchy& h, const CountMap& counts,
                                   double theta,
                                   std::vector<double>* modifiedOut = nullptr) {
  std::vector<double> w(h.size(), 0.0);
  for (const auto& [n, c] : counts) w[n] += c;
  std::vector<bool> heavy(h.size(), false);
  for (NodeId n = static_cast<NodeId>(h.size()); n-- > 0;) {
    heavy[n] = w[n] >= theta;
    const NodeId p = h.parent(n);
    if (p != kInvalidNode && !heavy[n]) w[p] += w[n];
  }
  std::vector<NodeId> out;
  for (NodeId n = 0; n < h.size(); ++n) {
    if (heavy[n]) out.push_back(n);
  }
  if (modifiedOut) *modifiedOut = w;
  return out;
}

TEST(Shhh, HandComputedExample) {
  // root -> {a, b}; a -> {a0, a1}.  Counts: a0=6, a1=2, b=3. theta=5.
  HierarchyBuilder builder("root");
  const NodeId a = builder.addChild(0, "a");
  builder.addChild(0, "b");
  builder.addChild(a, "a0");
  builder.addChild(a, "a1");
  const auto h = builder.build();
  const NodeId a0 = h.find("a/a0");
  const NodeId a1 = h.find("a/a1");
  const NodeId bb = h.find("b");

  const auto result = computeShhh(h, {{a0, 6.0}, {a1, 2.0}, {bb, 3.0}}, 5.0);
  // a0 is heavy (6 >= 5). a's modified weight = 2 (a0 discounted) -> not
  // heavy. root's = 2 + 3 = 5 -> heavy.
  EXPECT_EQ(result.shhh, (std::vector<NodeId>{h.root(), a0}));
  (void)a;

  for (const auto& t : result.touched) {
    if (t.node == h.root()) {
      EXPECT_DOUBLE_EQ(t.modified, 5.0);
      EXPECT_DOUBLE_EQ(t.raw, 11.0);
    }
    if (t.node == a0) {
      EXPECT_DOUBLE_EQ(t.modified, 6.0);
    }
  }
}

TEST(Shhh, EmptyCountsYieldEmptySet) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const auto result = computeShhh(h, {}, 1.0);
  EXPECT_TRUE(result.shhh.empty());
  EXPECT_TRUE(result.touched.empty());
}

TEST(Shhh, AllWeightAtOneLeaf) {
  const auto h = HierarchyBuilder::balanced({2, 2});
  const NodeId leaf = h.leaves()[0];
  const auto result = computeShhh(h, {{leaf, 10.0}}, 5.0);
  // Leaf heavy; ancestors have modified weight 0.
  EXPECT_EQ(result.shhh, std::vector<NodeId>{leaf});
}

TEST(Shhh, InteriorCountsSupported) {
  const auto h = HierarchyBuilder::balanced({2, 2});
  const NodeId interior = h.children(h.root())[0];
  const auto result = computeShhh(h, {{interior, 7.0}}, 5.0);
  EXPECT_EQ(result.shhh, std::vector<NodeId>{interior});
}

TEST(Shhh, ThresholdBoundaryInclusive) {
  const auto h = HierarchyBuilder::balanced({2});
  const NodeId leaf = h.leaves()[0];
  EXPECT_EQ(computeShhh(h, {{leaf, 5.0}}, 5.0).shhh.size(), 1u);
  EXPECT_EQ(computeShhh(h, {{leaf, 4.999}}, 5.0).shhh.size(), 0u);
}

class ShhhPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShhhPropertyTest, MatchesBruteForceOnRandomTrees) {
  Rng rng(GetParam());
  // Random tree.
  HierarchyBuilder b("root");
  std::vector<NodeId> nodes{0};
  for (int i = 0; i < 80; ++i) {
    nodes.push_back(b.addChild(nodes[rng.below(nodes.size())],
                               "n" + std::to_string(i)));
  }
  const auto h = b.build();
  // Random counts on random nodes (leaves and interiors).
  CountMap counts;
  for (int i = 0; i < 40; ++i) {
    counts[static_cast<NodeId>(rng.below(h.size()))] +=
        static_cast<double>(rng.below(7));
  }
  const double theta = 1.0 + static_cast<double>(rng.below(10));
  std::vector<double> denseW;
  const auto expected = bruteForceShhh(h, counts, theta, &denseW);
  const auto result = computeShhh(h, counts, theta);
  EXPECT_EQ(result.shhh, expected);
  for (const auto& t : result.touched) {
    EXPECT_NEAR(t.modified, denseW[t.node], 1e-9);
  }
}

TEST_P(ShhhPropertyTest, ModifiedWeightsConserveTotal) {
  // Sum of modified weights over the SHHH set plus the root's residual
  // equals the total record count (every count is routed to exactly one
  // holder: its nearest heavy-hitter ancestor or the root).
  Rng rng(GetParam() ^ 0x7777ULL);
  const auto h = HierarchyBuilder::balanced({4, 3, 2});
  CountMap counts;
  double total = 0.0;
  for (int i = 0; i < 60; ++i) {
    const NodeId leaf = h.leaves()[rng.below(h.leafCount())];
    const double c = 1.0 + static_cast<double>(rng.below(5));
    counts[leaf] += c;
    total += c;
  }
  const double theta = 4.0;
  const auto result = computeShhh(h, counts, theta);
  double sum = 0.0;
  bool rootHeavy = false;
  for (const auto& t : result.touched) {
    if (t.heavy) {
      sum += t.modified;
      if (t.node == h.root()) rootHeavy = true;
    }
    if (t.node == h.root() && !t.heavy) sum += t.modified;  // residual
  }
  (void)rootHeavy;
  EXPECT_NEAR(sum, total, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShhhPropertyTest,
                         ::testing::Values(7, 17, 27, 37, 47, 57, 67, 77));

TEST(FixedSetSeries, ReconstructsKnownValues) {
  // Tree: root -> {a, b}; a -> {a0, a1}. Fixed set {a0}. Two units.
  HierarchyBuilder builder("root");
  const NodeId a = builder.addChild(0, "a");
  builder.addChild(0, "b");
  builder.addChild(a, "a0");
  builder.addChild(a, "a1");
  const auto h = builder.build();
  const NodeId a0 = h.find("a/a0");
  const NodeId a1 = h.find("a/a1");
  const NodeId bb = h.find("b");

  std::vector<CountMap> units;
  units.push_back({{a0, 6.0}, {a1, 2.0}, {bb, 1.0}});
  units.push_back({{a0, 1.0}, {bb, 4.0}});
  const auto series = sweepSeries(h, units, {a0}).modified;

  ASSERT_TRUE(series.count(a0));
  EXPECT_EQ(series.at(a0), (std::vector<double>{6.0, 1.0}));
  // Root series excludes the a0 member in both units, even in unit 1 where
  // a0's weight (1.0) is below any threshold: membership is fixed.
  ASSERT_TRUE(series.count(h.root()));
  EXPECT_EQ(series.at(h.root()), (std::vector<double>{3.0, 4.0}));
}

TEST(FixedSetSeries, NestedMembersDiscountOnlyUncoveredWeight) {
  // root -> a -> a0; fixed set {a, a0}: a's series must exclude a0's.
  HierarchyBuilder builder("root");
  const NodeId a = builder.addChild(0, "a");
  const NodeId a0p = builder.addChild(a, "a0");
  const NodeId a1p = builder.addChild(a, "a1");
  (void)a0p;
  (void)a1p;
  const auto h = builder.build();
  const NodeId a0 = h.find("a/a0");
  const NodeId a1 = h.find("a/a1");
  const NodeId aa = h.find("a");

  std::vector<CountMap> units;
  units.push_back({{a0, 5.0}, {a1, 3.0}});
  const auto series = sweepSeries(h, units, {aa, a0}).modified;
  EXPECT_EQ(series.at(a0), std::vector<double>{5.0});
  EXPECT_EQ(series.at(aa), std::vector<double>{3.0});
  EXPECT_EQ(series.at(h.root()), std::vector<double>{0.0});
}

TEST(RawSeries, AggregatesFullSubtree) {
  const auto h = HierarchyBuilder::balanced({2, 2});
  const NodeId left = h.children(h.root())[0];
  std::vector<CountMap> units;
  units.push_back({{h.leaves()[0], 2.0}, {h.leaves()[1], 3.0},
                   {h.leaves()[2], 7.0}});
  units.push_back({{h.leaves()[0], 1.0}});
  const auto series = sweepSeries(h, units, {}, {h.root(), left}).raw;
  EXPECT_EQ(series.at(h.root()), (std::vector<double>{12.0, 1.0}));
  EXPECT_EQ(series.at(left), (std::vector<double>{5.0, 1.0}));
}

}  // namespace
}  // namespace tiresias
