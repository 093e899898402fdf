// Property tests for the Definition-3 fixed-set reconstruction — the
// primitive both STA and ADA's bootstrap stand on. ADA's one-sweep-per-unit
// bootstrap kernel (fixedSetSweepStaged) is cross-validated against an
// independent dense brute force on random trees, random member sets and
// random multi-unit count streams, and asserted bit-identical to the
// retained map-based reference implementation (shhh_reference.h) so the
// flat-workspace rewrite can never drift from the historical evaluator —
// and timed against it, so the rewrite keeps earning its code.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/shhh.h"
#include "core/shhh_reference.h"
#include "cpu_timing.h"
#include "fixed_set_sweep.h"
#include "hierarchy/builder.h"

namespace tiresias {
namespace {

/// Dense per-unit evaluation: every count climbs to its nearest fixed-set
/// ancestor (or the root); W'[n] is what accumulated at n.
std::vector<double> bruteForceUnit(const Hierarchy& h, const CountMap& counts,
                                   const std::vector<NodeId>& fixedSet) {
  std::vector<bool> member(h.size(), false);
  for (NodeId n : fixedSet) member[n] = true;
  std::vector<double> w(h.size(), 0.0);
  for (const auto& [node, c] : counts) {
    NodeId cur = node;
    while (cur != h.root() && !member[cur]) cur = h.parent(cur);
    w[cur] += c;
  }
  return w;
}

class FixedSetProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FixedSetProperty, MatchesBruteForceAndConservesMass) {
  Rng rng(GetParam());
  // Random tree.
  HierarchyBuilder b("root");
  std::vector<NodeId> nodes{0};
  for (int i = 0; i < 60 + static_cast<int>(rng.below(60)); ++i) {
    nodes.push_back(
        b.addChild(nodes[rng.below(nodes.size())], "n" + std::to_string(i)));
  }
  const auto h = b.build();

  // Random fixed member set (any nodes, root possibly included).
  std::vector<NodeId> fixedSet;
  for (NodeId n = 0; n < h.size(); ++n) {
    if (rng.below(5) == 0) fixedSet.push_back(n);
  }

  // Random count stream over several units.
  const std::size_t units = 3 + rng.below(6);
  std::vector<CountMap> stream(units);
  std::vector<double> unitTotals(units, 0.0);
  for (std::size_t u = 0; u < units; ++u) {
    const std::size_t events = rng.below(30);
    for (std::size_t e = 0; e < events; ++e) {
      const auto node = static_cast<NodeId>(rng.below(h.size()));
      const double c = 1.0 + static_cast<double>(rng.below(4));
      stream[u][node] += c;
      unitTotals[u] += c;
    }
  }

  const SweptSeries swept = sweepSeries(h, stream, fixedSet);
  const auto& series = swept.modified;

  // 0. Bit-identical to the retained map-based reference implementation
  //    (not merely close: the flat path must compute the same FP sums).
  {
    const auto ref = reference::modifiedSeriesFixedSet(h, stream, fixedSet);
    ASSERT_EQ(series.size(), ref.size());
    for (const auto& [n, s] : series) {
      const auto it = ref.find(n);
      ASSERT_TRUE(it != ref.end()) << "node " << n;
      EXPECT_EQ(s, it->second) << "node " << n << " seed " << GetParam();
    }
  }
  // The same sweep's touched list — what seeds the split rules — has the
  // Definition-2 pass's nodes and A_n, and flags exactly the members.
  for (std::size_t u = 0; u < units; ++u) {
    const auto ref = reference::computeShhh(h, stream[u], 1.0).touched;
    const auto& got = swept.touched[u];
    ASSERT_EQ(got.size(), ref.size()) << "unit " << u;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].node, ref[i].node);
      EXPECT_EQ(got[i].raw, ref[i].raw);
      EXPECT_EQ(got[i].heavy, std::binary_search(fixedSet.begin(),
                                                 fixedSet.end(), got[i].node));
    }
  }

  // 1. Every requested node (plus the root) is present with full length.
  ASSERT_TRUE(series.count(h.root()));
  for (NodeId n : fixedSet) {
    ASSERT_TRUE(series.count(n)) << "node " << n;
    ASSERT_EQ(series.at(n).size(), units);
  }

  for (std::size_t u = 0; u < units; ++u) {
    const auto dense = bruteForceUnit(h, stream[u], fixedSet);
    // 2. Exact agreement with the independent dense evaluation.
    for (const auto& [n, s] : series) {
      EXPECT_NEAR(s[u], dense[n], 1e-9)
          << "node " << n << " unit " << u << " seed " << GetParam();
    }
    // 3. Conservation: member values (+ root residual) sum to the unit
    //    total.
    double sum = series.at(h.root())[u];
    for (NodeId n : fixedSet) {
      if (n != h.root()) sum += series.at(n)[u];
    }
    // If the root is itself in the fixed set it was already counted once.
    EXPECT_NEAR(sum, unitTotals[u], 1e-9) << "unit " << u;
  }
}

TEST_P(FixedSetProperty, RawSeriesMatchesSubtreeSums) {
  Rng rng(GetParam() ^ 0xabcdefULL);
  const auto h = HierarchyBuilder::balanced({3, 2, 2});
  const std::size_t units = 4;
  std::vector<CountMap> stream(units);
  for (std::size_t u = 0; u < units; ++u) {
    for (int e = 0; e < 25; ++e) {
      stream[u][h.leaves()[rng.below(h.leafCount())]] += 1.0;
    }
  }
  std::vector<NodeId> all(h.size());
  for (NodeId n = 0; n < h.size(); ++n) all[n] = n;
  const auto raw = sweepSeries(h, stream, {}, all).raw;
  for (std::size_t u = 0; u < units; ++u) {
    for (NodeId n = 0; n < h.size(); ++n) {
      double expected = 0.0;
      for (const auto& [leaf, c] : stream[u]) {
        if (h.isAncestorOrEqual(n, leaf)) expected += c;
      }
      EXPECT_NEAR(raw.at(n)[u], expected, 1e-9) << "node " << n;
    }
  }
  const auto ref = reference::rawSeries(h, stream, all);
  for (NodeId n = 0; n < h.size(); ++n) {
    EXPECT_EQ(raw.at(n), ref.at(n)) << "node " << n;
  }
}

// The flat workspace kernel must reproduce the historical map-based
// computeShhh bit for bit: same touched set, same A_n/W_n doubles, same
// SHHH membership — on random trees and random (non-leaf-only) counts.
TEST_P(FixedSetProperty, ComputeShhhMatchesReferenceBitForBit) {
  Rng rng(GetParam() ^ 0x5eedULL);
  HierarchyBuilder b("root");
  std::vector<NodeId> nodes{0};
  for (int i = 0; i < 50 + static_cast<int>(rng.below(80)); ++i) {
    nodes.push_back(
        b.addChild(nodes[rng.below(nodes.size())], "n" + std::to_string(i)));
  }
  const auto h = b.build();
  const double theta = 1.0 + static_cast<double>(rng.below(6));

  DetectWorkspace ws;  // reused across units, like the detectors do
  ShhhResult flat;
  for (int round = 0; round < 24; ++round) {
    CountMap counts;
    const std::size_t events = rng.below(40);
    for (std::size_t e = 0; e < events; ++e) {
      counts[static_cast<NodeId>(rng.below(h.size()))] +=
          1.0 + static_cast<double>(rng.below(4));
    }
    const ShhhResult ref = reference::computeShhh(h, counts, theta);
    computeShhh(h, counts, theta, ws, flat);
    EXPECT_EQ(flat.shhh, ref.shhh) << "round " << round;
    ASSERT_EQ(flat.touched.size(), ref.touched.size()) << "round " << round;
    for (std::size_t i = 0; i < ref.touched.size(); ++i) {
      EXPECT_EQ(flat.touched[i].node, ref.touched[i].node);
      EXPECT_EQ(flat.touched[i].raw, ref.touched[i].raw);
      EXPECT_EQ(flat.touched[i].modified, ref.touched[i].modified);
      EXPECT_EQ(flat.touched[i].heavy, ref.touched[i].heavy);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixedSetProperty,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256));

// On the CCD-network workload (theta 8) the flat kernel must evaluate
// Definition 2 at least 1.5x as fast as the map-based reference.
TEST(ComputeShhhSpeed, FlatBeatsMapBasedReference) {
  SKIP_TIMING_UNDER_SANITIZERS();
  constexpr double kTheta = 8.0;
  const auto w = ccdMediumWorkload(192);
  std::vector<CountMap> unitCounts(w.units.size());
  for (std::size_t u = 0; u < w.units.size(); ++u) {
    for (const Record& r : w.units[u].records) unitCounts[u][r.category] += 1.0;
  }
  const Hierarchy& h = w.spec.hierarchy;
  std::size_t sink = 0;  // keeps every evaluation observable
  const double referenceSeconds = bestOfThree([&] {
    const CpuStopwatch watch;
    for (const CountMap& counts : unitCounts) {
      sink += reference::computeShhh(h, counts, kTheta).shhh.size();
    }
    return watch.elapsedSeconds();
  });
  DetectWorkspace ws;
  ShhhResult flat;
  const double flatSeconds = bestOfThree([&] {
    const CpuStopwatch watch;
    for (const CountMap& counts : unitCounts) {
      computeShhh(h, counts, kTheta, ws, flat);
      sink += flat.shhh.size();
    }
    return watch.elapsedSeconds();
  });
  EXPECT_GT(sink, 0u);
  const double speedup = referenceSeconds / flatSeconds;
  RecordProperty("speedup", std::to_string(speedup));
  EXPECT_GE(speedup, 1.5) << "flat computeShhh vs map-based reference";
}

}  // namespace
}  // namespace tiresias
