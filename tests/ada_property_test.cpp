// Property-based sweeps for ADA: across random trees, random workloads
// with regime shifts, all split rules and several reference depths, the
// adapted heavy-hitter set must always equal the Definition-2 ground truth
// (Lemma 1), and weight conservation must hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/rng.h"
#include "core/ada.h"
#include "core/shhh.h"
#include "core/shhh_reference.h"
#include "core/sta.h"
#include "hierarchy/builder.h"
#include "persist/snapshot.h"
#include "stream/window.h"
#include "timeseries/ewma.h"
#include "timeseries/holt_winters.h"
#include "workload/ccd.h"

namespace tiresias {
namespace {

Hierarchy randomTree(Rng& rng, std::size_t extra) {
  HierarchyBuilder b("root");
  std::vector<NodeId> nodes{0};
  for (std::size_t i = 0; i < extra; ++i) {
    nodes.push_back(
        b.addChild(nodes[rng.below(nodes.size())], "n" + std::to_string(i)));
  }
  return b.build();
}

/// Regime-shifting workload: a hot leaf that relocates every few units, a
/// varying diffuse background, and occasional total silence. Designed to
/// trigger many splits and merges.
TimeUnitBatch randomBatch(const Hierarchy& h, TimeUnit u, Rng& rng) {
  TimeUnitBatch batch;
  batch.unit = u;
  if (rng.below(13) == 0) return batch;  // silent unit
  const NodeId hot =
      h.leaves()[SplitMix64(static_cast<std::uint64_t>(u / 4)).next() %
                 h.leafCount()];
  const int hotCount = 3 + static_cast<int>(rng.below(10));
  for (int i = 0; i < hotCount; ++i) {
    batch.records.push_back({hot, unitStart(u, 900)});
  }
  const int noise = static_cast<int>(rng.below(12));
  for (int i = 0; i < noise; ++i) {
    batch.records.push_back(
        {h.leaves()[rng.below(h.leafCount())], unitStart(u, 900)});
  }
  return batch;
}

using Params = std::tuple<std::uint64_t /*seed*/, SplitRule, std::size_t /*h*/>;

class AdaSweep : public ::testing::TestWithParam<Params> {};

TEST_P(AdaSweep, HhSetAlwaysMatchesGroundTruth) {
  const auto [seed, rule, refLevels] = GetParam();
  Rng rng(seed);
  const auto h = randomTree(rng, 40 + rng.below(60));

  DetectorConfig cfg;
  cfg.theta = 3.0 + static_cast<double>(rng.below(4));
  cfg.windowLength = 8;
  cfg.splitRule = rule;
  cfg.referenceLevels = refLevels;
  cfg.validateShhh = true;  // internal Lemma-1 cross-check every step
  cfg.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
  AdaDetector ada(h, cfg);

  for (TimeUnit u = 0; u < 60; ++u) {
    const auto batch = randomBatch(h, u, rng);
    CountMap counts;
    for (const auto& r : batch.records) counts[r.category] += 1.0;
    const auto truth = reference::computeShhh(h, counts, cfg.theta).shhh;
    const auto result = ada.step(batch);
    if (!result) continue;
    EXPECT_EQ(result->shhh, truth) << "seed " << seed << " unit " << u;
  }
}

TEST_P(AdaSweep, WeightConservationAcrossHolders) {
  // At every instance the newest value across all holders (members plus
  // the root residual) sums to the unit's total record count.
  const auto [seed, rule, refLevels] = GetParam();
  Rng rng(seed ^ 0xfeedULL);
  const auto h = randomTree(rng, 50);

  DetectorConfig cfg;
  cfg.theta = 4.0;
  cfg.windowLength = 6;
  cfg.splitRule = rule;
  cfg.referenceLevels = refLevels;
  cfg.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
  AdaDetector ada(h, cfg);

  for (TimeUnit u = 0; u < 40; ++u) {
    const auto batch = randomBatch(h, u, rng);
    const double total = static_cast<double>(batch.records.size());
    const auto result = ada.step(batch);
    if (!result) continue;
    double sum = 0.0;
    for (NodeId n : result->shhh) sum += ada.seriesOf(n).back();
    const bool rootMember =
        !result->shhh.empty() && result->shhh.front() == h.root();
    if (!rootMember) sum += ada.seriesOf(h.root()).back();
    EXPECT_NEAR(sum, total, 1e-9) << "seed " << seed << " unit " << u;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RulesAndSeeds, AdaSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(11, 22, 33, 44),
                       ::testing::Values(SplitRule::kUniform,
                                         SplitRule::kLastTimeUnit,
                                         SplitRule::kLongTermHistory,
                                         SplitRule::kEwma),
                       ::testing::Values<std::size_t>(0, 2)),
    [](const ::testing::TestParamInfo<Params>& info) {
      std::string rule = splitRuleName(std::get<1>(info.param));
      rule.erase(std::remove(rule.begin(), rule.end(), '-'), rule.end());
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" + rule +
             "_h" + std::to_string(std::get<2>(info.param));
    });

// Holt-Winters end-to-end sweep: the HH-set equality must also hold with
// the seasonal forecaster carrying state through splits and merges.
class AdaHwSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdaHwSweep, HhSetMatchesWithHoltWinters) {
  Rng rng(GetParam());
  const auto h = randomTree(rng, 60);
  DetectorConfig cfg;
  cfg.theta = 4.0;
  cfg.windowLength = 12;
  cfg.referenceLevels = 1;
  cfg.validateShhh = true;
  cfg.forecasterFactory = std::make_shared<HoltWintersFactory>(
      HoltWintersParams{0.4, 0.1, 0.3}, std::vector<SeasonSpec>{{4, 1.0}});
  AdaDetector ada(h, cfg);
  for (TimeUnit u = 0; u < 50; ++u) {
    const auto batch = randomBatch(h, u, rng);
    CountMap counts;
    for (const auto& r : batch.records) counts[r.category] += 1.0;
    const auto truth = reference::computeShhh(h, counts, cfg.theta).shhh;
    const auto result = ada.step(batch);
    if (result) {
      EXPECT_EQ(result->shhh, truth) << "unit " << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaHwSweep,
                         ::testing::Values(3, 6, 9, 12, 15));


// ADA's complete state, not just its outputs, is pinned bit for bit: the
// saveState bytes after every unit (both rings and the forecaster of every
// holder and reference series, plus the split-rule statistics) fold into
// one FNV-1a digest per configuration. The output digest covers only the
// SHHH set and the anomalies, so a series move that is not bit-identical,
// or a skipped merge sum that leaves a wrong series in place, can slip past
// it; it cannot slip past these. The expected values were generated by the
// implementation that moved series by clone, negate and add.
struct StateDigestCase {
  bool holtWinters;
  std::size_t refLevels;
  std::uint64_t seed;
  std::uint64_t digest;
};

std::uint64_t adaStateDigest(bool holtWinters, std::size_t refLevels,
                             std::uint64_t seed) {
  Rng rng(seed);
  const auto h = randomTree(rng, 50 + rng.below(40));
  DetectorConfig cfg;
  cfg.theta = 4.0;
  cfg.windowLength = 12;
  cfg.referenceLevels = refLevels;
  if (holtWinters) {
    cfg.forecasterFactory = std::make_shared<HoltWintersFactory>(
        HoltWintersParams{0.4, 0.1, 0.3},
        std::vector<SeasonSpec>{{4, 0.7}, {6, 0.3}});
  } else {
    cfg.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
  }
  AdaDetector ada(h, cfg);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (TimeUnit u = 0; u < 60; ++u) {
    ada.step(randomBatch(h, u, rng));
    persist::Serializer s;
    ada.saveState(s);
    for (std::uint8_t b : s.data()) {
      digest = (digest ^ b) * 0x100000001b3ULL;
    }
  }
  return digest;
}

TEST(AdaStateDigest, FullStateIsBitIdenticalAfterEveryUnit) {
  const StateDigestCase cases[] = {
      {false, 0, 5, 0xdab6180b17859e4eULL},
      {false, 0, 17, 0xa8c419b5d055fa11ULL},
      {false, 0, 29, 0x05f73d2192a82c81ULL},
      {false, 1, 5, 0xd7adb1ece008a3f9ULL},
      {false, 1, 17, 0x19720643d1c24fe3ULL},
      {false, 1, 29, 0xb01f78fac2b17a62ULL},
      {false, 2, 5, 0x9bdf643fdc96d04dULL},
      {false, 2, 17, 0x592e6dc869304cb9ULL},
      {false, 2, 29, 0x9957bd321ca45153ULL},
      {false, 3, 5, 0x1ef27a2f2885cbd9ULL},
      {false, 3, 17, 0x9a108643e5626d19ULL},
      {false, 3, 29, 0x4cb4126ec3dcafd5ULL},
      {true, 0, 5, 0x2f3a0b7b04ca2c57ULL},
      {true, 0, 17, 0xf22b2690c0b0b23cULL},
      {true, 0, 29, 0xf186beace1be1837ULL},
      {true, 1, 5, 0xca0055591b3e23d6ULL},
      {true, 1, 17, 0xbd29bf4274876dc0ULL},
      {true, 1, 29, 0x88de737d4b6b03d7ULL},
      {true, 2, 5, 0xee615d0bd066f673ULL},
      {true, 2, 17, 0x3232234db6261333ULL},
      {true, 2, 29, 0x58841bbe510d8a88ULL},
      {true, 3, 5, 0x330b87e069d259ddULL},
      {true, 3, 17, 0xd79af8c7a98ff495ULL},
      {true, 3, 29, 0xe39303a781d0aa82ULL},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(adaStateDigest(c.holtWinters, c.refLevels, c.seed), c.digest)
        << (c.holtWinters ? "Holt-Winters" : "EWMA") << " referenceLevels "
        << c.refLevels << " seed " << c.seed;
  }
}

// The same pin at the paper's scale: the CCD network hierarchy at Table II
// degrees (46,117 nodes), generated traffic at 4x the preset's call volume,
// θ=2 (so the run makes ~600 splits and ~1,000 merges), Holt-Winters and
// the ℓ=288 window of the `detect` defaults. 320 units cover the warm-up
// (whose buffered counts are part of the snapshot), the one-shot bootstrap
// reconstruction and 32 adaptive units; the state is digested every 16th
// warm-up unit and after every unit from the bootstrap on. The default
// split rule and each of the three others get their own digest. The
// expected values were recorded with the sort-ordered climb and the
// three-pass map-based bootstrap.
std::uint64_t paperStateDigest(SplitRule rule) {
  auto spec = workload::ccdNetworkWorkload(workload::Scale::kPaper);
  spec.baseRatePerUnit *= 4.0;  // busy enough for hundreds of splits
  DetectorConfig cfg;
  cfg.theta = 2.0;
  cfg.windowLength = 288;
  cfg.splitRule = rule;
  cfg.forecasterFactory = std::make_shared<HoltWintersFactory>(
      HoltWintersParams{0.5, 0.1, 0.3},
      std::vector<SeasonSpec>{{48, 0.6}, {96, 0.4}});
  AdaDetector ada(spec.hierarchy, cfg);
  workload::GeneratorSource src(spec, 0, 320, 23);
  TimeUnitBatcher batcher(src, spec.unit, 0);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  TimeUnit u = 0;
  while (auto batch = batcher.next()) {
    ada.step(*batch);
    if (u++ % 16 != 0 && u < static_cast<TimeUnit>(cfg.windowLength)) {
      continue;
    }
    persist::Serializer s;
    ada.saveState(s);
    for (std::uint8_t b : s.data()) {
      digest = (digest ^ b) * 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(u, 320);
  return digest;
}

TEST(AdaStateDigest, PaperScaleStateIsBitIdentical) {
  const std::pair<SplitRule, std::uint64_t> cases[] = {
      {SplitRule::kLongTermHistory, 0xf25c48234e78cc49ULL},
      {SplitRule::kUniform, 0xb86f518f74786e27ULL},
      {SplitRule::kLastTimeUnit, 0xec398c1dd773c7c5ULL},
      {SplitRule::kEwma, 0xc10fd80a99beabf5ULL},
  };
  for (const auto& [rule, expected] : cases) {
    EXPECT_EQ(paperStateDigest(rule), expected) << splitRuleName(rule);
  }
}

}  // namespace
}  // namespace tiresias
