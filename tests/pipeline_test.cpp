// Tests for the end-to-end TiresiasPipeline (Fig 3 back end).
#include <gtest/gtest.h>

#include <bit>

#include "core/pipeline.h"
#include "report/store.h"
#include "timeseries/ewma.h"
#include "workload/ccd.h"

namespace tiresias {
namespace {

using workload::AnomalyInjector;
using workload::ccdNetworkWorkload;
using workload::GeneratorSource;
using workload::GroundTruthLedger;
using workload::Scale;

TEST(Pipeline, RunsWithExplicitForecaster) {
  const auto spec = ccdNetworkWorkload(Scale::kTest);
  GeneratorSource src(spec, 0, 40, 42);
  PipelineConfig cfg;
  cfg.delta = spec.unit;
  cfg.detector.theta = 8.0;
  cfg.detector.windowLength = 16;
  cfg.detector.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
  TiresiasPipeline pipeline(borrowHierarchy(spec.hierarchy), cfg);
  std::size_t results = 0;
  const auto summary = pipeline.run(src, [&](const InstanceResult&) {
    ++results;
  });
  EXPECT_EQ(summary.unitsProcessed, 40u);
  EXPECT_EQ(summary.instancesDetected, results);
  EXPECT_EQ(results, 40u - 16u + 1u);
  EXPECT_GT(summary.recordsProcessed, 0u);
  EXPECT_TRUE(summary.seasons.empty());  // factory was supplied
}

TEST(Pipeline, DerivesSeasonalityFromFirstWindow) {
  const auto spec = ccdNetworkWorkload(Scale::kTest);
  GeneratorSource src(spec, 0, 96 * 4 + 10, 7);  // 4 days + margin
  PipelineConfig cfg;
  cfg.delta = spec.unit;
  cfg.detector.theta = 10.0;
  cfg.detector.windowLength = 96 * 4;  // window spans 4 diurnal cycles
  cfg.candidatePeriods = {96};
  TiresiasPipeline pipeline(borrowHierarchy(spec.hierarchy), cfg);
  const auto summary = pipeline.run(src, nullptr);
  ASSERT_EQ(summary.seasons.size(), 1u);
  EXPECT_EQ(summary.seasons[0].period, 96u);
  EXPECT_GT(summary.instancesDetected, 0u);
}

TEST(Pipeline, DetectsInjectedSpikeAndReportsToStore) {
  const auto spec = ccdNetworkWorkload(Scale::kTest);
  const auto& h = spec.hierarchy;
  const NodeId io = h.find("VHO0/IO1");
  ASSERT_NE(io, kInvalidNode);
  GroundTruthLedger ledger;
  ledger.add({io, 80, 4, 90.0});
  auto injector = std::make_shared<AnomalyInjector>(h, ledger);
  GeneratorSource src(spec, 0, 120, 11, injector);

  PipelineConfig cfg;
  cfg.delta = spec.unit;
  cfg.detector.theta = 8.0;
  cfg.detector.windowLength = 48;
  cfg.detector.forecasterFactory = std::make_shared<EwmaFactory>(0.3);
  TiresiasPipeline pipeline(borrowHierarchy(h), cfg);
  report::AnomalyStore store(h);
  pipeline.run(src, [&](const InstanceResult& r) { store.add(r); });

  // At least one anomaly inside the spike window, located on the injected
  // node's root path or below it.
  report::Query q;
  q.fromUnit = 80;
  q.toUnit = 83;
  const auto hits = store.query(q);
  ASSERT_FALSE(hits.empty());
  bool located = false;
  for (const auto& hit : hits) {
    if (h.isAncestorOrEqual(io, hit.anomaly.node) ||
        h.isAncestorOrEqual(hit.anomaly.node, io)) {
      located = true;
    }
  }
  EXPECT_TRUE(located);
}

TEST(Pipeline, StaBackendAgreesOnSpike) {
  const auto spec = ccdNetworkWorkload(Scale::kTest);
  const auto& h = spec.hierarchy;
  const NodeId io = h.find("VHO1/IO0");
  GroundTruthLedger ledger;
  ledger.add({io, 60, 3, 90.0});
  auto injector = std::make_shared<AnomalyInjector>(h, ledger);

  auto runWith = [&](bool useAda) {
    GeneratorSource src(spec, 0, 80, 21, injector);
    PipelineConfig cfg;
    cfg.delta = spec.unit;
    cfg.useAda = useAda;
    cfg.detector.theta = 8.0;
    cfg.detector.windowLength = 32;
    cfg.detector.forecasterFactory = std::make_shared<EwmaFactory>(0.3);
    TiresiasPipeline pipeline(borrowHierarchy(h), cfg);
    std::size_t inWindow = 0;
    pipeline.run(src, [&](const InstanceResult& r) {
      for (const auto& a : r.anomalies) {
        if (a.unit >= 60 && a.unit < 63 &&
            (h.isAncestorOrEqual(io, a.node) ||
             h.isAncestorOrEqual(a.node, io))) {
          ++inWindow;
        }
      }
    });
    return inWindow;
  };
  EXPECT_GT(runWith(true), 0u);
  EXPECT_GT(runWith(false), 0u);
}

TEST(Pipeline, WarmupSpansMultipleRuns) {
  // Live operation (Step 6): a short first run leaves the pipeline
  // warming; a follow-up run with the remaining units completes the
  // warm-up and starts detecting, with no unit double-counted.
  const auto spec = ccdNetworkWorkload(Scale::kTest);
  PipelineConfig cfg;
  cfg.delta = spec.unit;
  cfg.detector.theta = 8.0;
  cfg.detector.windowLength = 16;
  cfg.detector.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
  TiresiasPipeline pipeline(borrowHierarchy(spec.hierarchy), cfg);

  GeneratorSource first(spec, 0, 5, 3);
  auto summary = pipeline.run(first, nullptr);
  EXPECT_EQ(summary.unitsProcessed, 5u);
  EXPECT_EQ(summary.instancesDetected, 0u);
  EXPECT_EQ(summary.warmupUnitsBuffered, 5u);  // still warming

  GeneratorSource second(spec, 5, 30, 3);
  summary = pipeline.run(second, nullptr);
  EXPECT_EQ(summary.unitsProcessed, 25u);
  EXPECT_NE(pipeline.detector(), nullptr);
  // 30 total units with a 16-unit window -> 15 detection instances.
  EXPECT_EQ(summary.instancesDetected, 15u);
}

TEST(Pipeline, EmptySource) {
  const auto spec = ccdNetworkWorkload(Scale::kTest);
  VectorSource src({});
  PipelineConfig cfg;
  cfg.delta = spec.unit;
  cfg.detector.windowLength = 8;
  TiresiasPipeline pipeline(borrowHierarchy(spec.hierarchy), cfg);
  const auto summary = pipeline.run(src, nullptr);
  EXPECT_EQ(summary.unitsProcessed, 0u);
  EXPECT_EQ(summary.instancesDetected, 0u);
}

// The pipeline's complete output pinned bit for bit: every unit's SHHH set
// and every anomaly (node, unit and the exact bits of actual, forecast and
// ratio) fold into one FNV-1a digest per configuration. The three cases
// cover ADA with a Holt-Winters factory derived by Step 3 (the analysis
// picks seasons from the first window), ADA with a supplied EWMA factory,
// and STA with a derived factory. The expected values were recorded with
// the pipeline that buffered the first window's batches and replayed them
// into a detector built at unit ℓ.
struct PipelineDigest {
  std::uint64_t digest = 0;
  std::size_t results = 0;
  std::size_t anomalies = 0;
  std::size_t seasons = 0;
};

PipelineDigest pipelineDigest(bool useAda, bool deriveFactory) {
  const auto spec = ccdNetworkWorkload(Scale::kTest);
  const auto& h = spec.hierarchy;
  GroundTruthLedger ledger;
  ledger.add({h.find("VHO0/IO1"), 230, 4, 90.0});
  ledger.add({h.find("VHO1/IO0"), 260, 3, 60.0});
  auto injector = std::make_shared<AnomalyInjector>(h, ledger);
  GeneratorSource src(spec, 0, 288, 19, injector);

  PipelineConfig cfg;
  cfg.delta = spec.unit;
  cfg.useAda = useAda;
  cfg.detector.theta = 8.0;
  cfg.detector.windowLength = 192;
  cfg.candidatePeriods = {48, 96};
  if (!deriveFactory) {
    cfg.detector.forecasterFactory = std::make_shared<EwmaFactory>(0.3);
  }
  TiresiasPipeline pipeline(borrowHierarchy(h), cfg);
  PipelineDigest out;
  out.digest = 0xcbf29ce484222325ULL;
  const auto fold = [&out](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.digest = (out.digest ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001b3ULL;
    }
  };
  const RunSummary summary = pipeline.run(src, [&](const InstanceResult& r) {
    ++out.results;
    fold(static_cast<std::uint64_t>(r.unit));
    fold(r.shhh.size());
    for (NodeId n : r.shhh) fold(n);
    fold(r.anomalies.size());
    for (const Anomaly& a : r.anomalies) {
      ++out.anomalies;
      fold(a.node);
      fold(static_cast<std::uint64_t>(a.unit));
      fold(std::bit_cast<std::uint64_t>(a.actual));
      fold(std::bit_cast<std::uint64_t>(a.forecast));
      fold(std::bit_cast<std::uint64_t>(a.ratio));
    }
  });
  out.seasons = summary.seasons.size();
  return out;
}

TEST(PipelineDigest, OutputIsBitIdentical) {
  struct Case {
    const char* name;
    bool useAda;
    bool deriveFactory;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"ADA + derived Holt-Winters", true, true, 0x4f02442f84d5ea85ULL},
      {"ADA + supplied EWMA", true, false, 0xd368363cef962f83ULL},
      {"STA + derived Holt-Winters", false, true, 0xc4326eac67592507ULL},
  };
  for (const Case& c : cases) {
    const PipelineDigest d = pipelineDigest(c.useAda, c.deriveFactory);
    EXPECT_EQ(d.results, 288u - 192u + 1u) << c.name;
    EXPECT_GT(d.anomalies, 0u) << c.name;
    if (c.deriveFactory) {
      EXPECT_GT(d.seasons, 0u) << c.name;
    }
    EXPECT_EQ(d.digest, c.digest)
        << c.name << ": 0x" << std::hex << d.digest;
  }
}

}  // namespace
}  // namespace tiresias
