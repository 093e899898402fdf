// Robustness fuzzing for the snapshot decoder: truncated, bit-flipped,
// wrong-version, zero-length and random-garbage inputs must fail with a
// clean persist::SnapshotError — never crash, over-read (ASan in CI
// catches that) or over-allocate. Also semantic validation below the
// framing layer: a structurally valid section whose payload violates a
// component invariant must throw, not abort.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "core/ada.h"
#include "core/pipeline.h"
#include "engine/engine.h"
#include "hierarchy/builder.h"
#include "persist/snapshot.h"
#include "report/concurrent_store.h"
#include "timeseries/ewma.h"
#include "timeseries/holt_winters.h"
#include "timeseries/ring.h"
#include "workload/ccd.h"

namespace tiresias {
namespace {

using engine::DetectionEngine;
using engine::EngineConfig;
using persist::Deserializer;
using persist::Serializer;
using persist::SnapshotError;
using persist::SnapshotReader;
using workload::GeneratorSource;
using workload::Scale;
using workload::WorkloadSpec;

/// A small but real engine checkpoint (stream sections with detector
/// state inside) to mutate.
class SnapshotFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::string(::testing::TempDir()) + "fuzz_" +
            std::to_string(::getpid()) + ".tsnap";
    spec_ = std::make_unique<WorkloadSpec>(
        workload::ccdNetworkWorkload(Scale::kTest));
    PipelineConfig cfg;
    cfg.delta = spec_->unit;
    cfg.detector.theta = 8.0;
    cfg.detector.windowLength = 8;
    cfg.detector.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
    store_.registerStream("s0", spec_->hierarchy);
    engine_ = std::make_unique<DetectionEngine>(EngineConfig{1, 1, 4, 8, 64},
                                                store_.sink());
    engine_->addStream("s0", borrowHierarchy(spec_->hierarchy), cfg,
                       std::make_unique<GeneratorSource>(*spec_, 0, 24, 1));
    engine_->start();
    engine_->drain();
    engine_->checkpoint(path_,
                        [this](Serializer& s) { store_.saveState(s); });
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_GT(bytes_.size(), 64u);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Restore attempt against a fresh, compatibly configured engine. Must
  /// either succeed (a mutation can cancel out) or throw SnapshotError.
  void restoreMutated(const std::vector<std::uint8_t>& mutated) {
    writeBytes(mutated);
    PipelineConfig cfg;
    cfg.delta = spec_->unit;
    cfg.detector.theta = 8.0;
    cfg.detector.windowLength = 8;
    cfg.detector.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
    report::ConcurrentAnomalyStore store;
    store.registerStream("s0", spec_->hierarchy);
    DetectionEngine eng(EngineConfig{1, 1, 4, 8, 64}, store.sink());
    eng.addStream("s0", borrowHierarchy(spec_->hierarchy), cfg,
                  std::make_unique<GeneratorSource>(*spec_, 0, 24, 1));
    try {
      eng.restoreFrom(path_,
                      [&store](Deserializer& d) { store.loadState(d); });
    } catch (const SnapshotError&) {
      // The only acceptable failure mode.
    }
  }

  void writeBytes(const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
  std::unique_ptr<WorkloadSpec> spec_;
  report::ConcurrentAnomalyStore store_;
  std::unique_ptr<DetectionEngine> engine_;
  std::vector<std::uint8_t> bytes_;
};

/// One series of a decoded ADA state: node, both rings, forecaster.
struct AdaSeries {
  NodeId node = kInvalidNode;
  RingSeries actual;
  RingSeries forecast;
  std::unique_ptr<Forecaster> model;
};

/// An ADA state payload decoded field by field (AdaDetector::saveState's
/// order), so a test can break one semantic invariant and re-encode a
/// structurally valid state. Only states past bootstrap decode.
struct AdaPayload {
  std::uint64_t window = 0;
  bool bootstrapped = true;
  std::int64_t newestUnit = 0;
  bool rootIsMember = false;
  std::uint64_t counters[3] = {};  // split, merge, deep-chain split
  std::vector<AdaSeries> holders;
  std::vector<AdaSeries> refs;
  std::vector<std::uint8_t> splitRules;

  static AdaPayload decode(const std::vector<std::uint8_t>& bytes,
                           const ForecasterFactory& factory) {
    Deserializer in(bytes);
    AdaPayload p;
    EXPECT_EQ(in.u8(), kAdaDetectorStateTag);
    p.window = in.u64();
    EXPECT_TRUE(in.boolean());  // bootstrapped
    EXPECT_EQ(in.u64(), 0u);    // no buffered bootstrap units
    p.newestUnit = in.i64();
    p.rootIsMember = in.boolean();
    for (auto& c : p.counters) c = in.u64();
    for (auto* list : {&p.holders, &p.refs}) {
      const std::uint64_t n = in.u64();
      for (std::uint64_t i = 0; i < n; ++i) {
        AdaSeries s;
        s.node = in.u32();
        s.actual.loadState(in);
        s.forecast.loadState(in);
        s.model = factory.make();
        s.model->loadState(in);
        list->push_back(std::move(s));
      }
    }
    p.splitRules = in.raw(in.remaining());
    return p;
  }

  std::vector<std::uint8_t> encode() const {
    Serializer out;
    out.u8(kAdaDetectorStateTag);
    out.u64(window);
    out.boolean(bootstrapped);
    out.u64(0);
    out.i64(newestUnit);
    out.boolean(rootIsMember);
    for (auto c : counters) out.u64(c);
    for (const auto* list : {&holders, &refs}) {
      out.u64(list->size());
      for (const auto& s : *list) {
        out.u32(s.node);
        s.actual.saveState(out);
        s.forecast.saveState(out);
        s.model->saveState(out);
      }
    }
    out.raw(splitRules);
    return out.data();
  }
};

/// ADA on a small balanced tree, past bootstrap with splits and merges
/// behind it (reference series down to depth 3), saved just before its hot
/// leaf moves, so the next step merges the old hot leaf up into the root.
struct SavedAda {
  static constexpr TimeUnit kSavedUnits = 21;  // the hot leaf moves at 21
  Hierarchy tree = HierarchyBuilder::balanced({3, 3, 2});
  DetectorConfig cfg;
  std::vector<std::uint8_t> state;

  explicit SavedAda(std::shared_ptr<ForecasterFactory> factory) {
    cfg.theta = 4.0;
    cfg.windowLength = 8;
    cfg.referenceLevels = 2;
    cfg.forecasterFactory = std::move(factory);
    AdaDetector ada(tree, cfg);
    for (TimeUnit u = 0; u < kSavedUnits; ++u) ada.step(batch(u));
    Serializer s;
    ada.saveState(s);
    state = s.data();
  }

  /// A hot leaf that moves every few units over light background noise.
  TimeUnitBatch batch(TimeUnit u) const {
    TimeUnitBatch b;
    b.unit = u;
    const auto& leaves = tree.leaves();
    const NodeId hot = leaves[static_cast<std::size_t>(u / 3 * 7) %
                              leaves.size()];
    for (int i = 0; i < 6; ++i) b.records.push_back({hot, unitStart(u, 900)});
    for (std::size_t i = 0; i < leaves.size(); i += 5) {
      b.records.push_back({leaves[(i + static_cast<std::size_t>(u)) %
                                  leaves.size()],
                           unitStart(u, 900)});
    }
    return b;
  }

  /// Load `bytes` into a fresh detector, then run it on.
  void loadAndStep(const std::vector<std::uint8_t>& bytes) const {
    AdaDetector ada(tree, cfg);
    Deserializer in(bytes);
    ada.loadState(in);
    for (TimeUnit u = kSavedUnits; u < 2 * kSavedUnits; ++u) {
      ada.step(batch(u));
    }
  }
};

/// A pipeline snapshot cut into its three parts (TiresiasPipeline::
/// saveState's order): the head (configuration fingerprint, resume time,
/// warm-up root counts), the factory section (its presence flag
/// included) and the detector section.
struct PipelineParts {
  std::vector<std::uint8_t> head, factory, detector;

  explicit PipelineParts(const std::vector<std::uint8_t>& bytes) {
    Deserializer in(bytes);
    const auto offset = [&] { return bytes.size() - in.remaining(); };
    in.i64();
    in.u64();
    in.boolean();
    in.f64();
    in.i64();
    std::vector<double> roots(in.count(sizeof(double)));
    in.f64s(roots);
    const std::size_t headEnd = offset();
    if (in.boolean()) {
      in.boolean();
      const std::size_t seasons = in.count(16);
      for (std::size_t i = 0; i < seasons; ++i) {
        in.u64();
        in.f64();
      }
      in.str();
    }
    const std::size_t factoryEnd = offset();
    head.assign(bytes.begin(), bytes.begin() + headEnd);
    factory.assign(bytes.begin() + headEnd, bytes.begin() + factoryEnd);
    detector.assign(bytes.begin() + factoryEnd, bytes.end());
  }

  static std::vector<std::uint8_t> join(const PipelineParts& head,
                                        const PipelineParts& factory,
                                        const PipelineParts& detector) {
    std::vector<std::uint8_t> out = head.head;
    out.insert(out.end(), factory.factory.begin(), factory.factory.end());
    out.insert(out.end(), detector.detector.begin(), detector.detector.end());
    return out;
  }
};

/// The saved state of an ADA pipeline over `tree` after `units` units.
std::vector<std::uint8_t> savedPipeline(const Hierarchy& tree,
                                        const PipelineConfig& cfg,
                                        TimeUnit units) {
  TiresiasPipeline pipeline(borrowHierarchy(tree), cfg);
  RunSummary summary;
  for (TimeUnit u = 0; u < units; ++u) {
    TimeUnitBatch b;
    b.unit = u;
    for (std::size_t i = 0; i < 3 * tree.leaves().size(); ++i) {
      b.records.push_back({tree.leaves()[(i * 5 + static_cast<std::size_t>(
                                                       u)) %
                                         tree.leaves().size()],
                           unitStart(u, cfg.delta)});
    }
    pipeline.processUnit(b, nullptr, summary);
  }
  Serializer s;
  pipeline.saveState(s);
  return s.data();
}

TEST_F(SnapshotFuzzTest, ZeroLengthAndTinyInputs) {
  EXPECT_THROW(SnapshotReader::parse({}), SnapshotError);
  for (std::size_t len = 1; len < 16 && len < bytes_.size(); ++len) {
    if (len == 8) continue;  // a bare header is a valid *empty* snapshot
    EXPECT_THROW(
        SnapshotReader::parse(std::span(bytes_.data(), len)), SnapshotError)
        << "prefix length " << len;
  }
  // The header alone parses (empty section list) but can never restore:
  // the engine requires its meta section.
  writeBytes({bytes_.begin(), bytes_.begin() + 8});
  DetectionEngine eng(EngineConfig{1, 1, 4, 8, 64}, nullptr);
  EXPECT_THROW(eng.restoreFrom(path_), SnapshotError);
}

TEST_F(SnapshotFuzzTest, MissingFileIsCleanError) {
  EXPECT_THROW(SnapshotReader::readFile(path_ + ".does-not-exist"),
               SnapshotError);
}

TEST_F(SnapshotFuzzTest, WrongMagicAndVersion) {
  auto bad = bytes_;
  bad[0] ^= 0xFF;
  EXPECT_THROW(SnapshotReader::parse(bad), SnapshotError);
  bad = bytes_;
  bad[4] = 0x7F;  // format version far in the future
  EXPECT_THROW(SnapshotReader::parse(bad), SnapshotError);
}

TEST_F(SnapshotFuzzTest, EveryTruncationFailsCleanly) {
  // Sections are self-delimiting, so a truncation that lands exactly on a
  // section boundary is a structurally valid shorter snapshot (dropped
  // trailing sections surface at restore as missing-stream/fresh-start,
  // never as misread bytes). Every other prefix must throw from the
  // framing layer: a partial header, a partial section header, or a
  // payload shorter than its length field.
  std::vector<bool> isBoundary(bytes_.size() + 1, false);
  isBoundary[8] = true;  // bare file header == valid empty snapshot
  {
    const SnapshotReader reader = SnapshotReader::parse(bytes_);
    std::size_t offset = 8;
    for (const auto& section : reader.sections()) {
      offset += 16 + section.payload.size();
      isBoundary[offset] = true;
    }
  }
  for (std::size_t len = 0; len < bytes_.size(); ++len) {
    if (isBoundary[len]) {
      EXPECT_NO_THROW(SnapshotReader::parse(std::span(bytes_.data(), len)));
      restoreMutated({bytes_.begin(),
                      bytes_.begin() + static_cast<std::ptrdiff_t>(len)});
      continue;
    }
    EXPECT_THROW(SnapshotReader::parse(std::span(bytes_.data(), len)),
                 SnapshotError)
        << "truncated to " << len << " of " << bytes_.size();
  }
  // Trailing garbage shorter than a section header is also structural.
  auto padded = bytes_;
  padded.push_back(0xAA);
  EXPECT_THROW(SnapshotReader::parse(padded), SnapshotError);
}

TEST_F(SnapshotFuzzTest, EveryByteFlipFailsCleanlyOrRestores) {
  // Flip one byte at every offset. Payload flips are caught by the CRC;
  // header/frame flips by magic/version/bounds checks. Either way the
  // full restore path must stay exception-clean (run under ASan in CI to
  // prove no over-read).
  for (std::size_t pos = 0; pos < bytes_.size(); ++pos) {
    auto mutated = bytes_;
    mutated[pos] ^= 0x40;
    restoreMutated(mutated);
  }
}

TEST_F(SnapshotFuzzTest, RandomGarbageNeverCrashes) {
  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> garbage(rng() % 512);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    // (>= 32 so the valid-header variant always has leftover bytes that
    // must fail section parsing — exactly 8 would be a valid empty file.)
    if (trial % 3 == 0 && garbage.size() >= 32) {
      // Give a third of the trials a valid header so the section parser
      // itself gets fuzzed, not just the magic check.
      garbage[0] = 0x54; garbage[1] = 0x53; garbage[2] = 0x4E; garbage[3] = 0x50;
      garbage[4] = persist::kSnapshotFormatVersion;
      garbage[5] = 0; garbage[6] = 0; garbage[7] = 0;
    }
    EXPECT_THROW(SnapshotReader::parse(garbage), SnapshotError);
  }
}

TEST_F(SnapshotFuzzTest, HugeCountsAreRejectedBeforeAllocation) {
  // A structurally valid payload whose counts are absurd must be rejected
  // by the count/boundedCount validation, not trusted into resize().
  Serializer s;
  s.u64(std::size_t{1} << 62);  // ring capacity
  s.u64(0);
  RingSeries ring;
  Deserializer in(s.data());
  EXPECT_THROW(ring.loadState(in), SnapshotError);

  Serializer sizeLie;
  sizeLie.u64(8);   // capacity
  sizeLie.u64(16);  // size > capacity
  for (int i = 0; i < 16; ++i) sizeLie.f64(1.0);
  Deserializer in2(sizeLie.data());
  EXPECT_THROW(ring.loadState(in2), SnapshotError);
}

TEST_F(SnapshotFuzzTest, SemanticValidationThrowsNotAborts) {
  // Out-of-range EWMA alpha.
  {
    Serializer s;
    s.u8(kEwmaStateTag);
    s.f64(7.5);  // alpha > 1
    s.f64(0.0);
    s.boolean(false);
    EwmaForecaster model(0.5);
    Deserializer in(s.data());
    EXPECT_THROW(model.loadState(in), SnapshotError);
  }
  // Holt-Winters cursor outside its period.
  {
    Serializer s;
    s.u8(kHoltWintersStateTag);
    s.f64(0.5);
    s.f64(0.1);
    s.f64(0.3);
    s.u64(1);   // one season
    s.u64(4);   // period
    s.f64(1.0); // weight
    s.u64(9);   // cursor >= period
    for (int i = 0; i < 4; ++i) s.f64(0.0);
    s.f64(0.0);
    s.f64(0.0);
    s.boolean(true);
    s.u64(0);
    HoltWintersForecaster model({0.5, 0.1, 0.3}, {});
    Deserializer in(s.data());
    EXPECT_THROW(model.loadState(in), SnapshotError);
  }

  // ADA states that decode field by field but break an invariant the
  // adaptation relies on. Each would otherwise load and then abort (a
  // failed precondition in a merge) or index out of bounds in the next
  // step.
  {
    const SavedAda ewma(std::make_shared<EwmaFactory>(0.5));
    const auto& factory = *ewma.cfg.forecasterFactory;
    // The unmodified state re-encodes byte for byte and restores.
    AdaPayload p = AdaPayload::decode(ewma.state, factory);
    ASSERT_EQ(p.encode(), ewma.state);
    ASSERT_GE(p.holders.size(), 2u);
    EXPECT_NO_THROW(ewma.loadAndStep(ewma.state));

    // One holder ring shorter than the rest.
    p = AdaPayload::decode(ewma.state, factory);
    {
      AdaSeries& s = p.holders.back();
      const std::vector<double> values = s.actual.toVector();
      s.actual = RingSeries(s.actual.capacity());
      for (std::size_t i = 1; i < values.size(); ++i) s.actual.push(values[i]);
    }
    EXPECT_THROW(ewma.loadAndStep(p.encode()), SnapshotError);

    // A holder whose EWMA alpha differs from the others'.
    p = AdaPayload::decode(ewma.state, factory);
    {
      auto other = std::make_unique<EwmaForecaster>(0.25);
      other->update(p.holders.back().model->forecast());
      p.holders.back().model = std::move(other);
    }
    EXPECT_THROW(ewma.loadAndStep(p.encode()), SnapshotError);

    // Series state in a detector that claims to be still bootstrapping.
    p = AdaPayload::decode(ewma.state, factory);
    p.bootstrapped = false;
    EXPECT_THROW(ewma.loadAndStep(p.encode()), SnapshotError);

    // The root holds no series.
    p = AdaPayload::decode(ewma.state, factory);
    ASSERT_EQ(p.holders.front().node, ewma.tree.root());
    p.holders.erase(p.holders.begin());
    EXPECT_THROW(ewma.loadAndStep(p.encode()), SnapshotError);

    // A reference node whose parent has no reference series.
    p = AdaPayload::decode(ewma.state, factory);
    {
      const auto& tree = ewma.tree;
      const auto deep = std::find_if(
          p.refs.begin(), p.refs.end(), [&tree](const AdaSeries& s) {
            return s.node != tree.root() &&
                   tree.parent(s.node) != tree.root();
          });
      ASSERT_NE(deep, p.refs.end());
      const NodeId parent = tree.parent(deep->node);
      std::erase_if(p.refs, [parent](const AdaSeries& s) {
        return s.node == parent;
      });
    }
    EXPECT_THROW(ewma.loadAndStep(p.encode()), SnapshotError);
  }
  {
    const SavedAda hw(std::make_shared<HoltWintersFactory>(
        HoltWintersParams{0.5, 0.1, 0.3}, std::vector<SeasonSpec>{{4, 1.0}}));
    const auto& factory = *hw.cfg.forecasterFactory;
    EXPECT_NO_THROW(hw.loadAndStep(hw.state));
    // A Holt-Winters holder with a different season.
    AdaPayload p = AdaPayload::decode(hw.state, factory);
    {
      auto other = std::make_unique<HoltWintersForecaster>(
          HoltWintersParams{0.5, 0.1, 0.3}, std::vector<SeasonSpec>{{3, 1.0}});
      for (double v : p.holders.back().actual.toVector()) other->update(v);
      p.holders.back().model = std::move(other);
    }
    EXPECT_THROW(hw.loadAndStep(p.encode()), SnapshotError);
  }

  // A bootstrapped ADA state loaded into a detector that has no
  // forecaster factory yet (a derived one arrives only as the window
  // fills): the series models cannot be rebuilt.
  {
    const SavedAda ewma(std::make_shared<EwmaFactory>(0.5));
    DetectorConfig cfg = ewma.cfg;
    cfg.forecasterFactory = nullptr;
    AdaDetector ada(ewma.tree, cfg);
    Deserializer in(ewma.state);
    EXPECT_THROW(ada.loadState(in), SnapshotError);
  }

  // Pipeline snapshots whose factory section (present once the window has
  // filled) or warm-up root counts disagree with the detector's window,
  // for a supplied and for a derived factory.
  const Hierarchy tree = HierarchyBuilder::balanced({3, 2});
  for (const bool derived : {false, true}) {
    PipelineConfig cfg;
    cfg.delta = 900;
    cfg.detector.theta = 4.0;
    cfg.detector.windowLength = 6;
    if (!derived) {
      cfg.detector.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
    }
    const PipelineParts warming(savedPipeline(tree, cfg, 3));
    const PipelineParts warmer(savedPipeline(tree, cfg, 4));
    const PipelineParts warm(savedPipeline(tree, cfg, 9));
    ASSERT_EQ(warming.factory.size(), 1u);  // absent during warm-up
    ASSERT_GT(warm.factory.size(), 1u);
    const auto load = [&](const std::vector<std::uint8_t>& bytes) {
      TiresiasPipeline pipeline(borrowHierarchy(tree), cfg);
      Deserializer in(bytes);
      pipeline.loadState(in);
    };
    // The parts re-join into loadable snapshots.
    EXPECT_NO_THROW(load(PipelineParts::join(warming, warming, warming)));
    EXPECT_NO_THROW(load(PipelineParts::join(warm, warm, warm)));
    // A factory section on a detector still warming up.
    EXPECT_THROW(load(PipelineParts::join(warming, warm, warming)),
                 SnapshotError);
    // No factory section on a warm detector.
    EXPECT_THROW(load(PipelineParts::join(warm, warming, warm)),
                 SnapshotError);
    // Root counts for three units beside a detector holding four.
    EXPECT_THROW(load(PipelineParts::join(warming, warming, warmer)),
                 SnapshotError);
  }
}

}  // namespace
}  // namespace tiresias
