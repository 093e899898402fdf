#include "core/pipeline.h"

#include <algorithm>

#include "common/expect.h"

namespace tiresias {

TiresiasPipeline::TiresiasPipeline(std::shared_ptr<const Hierarchy> hierarchy,
                                   PipelineConfig config)
    : hierarchy_(std::move(hierarchy)), config_(std::move(config)) {
  TIRESIAS_EXPECT(hierarchy_ != nullptr, "pipeline needs a hierarchy");
  TIRESIAS_EXPECT(config_.detector.windowLength >= 2,
                  "window length must be >= 2");
  TIRESIAS_EXPECT(config_.delta > 0, "delta must be positive");
  nextStart_ = config_.startTime;
  // No workspace yet: a freshly registered stream costs its configuration,
  // nothing more. The engine attaches a pooled workspace per advance;
  // standalone pipelines create a private one when the detector is built.
}

void TiresiasPipeline::attachWorkspace(
    std::shared_ptr<DetectWorkspace> workspace) {
  TIRESIAS_EXPECT(workspace != nullptr, "attachWorkspace(null)");
  // Rebind invalidates whatever the previous tenant staged (same-size
  // rebinds bump generations; size changes reallocate).
  workspace->bind(hierarchy_->size());
  if (workspace_ != workspace) {
    workspace_ = std::move(workspace);
    if (detector_) detector_->bindWorkspace(workspace_);
  }
}

void TiresiasPipeline::hibernate(persist::Serializer& out) {
  saveState(out);
  // Reset to a shell: everything saveState captured is released; the
  // configuration and hierarchy handle stay, and nextStart_ is deliberately
  // preserved — the engine's ingest side reads resumeTime() from the shell
  // to place the batcher, and a wake() restores the identical value.
  detector_.reset();
  warmupRootCounts_ = {};
  derivedSeasons_ = {};
  activeFactory_.reset();
  // Drop the loaner workspace reference (pooling) or the private one
  // (standalone): a hibernated stream holds no scratch.
  workspace_.reset();
  lastStageSeconds_[0] = lastStageSeconds_[1] = lastStageSeconds_[2] = 0.0;
}

std::unique_ptr<Detector> TiresiasPipeline::makeDetector() {
  DetectorConfig cfg = config_.detector;
  // Standalone pipelines get a private workspace here (the detector binds
  // it); the engine attaches a pooled one first.
  if (!workspace_) workspace_ = std::make_shared<DetectWorkspace>();
  cfg.workspace = workspace_;
  if (config_.useAda) {
    return std::make_unique<AdaDetector>(*hierarchy_, std::move(cfg));
  }
  return std::make_unique<StaDetector>(*hierarchy_, std::move(cfg));
}

namespace {

/// The caller's forecaster factory, or a Holt-Winters one over `seasons`
/// when the pipeline derives it.
std::shared_ptr<const ForecasterFactory> factoryFor(
    const PipelineConfig& config, std::vector<SeasonSpec> seasons) {
  if (config.detector.forecasterFactory) {
    return config.detector.forecasterFactory;
  }
  return std::make_shared<HoltWintersFactory>(config.hwParams,
                                              std::move(seasons));
}

/// Step 3: offline seasonality analysis on the first window's root counts,
/// as the paper does ("we perform the data seasonality analysis ... only
/// in the first time instance"). Windows too short or too flat for
/// spectral analysis degrade to a trend-only model.
std::vector<SeasonSpec> firstWindowSeasons(const PipelineConfig& config,
                                           const std::vector<double>& roots) {
  if (roots.size() < 16 ||
      std::all_of(roots.begin(), roots.end(),
                  [&](double v) { return v == roots.front(); })) {
    return {};
  }
  SeasonalityOptions opts;
  opts.candidatePeriods = config.candidatePeriods;
  opts.maxSeasons = config.maxSeasons;
  return analyzeSeasonality(roots, opts).seasons;
}

/// Factory fingerprint: the serialized state of one fresh forecaster.
/// Factories are opaque, but a fresh instance's state captures their
/// parameters (EWMA alpha, Holt-Winters params + seasons), so a restore
/// under a differently-parameterized factory fails loudly instead of
/// mixing semantics between restored and newly promoted heavy hitters.
std::vector<std::uint8_t> factoryProbe(const ForecasterFactory& factory) {
  persist::Serializer probe;
  factory.make()->saveState(probe);
  return probe.data();
}

}  // namespace

void TiresiasPipeline::processUnit(const TimeUnitBatch& batch,
                                   const ResultCallback& onResult,
                                   RunSummary& summary) {
  ++summary.unitsProcessed;
  summary.recordsProcessed += batch.records.size();
  nextStart_ = unitStart(batch.unit + 1, config_.delta);
  if (!detector_) detector_ = makeDetector();
  if (!activeFactory_) {
    // Warm-up: the detector holds the window's units; Step 3 needs only
    // their root counts. The forecaster factory goes in just before the
    // step that fills the window, the first one that uses it.
    warmupRootCounts_.push_back(static_cast<double>(batch.records.size()));
    if (warmupRootCounts_.size() == config_.detector.windowLength) {
      if (!config_.detector.forecasterFactory) {
        summary.seasons = derivedSeasons_ =
            firstWindowSeasons(config_, warmupRootCounts_);
      }
      activeFactory_ = factoryFor(config_, derivedSeasons_);
      detector_->setForecasterFactory(activeFactory_);
      warmupRootCounts_ = {};
    }
  }
  summary.warmupUnitsBuffered = warmupRootCounts_.size();

  std::optional<InstanceResult> result;
  {
    obs::StageSpan observe(metrics_, config_.useAda ? obs::Stage::kAdaObserve
                                                    : obs::Stage::kStaObserve);
    result = detector_->step(batch);
  }
  if (metrics_) {
    // Bridge the detector's Table-III stage timers into the per-stage
    // histograms: record this unit's delta of each cumulative total.
    static constexpr const char* kNames[3] = {
        kStageUpdateHierarchies, kStageCreateSeries, kStageDetect};
    static constexpr obs::Stage kStages[3] = {obs::Stage::kUpdateHierarchies,
                                              obs::Stage::kCreateSeries,
                                              obs::Stage::kDetectAnomalies};
    const StageTimer& timer = detector_->stages();
    for (int i = 0; i < 3; ++i) {
      const double total = timer.totalSeconds(kNames[i]);
      const double delta = std::max(0.0, total - lastStageSeconds_[i]);
      metrics_->recordLatencyNs(kStages[i],
                                static_cast<std::uint64_t>(delta * 1e9));
      lastStageSeconds_[i] = total;
    }
  }
  if (result) {
    ++summary.instancesDetected;
    summary.anomaliesReported += result->anomalies.size();
    if (onResult) onResult(*result);
  }
}

void TiresiasPipeline::saveState(persist::Serializer& out) const {
  // Configuration fingerprint: a snapshot restored into a pipeline set up
  // differently must fail loudly, not resume with mixed semantics.
  out.i64(config_.delta);
  out.u64(config_.detector.windowLength);
  out.boolean(config_.useAda);
  out.f64(config_.detector.theta);

  out.i64(nextStart_);
  out.u64(warmupRootCounts_.size());
  out.f64s(warmupRootCounts_);
  // The factory section: present once the window has filled.
  out.boolean(activeFactory_ != nullptr);
  if (activeFactory_) {
    out.boolean(!config_.detector.forecasterFactory);  // derived
    out.u64(derivedSeasons_.size());
    for (const auto& s : derivedSeasons_) {
      out.u64(s.period);
      out.f64(s.weight);
    }
    const std::vector<std::uint8_t> probe = factoryProbe(*activeFactory_);
    out.str(std::string_view(reinterpret_cast<const char*>(probe.data()),
                             probe.size()));
  }
  out.boolean(detector_ != nullptr);
  if (detector_) detector_->saveState(out);
}

void TiresiasPipeline::loadState(persist::Deserializer& in) {
  using persist::Deserializer;
  const std::size_t window = config_.detector.windowLength;
  Deserializer::require(in.i64() == config_.delta,
                        "pipeline snapshot: timeunit size mismatch");
  Deserializer::require(in.u64() == window,
                        "pipeline snapshot: window length mismatch");
  Deserializer::require(in.boolean() == config_.useAda,
                        "pipeline snapshot: detector algorithm mismatch");
  Deserializer::require(in.f64() == config_.detector.theta,
                        "pipeline snapshot: theta mismatch");

  const Timestamp nextStart = in.i64();
  const std::size_t n = in.count(sizeof(double));
  Deserializer::require(n < window,
                        "pipeline snapshot: warm-up as long as the window");
  std::vector<double> warmupRootCounts(n);
  in.f64s(warmupRootCounts);

  std::vector<SeasonSpec> derivedSeasons;
  std::shared_ptr<const ForecasterFactory> factory;
  if (in.boolean()) {
    Deserializer::require(in.boolean() == !config_.detector.forecasterFactory,
                          "pipeline snapshot: checkpoint and pipeline "
                          "disagree on who supplies the forecaster factory");
    derivedSeasons.resize(in.count(sizeof(std::uint64_t) + sizeof(double)));
    for (auto& s : derivedSeasons) {
      s.period = in.boundedCount(persist::kMaxUnbackedCount);
      Deserializer::require(s.period >= 2,
                            "pipeline snapshot: seasonal period < 2");
      s.weight = in.f64();
    }
    const std::string savedProbe = in.str();
    factory = factoryFor(config_, derivedSeasons);
    // A differently-parameterized factory would hand newly promoted heavy
    // hitters models that disagree with the restored ones.
    const std::vector<std::uint8_t> probe = factoryProbe(*factory);
    Deserializer::require(
        savedProbe.size() == probe.size() &&
            std::equal(probe.begin(), probe.end(),
                       reinterpret_cast<const std::uint8_t*>(
                           savedProbe.data())),
        "pipeline snapshot: forecaster factory configuration differs from "
        "the checkpoint");
  }

  std::unique_ptr<Detector> detector;
  if (in.boolean()) {
    detector = makeDetector();
    if (factory) detector->setForecasterFactory(factory);
    detector->loadState(in);
    // The factory goes in as the window fills, and the root counts stop
    // there: both must agree with how far the detector's window got.
    const std::size_t fill = detector->windowFill();
    Deserializer::require((factory != nullptr) == (fill == window),
                          "pipeline snapshot: forecaster factory disagrees "
                          "with the detector's warm-up state");
    Deserializer::require(factory != nullptr || fill == n,
                          "pipeline snapshot: warm-up root counts disagree "
                          "with the detector's window");
  } else {
    Deserializer::require(!factory && n == 0,
                          "pipeline snapshot: warm-up state but no detector");
  }

  nextStart_ = nextStart;
  warmupRootCounts_ = std::move(warmupRootCounts);
  derivedSeasons_ = std::move(derivedSeasons);
  detector_ = std::move(detector);
  activeFactory_ = std::move(factory);
  // The restored detector starts with a fresh StageTimer; the metrics
  // bridge must delta against zero again.
  lastStageSeconds_[0] = lastStageSeconds_[1] = lastStageSeconds_[2] = 0.0;
}

RunSummary TiresiasPipeline::run(RecordSource& source,
                                 const ResultCallback& onResult) {
  RunSummary summary;
  const std::size_t skippedBefore = source.skippedRecords();
  TimeUnitBatcher batcher(source, config_.delta, nextStart_);
  TimeUnitBatch batch;  // reused across units
  while (batcher.next(batch)) {
    processUnit(batch, onResult, summary);
  }
  summary.junkRowsSkipped = source.skippedRecords() - skippedBefore;
  summary.warmupUnitsBuffered = warmupRootCounts_.size();
  return summary;
}

}  // namespace tiresias
