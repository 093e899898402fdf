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

void TiresiasPipeline::ensureWorkspace() {
  if (workspace_) return;
  workspace_ = std::make_shared<DetectWorkspace>();
  workspace_->bind(hierarchy_->size());
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
  warmup_.clear();
  warmup_.shrink_to_fit();
  warmupRootCounts_.clear();
  warmupRootCounts_.shrink_to_fit();
  derivedSeasons_.clear();
  derivedSeasons_.shrink_to_fit();
  factoryDerived_ = false;
  activeFactory_.reset();
  // Drop the loaner workspace reference (pooling) or the private one
  // (standalone): a hibernated stream holds no scratch.
  workspace_.reset();
  lastStageSeconds_[0] = lastStageSeconds_[1] = lastStageSeconds_[2] = 0.0;
}

void TiresiasPipeline::buildDetector(const std::vector<double>& rootSeries,
                                     RunSummary& summary) {
  DetectorConfig cfg = config_.detector;
  factoryDerived_ = !cfg.forecasterFactory;
  if (!cfg.forecasterFactory) {
    // Step 3: offline seasonality analysis on the first window's root
    // counts, as the paper does ("we perform the data seasonality analysis
    // ... only in the first time instance"). Windows too short or too flat
    // for spectral analysis degrade to a trend-only model.
    std::vector<SeasonSpec> seasons;
    const bool flat =
        rootSeries.empty() ||
        std::all_of(rootSeries.begin(), rootSeries.end(),
                    [&](double v) { return v == rootSeries.front(); });
    if (rootSeries.size() >= 16 && !flat) {
      SeasonalityOptions opts;
      opts.candidatePeriods = config_.candidatePeriods;
      opts.maxSeasons = config_.maxSeasons;
      seasons = analyzeSeasonality(rootSeries, opts).seasons;
    }
    summary.seasons = seasons;
    derivedSeasons_ = seasons;
    cfg.forecasterFactory = std::make_shared<HoltWintersFactory>(
        config_.hwParams, std::move(seasons));
  }
  activeFactory_ = cfg.forecasterFactory;
  ensureWorkspace();
  cfg.workspace = workspace_;
  if (config_.useAda) {
    detector_ = std::make_unique<AdaDetector>(*hierarchy_, cfg);
  } else {
    detector_ = std::make_unique<StaDetector>(*hierarchy_, cfg);
  }
}

void TiresiasPipeline::processUnit(const TimeUnitBatch& batch,
                                   const ResultCallback& onResult,
                                   RunSummary& summary) {
  auto deliver = [&](const TimeUnitBatch& b) {
    std::optional<InstanceResult> result;
    {
      obs::StageSpan observe(metrics_, config_.useAda
                                           ? obs::Stage::kAdaObserve
                                           : obs::Stage::kStaObserve);
      result = detector_->step(b);
    }
    if (metrics_) {
      // Bridge the detector's Table-III stage timers into the per-stage
      // histograms: record this unit's delta of each cumulative total.
      static constexpr const char* kNames[3] = {
          kStageUpdateHierarchies, kStageCreateSeries, kStageDetect};
      static constexpr obs::Stage kStages[3] = {
          obs::Stage::kUpdateHierarchies, obs::Stage::kCreateSeries,
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
  };

  ++summary.unitsProcessed;
  summary.recordsProcessed += batch.records.size();
  nextStart_ = unitStart(batch.unit + 1, config_.delta);
  if (!detector_) {
    // Warm-up spans calls: buffer until one full window of root counts is
    // available for the Step 3 seasonality analysis.
    warmupRootCounts_.push_back(static_cast<double>(batch.records.size()));
    warmup_.push_back(batch);
    if (warmup_.size() < config_.detector.windowLength) {
      summary.warmupUnitsBuffered = warmup_.size();
      return;
    }
    buildDetector(warmupRootCounts_, summary);
    for (const auto& buffered : warmup_) deliver(buffered);
    warmup_.clear();
    warmup_.shrink_to_fit();
    warmupRootCounts_.clear();
    summary.warmupUnitsBuffered = 0;
    return;
  }
  deliver(batch);
  summary.warmupUnitsBuffered = 0;
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
  out.u64(warmup_.size());
  for (const auto& batch : warmup_) {
    out.i64(batch.unit);
    out.u64(batch.records.size());
    for (const auto& r : batch.records) {
      out.u32(r.category);
      out.i64(r.time);
    }
  }
  out.boolean(detector_ != nullptr);
  if (detector_) {
    out.boolean(factoryDerived_);
    out.u64(derivedSeasons_.size());
    for (const auto& s : derivedSeasons_) {
      out.u64(s.period);
      out.f64(s.weight);
    }
    // Factory fingerprint: the serialized state of one fresh forecaster.
    // Factories are opaque, but a fresh instance's state captures their
    // parameters (EWMA alpha, Holt-Winters params + seasons), so a
    // restore under a differently-parameterized factory fails loudly
    // instead of mixing semantics between restored and newly promoted
    // heavy hitters.
    persist::Serializer probe;
    activeFactory_->make()->saveState(probe);
    out.str(std::string_view(
        reinterpret_cast<const char*>(probe.data().data()), probe.size()));
    detector_->saveState(out);
  }
}

void TiresiasPipeline::loadState(persist::Deserializer& in) {
  using persist::Deserializer;
  Deserializer::require(in.i64() == config_.delta,
                        "pipeline snapshot: timeunit size mismatch");
  Deserializer::require(in.u64() == config_.detector.windowLength,
                        "pipeline snapshot: window length mismatch");
  Deserializer::require(in.boolean() == config_.useAda,
                        "pipeline snapshot: detector algorithm mismatch");
  Deserializer::require(in.f64() == config_.detector.theta,
                        "pipeline snapshot: theta mismatch");

  const Timestamp nextStart = in.i64();
  std::size_t n = in.count(sizeof(double));
  Deserializer::require(n <= config_.detector.windowLength,
                        "pipeline snapshot: warm-up longer than the window");
  std::vector<double> warmupRootCounts(n);
  in.f64s(warmupRootCounts);
  n = in.count(sizeof(std::int64_t) + sizeof(std::uint64_t));
  Deserializer::require(n == warmupRootCounts.size(),
                        "pipeline snapshot: warm-up buffers disagree");
  std::vector<TimeUnitBatch> warmup(n);
  for (auto& batch : warmup) {
    batch.unit = in.i64();
    const std::size_t records =
        in.count(sizeof(std::uint32_t) + sizeof(std::int64_t));
    batch.records.resize(records);
    for (auto& r : batch.records) {
      r.category = in.u32();
      Deserializer::require(r.category < hierarchy_->size(),
                            "snapshot: node id outside hierarchy");
      r.time = in.i64();
    }
  }
  const bool hasDetector = in.boolean();
  bool factoryDerived = false;
  std::vector<SeasonSpec> derivedSeasons;
  std::unique_ptr<Detector> detector;
  std::shared_ptr<const ForecasterFactory> factory;
  if (hasDetector) {
    factoryDerived = in.boolean();
    const std::size_t seasons =
        in.count(sizeof(std::uint64_t) + sizeof(double));
    derivedSeasons.resize(seasons);
    for (auto& s : derivedSeasons) {
      s.period = in.boundedCount(persist::kMaxUnbackedCount);
      Deserializer::require(s.period >= 2,
                            "pipeline snapshot: seasonal period < 2");
      s.weight = in.f64();
    }
    const std::string savedProbe = in.str();
    DetectorConfig cfg = config_.detector;
    ensureWorkspace();
    cfg.workspace = workspace_;
    if (factoryDerived) {
      cfg.forecasterFactory = std::make_shared<HoltWintersFactory>(
          config_.hwParams, derivedSeasons);
    } else {
      Deserializer::require(
          cfg.forecasterFactory != nullptr,
          "pipeline snapshot: checkpoint used the caller's forecaster "
          "factory but this pipeline was configured without one");
    }
    // Compare factory fingerprints (a fresh instance's serialized state):
    // a differently-parameterized factory would hand newly promoted heavy
    // hitters models that disagree with the restored ones.
    persist::Serializer probe;
    cfg.forecasterFactory->make()->saveState(probe);
    Deserializer::require(
        savedProbe.size() == probe.size() &&
            std::equal(probe.data().begin(), probe.data().end(),
                       reinterpret_cast<const std::uint8_t*>(
                           savedProbe.data())),
        "pipeline snapshot: forecaster factory configuration differs from "
        "the checkpoint");
    if (config_.useAda) {
      detector = std::make_unique<AdaDetector>(*hierarchy_, cfg);
    } else {
      detector = std::make_unique<StaDetector>(*hierarchy_, cfg);
    }
    detector->loadState(in);
    factory = cfg.forecasterFactory;
  }

  nextStart_ = nextStart;
  warmupRootCounts_ = std::move(warmupRootCounts);
  warmup_ = std::move(warmup);
  factoryDerived_ = factoryDerived;
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
  summary.warmupUnitsBuffered = warmup_.size();
  return summary;
}

}  // namespace tiresias
