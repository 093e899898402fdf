// TiresiasPipeline — the back end of Fig 3 wired end-to-end:
// Step 1 timeunit batching, Step 2 heavy-hitter detection + time series,
// Step 3 offline seasonality analysis on the first window, Steps 4-5
// forecasting, anomaly detection and reporting, Step 6 streaming until the
// source is exhausted.
//
// The pipeline owns the detector, builds it on the first unit and steps it
// on every unit; the detector alone holds the first window while it fills,
// and the pipeline keeps only that window's root counts for Step 3.
// Callers receive every InstanceResult via a callback
// (report::AnomalyStore provides a convenient sink).
#pragma once

#include <functional>
#include <memory>

#include "analysis/seasonality.h"
#include "core/ada.h"
#include "core/sta.h"
#include "obs/metrics.h"

namespace tiresias {

struct PipelineConfig {
  /// Detector configuration. If forecasterFactory is null, the pipeline
  /// builds a Holt-Winters factory from the seasonality analysis of the
  /// first window (Step 3); otherwise the given factory is used as-is.
  DetectorConfig detector;
  /// Timeunit size Δ (seconds). Paper default: 15 minutes.
  Duration delta = 15 * kMinute;
  /// First timestamp of interest (records before it are dropped).
  Timestamp startTime = 0;
  /// Use ADA (true) or the STA strawman (false).
  bool useAda = true;
  /// Holt-Winters smoothing for the derived factory.
  HoltWintersParams hwParams;
  /// Candidate seasonal periods in timeunits for Step 3 (e.g. {96, 672}
  /// for day/week at 15-minute units). Empty = automatic peak picking.
  std::vector<std::size_t> candidatePeriods;
  std::size_t maxSeasons = 2;
};

struct RunSummary {
  std::size_t unitsProcessed = 0;
  std::size_t recordsProcessed = 0;
  std::size_t instancesDetected = 0;
  std::size_t anomaliesReported = 0;
  /// Rows the source consumed but skipped (junk lines, unknown categories)
  /// during this run — RecordSource::skippedRecords() delta.
  std::size_t junkRowsSkipped = 0;
  /// Units of the first window seen so far while it is still filling
  /// (the detector holds them; Step 3 has not run yet), after the last
  /// processed unit. Non-zero at end of stream means the stream was
  /// shorter than the detector window: every unit was absorbed silently
  /// and no detection instance was ever produced.
  std::size_t warmupUnitsBuffered = 0;
  /// The seasonality chosen in Step 3 (empty when a factory was supplied).
  std::vector<SeasonSpec> seasons;
};

class TiresiasPipeline {
 public:
  using ResultCallback = std::function<void(const InstanceResult&)>;

  /// The pipeline shares ownership of its (immutable) hierarchy, so a
  /// fleet of streams over one topology keeps a single BFS-ordered
  /// hierarchy alive between them and no caller has to outlive anyone.
  TiresiasPipeline(std::shared_ptr<const Hierarchy> hierarchy,
                   PipelineConfig config);

  /// Stream the whole source through the detector. The callback fires once
  /// per detection instance (after the warm-up window fills). run() may be
  /// called repeatedly with successive sources (live operation, Step 6);
  /// batching resumes after the last processed timeunit.
  RunSummary run(RecordSource& source, const ResultCallback& onResult);

  /// Feed one already-batched timeunit (engine ingestion path). Units must
  /// arrive in consecutive order, exactly as a TimeUnitBatcher over the
  /// concatenated record stream would emit them; run() is expressed in
  /// terms of this, so chunked and whole-source processing are
  /// bit-identical. The batch is only read (callers reuse their buffers):
  /// the detector is built on the first unit and steps every unit as it
  /// arrives, warm-up included. Counters accumulate into `summary`.
  void processUnit(const TimeUnitBatch& batch, const ResultCallback& onResult,
                   RunSummary& summary);

  /// The live detector (valid during/after run), e.g. for memory stats.
  Detector* detector() { return detector_.get(); }
  const Detector* detector() const { return detector_.get(); }

  const PipelineConfig& config() const { return config_; }

  /// The shared hierarchy handle (never null).
  const std::shared_ptr<const Hierarchy>& hierarchyHandle() const {
    return hierarchy_;
  }
  const Hierarchy& hierarchy() const { return *hierarchy_; }

  /// Where processing resumes: the start timestamp of the next unit this
  /// pipeline expects (== config().startTime until the first unit). A
  /// restored pipeline re-fed its source from the beginning skips
  /// everything before this point. Survives hibernate()/wake() (the
  /// engine's ingest side reads it from a possibly-hibernated shell).
  Timestamp resumeTime() const { return nextStart_; }

  /// Resident bytes of the detection workspace currently attached to this
  /// pipeline (0 until a detector is built or a workspace is attached).
  /// Under engine pooling the attached workspace is shared loaner scratch,
  /// not stream-owned memory.
  std::size_t workspaceBytes() const {
    return workspace_ ? workspace_->bytes() : 0;
  }

  /// Lend this pipeline a detection workspace (engine pooling: one
  /// workspace per worker, attached to the stream being advanced). The
  /// workspace is (re)bound to this pipeline's hierarchy — an idempotent
  /// sizing plus a generation bump, so whatever the previous tenant left
  /// behind reads as invalidated — and handed to the live detector. Call
  /// only between units. Idempotent; attaching the already-attached
  /// workspace still invalidates it (another stream may have used it in
  /// between).
  void attachWorkspace(std::shared_ptr<DetectWorkspace> workspace);

  /// Snapshot the pipeline's full state into `out` (the exact saveState
  /// bytes) and reset the pipeline to an empty shell: detector, warm-up
  /// root counts and factory state are released; only the configuration, the
  /// hierarchy handle and resumeTime() remain resident. wake() (loadState
  /// over the emitted bytes) restores it bit-identically.
  void hibernate(persist::Serializer& out);

  /// Restore a hibernated pipeline (alias of loadState, named for the
  /// paging path). Attach a workspace first when pooling, or the rebuilt
  /// detector allocates a private one.
  void wake(persist::Deserializer& in) { loadState(in); }

  /// True when the pipeline holds live per-stream state worth paging out
  /// (a detector, built on the first unit).
  bool holdsState() const { return detector_ != nullptr; }

  /// Attach a metrics registry (not owned; null detaches). processUnit
  /// then records a per-unit observe span (STA or ADA) and bridges the
  /// detector's Table-III stage timers into per-stage latency histograms.
  /// Call only between units (the engine binds it before start()).
  void bindMetrics(obs::MetricsRegistry* registry) { metrics_ = registry; }

  /// Snapshot the pipeline: batching position, the warm-up root counts,
  /// the Step-3 seasonality decision (once the window has filled), and
  /// (when built) the detector state.
  void saveState(persist::Serializer& out) const;
  /// Restore onto a pipeline constructed with the same configuration
  /// (delta, window length, algorithm, theta are fingerprinted). When the
  /// snapshot's forecaster factory was derived from Step-3 seasonality
  /// analysis, an identical factory is rebuilt from the persisted seasons.
  /// Throws persist::SnapshotError on mismatch or malformed input, and
  /// when the factory section or the root counts disagree with how far
  /// the detector's window has filled.
  void loadState(persist::Deserializer& in);

 private:
  /// The one construction site of the detector, with the configured
  /// factory (null while a derived one waits for the first window).
  std::unique_ptr<Detector> makeDetector();

  std::shared_ptr<const Hierarchy> hierarchy_;
  PipelineConfig config_;
  /// The detection workspace handed to every detector this pipeline
  /// builds. Null until needed: under engine pooling this is a loaner
  /// owned by the worker pool (attachWorkspace); standalone pipelines
  /// lazily create a private one when the detector is built. Nothing in
  /// it survives a unit, so rebinding between streams is safe.
  std::shared_ptr<DetectWorkspace> workspace_;
  std::unique_ptr<Detector> detector_;
  /// Where the next run() resumes batching (advances past processed units).
  Timestamp nextStart_ = 0;
  /// Root counts of the first window's units while it fills (Step 3's
  /// input); released when the window fills.
  std::vector<double> warmupRootCounts_;
  /// The Step-3 decision, remembered so a checkpoint can rebuild the
  /// derived forecaster factory instead of re-running the analysis.
  std::vector<SeasonSpec> derivedSeasons_;
  /// The factory installed in the detector when the window filled
  /// (caller-supplied or derived); null during warm-up. Snapshots
  /// fingerprint it via a fresh instance's state.
  std::shared_ptr<const ForecasterFactory> activeFactory_;
  /// Metrics sink (not owned; null = metrics off) plus the last-seen
  /// cumulative totals of the detector's Table-III stage timers, so each
  /// processed unit records only its own delta into the histograms.
  obs::MetricsRegistry* metrics_ = nullptr;
  double lastStageSeconds_[3] = {0.0, 0.0, 0.0};
};

}  // namespace tiresias
