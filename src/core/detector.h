// Detector interface shared by STA and ADA, plus the Definition-4 anomaly
// judgment.
//
// A detector consumes one TimeUnitBatch per step. While the ℓ-unit history
// window is still filling it returns nothing; once warm, every step yields
// an InstanceResult for the newest (detection) timeunit. The detector is
// the one owner of that warm-up window: its owner steps it from the first
// unit on and buffers nothing itself. Stage timings are accumulated under
// the paper's Table III stage names so benches can print the same
// breakdown.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/timer.h"
#include "core/types.h"
#include "core/workspace.h"
#include "persist/snapshot.h"
#include "stream/window.h"
#include "timeseries/forecaster.h"

namespace tiresias {

/// Leading type tags of serialized detector state (see persist/snapshot.h
/// versioning rules).
inline constexpr std::uint8_t kStaDetectorStateTag = 1;
inline constexpr std::uint8_t kAdaDetectorStateTag = 2;

/// Detector configuration (paper §VII "System parameters").
struct DetectorConfig {
  /// Heavy-hitter threshold θ (Definition 1/2). Must be positive.
  double theta = 5.0;
  /// Time-series window length ℓ, in timeunits (paper default: 8064 =
  /// 12 weeks of 15-minute units).
  std::size_t windowLength = 0;
  /// Sensitivity thresholds of Definition 4 (paper: RT=2.8, DT=8).
  double ratioThreshold = 2.8;
  double diffThreshold = 8.0;
  /// Split heuristic and its EWMA smoothing rate (§V-B4). ADA only.
  SplitRule splitRule = SplitRule::kLongTermHistory;
  double splitEwmaAlpha = 0.4;
  /// Number of reference-series levels h below the root (§V-B5). ADA only.
  /// The root's raw series is always maintained.
  std::size_t referenceLevels = 2;
  /// Forecasting model for heavy-hitter series. May be null while the
  /// window fills (a pipeline deriving its factory from the first window
  /// installs it with Detector::setForecasterFactory before the ℓ-th
  /// step); the detector requires it once the window is full.
  std::shared_ptr<const ForecasterFactory> forecasterFactory;
  /// Dense per-unit scratch. Normally supplied by the owning
  /// TiresiasPipeline (one workspace per stream, reused across units); a
  /// detector constructed with a null workspace creates a private one.
  /// Never shared across concurrently stepping detectors.
  std::shared_ptr<DetectWorkspace> workspace;
  /// When true, ADA cross-checks its adapted SHHH set against the
  /// Definition-2 ground truth every instance (tests; costs one
  /// computeShhh per step).
  bool validateShhh = false;
};

/// Definition 4: anomalous iff T/F > RT and T − F > DT. A non-positive
/// forecast with positive actual counts as an infinite ratio.
bool isAnomalous(double actual, double forecast, double ratioThreshold,
                 double diffThreshold);

/// Ratio score reported in Anomaly::ratio (capped for F <= 0).
double anomalyRatio(double actual, double forecast);

class Detector {
 public:
  virtual ~Detector() = default;

  /// Consume the next timeunit; a result is produced for every unit once
  /// the history window is full.
  virtual std::optional<InstanceResult> step(const TimeUnitBatch& batch) = 0;

  /// Current SHHH set (ascending ids). Empty before the window fills.
  virtual std::vector<NodeId> currentShhh() const = 0;

  /// Copy the node's current modified-weight series (oldest first) into
  /// `out` (cleared first, capacity reused); `out` ends empty if the node
  /// holds no series in the current instance. This is the allocation-free
  /// accessor for per-step callers — hold a buffer and refill it.
  virtual void seriesInto(NodeId node, std::vector<double>& out) const = 0;

  /// The node's current forecast series (oldest first), aligned with
  /// seriesInto; `out` ends empty if the node holds no series.
  virtual void forecastSeriesInto(NodeId node,
                                  std::vector<double>& out) const = 0;

  /// Convenience wrappers returning a fresh vector per call (tests and
  /// offline evaluation; hot callers use the *Into accessors).
  std::vector<double> seriesOf(NodeId node) const {
    std::vector<double> out;
    seriesInto(node, out);
    return out;
  }
  std::vector<double> forecastSeriesOf(NodeId node) const {
    std::vector<double> out;
    forecastSeriesInto(node, out);
    return out;
  }

  virtual MemoryStats memoryStats() const = 0;

  /// Units held in the history window so far, saturating at ℓ: the
  /// detector is warm (every step yields a result) once this equals ℓ.
  virtual std::size_t windowFill() const = 0;

  /// Swap the detection workspace (engine pooling: the owning pipeline
  /// attaches the advancing worker's loaner before each advance). The
  /// workspace must already be bound to this detector's hierarchy; call
  /// only between steps — the workspace is per-step scratch, so nothing
  /// the detector needs survives the swap.
  void bindWorkspace(std::shared_ptr<DetectWorkspace> workspace) {
    config_.workspace = std::move(workspace);
  }
  /// Install the forecasting model (call only between steps, before the
  /// window fills; see DetectorConfig::forecasterFactory).
  void setForecasterFactory(std::shared_ptr<const ForecasterFactory> f) {
    config_.forecasterFactory = std::move(f);
  }

  /// Snapshot the detector's full mutable state (window contents, series,
  /// forecaster models, adaptation statistics), prefixed with the type tag
  /// above. Stage timings are diagnostics and are not persisted.
  virtual void saveState(persist::Serializer& out) const = 0;
  /// Restore state saved by the same detector type over the same
  /// hierarchy and configuration. Throws persist::SnapshotError on a type
  /// mismatch or malformed input.
  virtual void loadState(persist::Deserializer& in) = 0;

  StageTimer& stages() { return stages_; }
  const StageTimer& stages() const { return stages_; }

 protected:
  /// Checks the window length and binds the workspace (a private one when
  /// the configuration carries none).
  Detector(const Hierarchy& hierarchy, DetectorConfig config);

  DetectWorkspace& ws() { return *config_.workspace; }
  const DetectWorkspace& ws() const { return *config_.workspace; }
  /// The forecasting model, which must be installed by now (first use
  /// once the window is full).
  const ForecasterFactory& factory() const;

  const Hierarchy& hierarchy_;
  DetectorConfig config_;
  StageTimer stages_;
};

/// Stage names used by both detectors (Table III rows).
inline constexpr const char* kStageUpdateHierarchies = "Updating Hierarchies";
inline constexpr const char* kStageCreateSeries = "Creating Time Series";
inline constexpr const char* kStageDetect = "Detecting Anomalies";

}  // namespace tiresias
