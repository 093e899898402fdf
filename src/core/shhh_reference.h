// Retained map-based reference implementations of the SHHH kernels.
//
// These are the pre-flat-workspace evaluators, kept verbatim as an
// independent oracle: the equivalence property tests assert that the dense
// epoch-stamped hot path (shhh.cpp, sta.cpp) produces bit-identical output,
// and timed tests (fixed_set_property_test, sta_test) assert the flat path
// stays faster than them. Nothing in src/ outside tests and benches should
// call these — they allocate several unordered_maps per unit by design.
#pragma once

#include <deque>

#include "core/detector.h"
#include "core/shhh.h"

namespace tiresias::reference {

/// Definition-2 evaluation for one timeunit (historical map-based pass).
ShhhResult computeShhh(const Hierarchy& hierarchy, const CountMap& counts,
                       double theta);

/// Definition-3 fixed-set reconstruction (historical map-based pass).
std::unordered_map<NodeId, std::vector<double>> modifiedSeriesFixedSet(
    const Hierarchy& hierarchy, const std::vector<CountMap>& unitCounts,
    const std::vector<NodeId>& fixedSet);

/// Raw-aggregate series (historical map-based pass).
std::unordered_map<NodeId, std::vector<double>> rawSeries(
    const Hierarchy& hierarchy, const std::vector<CountMap>& unitCounts,
    const std::vector<NodeId>& nodes);

/// The historical STA step: store ℓ sparse count maps, and per instance
/// copy the window and rebuild every member series from scratch with
/// modifiedSeriesFixedSet (the exact shape of the pre-rewrite
/// StaDetector::step, including the per-step window copy). Used as the
/// oracle for the STA equivalence property test, as the slow side of
/// sta_test's timed check, and as the paper-faithful STA cost model
/// for the Table III runtime reproduction (it keeps the historical
/// per-stage timers — the production StaDetector no longer has the
/// paper's cost shape).
class StaReplica {
 public:
  StaReplica(const Hierarchy& hierarchy, DetectorConfig config);

  std::optional<InstanceResult> step(const TimeUnitBatch& batch);

  const std::vector<NodeId>& currentShhh() const { return shhh_; }
  std::vector<double> seriesOf(NodeId node) const;
  std::vector<double> forecastSeriesOf(NodeId node) const;

  StageTimer& stages() { return stages_; }
  const StageTimer& stages() const { return stages_; }

 private:
  const Hierarchy& hierarchy_;
  DetectorConfig config_;
  StageTimer stages_;
  std::deque<CountMap> window_;
  TimeUnit newestUnit_ = 0;
  std::vector<NodeId> shhh_;
  std::unordered_map<NodeId, std::vector<double>> series_;
  std::unordered_map<NodeId, std::vector<double>> forecastSeries_;
};

}  // namespace tiresias::reference
