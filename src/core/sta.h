// STA — the strawman algorithm (Fig 4).
//
// STA stores the last ℓ timeunits of (sparse) per-unit counts. Every
// instance it (1) derives the SHHH set of the detection unit with a
// bottom-up pass, (2) reconstructs the Definition-3 time series for every
// heavy hitter against that fixed set, and (3) refits the forecasting
// model on the reconstructed history to judge the detection unit.
//
// Hot-path layout: instead of re-walking all ℓ stored units per instance
// (the historical implementation, retained as reference::StaReplica), the
// detector keeps an incremental sliding window of *raw aggregates*: a
// dense NodeId→slot table where every node touched by a resident unit
// holds an ℓ-length ring of its A_n values, updated by adding the entering
// unit and zeroing the expiring one. Definition-3 series then follow
// without touching history:
//
//     T[n] = rawRing[n] − Σ rawRing[d]   over members d whose nearest
//                                        member ancestor is n
//
// which is exactly the fixed-membership semantics (each count accrues to
// its nearest fixed-set ancestor). All counts are unit record weights, so
// every aggregate is integer-valued and the regrouped sums are exact —
// bit-identical to the reference reconstruction (asserted by the
// equivalence property tests).
//
// STA is exact: its series are the ground truth ADA is evaluated against
// (Fig 12, Table V).
#pragma once

#include "core/detector.h"
#include "core/shhh.h"

namespace tiresias {

class StaDetector final : public Detector {
 public:
  StaDetector(const Hierarchy& hierarchy, DetectorConfig config);

  std::optional<InstanceResult> step(const TimeUnitBatch& batch) override;
  std::vector<NodeId> currentShhh() const override;
  void seriesInto(NodeId node, std::vector<double>& out) const override;
  void forecastSeriesInto(NodeId node,
                          std::vector<double>& out) const override;
  MemoryStats memoryStats() const override;
  std::size_t windowFill() const override { return windowSize_; }
  void saveState(persist::Serializer& out) const override;
  void loadState(persist::Deserializer& in) override;

 private:
  /// One resident timeunit of the sliding window.
  struct WindowUnit {
    /// Direct counts, one entry per distinct counted node, in staging
    /// order (saveState sorts a copy to keep the snapshot byte-identical
    /// to the historical CountMap encoding).
    std::vector<std::pair<NodeId, double>> counts;
    /// |counted ∪ ancestors| — the unit's sparse-tree size (Table IV).
    std::uint32_t touchedNodes = 0;
  };

  /// Zero the expiring unit's ring entries and release empty slots.
  void expireUnit(std::size_t pos);
  /// Stage `batch` into the workspace, record its direct counts and raw
  /// aggregates at ring position `pos`, and evaluate Definition 2 into
  /// shhhScratch_.
  void ingestUnit(const TimeUnitBatch& batch, std::size_t pos);
  /// Definition-2 sweep over the staged counts + slot-table fill at `pos`
  /// (the single writer of the ring/present invariant; used by ingestUnit
  /// and the snapshot-restore rebuild).
  void recordUnitAggregates(std::size_t pos);
  /// Rebuild the materialized member series + forecasts for the current
  /// SHHH set (the per-instance Definition-3 reconstruction).
  void rebuildSeries();
  /// Recompute slots/rings from windowUnits_ (after loadState).
  void rebuildSlots();

  std::size_t ringIndex(std::size_t age) const {
    // age 0 = oldest resident unit. While filling, units sit at 0..size-1
    // with nextPos_ == size; once full, nextPos_ is the oldest slot.
    return (nextPos_ + config_.windowLength - windowSize_ + age) %
           config_.windowLength;
  }
  /// Start of node n's ℓ-length raw-aggregate ring inside the slot-major
  /// storage, or nullptr when the node holds no slot.
  double* ringOf(NodeId n) {
    const std::int32_t s = slotIndex_[n];
    return s < 0 ? nullptr
                 : slotRings_.data() +
                       static_cast<std::size_t>(s) * config_.windowLength;
  }
  const double* ringOf(NodeId n) const {
    const std::int32_t s = slotIndex_[n];
    return s < 0 ? nullptr
                 : slotRings_.data() +
                       static_cast<std::size_t>(s) * config_.windowLength;
  }

  // --- sliding window ---
  std::vector<WindowUnit> windowUnits_;  // ring of ℓ units, recycled buffers
  std::size_t windowSize_ = 0;           // resident units (≤ ℓ)
  std::size_t nextPos_ = 0;              // ring slot the next unit writes
  TimeUnit newestUnit_ = 0;

  // --- dense raw-aggregate slot table (SoA) ---
  // One flat slot-major array instead of per-slot ring vectors: a slot's
  // ℓ values are contiguous, so the per-instance series fill and the
  // member-cut subtraction in rebuildSeries are (at most two) straight
  // segment sweeps over lane-loadable memory.
  std::vector<std::int32_t> slotIndex_;  // NodeId → slot, -1 = none
  std::vector<double> slotRings_;        // slots × windowLength values
  std::vector<std::uint32_t> slotPresent_;  // resident units per slot
  std::vector<std::uint32_t> freeSlots_;

  // --- state of the most recent instance, for inspection/persist ---
  std::vector<NodeId> shhh_;
  /// {root} ∪ shhh_, ascending — the nodes holding materialized series.
  std::vector<NodeId> resultNodes_;
  std::vector<std::vector<double>> resultSeries_;    // parallel, reused
  std::vector<std::vector<double>> resultForecast_;  // parallel, reused
  std::vector<std::int32_t> resultIndex_;  // NodeId → resultNodes_ index

  ShhhResult shhhScratch_;  // reused across units
};

}  // namespace tiresias
