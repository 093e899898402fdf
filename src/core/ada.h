// ADA — the adaptive low-complexity detection scheme (§V-B, Figs 5-8).
//
// ADA maintains a single tree worth of state. Per instance it:
//   1. computes fresh raw aggregates A_n and Definition-2 modified weights
//      W_n for the nodes touched by the new timeunit (Fig 6);
//   2. adapts the *positions* of the series-holding nodes with top-down
//      SPLIT (Fig 7) and bottom-up MERGE (Fig 8) operations so the holders
//      equal the fresh SHHH set (Lemma 1), moving each series' ring buffers
//      and Holt-Winters state by the linear scale/add operations that
//      Lemma 2 licenses;
//   3. repairs split-induced history bias from reference time series kept
//      for the top h levels (§V-B5);
//   4. appends W_n to every holder's series, produces the forecast, and
//      applies the Definition-4 anomaly test.
//
// The first ℓ timeunits are a bootstrap phase that buffers per-unit counts
// and then performs one STA-style reconstruction (Fig 5 lines 2-5): the
// last unit's SHHH set is the fixed member set, and one climb and one
// bottom-up sweep per buffered unit yield every member's W_n, every
// reference node's A_n and the split-rule statistics together.
//
// Hot-path layout: per-instance scratch (A_n, W_n, tosplit, the merge
// worklist and the received set) lives in the pipeline's DetectWorkspace —
// dense epoch-stamped arrays invalidated per unit by a generation bump, and
// descending-id bit sets drained within the instance. Series holders sit
// in a dense NodeId→slot table with a free list (holder lookups are array
// indexing); `holders_` keeps the ascending id order the adaptation sweeps
// and the snapshot encoding rely on. Reference series are fixed after
// bootstrap and live in parallel ascending arrays with their own dense
// index.
//
// Documented deviations from the paper's pseudocode (see DESIGN.md,
// "Faithful-intent corrections"): SPLIT also fires on a pending child
// tosplit flag so deep new heavy hitters are reachable, series values are
// always the exact fresh W_n, and merge-received nodes are reference-
// corrected like split-received ones.
#pragma once

#include <memory>

#include "core/detector.h"
#include "core/shhh.h"
#include "core/split_rules.h"
#include "timeseries/ring.h"

namespace tiresias {

class AdaDetector final : public Detector {
 public:
  AdaDetector(const Hierarchy& hierarchy, DetectorConfig config);
  ~AdaDetector() override;

  std::optional<InstanceResult> step(const TimeUnitBatch& batch) override;
  std::vector<NodeId> currentShhh() const override;
  void seriesInto(NodeId node, std::vector<double>& out) const override;
  void forecastSeriesInto(NodeId node,
                          std::vector<double>& out) const override;
  MemoryStats memoryStats() const override;
  std::size_t windowFill() const override {
    return bootstrapped_ ? config_.windowLength : bootstrapUnits_.size();
  }
  void saveState(persist::Serializer& out) const override;
  void loadState(persist::Deserializer& in) override;

  /// Number of split/merge operations performed so far (diagnostics and
  /// the Fig 12 / §VII-A discussion of how split frequency drives error).
  std::size_t splitCount() const { return splitCount_; }
  std::size_t mergeCount() const { return mergeCount_; }
  /// Splits triggered *only* by a pending child tosplit flag — the deep-
  /// chain case the paper's Fig 7 guard misses (DESIGN.md deviation 1).
  /// Nonzero values on real workloads show the correction is load-bearing.
  std::size_t deepChainSplitCount() const { return deepChainSplitCount_; }

 private:
  /// Series + forecaster state bound to one heavy hitter.
  struct SeriesState {
    RingSeries actual;
    RingSeries forecastSeries;
    std::unique_ptr<Forecaster> model;
  };

  /// Reference (unmodified-weight) series for a top-level node (§V-B5).
  using RefState = SeriesState;

  void bootstrapInstance(const TimeUnitBatch& batch);
  void finishBootstrap();
  std::optional<InstanceResult> adaptiveInstance(const TimeUnitBatch& batch);
  /// Stage: Detecting Anomalies (Definition 4) over the current holders.
  InstanceResult judge();

  void split(NodeId n);
  void mergeGroupOf(NodeId n);
  /// Replace n's series with T_REF[n] − Σ member-descendant series, if a
  /// reference series exists. Returns true if a correction was applied.
  bool correctFromRef(NodeId n);
  void applyReferenceCorrections();
  /// Overwrite `dst` with a copy of `src`, reusing dst's buffers.
  void copyState(SeriesState& dst, const SeriesState& src) const;
  /// Fresh empty rings and model for a bootstrap series.
  void initState(SeriesState& st) const;
  /// Append `value` to st's series and its forecast to the forecast series.
  static void append(SeriesState& st, double value) {
    st.forecastSeries.push(st.model->advance(value));
    st.actual.push(value);
  }

  // --- dense holder slot table -----------------------------------------
  bool holds(NodeId n) const { return stateSlot_[n] >= 0; }
  SeriesState& stateOf(NodeId n) {
    return stateSlots_[static_cast<std::size_t>(stateSlot_[n])];
  }
  const SeriesState& stateOf(NodeId n) const {
    return stateSlots_[static_cast<std::size_t>(stateSlot_[n])];
  }
  /// n's slot, binding a free or new one if n holds none; keeps holders_
  /// sorted. A recycled slot keeps its buffers (contents unspecified), so
  /// assigning a same-shape state into it allocates nothing. May grow the
  /// slot table, invalidating references to other slots.
  SeriesState& bindSlot(NodeId n);
  /// Rebind `from`'s slot, contents and all, to `to` (which holds none).
  void moveSlot(NodeId from, NodeId to);
  /// Release n's slot to the free list, buffers kept; keeps holders_ sorted.
  void eraseState(NodeId n);

  bool isMember(NodeId n) const {
    return holds(n) && (n != hierarchy_.root() || rootIsMember_);
  }

  /// W_n of the current instance (0 for untouched nodes).
  double freshWeight(NodeId n) const { return ws().modifiedOrZero(n); }
  bool freshHeavy(NodeId n) const {
    return freshWeight(n) >= config_.theta;
  }

  SplitRuleEngine splitRules_;

  // --- bootstrap phase ---
  bool bootstrapped_ = false;
  /// Buffered warm-up units, each as ascending (node, count) runs.
  std::vector<std::vector<std::pair<NodeId, double>>> bootstrapUnits_;

  // --- adaptive phase ---
  TimeUnit newestUnit_ = 0;
  /// Series holders: dense slot table + ascending id list. Presence ==
  /// SHHH membership, except the root which always holds a series and
  /// carries an explicit membership flag (Fig 5 lines 24-25).
  std::vector<std::int32_t> stateSlot_;   // NodeId → slot, -1 = none
  std::vector<SeriesState> stateSlots_;
  std::vector<std::uint32_t> freeStateSlots_;
  std::vector<NodeId> holders_;           // ascending ids holding a slot
  bool rootIsMember_ = false;
  /// Reference series for nodes of depth 2..h+1, plus the root — fixed
  /// after bootstrap (ascending ids, dense index).
  std::vector<NodeId> refNodes_;
  std::vector<RefState> refStates_;
  std::vector<std::int32_t> refSlot_;     // NodeId → refStates_ index

  // Per-instance scratch: A_n/W_n live in the workspace value plane,
  // tosplit in its split mark plane (enumerated by tosplitNodes_, reused
  // capacity), the merge worklist and received set in its bit sets.
  std::vector<NodeId> tosplitNodes_;
  ShhhResult shhhScratch_;                // reused across units
  std::size_t lastTouched_ = 0;           // |touched| of the last instance

  std::size_t splitCount_ = 0;
  std::size_t mergeCount_ = 0;
  std::size_t deepChainSplitCount_ = 0;
};

}  // namespace tiresias
