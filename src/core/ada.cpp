#include "core/ada.h"

#include <algorithm>

#include "common/expect.h"
#include "core/state_io.h"

namespace tiresias {

AdaDetector::AdaDetector(const Hierarchy& hierarchy, DetectorConfig config)
    : hierarchy_(hierarchy),
      config_(std::move(config)),
      splitRules_(config_.splitRule, config_.splitEwmaAlpha) {
  TIRESIAS_EXPECT(config_.windowLength >= 2, "window length must be >= 2");
  TIRESIAS_EXPECT(config_.forecasterFactory != nullptr,
                  "forecaster factory is required");
  if (!config_.workspace) {
    config_.workspace = std::make_shared<DetectWorkspace>();
  }
  config_.workspace->bind(hierarchy_.size());
  stateSlot_.assign(hierarchy_.size(), -1);
  refSlot_.assign(hierarchy_.size(), -1);
}

AdaDetector::~AdaDetector() = default;

AdaDetector::SeriesState& AdaDetector::bindSlot(NodeId n) {
  if (holds(n)) return stateOf(n);
  std::uint32_t slot;
  if (!freeStateSlots_.empty()) {
    slot = freeStateSlots_.back();
    freeStateSlots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(stateSlots_.size());
    stateSlots_.emplace_back();
  }
  stateSlot_[n] = static_cast<std::int32_t>(slot);
  holders_.insert(std::upper_bound(holders_.begin(), holders_.end(), n), n);
  return stateSlots_[slot];
}

void AdaDetector::moveSlot(NodeId from, NodeId to) {
  stateSlot_[to] = stateSlot_[from];
  stateSlot_[from] = -1;
  holders_.erase(std::lower_bound(holders_.begin(), holders_.end(), from));
  holders_.insert(std::upper_bound(holders_.begin(), holders_.end(), to), to);
}

void AdaDetector::eraseState(NodeId n) {
  const std::int32_t slot = stateSlot_[n];
  if (slot < 0) return;
  freeStateSlots_.push_back(static_cast<std::uint32_t>(slot));
  stateSlot_[n] = -1;
  holders_.erase(std::lower_bound(holders_.begin(), holders_.end(), n));
}

void AdaDetector::copyState(SeriesState& dst, const SeriesState& src) const {
  dst.actual = src.actual;
  dst.forecastSeries = src.forecastSeries;
  if (!dst.model) dst.model = config_.forecasterFactory->make();
  dst.model->copyFrom(*src.model);
}

void AdaDetector::initState(SeriesState& st) const {
  st.actual = RingSeries(config_.windowLength);
  st.forecastSeries = RingSeries(config_.windowLength);
  st.model = config_.forecasterFactory->make();
}

std::optional<InstanceResult> AdaDetector::step(const TimeUnitBatch& batch) {
  newestUnit_ = batch.unit;
  if (!bootstrapped_) {
    bootstrapInstance(batch);
    if (bootstrapUnits_.size() < config_.windowLength) return std::nullopt;
    finishBootstrap();
    // The bootstrap instance itself also reports a detection result.
  } else {
    return adaptiveInstance(batch);
  }

  // First detection result (end of bootstrap).
  InstanceResult result;
  result.unit = newestUnit_;
  {
    StageTimer::Scope scope(stages_, kStageDetect);
    result.shhh = currentShhh();
    for (NodeId n : result.shhh) {
      const auto& st = stateOf(n);
      const double actual = st.actual.latest();
      const double forecast = st.forecastSeries.latest();
      if (isAnomalous(actual, forecast, config_.ratioThreshold,
                      config_.diffThreshold)) {
        result.anomalies.push_back(
            {n, newestUnit_, actual, forecast, anomalyRatio(actual, forecast)});
      }
    }
  }
  return result;
}

void AdaDetector::bootstrapInstance(const TimeUnitBatch& batch) {
  StageTimer::Scope scope(stages_, kStageUpdateHierarchies);
  DetectWorkspace& w = ws();
  w.beginUnit();
  w.touched.clear();
  for (const auto& r : batch.records) stageCount(w, r.category, 1.0);
  w.orderTouched();
  auto& unit = bootstrapUnits_.emplace_back();
  unit.reserve(w.touched.size());
  for (auto it = w.touched.rbegin(); it != w.touched.rend(); ++it) {
    unit.emplace_back(*it, w.raw(*it));
  }
}

void AdaDetector::finishBootstrap() {
  StageTimer::Scope scope(stages_, kStageCreateSeries);
  DetectWorkspace& w = ws();
  // One STA-style reconstruction (Fig 5 lines 2-5). The last unit's SHHH
  // set is the fixed member set; the root always holds a series.
  stageUnit(w, bootstrapUnits_.back());
  computeShhhStaged(hierarchy_, config_.theta, w, shhhScratch_);
  const auto& shhh = shhhScratch_.shhh;
  rootIsMember_ = !shhh.empty() && shhh.front() == hierarchy_.root();
  w.beginMarks(DetectWorkspace::kMemberPlane);
  initState(bindSlot(hierarchy_.root()));
  for (NodeId n : shhh) {
    w.mark(DetectWorkspace::kMemberPlane, n);
    if (n != hierarchy_.root()) initState(bindSlot(n));
  }

  // Reference series for the root and depths 2..h+1 (§V-B5); BFS ids make
  // the list ascending.
  refNodes_.assign(1, hierarchy_.root());
  for (std::size_t h = 0; h < config_.referenceLevels; ++h) {
    for (NodeId n : hierarchy_.nodesAtDepth(static_cast<int>(h) + 2)) {
      refNodes_.push_back(n);
    }
  }
  refStates_.clear();
  refStates_.resize(refNodes_.size());
  for (std::size_t i = 0; i < refNodes_.size(); ++i) {
    initState(refStates_[i]);
    refSlot_[refNodes_[i]] = static_cast<std::int32_t>(i);
  }

  // One climb and one sweep per buffered unit: members' fixed-set W_n,
  // reference nodes' A_n and the split-rule seed.
  for (const auto& unit : bootstrapUnits_) {
    stageUnit(w, unit);
    fixedSetSweepStaged(hierarchy_, w, shhhScratch_.touched);
    for (NodeId n : holders_) append(stateOf(n), w.modifiedOrZero(n));
    for (std::size_t i = 0; i < refNodes_.size(); ++i) {
      append(refStates_[i], w.rawOrZero(refNodes_[i]));
    }
    splitRules_.observeTouched(shhhScratch_.touched);
  }

  bootstrapUnits_ = {};
  bootstrapped_ = true;
}

void AdaDetector::split(NodeId n) {
  // C_n: children not currently holding membership (Fig 7 line 1).
  std::vector<NodeId> group;
  bool weightTrigger = false;
  bool chainTrigger = false;
  for (NodeId c : hierarchy_.children(n)) {
    if (isMember(c)) continue;
    group.push_back(c);
    if (freshWeight(c) >= config_.theta) weightTrigger = true;
    // Deviation 1 (DESIGN.md): a pending tosplit also triggers, so heavy
    // hitters hidden multiple levels down still receive a series.
    if (ws().isMarked(DetectWorkspace::kSplitPlane, c)) chainTrigger = true;
  }
  if ((!weightTrigger && !chainTrigger) || group.empty()) return;
  ++splitCount_;
  if (!weightTrigger) ++deepChainSplitCount_;

  const auto ratios = splitRules_.ratios(group);
  // Each child's share is built in its own slot: a copy of n's state,
  // scaled in place. (bindSlot may grow the slot table, so n's state is
  // looked up after it.)
  for (std::size_t i = 0; i < group.size(); ++i) {
    SeriesState& share = bindSlot(group[i]);
    copyState(share, stateOf(n));
    share.actual.scale(ratios[i]);
    share.forecastSeries.scale(ratios[i]);
    share.model->scale(ratios[i]);
    ws().received.insert(group[i]);
  }
  if (n == hierarchy_.root()) {
    // The root always keeps a series object for future splits; its
    // residual history is rebuilt from the root reference series in the
    // correction phase.
    rootIsMember_ = false;
    ws().received.insert(n);
  } else {
    eraseState(n);
  }
}

void AdaDetector::mergeGroupOf(NodeId n) {
  // Gather C_n = members among {parent} ∪ siblings with W < θ (Fig 8).
  const NodeId np = hierarchy_.parent(n);
  TIRESIAS_EXPECT(np != kInvalidNode, "root does not merge");
  std::vector<NodeId> group;
  for (NodeId c : hierarchy_.children(np)) {
    if (isMember(c) && freshWeight(c) < config_.theta) group.push_back(c);
  }
  TIRESIAS_EXPECT(!group.empty(), "merge group must contain the trigger");
  ++mergeCount_;

  // Sum the group's states into np's slot: its own state if it holds one
  // (whether or not it is part of the below-θ group; for the root this is
  // its permanent series state), else the first child's slot, rebound.
  //
  // If np has a reference series the sum is dead: np is now a received
  // holder, so applyReferenceCorrections overwrites its state before
  // anything reads it, and only the membership moves. This is exact
  // because reference nodes are closed under ancestors (the root plus
  // depths 2..h+1, checked by loadState): a cascade that later folds np
  // into its parent lands in a node that is rebuilt as well, so the
  // unsummed state is never read.
  const bool rebuilt = refSlot_[np] >= 0;
  std::size_t next = 0;
  if (!holds(np)) moveSlot(group[next++], np);
  SeriesState& acc = stateOf(np);
  for (; next < group.size(); ++next) {
    const NodeId c = group[next];
    if (!rebuilt) {
      const SeriesState& cs = stateOf(c);
      acc.actual.addScaled(cs.actual, 1.0);
      acc.forecastSeries.addScaled(cs.forecastSeries, 1.0);
      acc.model->addScaled(*cs.model, 1.0);
    }
    eraseState(c);
  }
  ws().received.insert(np);
  if (np == hierarchy_.root()) rootIsMember_ = true;
}

bool AdaDetector::correctFromRef(NodeId n) {
  if (!holds(n)) return false;
  const std::int32_t refIdx = refSlot_[n];
  if (refIdx < 0) return false;

  // T[n] := T_REF[n] − Σ T[d] over member heavy-hitter descendants d, built
  // in n's own slot (n's previous state is never read).
  SeriesState& st = stateOf(n);
  copyState(st, refStates_[static_cast<std::size_t>(refIdx)]);
  for (auto it = std::upper_bound(holders_.begin(), holders_.end(), n);
       it != holders_.end(); ++it) {
    const NodeId d = *it;
    if (!hierarchy_.isAncestorOrEqual(n, d)) continue;
    if (!isMember(d)) continue;
    const SeriesState& ds = stateOf(d);
    st.model->addScaled(*ds.model, -1.0);
    st.actual.addScaled(ds.actual, -1.0);
    st.forecastSeries.addScaled(ds.forecastSeries, -1.0);
  }
  return true;
}

void AdaDetector::applyReferenceCorrections() {
  // Deepest (highest id) first so corrected descendants feed ancestors'
  // corrections. Nodes that received a series and lost it again fail
  // correctFromRef's holds() check, so the set needs no erase support.
  NodeBitSet& received = ws().received;
  while (!received.empty()) correctFromRef(received.popMax());
}

std::optional<InstanceResult> AdaDetector::adaptiveInstance(
    const TimeUnitBatch& batch) {
  DetectWorkspace& w = ws();
  // ---- Stage: Updating Hierarchies (Fig 5 lines 6-12) ----
  {
    StageTimer::Scope scope(stages_, kStageUpdateHierarchies);
    w.beginUnit();
    w.touched.clear();
    for (const auto& r : batch.records) stageCount(w, r.category, 1.0);
    computeShhhStaged(hierarchy_, config_.theta, w, shhhScratch_);
    // The value plane now holds A_n / W_n for every touched node and stays
    // valid for the rest of the instance (no kernel runs until the next
    // unit bumps the generation).
    lastTouched_ = shhhScratch_.touched.size();
  }

  // ---- Stage: Creating Time Series (Fig 5 lines 13-29) ----
  {
    StageTimer::Scope scope(stages_, kStageCreateSeries);
    w.beginMarks(DetectWorkspace::kSplitPlane);
    tosplitNodes_.clear();

    // Bottom-up tosplit marking (lines 13-17): a node that needs a series
    // but has none asks its parent to split.
    const auto& touched = shhhScratch_.touched;
    for (auto it = touched.rbegin(); it != touched.rend(); ++it) {
      const NodeId n = it->node;
      if (n == hierarchy_.root()) continue;
      if ((it->heavy || w.isMarked(DetectWorkspace::kSplitPlane, n)) &&
          !isMember(n)) {
        const NodeId p = hierarchy_.parent(n);
        if (w.mark(DetectWorkspace::kSplitPlane, p)) {
          tosplitNodes_.push_back(p);
        }
      }
    }

    // Top-down splits (lines 18-20). The tosplit set was fully determined
    // above, so an ascending sweep visits parents before children.
    if (!tosplitNodes_.empty()) {
      std::sort(tosplitNodes_.begin(), tosplitNodes_.end());
      for (NodeId n : tosplitNodes_) {
        if (isMember(n) || n == hierarchy_.root()) {
          // If this node itself received a share earlier in the sweep and
          // a reference series is available, repair its history before
          // distributing it further down (§V-B5 applies corrections at
          // split time).
          if (w.received.contains(n)) {
            correctFromRef(n);
          }
          split(n);
        }
      }
    }

    // Bottom-up merges (lines 21-23): members that are no longer heavy
    // fold into their parent; cascades handled by a descending worklist
    // (a parent's id is below its child's, so it only ever shrinks).
    {
      NodeBitSet& worklist = w.worklist;
      for (NodeId n : holders_) {
        if (n != hierarchy_.root() && isMember(n) && !freshHeavy(n)) {
          worklist.insert(n);
        }
      }
      while (!worklist.empty()) {
        const NodeId n = worklist.popMax();
        if (!isMember(n) || freshHeavy(n)) continue;
        const NodeId np = hierarchy_.parent(n);
        mergeGroupOf(n);
        if (np != kInvalidNode && np != hierarchy_.root() &&
            !freshHeavy(np)) {
          worklist.insert(np);
        }
      }
    }

    // Root membership by weight (lines 24-25).
    rootIsMember_ = freshHeavy(hierarchy_.root());

    // Reference-series repair of split/merge bias (§V-B5).
    applyReferenceCorrections();

    if (config_.validateShhh) {
      // Lemma 1 cross-check: holders (modulo the root flag) must equal the
      // fresh Definition-2 set.
      for (NodeId n : holders_) {
        if (n == hierarchy_.root()) continue;
        TIRESIAS_EXPECT(freshHeavy(n), "holder is not a fresh heavy hitter");
      }
      for (const auto& t : touched) {
        TIRESIAS_EXPECT(!t.heavy || isMember(t.node),
                        "fresh heavy hitter lacks a series");
      }
    }

    // Append the fresh W_n and advance forecasts (lines 26-29). The root
    // appends even when not a member so its series stays current.
    for (NodeId n : holders_) append(stateOf(n), w.modifiedOrZero(n));
    // Reference series track raw aggregates unconditionally.
    for (std::size_t i = 0; i < refNodes_.size(); ++i) {
      append(refStates_[i], w.rawOrZero(refNodes_[i]));
    }
    // Split-rule statistics absorb this instance *after* adaptation.
    splitRules_.observeTouched(touched);
  }

  // ---- Stage: Detecting Anomalies (Definition 4) ----
  InstanceResult result;
  result.unit = newestUnit_;
  {
    StageTimer::Scope scope(stages_, kStageDetect);
    result.shhh = currentShhh();
    for (NodeId n : result.shhh) {
      const auto& st = stateOf(n);
      const double actual = st.actual.latest();
      const double forecast = st.forecastSeries.latest();
      if (isAnomalous(actual, forecast, config_.ratioThreshold,
                      config_.diffThreshold)) {
        result.anomalies.push_back(
            {n, newestUnit_, actual, forecast, anomalyRatio(actual, forecast)});
      }
    }
  }
  return result;
}

std::vector<NodeId> AdaDetector::currentShhh() const {
  std::vector<NodeId> out;
  out.reserve(holders_.size());
  for (NodeId n : holders_) {
    if (isMember(n)) out.push_back(n);
  }
  return out;
}

void AdaDetector::seriesInto(NodeId node, std::vector<double>& out) const {
  out.clear();
  if (node >= stateSlot_.size() || stateSlot_[node] < 0) return;
  stateOf(node).actual.appendTo(out);
}

void AdaDetector::forecastSeriesInto(NodeId node,
                                     std::vector<double>& out) const {
  out.clear();
  if (node >= stateSlot_.size() || stateSlot_[node] < 0) return;
  stateOf(node).forecastSeries.appendTo(out);
}

void AdaDetector::saveState(persist::Serializer& out) const {
  out.u8(kAdaDetectorStateTag);
  out.u64(config_.windowLength);
  out.boolean(bootstrapped_);
  out.u64(bootstrapUnits_.size());
  for (const auto& unit : bootstrapUnits_) state_io::writeCountRuns(out, unit);
  out.i64(newestUnit_);
  out.boolean(rootIsMember_);
  out.u64(splitCount_);
  out.u64(mergeCount_);
  out.u64(deepChainSplitCount_);
  // holders_/refNodes_ are kept ascending, so iteration order matches the
  // historical std::map encoding byte for byte.
  out.u64(holders_.size());
  for (NodeId n : holders_) {
    const auto& st = stateOf(n);
    out.u32(n);
    st.actual.saveState(out);
    st.forecastSeries.saveState(out);
    st.model->saveState(out);
  }
  out.u64(refNodes_.size());
  for (std::size_t i = 0; i < refNodes_.size(); ++i) {
    const auto& ref = refStates_[i];
    out.u32(refNodes_[i]);
    ref.actual.saveState(out);
    ref.forecastSeries.saveState(out);
    ref.model->saveState(out);
  }
  splitRules_.saveState(out);
}

void AdaDetector::loadState(persist::Deserializer& in) {
  using persist::Deserializer;
  Deserializer::require(in.u8() == kAdaDetectorStateTag,
                        "snapshot holds a different detector type");
  Deserializer::require(in.u64() == config_.windowLength,
                        "ADA snapshot: window length mismatch");
  const bool bootstrapped = in.boolean();
  const std::size_t nBootstrap = in.count(sizeof(std::uint64_t));
  Deserializer::require(nBootstrap <= config_.windowLength,
                        "ADA snapshot: more bootstrap units than the window");
  Deserializer::require(bootstrapped || nBootstrap < config_.windowLength,
                        "ADA snapshot: bootstrap buffer full but not promoted");
  std::vector<std::vector<std::pair<NodeId, double>>> bootstrapUnits(
      nBootstrap);
  for (auto& unit : bootstrapUnits) {
    unit = state_io::readCountRuns(in, hierarchy_);
  }
  const TimeUnit newestUnit = in.i64();
  const bool rootIsMember = in.boolean();
  const std::size_t splitCount = in.u64();
  const std::size_t mergeCount = in.u64();
  const std::size_t deepChainSplitCount = in.u64();

  const auto readStates = [&](std::vector<NodeId>& nodes,
                              std::vector<SeriesState>& states) {
    const std::size_t n = in.count(sizeof(std::uint32_t));
    nodes.clear();
    states.clear();
    nodes.reserve(n);
    states.reserve(n);
    NodeId prev = kInvalidNode;
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId node = in.u32();
      Deserializer::require(node < hierarchy_.size(),
                            "snapshot: node id outside hierarchy");
      Deserializer::require(prev == kInvalidNode || node > prev,
                            "ADA snapshot: node keys not strictly ascending");
      prev = node;
      SeriesState st;
      st.actual.loadState(in);
      st.forecastSeries.loadState(in);
      Deserializer::require(
          st.actual.capacity() == config_.windowLength &&
              st.forecastSeries.capacity() == config_.windowLength,
          "ADA snapshot: series ring capacity != window length");
      st.model = config_.forecasterFactory->make();
      st.model->loadState(in);
      nodes.push_back(node);
      states.push_back(std::move(st));
    }
  };
  std::vector<NodeId> holders, refNodes;
  std::vector<SeriesState> states, refs;
  readStates(holders, states);
  readStates(refNodes, refs);
  // Invariants the adaptation relies on; a state that breaks one would
  // abort (or read out of bounds) in the next step instead of throwing.
  Deserializer::require(bootstrapped || (holders.empty() && refNodes.empty()),
                        "ADA snapshot: series state before bootstrap");
  Deserializer::require(
      !bootstrapped ||
          std::binary_search(holders.begin(), holders.end(), hierarchy_.root()),
      "ADA snapshot: the root holds no series");
  const SeriesState* first = nullptr;
  for (const auto* group : {&states, &refs}) {
    for (const SeriesState& st : *group) {
      if (first == nullptr) first = &st;
      // Split, merge and correction combine rings element-wise and models
      // by addScaled, pairing any two of these states.
      Deserializer::require(
          st.actual.size() == first->actual.size() &&
              st.forecastSeries.size() == first->actual.size(),
          "ADA snapshot: series rings differ in length");
      Deserializer::require(st.model->mergeableWith(*first->model),
                            "ADA snapshot: forecasters cannot be merged");
    }
  }
  // mergeGroupOf skips the dead sum into a node with a reference series,
  // which is exact only while reference nodes are closed under ancestors.
  for (NodeId r : refNodes) {
    const NodeId p = hierarchy_.parent(r);
    Deserializer::require(
        p == kInvalidNode ||
            std::binary_search(refNodes.begin(), refNodes.end(), p),
        "ADA snapshot: reference nodes not closed under ancestors");
  }
  splitRules_.loadState(in, hierarchy_.size());

  bootstrapped_ = bootstrapped;
  bootstrapUnits_ = std::move(bootstrapUnits);
  newestUnit_ = newestUnit;
  rootIsMember_ = rootIsMember;
  splitCount_ = splitCount;
  mergeCount_ = mergeCount;
  deepChainSplitCount_ = deepChainSplitCount;
  std::fill(stateSlot_.begin(), stateSlot_.end(), -1);
  freeStateSlots_.clear();
  holders_ = std::move(holders);
  stateSlots_ = std::move(states);
  for (std::size_t i = 0; i < holders_.size(); ++i) {
    stateSlot_[holders_[i]] = static_cast<std::int32_t>(i);
  }
  std::fill(refSlot_.begin(), refSlot_.end(), -1);
  refNodes_ = std::move(refNodes);
  refStates_ = std::move(refs);
  for (std::size_t i = 0; i < refNodes_.size(); ++i) {
    refSlot_[refNodes_[i]] = static_cast<std::int32_t>(i);
  }
  // Per-instance scratch never survives a step, so a restored detector
  // starts with it empty, exactly like one that just finished step().
  tosplitNodes_.clear();
  lastTouched_ = 0;
}

MemoryStats AdaDetector::memoryStats() const {
  MemoryStats stats;
  stats.seriesCount = holders_.size() * 2;
  for (NodeId n : holders_) {
    const auto& st = stateOf(n);
    stats.seriesValues += st.actual.size() + st.forecastSeries.size();
  }
  stats.refSeriesCount = refNodes_.size() * 2;
  for (const auto& ref : refStates_) {
    stats.refSeriesValues += ref.actual.size() + ref.forecastSeries.size();
  }
  // One resident tree's worth of per-node bookkeeping: the last touched
  // set plus split-rule statistics.
  stats.treeNodesStored = lastTouched_ + splitRules_.trackedNodes();
  stats.workspaceBytes = config_.workspace->bytes();
  stats.bytesEstimate =
      (stats.seriesValues + stats.refSeriesValues) * sizeof(double) +
      stats.treeNodesStored * (sizeof(NodeId) + sizeof(double));
  return stats;
}

}  // namespace tiresias
