#include "core/sta.h"

#include <algorithm>
#include <map>

#include "core/state_io.h"

namespace tiresias {

StaDetector::StaDetector(const Hierarchy& hierarchy, DetectorConfig config)
    : Detector(hierarchy, std::move(config)) {
  slotIndex_.assign(hierarchy_.size(), -1);
  resultIndex_.assign(hierarchy_.size(), -1);
  windowUnits_.resize(config_.windowLength);
}

void StaDetector::expireUnit(std::size_t pos) {
  // Re-derive the expiring unit's touched set from its direct counts (one
  // mark-climb, no per-unit seen map) and zero its ring entries.
  DetectWorkspace& w = ws();
  stageUnit(w, windowUnits_[pos].counts);
  collectTouchedStaged(hierarchy_, w);
  const std::size_t len = config_.windowLength;
  for (NodeId n : w.touched) {
    const std::int32_t si = slotIndex_[n];
    if (si < 0) continue;
    slotRings_[static_cast<std::size_t>(si) * len + pos] = 0.0;
    if (--slotPresent_[static_cast<std::size_t>(si)] == 0) {
      // The ring is all zeros again, so the slot can be handed out as-is.
      slotIndex_[n] = -1;
      freeSlots_.push_back(static_cast<std::uint32_t>(si));
    }
  }
}

void StaDetector::recordUnitAggregates(std::size_t pos) {
  // The unit's counts are staged in the workspace: one Definition-2 sweep
  // yields the touched set with raw aggregates, which lands in the slot
  // table at ring position `pos`. Shared by the live step and the
  // snapshot-restore rebuild so the slot-table invariant has one writer.
  computeShhhStaged(hierarchy_, config_.theta, ws(), shhhScratch_);
  const std::size_t len = config_.windowLength;
  WindowUnit& unit = windowUnits_[pos];
  unit.touchedNodes = static_cast<std::uint32_t>(shhhScratch_.touched.size());
  for (const auto& t : shhhScratch_.touched) {
    std::int32_t si = slotIndex_[t.node];
    if (si < 0) {
      if (!freeSlots_.empty()) {
        si = static_cast<std::int32_t>(freeSlots_.back());
        freeSlots_.pop_back();
      } else {
        si = static_cast<std::int32_t>(slotPresent_.size());
        slotPresent_.push_back(0);
        slotRings_.resize(slotRings_.size() + len, 0.0);
      }
      slotIndex_[t.node] = si;
    }
    slotRings_[static_cast<std::size_t>(si) * len + pos] = t.raw;
    ++slotPresent_[static_cast<std::size_t>(si)];
  }
}

void StaDetector::ingestUnit(const TimeUnitBatch& batch, std::size_t pos) {
  DetectWorkspace& w = ws();
  w.beginUnit();
  w.touched.clear();
  for (const auto& r : batch.records) stageCount(w, r.category, 1.0);

  // Snapshot the direct counts before the Definition-2 sweep accumulates
  // child aggregates upward. Staging order — one entry per distinct
  // counted node; the snapshot writer sorts at checkpoint time so the
  // per-unit hot path pays no O(k log k).
  WindowUnit& unit = windowUnits_[pos];
  unit.counts.clear();
  unit.counts.reserve(w.touched.size());
  for (NodeId n : w.touched) unit.counts.emplace_back(n, w.raw(n));

  recordUnitAggregates(pos);
}

void StaDetector::rebuildSeries() {
  const std::size_t len = config_.windowLength;
  // The window is full here (step() only reconstructs once warmed up), so
  // every slot ring is one rotation of the age axis: age a lives at
  // (base + a) % len — two contiguous runs, [base, len) then [0, base).
  const std::size_t base = ringIndex(0);
  const std::size_t firstRun = len - base;

  for (NodeId n : resultNodes_) resultIndex_[n] = -1;
  resultNodes_.clear();
  if (shhh_.empty() || shhh_.front() != hierarchy_.root()) {
    resultNodes_.push_back(hierarchy_.root());
  }
  resultNodes_.insert(resultNodes_.end(), shhh_.begin(), shhh_.end());
  if (resultSeries_.size() < resultNodes_.size()) {
    resultSeries_.resize(resultNodes_.size());
    resultForecast_.resize(resultNodes_.size());
  }

  // Every output node starts from its raw-aggregate ring (zeros if no unit
  // in the window touched it). The SoA slot table keeps each ring flat, so
  // de-rotation is two straight copies.
  for (std::size_t i = 0; i < resultNodes_.size(); ++i) {
    const NodeId n = resultNodes_[i];
    resultIndex_[n] = static_cast<std::int32_t>(i);
    auto& series = resultSeries_[i];
    series.resize(len);
    const double* ring = ringOf(n);
    if (ring == nullptr) {
      std::fill(series.begin(), series.end(), 0.0);
    } else {
      std::copy(ring + base, ring + len, series.begin());
      std::copy(ring, ring + base, series.begin() + firstRun);
    }
  }

  // Fixed-membership cut: every member's raw series is subtracted from its
  // nearest member ancestor (or the root), leaving each output node with
  // exactly the weight that accrues to it under the fixed set. All values
  // are integer counts, so the regrouped sums are exact. The subtraction
  // runs over the two contiguous ring runs and is element-wise, so
  // vectorizing it performs exactly the per-age scalar subtract.
  DetectWorkspace& w = ws();
  w.beginMarks(DetectWorkspace::kMemberPlane);
  for (NodeId n : shhh_) w.mark(DetectWorkspace::kMemberPlane, n);
  for (NodeId d : shhh_) {
    if (d == hierarchy_.root()) continue;
    const double* ring = ringOf(d);
    if (ring == nullptr) continue;  // untouched member: all-zero series
    NodeId a = hierarchy_.parent(d);
    while (a != hierarchy_.root() &&
           !w.isMarked(DetectWorkspace::kMemberPlane, a)) {
      a = hierarchy_.parent(a);
    }
    double* const target =
        resultSeries_[static_cast<std::size_t>(resultIndex_[a])].data();
#pragma omp simd
    for (std::size_t k = 0; k < firstRun; ++k) target[k] -= ring[base + k];
#pragma omp simd
    for (std::size_t k = 0; k < base; ++k) target[firstRun + k] -= ring[k];
  }

  // Refit the forecasting model over each reconstructed series, recording
  // the one-step-ahead forecast at every unit (Fig 4 lines 10-11).
  const ForecasterFactory& models = factory();
  for (std::size_t i = 0; i < resultNodes_.size(); ++i) {
    const auto& actual = resultSeries_[i];
    auto& fc = resultForecast_[i];
    fc.resize(len);
    auto model = models.make();
    for (std::size_t u = 0; u < len; ++u) fc[u] = model->advance(actual[u]);
  }
}

std::optional<InstanceResult> StaDetector::step(const TimeUnitBatch& batch) {
  {
    StageTimer::Scope scope(stages_, kStageUpdateHierarchies);
    const std::size_t pos = nextPos_;
    if (windowSize_ == config_.windowLength) expireUnit(pos);
    ingestUnit(batch, pos);
    nextPos_ = (pos + 1) % config_.windowLength;
    if (windowSize_ < config_.windowLength) ++windowSize_;
    newestUnit_ = batch.unit;
  }
  if (windowSize_ < config_.windowLength) return std::nullopt;

  InstanceResult result;
  result.unit = newestUnit_;

  {
    StageTimer::Scope scope(stages_, kStageCreateSeries);
    // SHHH of the detection unit (Fig 4 line 6), then the incremental
    // window reconstruction with that fixed set (lines 7-9).
    shhh_.assign(shhhScratch_.shhh.begin(), shhhScratch_.shhh.end());
    rebuildSeries();
  }

  {
    StageTimer::Scope scope(stages_, kStageDetect);
    result.shhh = shhh_;
    for (NodeId n : shhh_) {
      const std::size_t i = static_cast<std::size_t>(resultIndex_[n]);
      const double actual = resultSeries_[i].back();
      const double forecast = resultForecast_[i].back();
      if (isAnomalous(actual, forecast, config_.ratioThreshold,
                      config_.diffThreshold)) {
        result.anomalies.push_back(
            {n, newestUnit_, actual, forecast, anomalyRatio(actual, forecast)});
      }
    }
    std::sort(result.anomalies.begin(), result.anomalies.end(),
              [](const Anomaly& a, const Anomaly& b) { return a.node < b.node; });
  }
  return result;
}

std::vector<NodeId> StaDetector::currentShhh() const { return shhh_; }

void StaDetector::seriesInto(NodeId node, std::vector<double>& out) const {
  out.clear();
  if (node >= resultIndex_.size()) return;
  const std::int32_t i = resultIndex_[node];
  if (i < 0) return;
  const auto& s = resultSeries_[static_cast<std::size_t>(i)];
  out.assign(s.begin(), s.end());
}

void StaDetector::forecastSeriesInto(NodeId node,
                                     std::vector<double>& out) const {
  out.clear();
  if (node >= resultIndex_.size()) return;
  const std::int32_t i = resultIndex_[node];
  if (i < 0) return;
  const auto& s = resultForecast_[static_cast<std::size_t>(i)];
  out.assign(s.begin(), s.end());
}

void StaDetector::saveState(persist::Serializer& out) const {
  out.u8(kStaDetectorStateTag);
  out.u64(config_.windowLength);
  out.i64(newestUnit_);
  // Resident units oldest first, each encoded exactly like the historical
  // CountMap encoding (sorted node/value pairs). Units hold their counts
  // in staging order, so sort a copy here — checkpoint-time work, not
  // per-unit work.
  out.u64(windowSize_);
  std::vector<std::pair<NodeId, double>> sorted;
  for (std::size_t age = 0; age < windowSize_; ++age) {
    const WindowUnit& unit = windowUnits_[ringIndex(age)];
    sorted.assign(unit.counts.begin(), unit.counts.end());
    std::sort(sorted.begin(), sorted.end());
    state_io::writeCountRuns(out, sorted);
  }
  state_io::writeNodeVec(out, shhh_);
  // The materialized series, keyed ascending — byte-identical to the
  // historical sorted encoding of the per-node map.
  const auto writeSeriesVec =
      [&](const std::vector<std::vector<double>>& series) {
        out.u64(resultNodes_.size());
        for (std::size_t i = 0; i < resultNodes_.size(); ++i) {
          out.u32(resultNodes_[i]);
          state_io::writeDoubleVec(out, series[i]);
        }
      };
  writeSeriesVec(resultSeries_);
  writeSeriesVec(resultForecast_);
}

void StaDetector::rebuildSlots() {
  std::fill(slotIndex_.begin(), slotIndex_.end(), -1);
  slotRings_.clear();
  slotPresent_.clear();
  freeSlots_.clear();
  for (std::size_t pos = 0; pos < windowSize_; ++pos) {
    stageUnit(ws(), windowUnits_[pos].counts);
    recordUnitAggregates(pos);
  }
}

void StaDetector::loadState(persist::Deserializer& in) {
  using persist::Deserializer;
  Deserializer::require(in.u8() == kStaDetectorStateTag,
                        "snapshot holds a different detector type");
  Deserializer::require(in.u64() == config_.windowLength,
                        "STA snapshot: window length mismatch");
  const TimeUnit newestUnit = in.i64();
  const std::size_t units = in.count(sizeof(std::uint64_t));
  Deserializer::require(units <= config_.windowLength,
                        "STA snapshot: more units than the window holds");
  Deserializer::require(
      units < config_.windowLength || config_.forecasterFactory != nullptr,
      "STA snapshot: full window but no forecaster factory");
  std::vector<std::vector<std::pair<NodeId, double>>> window(units);
  for (auto& unit : window) {
    // Historical acceptance semantics: arbitrary order, duplicate keys
    // overwrite (readCountMap), then normalized to sorted pairs.
    const CountMap counts = state_io::readCountMap(in, hierarchy_);
    unit.assign(counts.begin(), counts.end());
    std::sort(unit.begin(), unit.end());
  }
  std::vector<NodeId> shhh = state_io::readNodeVec(in, hierarchy_);
  const auto readSeriesMap = [&] {
    std::map<NodeId, std::vector<double>> map;
    const std::size_t n =
        in.count(sizeof(std::uint32_t) + sizeof(std::uint64_t));
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId node = in.u32();
      Deserializer::require(node < hierarchy_.size(),
                            "snapshot: node id outside hierarchy");
      map[node] = state_io::readDoubleVec(in);
    }
    return map;
  };
  auto series = readSeriesMap();
  auto forecastSeries = readSeriesMap();
  Deserializer::require(series.size() == forecastSeries.size(),
                        "STA snapshot: series maps disagree");
  for (const auto& [node, s] : series) {
    (void)s;
    Deserializer::require(forecastSeries.count(node) != 0,
                          "STA snapshot: series maps disagree");
  }

  newestUnit_ = newestUnit;
  windowSize_ = units;
  nextPos_ = units % config_.windowLength;
  for (std::size_t pos = 0; pos < config_.windowLength; ++pos) {
    windowUnits_[pos].counts.clear();
    windowUnits_[pos].touchedNodes = 0;
  }
  for (std::size_t pos = 0; pos < units; ++pos) {
    windowUnits_[pos].counts = std::move(window[pos]);
  }
  shhh_ = std::move(shhh);
  std::fill(resultIndex_.begin(), resultIndex_.end(), -1);
  resultNodes_.clear();
  resultSeries_.clear();
  resultForecast_.clear();
  for (auto& [node, s] : series) {
    resultIndex_[node] = static_cast<std::int32_t>(resultNodes_.size());
    resultNodes_.push_back(node);
    resultSeries_.push_back(std::move(s));
    resultForecast_.push_back(std::move(forecastSeries.at(node)));
  }
  rebuildSlots();
}

MemoryStats StaDetector::memoryStats() const {
  MemoryStats stats;
  // STA's resident state is ℓ sparse trees: every counted node plus its
  // ancestors exists in the per-unit tree (Fig 4 line 4).
  for (std::size_t age = 0; age < windowSize_; ++age) {
    stats.treeNodesStored += windowUnits_[ringIndex(age)].touchedNodes;
  }
  stats.seriesCount = resultNodes_.size() * 2;
  for (std::size_t i = 0; i < resultNodes_.size(); ++i) {
    stats.seriesValues += resultSeries_[i].size() + resultForecast_[i].size();
  }
  stats.workspaceBytes = config_.workspace->bytes();
  stats.bytesEstimate =
      stats.treeNodesStored * (sizeof(NodeId) + sizeof(double)) +
      stats.seriesValues * sizeof(double);
  return stats;
}

}  // namespace tiresias
