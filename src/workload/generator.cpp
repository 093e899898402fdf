#include "workload/generator.h"

#include <algorithm>
#include <cmath>

#include "common/expect.h"

namespace tiresias::workload {

std::vector<double> WorkloadSpec::leafProbabilities() const {
  std::vector<double> prob(hierarchy.size(), 0.0);
  prob[hierarchy.root()] = 1.0;
  // Top-down (ascending ids): parents precede children.
  for (NodeId n = 0; n < hierarchy.size(); ++n) {
    const auto kids = hierarchy.children(n);
    for (std::size_t i = 0; i < kids.size(); ++i) {
      prob[kids[i]] = prob[n] * childShares[n][i];
    }
  }
  std::vector<double> out;
  out.reserve(hierarchy.leafCount());
  for (NodeId leaf : hierarchy.leaves()) out.push_back(prob[leaf]);
  return out;
}

double WorkloadSpec::nodeProbability(NodeId node) const {
  double p = 1.0;
  NodeId cur = node;
  while (cur != hierarchy.root()) {
    const NodeId parent = hierarchy.parent(cur);
    const auto kids = hierarchy.children(parent);
    for (std::size_t i = 0; i < kids.size(); ++i) {
      if (kids[i] == cur) {
        p *= childShares[parent][i];
        break;
      }
    }
    cur = parent;
  }
  return p;
}

std::vector<std::vector<double>> WorkloadSpec::zipfShares(
    const Hierarchy& hierarchy, const std::vector<double>& exponents) {
  TIRESIAS_EXPECT(!exponents.empty(), "need at least one exponent");
  std::vector<std::vector<double>> shares(hierarchy.size());
  for (NodeId n = 0; n < hierarchy.size(); ++n) {
    const auto kids = hierarchy.children(n);
    if (kids.empty()) continue;
    const std::size_t depthIdx = std::min<std::size_t>(
        static_cast<std::size_t>(hierarchy.depth(n)) - 1,
        exponents.size() - 1);
    const double s = exponents[depthIdx];
    std::vector<double> w(kids.size());
    double total = 0.0;
    for (std::size_t i = 0; i < kids.size(); ++i) {
      w[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
      total += w[i];
    }
    for (auto& v : w) v /= total;
    shares[n] = std::move(w);
  }
  return shares;
}

GeneratorSource::GeneratorSource(
    const WorkloadSpec& spec, TimeUnit firstUnit, TimeUnit lastUnit,
    std::uint64_t seed, std::shared_ptr<const AnomalyInjector> injector)
    : spec_(spec),
      nextUnit_(firstUnit),
      lastUnit_(lastUnit),
      rng_(seed),
      injector_(std::move(injector)) {
  TIRESIAS_EXPECT(firstUnit <= lastUnit, "unit range reversed");
  TIRESIAS_EXPECT(spec.childShares.size() == spec.hierarchy.size(),
                  "child shares must cover every node");
  // Vose's alias method over the leaf distribution: O(leaves) setup, one
  // uniform draw per sample. Same long-run leaf probabilities as walking
  // the per-node share CDFs, at a fraction of the per-record cost.
  const auto probs = spec.leafProbabilities();
  const std::size_t n = probs.size();
  TIRESIAS_EXPECT(n > 0, "workload hierarchy has no leaves");
  aliasProb_.assign(n, 1.0);
  aliasIdx_.resize(n);
  std::vector<std::uint32_t> small, large;
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = probs[i] * static_cast<double>(n);
    aliasIdx_[i] = static_cast<std::uint32_t>(i);
    (scaled[i] < 1.0 ? small : large).push_back(
        static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    const std::uint32_t l = large.back();
    small.pop_back();
    aliasProb_[s] = scaled[s];
    aliasIdx_[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers (rounding drift) keep probability 1 onto themselves.
}

NodeId GeneratorSource::sampleLeaf() {
  // One uniform split into bucket index (integer part) and the coin toss
  // (fractional part).
  const double u =
      rng_.uniform() * static_cast<double>(aliasProb_.size());
  std::size_t i = static_cast<std::size_t>(u);
  if (i >= aliasProb_.size()) i = aliasProb_.size() - 1;
  const double frac = u - static_cast<double>(i);
  const std::size_t pick = frac < aliasProb_[i] ? i : aliasIdx_[i];
  return spec_.hierarchy.leaves()[pick];
}

void GeneratorSource::fillUnit() {
  buffer_.clear();
  bufferPos_ = 0;
  const Timestamp start = unitStart(nextUnit_, spec_.unit);
  const Timestamp mid = start + spec_.unit / 2;
  const double mean =
      spec_.baseRatePerUnit * spec_.rate.multiplier(mid);
  const std::uint64_t count = rng_.poisson(mean);
  buffer_.reserve(count + 8);
  for (std::uint64_t i = 0; i < count; ++i) {
    const Timestamp t =
        start + static_cast<Timestamp>(rng_.below(
                    static_cast<std::uint64_t>(spec_.unit)));
    buffer_.push_back({sampleLeaf(), t});
  }
  if (injector_) {
    for (NodeId leaf : injector_->drawExtras(nextUnit_, rng_)) {
      const Timestamp t =
          start + static_cast<Timestamp>(rng_.below(
                      static_cast<std::uint64_t>(spec_.unit)));
      buffer_.push_back({leaf, t});
    }
  }
  std::sort(buffer_.begin(), buffer_.end(),
            [](const Record& a, const Record& b) { return a.time < b.time; });
  ++nextUnit_;
}

std::size_t GeneratorSource::nextBatch(std::vector<Record>& out,
                                       std::size_t max) {
  out.clear();
  while (out.size() < max) {
    if (bufferPos_ >= buffer_.size()) {
      if (nextUnit_ >= lastUnit_) break;
      fillUnit();
      continue;
    }
    const std::size_t take =
        std::min(max - out.size(), buffer_.size() - bufferPos_);
    out.insert(out.end(), buffer_.begin() + bufferPos_,
               buffer_.begin() + bufferPos_ + take);
    bufferPos_ += take;
    produced_ += take;
  }
  return out.size();
}

}  // namespace tiresias::workload
