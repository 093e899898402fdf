#include "core/split_rules.h"

#include <algorithm>
#include <cmath>

#include "common/expect.h"

namespace tiresias {

const char* splitRuleName(SplitRule rule) {
  switch (rule) {
    case SplitRule::kUniform:
      return "Uniform";
    case SplitRule::kLastTimeUnit:
      return "Last-Time-Unit";
    case SplitRule::kLongTermHistory:
      return "Long-Term-History";
    case SplitRule::kEwma:
      return "EWMA";
  }
  return "?";
}

SplitRuleEngine::SplitRuleEngine(SplitRule rule, double ewmaAlpha)
    : rule_(rule), alpha_(ewmaAlpha) {
  TIRESIAS_EXPECT(ewmaAlpha > 0.0 && ewmaAlpha <= 1.0,
                  "split EWMA alpha must be in (0,1]");
}

void SplitRuleEngine::ensureNode(NodeId node) {
  if (node < lastValue_.size()) return;
  const std::size_t size = static_cast<std::size_t>(node) + 1;
  lastValue_.resize(size, 0.0);
  lastStamp_.resize(size, -1);
  cumulative_.resize(size, 0.0);
  cumPresent_.resize(size, 0);
  ewma_.resize(size);
}

template <typename Range, typename Proj>
void SplitRuleEngine::observeRange(const Range& range, const Proj& proj) {
  ++instanceCount_;
  switch (rule_) {
    case SplitRule::kUniform:
      break;
    case SplitRule::kLastTimeUnit:
      lastCount_ = 0;
      for (const auto& entry : range) {
        const auto [node, w] = proj(entry);
        ensureNode(node);
        if (lastStamp_[node] != instanceCount_) {
          lastStamp_[node] = instanceCount_;
          ++lastCount_;
          lastValue_[node] = w;
        } else {
          lastValue_[node] = w;  // duplicate key: overwrite, like the map
        }
      }
      break;
    case SplitRule::kLongTermHistory:
      for (const auto& entry : range) {
        const auto [node, w] = proj(entry);
        ensureNode(node);
        if (!cumPresent_[node]) {
          cumPresent_[node] = 1;
          ++cumCount_;
        }
        cumulative_[node] += w;
      }
      break;
    case SplitRule::kEwma:
      for (const auto& entry : range) {
        const auto [node, w] = proj(entry);
        ensureNode(node);
        auto& state = ewma_[node];
        if (state.instance == 0) ++ewmaCount_;
        const auto gap = instanceCount_ - state.instance;
        // Lazy decay covers the instances where the node was untouched
        // (observed weight 0): value *= (1-alpha)^(gap-1), then blend.
        const double decayed =
            state.instance == 0
                ? 0.0
                : state.value * std::pow(1.0 - alpha_,
                                         static_cast<double>(gap - 1));
        state.value = alpha_ * w + (1.0 - alpha_) * decayed;
        state.instance = instanceCount_;
      }
      break;
  }
}

void SplitRuleEngine::observeInstance(
    const std::vector<std::pair<NodeId, double>>& rawWeights) {
  observeRange(rawWeights, [](const auto& e) { return e; });
}

void SplitRuleEngine::observeTouched(std::span<const NodeWeights> touched) {
  observeRange(touched, [](const NodeWeights& t) {
    return std::pair<NodeId, double>{t.node, t.raw};
  });
}

double SplitRuleEngine::weightOf(NodeId node) const {
  switch (rule_) {
    case SplitRule::kUniform:
      return 1.0;
    case SplitRule::kLastTimeUnit:
      return lastUnitHas(node) ? lastValue_[node] : 0.0;
    case SplitRule::kLongTermHistory:
      return node < cumulative_.size() && cumPresent_[node]
                 ? cumulative_[node]
                 : 0.0;
    case SplitRule::kEwma: {
      if (node >= ewma_.size() || ewma_[node].instance == 0) return 0.0;
      const auto gap = instanceCount_ - ewma_[node].instance;
      return ewma_[node].value *
             std::pow(1.0 - alpha_, static_cast<double>(gap));
    }
  }
  return 0.0;
}

std::vector<double> SplitRuleEngine::ratios(
    const std::vector<NodeId>& group) const {
  TIRESIAS_EXPECT(!group.empty(), "split group must be non-empty");
  std::vector<double> out(group.size(), 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    out[i] = weightOf(group[i]);
    total += out[i];
  }
  if (total <= 0.0) {
    const double u = 1.0 / static_cast<double>(group.size());
    for (auto& r : out) r = u;
    return out;
  }
  for (auto& r : out) r /= total;
  return out;
}

void SplitRuleEngine::saveState(persist::Serializer& out) const {
  out.u8(static_cast<std::uint8_t>(rule_));
  out.f64(alpha_);
  out.i64(instanceCount_);
  // Each plane encodes exactly like the historical sorted node map:
  // count, then ascending (node, payload) for every present node.
  out.u64(lastCount_);
  for (NodeId n = 0; n < lastStamp_.size(); ++n) {
    if (!lastUnitHas(n)) continue;
    out.u32(n);
    out.f64(lastValue_[n]);
  }
  out.u64(cumCount_);
  for (NodeId n = 0; n < cumulative_.size(); ++n) {
    if (!cumPresent_[n]) continue;
    out.u32(n);
    out.f64(cumulative_[n]);
  }
  out.u64(ewmaCount_);
  for (NodeId n = 0; n < ewma_.size(); ++n) {
    if (ewma_[n].instance == 0) continue;
    out.u32(n);
    out.f64(ewma_[n].value);
    out.i64(ewma_[n].instance);
  }
}

void SplitRuleEngine::loadState(persist::Deserializer& in,
                                std::size_t nodeBound) {
  using persist::Deserializer;
  const std::uint8_t rule = in.u8();
  Deserializer::require(rule <= static_cast<std::uint8_t>(SplitRule::kEwma),
                        "split-rule snapshot: unknown rule");
  const double alpha = in.f64();
  Deserializer::require(alpha > 0.0 && alpha <= 1.0,
                        "split-rule snapshot: alpha out of range");
  const std::int64_t instances = in.i64();
  Deserializer::require(instances >= 0,
                        "split-rule snapshot: negative instance count");

  const auto readNode = [&] {
    const NodeId node = in.u32();
    Deserializer::require(static_cast<std::size_t>(node) < nodeBound,
                          "split-rule snapshot: node id out of range");
    return node;
  };

  std::vector<double> lastValue, cumulative;
  std::vector<std::int64_t> lastStamp;  // grown with -1 (= absent) stamps
  std::vector<std::uint8_t> cumPresent;
  std::vector<EwmaState> ewma;
  std::size_t lastCount = 0, cumCount = 0, ewmaCount = 0;
  const auto ensure = [](auto& vec, NodeId node,
                         auto fill) -> decltype(vec[node])& {
    if (static_cast<std::size_t>(node) >= vec.size()) {
      vec.resize(static_cast<std::size_t>(node) + 1, fill);
    }
    return vec[node];
  };

  std::size_t n = in.count(sizeof(std::uint32_t) + sizeof(double));
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId node = readNode();
    ensure(lastValue, node, 0.0) = in.f64();
    // Duplicate keys collapse (the historical map overwrote them).
    if (ensure(lastStamp, node, std::int64_t{-1}) != instances) ++lastCount;
    lastStamp[node] = instances;
  }
  n = in.count(sizeof(std::uint32_t) + sizeof(double));
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId node = readNode();
    ensure(cumulative, node, 0.0) = in.f64();
    if (!ensure(cumPresent, node, std::uint8_t{0})) ++cumCount;
    cumPresent[node] = 1;
  }
  n = in.count(sizeof(std::uint32_t) + 2 * sizeof(double));
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId node = readNode();
    EwmaState state;
    state.value = in.f64();
    state.instance = in.i64();
    Deserializer::require(state.instance >= 0 && state.instance <= instances,
                          "split-rule snapshot: EWMA instance out of range");
    auto& slot = ensure(ewma, node, EwmaState{});
    // Keep the count equal to the number of *present* (instance != 0)
    // entries even when duplicate keys flip a slot between present and
    // absent — a drifting count would make the next saveState declare
    // more entries than it writes.
    if (slot.instance == 0 && state.instance != 0) ++ewmaCount;
    if (slot.instance != 0 && state.instance == 0) --ewmaCount;
    slot = state;
  }

  // Pad every plane to a common size.
  const std::size_t size =
      std::max({lastValue.size(), cumulative.size(), ewma.size()});
  lastValue.resize(size, 0.0);
  lastStamp.resize(size, -1);
  cumulative.resize(size, 0.0);
  cumPresent.resize(size, 0);
  ewma.resize(size);

  rule_ = static_cast<SplitRule>(rule);
  alpha_ = alpha;
  instanceCount_ = instances;
  lastValue_ = std::move(lastValue);
  lastStamp_ = std::move(lastStamp);
  lastCount_ = lastCount;
  cumulative_ = std::move(cumulative);
  cumPresent_ = std::move(cumPresent);
  cumCount_ = cumCount;
  ewma_ = std::move(ewma);
  ewmaCount_ = ewmaCount;
}

std::size_t SplitRuleEngine::trackedNodes() const {
  switch (rule_) {
    case SplitRule::kUniform:
      return 0;
    case SplitRule::kLastTimeUnit:
      return lastCount_;
    case SplitRule::kLongTermHistory:
      return cumCount_;
    case SplitRule::kEwma:
      return ewmaCount_;
  }
  return 0;
}

}  // namespace tiresias
