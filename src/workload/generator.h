// Synthetic operational-data generation.
//
// A WorkloadSpec bundles a hierarchy, a per-node child-share distribution
// (leaf popularity = product of shares along the root path, giving the
// heterogeneous sibling rates §II-B observes), a seasonal rate model, and a
// base rate. GeneratorSource turns a spec (plus an optional injector) into
// a time-ordered RecordSource: per timeunit it draws a Poisson count around
// base · multiplier(t), samples leaves in O(1) from an alias table over
// the leaf distribution (root-path product of shares), adds injected
// extras and uniformly spreads timestamps within the unit.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "stream/source.h"
#include "workload/arrival.h"
#include "workload/injector.h"

namespace tiresias::workload {

struct WorkloadSpec {
  Hierarchy hierarchy;
  /// childShares[n] has one probability per child of n (same order as
  /// hierarchy.children(n)), summing to 1 for interior nodes.
  std::vector<std::vector<double>> childShares;
  SeasonalRateModel rate;
  /// Expected records per timeunit when the seasonal multiplier is 1.
  double baseRatePerUnit = 100.0;
  /// Timeunit the base rate refers to.
  Duration unit = 15 * kMinute;

  /// Long-run probability that a record lands on each leaf (root-path
  /// product of shares), aligned with hierarchy.leaves().
  std::vector<double> leafProbabilities() const;
  /// As above but for an arbitrary node.
  double nodeProbability(NodeId node) const;

  /// Zipf-like child shares for every interior node: the k-th child of a
  /// node at depth d gets a share ∝ 1/k^exponents[d-1] (exponent 0 =>
  /// uniform). Exponents beyond the vector reuse the last entry.
  static std::vector<std::vector<double>> zipfShares(
      const Hierarchy& hierarchy, const std::vector<double>& exponents);
};

/// Aliasing handle to the hierarchy inside a shared WorkloadSpec: the
/// handle keeps the whole spec alive, so any number of streams can be
/// registered against one spec's hierarchy (the memory-sharing idiom the
/// engine's addStream expects for preset-driven fleets).
inline std::shared_ptr<const Hierarchy> sharedHierarchy(
    const std::shared_ptr<const WorkloadSpec>& spec) {
  return std::shared_ptr<const Hierarchy>(spec, &spec->hierarchy);
}

class GeneratorSource final : public RecordSource {
 public:
  /// Generates records for timeunits [firstUnit, lastUnit). The injector
  /// is optional.
  GeneratorSource(const WorkloadSpec& spec, TimeUnit firstUnit,
                  TimeUnit lastUnit, std::uint64_t seed,
                  std::shared_ptr<const AnomalyInjector> injector = nullptr);

  /// Copies whole runs out of the per-unit buffer, so the per-record cost
  /// is a memcpy. The sequence depends only on the seed, not on `max`.
  std::size_t nextBatch(std::vector<Record>& out, std::size_t max) override;

  /// Total records generated so far.
  std::size_t produced() const { return produced_; }

 private:
  void fillUnit();
  NodeId sampleLeaf();

  const WorkloadSpec& spec_;
  /// Walker/Vose alias table over the leaves (probability = root-path
  /// product of child shares): one uniform draw and O(1) work per record,
  /// instead of a root-to-leaf walk of binary searches.
  std::vector<double> aliasProb_;
  std::vector<std::uint32_t> aliasIdx_;
  TimeUnit nextUnit_;
  TimeUnit lastUnit_;
  Rng rng_;
  std::shared_ptr<const AnomalyInjector> injector_;
  std::vector<Record> buffer_;
  std::size_t bufferPos_ = 0;
  std::size_t produced_ = 0;
};

}  // namespace tiresias::workload
