// Succinct Hierarchical Heavy Hitters (Definitions 1-3).
//
// computeShhhStaged is the authoritative bottom-up evaluation of
// Definition 2 for one timeunit; both detectors use it (STA per instance,
// ADA for its weight pass and the tests as ground truth).
// fixedSetSweepStaged is the Definition-3 sweep for a *fixed* heavy-hitter
// set: one unit of ADA's bootstrap reconstruction.
//
// Sparse convention: only nodes on the root-path of a nonzero leaf count
// are materialized; all others implicitly have A = W = 0 (θ > 0 keeps them
// out of every heavy-hitter set).
//
// Hot path: every kernel runs on a DetectWorkspace — dense NodeId-indexed,
// epoch-stamped arrays instead of per-call unordered_maps, and a bit set
// that yields the bottom-up (descending id) order without a sort. The
// detectors stage record counts straight into the workspace; the
// CountMap-taking overloads below stage a sparse map into a thread-local
// workspace and wrap the same kernel, so every entry point computes the
// identical floating-point sequence (the equivalence tests assert
// bit-identity against the retained map-based implementation in
// shhh_reference.h).
#pragma once

#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "core/workspace.h"
#include "hierarchy/hierarchy.h"

namespace tiresias {

/// Sparse per-unit counts: node -> weight contributed directly at that node
/// (for leaf-categorised operational data, keys are leaves). This stays the
/// public ingest-facing type; the detectors do not use it (tests, benches
/// and the reference evaluators do).
using CountMap = std::unordered_map<NodeId, double>;

struct NodeWeights {
  NodeId node = kInvalidNode;
  double raw = 0.0;       // A_n: full subtree aggregate
  double modified = 0.0;  // W_n: Definition-2 modified weight
  bool heavy = false;     // W_n >= theta
};

struct ShhhResult {
  /// Every touched node (ascending id) with its weights.
  std::vector<NodeWeights> touched;
  /// The SHHH set (ascending id). Unique per Definition 2.
  std::vector<NodeId> shhh;
};

/// Stage one direct count into a workspace whose value plane was opened
/// with ws.beginUnit(): first touch registers the node in ws.touched.
inline void stageCount(DetectWorkspace& ws, NodeId node, double weight) {
  if (ws.touch(node)) ws.touched.push_back(node);
  ws.raw(node) += weight;
  ws.modified(node) += weight;
}

/// Start a unit in `ws` (value plane and touched list) and stage sparse
/// (node, weight) counts into it.
template <typename Counts>
void stageUnit(DetectWorkspace& ws, const Counts& counts) {
  ws.beginUnit();
  ws.touched.clear();
  for (const auto& [node, weight] : counts) stageCount(ws, node, weight);
}

/// Evaluate Definition 2 over the counts staged in `ws` (beginUnit +
/// stageCount since the last generation). Extends ws.touched with every
/// ancestor of a counted node and leaves it in bottom-up (descending id)
/// order; on return ws.raw/ws.modified hold A_n / W_n for each touched
/// node. `out` is refilled (capacity reused across units).
void computeShhhStaged(const Hierarchy& hierarchy, double theta,
                       DetectWorkspace& ws, ShhhResult& out);

/// Definition-3 sweep of the staged counts against a fixed member set, the
/// nodes marked in ws's kMemberPlane: a member keeps its weight from its
/// ancestors regardless of this unit's magnitudes. Orders ws.touched like
/// computeShhhStaged; on return ws.raw holds A_n and ws.modified holds the
/// fixed-set weight of each touched node, and `out` lists the touched
/// nodes ascending with those two values and `heavy` = member.
void fixedSetSweepStaged(const Hierarchy& hierarchy, DetectWorkspace& ws,
                         std::vector<NodeWeights>& out);

/// Collect ws.touched ∪ ancestors for the staged counts without a sweep
/// (bottom-up order). Used to walk a unit's resident tree, e.g. when
/// expiring it from an incremental window.
void collectTouchedStaged(const Hierarchy& hierarchy, DetectWorkspace& ws);

/// Evaluate Definition 2 for one timeunit of counts (workspace-reusing
/// overload; `out` is cleared and refilled).
void computeShhh(const Hierarchy& hierarchy, const CountMap& counts,
                 double theta, DetectWorkspace& ws, ShhhResult& out);

/// Convenience overload over a thread-local workspace.
ShhhResult computeShhh(const Hierarchy& hierarchy, const CountMap& counts,
                       double theta);

}  // namespace tiresias
