#include "core/shhh.h"

#include "common/expect.h"

namespace tiresias {
namespace {

/// Workspace for the CountMap convenience overloads (tests, benches); the
/// detectors pass their pipeline's workspace instead.
DetectWorkspace& localWorkspace(const Hierarchy& hierarchy) {
  static thread_local DetectWorkspace ws;
  ws.bind(hierarchy.size());
  return ws;
}

}  // namespace

/// Extend ws.touched (currently the counted nodes) with every ancestor,
/// deduplicated by the value-plane epoch stamps, and put it in descending
/// id order — BFS ids make that a valid bottom-up order.
void collectTouchedStaged(const Hierarchy& hierarchy, DetectWorkspace& ws) {
  auto& touched = ws.touched;
  const std::size_t counted = touched.size();
  for (std::size_t i = 0; i < counted; ++i) {
    for (NodeId cur = hierarchy.parent(touched[i]); cur != kInvalidNode;
         cur = hierarchy.parent(cur)) {
      if (!ws.touch(cur)) break;  // the rest of the chain is already present
      touched.push_back(cur);
    }
  }
  ws.orderTouched();
}

namespace {

/// Climb, then one bottom-up sweep: A_n always propagates to the parent,
/// W_n only when `cut(n, W_n)` is false. `out` receives every touched node
/// in ascending id order with `heavy` = cut(n, W_n).
///
/// The sweep itself is loop-carried (children accumulate into parents
/// before the parent is visited), so it stays scalar — but branch-free:
/// the discount is a lane select on the cut mask (a no-op keeps the
/// parent's exact bits, so this is bit-identical to the historical `if`),
/// and output slots are written in place instead of push_back + reverse.
template <typename Cut>
void sweepStaged(const Hierarchy& hierarchy, DetectWorkspace& ws,
                 std::vector<NodeWeights>& out, const Cut& cut) {
  collectTouchedStaged(hierarchy, ws);
  const std::size_t total = ws.touched.size();
  out.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    const NodeId n = ws.touched[i];
    const double a = ws.raw(n);
    const double w = ws.modified(n);
    const bool c = cut(n, w);
    out[total - 1 - i] = {n, a, w, c};  // ascending-id output
    const NodeId p = hierarchy.parent(n);
    if (p != kInvalidNode) {
      ws.raw(p) += a;
      double& mp = ws.modified(p);
      mp = c ? mp : mp + w;
    }
  }
}

}  // namespace

void computeShhhStaged(const Hierarchy& hierarchy, double theta,
                       DetectWorkspace& ws, ShhhResult& out) {
  TIRESIAS_EXPECT(theta > 0.0, "theta must be positive");
  // Definition 2: heavy hitters keep their weight from their ancestors.
  sweepStaged(hierarchy, ws, out.touched,
              [theta](NodeId, double w) { return w >= theta; });
  // Branchless compaction of the SHHH set, already ascending.
  out.shhh.resize(out.touched.size());
  std::size_t shhhLen = 0;
  for (const NodeWeights& t : out.touched) {
    out.shhh[shhhLen] = t.node;
    shhhLen += t.heavy;
  }
  out.shhh.resize(shhhLen);
}

void fixedSetSweepStaged(const Hierarchy& hierarchy, DetectWorkspace& ws,
                         std::vector<NodeWeights>& out) {
  sweepStaged(hierarchy, ws, out, [&ws](NodeId n, double) {
    return ws.isMarked(DetectWorkspace::kMemberPlane, n);
  });
}

void computeShhh(const Hierarchy& hierarchy, const CountMap& counts,
                 double theta, DetectWorkspace& ws, ShhhResult& out) {
  ws.bind(hierarchy.size());
  stageUnit(ws, counts);
  computeShhhStaged(hierarchy, theta, ws, out);
}

ShhhResult computeShhh(const Hierarchy& hierarchy, const CountMap& counts,
                       double theta) {
  ShhhResult result;
  computeShhh(hierarchy, counts, theta, localWorkspace(hierarchy), result);
  return result;
}

}  // namespace tiresias
