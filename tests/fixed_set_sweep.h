// Window series built from fixedSetSweepStaged the way ADA's bootstrap
// builds them: per unit, stage the counts, climb and sweep once, then read
// the fixed-set W_n of the root and every member and the A_n of every
// requested node. The maps have the shape of tiresias::reference's
// modifiedSeriesFixedSet / rawSeries, so tests compare the two directly.
#pragma once

#include <unordered_map>
#include <vector>

#include "core/shhh.h"

namespace tiresias {

struct SweptSeries {
  std::unordered_map<NodeId, std::vector<double>> modified;  // root + set
  std::unordered_map<NodeId, std::vector<double>> raw;       // rawNodes
  std::vector<std::vector<NodeWeights>> touched;             // per unit
};

inline SweptSeries sweepSeries(const Hierarchy& h,
                               const std::vector<CountMap>& units,
                               const std::vector<NodeId>& fixedSet,
                               const std::vector<NodeId>& rawNodes = {}) {
  DetectWorkspace ws;
  ws.bind(h.size());
  ws.beginMarks(DetectWorkspace::kMemberPlane);
  for (NodeId n : fixedSet) ws.mark(DetectWorkspace::kMemberPlane, n);
  SweptSeries out;
  out.modified[h.root()];
  for (NodeId n : fixedSet) out.modified[n];
  for (NodeId n : rawNodes) out.raw[n];
  for (const CountMap& counts : units) {
    stageUnit(ws, counts);
    fixedSetSweepStaged(h, ws, out.touched.emplace_back());
    for (auto& [n, s] : out.modified) s.push_back(ws.modifiedOrZero(n));
    for (auto& [n, s] : out.raw) s.push_back(ws.rawOrZero(n));
  }
  return out;
}

}  // namespace tiresias
