// Snapshot helpers shared by the detectors: node lists and per-unit sparse
// counts. Counts are written sorted by NodeId so equal state always encodes
// to identical bytes, and every node id read back is validated against the
// hierarchy it will index into.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/shhh.h"
#include "persist/snapshot.h"

namespace tiresias::state_io {

/// Write ascending (node, count) runs as `count u64` + `(node u32, f64)`
/// pairs — the historical sorted CountMap encoding, byte for byte.
inline void writeCountRuns(persist::Serializer& out,
                           std::span<const std::pair<NodeId, double>> runs) {
  out.u64(runs.size());
  for (const auto& [node, c] : runs) {
    out.u32(node);
    out.f64(c);
  }
}

/// Read one writeCountRuns payload. Ids must be strictly ascending and
/// inside the hierarchy.
inline std::vector<std::pair<NodeId, double>> readCountRuns(
    persist::Deserializer& in, const Hierarchy& hierarchy) {
  const std::size_t n = in.count(sizeof(std::uint32_t) + sizeof(double));
  std::vector<std::pair<NodeId, double>> runs;
  runs.reserve(n);
  NodeId prev = kInvalidNode;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId node = in.u32();
    persist::Deserializer::require(node < hierarchy.size(),
                                   "snapshot: node id outside hierarchy");
    persist::Deserializer::require(prev == kInvalidNode || node > prev,
                                   "snapshot: count ids not strictly ascending");
    prev = node;
    runs.emplace_back(node, in.f64());
  }
  return runs;
}

inline CountMap readCountMap(persist::Deserializer& in,
                             const Hierarchy& hierarchy) {
  const std::size_t n = in.count(sizeof(std::uint32_t) + sizeof(double));
  CountMap counts;
  counts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId node = in.u32();
    persist::Deserializer::require(node < hierarchy.size(),
                                   "snapshot: node id outside hierarchy");
    counts[node] = in.f64();
  }
  return counts;
}

inline void writeNodeVec(persist::Serializer& out,
                         const std::vector<NodeId>& nodes) {
  out.u64(nodes.size());
  for (NodeId n : nodes) out.u32(n);
}

inline std::vector<NodeId> readNodeVec(persist::Deserializer& in,
                                       const Hierarchy& hierarchy) {
  const std::size_t n = in.count(sizeof(std::uint32_t));
  std::vector<NodeId> out(n);
  for (auto& node : out) {
    node = in.u32();
    persist::Deserializer::require(node < hierarchy.size(),
                                   "snapshot: node id outside hierarchy");
  }
  return out;
}

inline void writeDoubleVec(persist::Serializer& out,
                           const std::vector<double>& values) {
  out.u64(values.size());
  for (double v : values) out.f64(v);
}

inline std::vector<double> readDoubleVec(persist::Deserializer& in) {
  const std::size_t n = in.count(sizeof(double));
  std::vector<double> out(n);
  for (double& v : out) v = in.f64();
  return out;
}

}  // namespace tiresias::state_io
