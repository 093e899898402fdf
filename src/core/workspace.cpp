#include "core/workspace.h"

#include <algorithm>
#include <limits>

namespace tiresias {

void DetectWorkspace::bind(std::size_t nodes) {
  if (raw_.size() == nodes) {
    // Same node count, but possibly a different hierarchy (a pooled
    // workspace cycling between equally-sized streams): the previous
    // tenant's epoch stamps would alias the current generations, so
    // invalidate every plane. A generation bump is O(1) per plane.
    bump(valueGen_, valueEpoch_);
    for (unsigned p = 0; p < kPlaneCount; ++p) {
      bump(markGen_[p], markEpoch_[p]);
    }
    for (NodeBitSet* set : {&order, &worklist, &received}) set->clear();
    return;
  }
  // Grow *or shrink* to the new node count. assign() resizes in both
  // directions and zero-fills, so a shrink cannot leave slots beyond the
  // new bound readable, and every generation restarts from scratch.
  raw_.assign(nodes, 0.0);
  modified_.assign(nodes, 0.0);
  valueEpoch_.assign(nodes, 0);
  // Generations start at 1, not 0: zero-filled epoch stamps must read as
  // stale, so a just-bound workspace is invalidated like any rebind (at
  // gen 0 every slot would read as touched-with-zero instead).
  valueGen_ = 1;
  for (unsigned p = 0; p < kPlaneCount; ++p) {
    markEpoch_[p].assign(nodes, 0);
    markGen_[p] = 1;
  }
  for (NodeBitSet* set : {&order, &worklist, &received}) set->resize(nodes);
  // A shrink keeps the old capacity in reserve; a pooled workspace
  // bouncing between a large and a small hierarchy should not reallocate
  // on every hop, and bytes() reports capacity, so the residency math
  // stays honest.
  touched.clear();
}

std::size_t DetectWorkspace::bytes() const {
  std::size_t b = raw_.capacity() * sizeof(double) +
                  modified_.capacity() * sizeof(double) +
                  valueEpoch_.capacity() * sizeof(std::uint32_t) +
                  touched.capacity() * sizeof(NodeId) + order.bytes() +
                  worklist.bytes() + received.bytes();
  for (unsigned p = 0; p < kPlaneCount; ++p) {
    b += markEpoch_[p].capacity() * sizeof(std::uint32_t);
  }
  return b;
}

void DetectWorkspace::bump(std::uint32_t& gen,
                           std::vector<std::uint32_t>& epoch) {
  if (gen == std::numeric_limits<std::uint32_t>::max()) {
    // Generation wrap: stale stamps could alias the recycled value, so pay
    // one full clear every 2^32 - 1 units and restart.
    std::fill(epoch.begin(), epoch.end(), 0);
    gen = 1;
    return;
  }
  ++gen;
}

}  // namespace tiresias
