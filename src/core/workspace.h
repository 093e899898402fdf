// DetectWorkspace — reusable dense scratch for the per-unit detection hot
// path.
//
// The Hierarchy assigns dense BFS-ordered NodeIds, so every per-unit
// quantity the detectors juggle (direct counts, raw aggregates A_n,
// modified weights W_n, membership / tosplit marks) indexes a
// flat array instead of an unordered_map. Clearing between units would
// still be O(hierarchy), so every plane is *epoch-stamped*: each node
// carries the generation that last wrote it, and invalidating a whole
// plane is one counter bump. A slot is valid only while its stamp equals
// the plane's current generation; stale slots read as zero / unmarked.
//
// Bottom-up order needs no comparison sort either: BFS ids put every
// child above its parent, so children-before-parents is descending id.
// NodeBitSet holds one bit per node and drains its words from high to
// low, which yields that order in O(k + N/64) for k members.
//
// Workspaces are *pooled*, not per-stream: the engine keeps one workspace
// per worker and lends it to whichever stream that worker is advancing
// (the scheduler serializes a stream to one worker at a time, and nothing
// in the workspace survives a step, so lending is bit-identity-safe).
// Standalone pipelines lazily create a private workspace instead. The
// workspace is scratch only: nothing in it survives a step, and it is
// never serialized.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hierarchy/hierarchy.h"

namespace tiresias {

/// A set of node ids, one bit each, emptied largest id first. Emptying it
/// (popMax to empty, drainDescending, clear) zeroes every word again.
class NodeBitSet {
 public:
  /// Size for ids [0, nodes), empty.
  void resize(std::size_t nodes) {
    words_.assign((nodes + 63) / 64, 0);
    top_ = 0;
  }
  /// O(words up to the highest member).
  void clear() {
    std::fill_n(words_.begin(), top_, 0);
    top_ = 0;
  }
  void insert(NodeId n) {
    words_[n >> 6] |= std::uint64_t{1} << (n & 63);
    top_ = std::max<std::size_t>(top_, (n >> 6) + 1);
  }
  bool contains(NodeId n) const { return (words_[n >> 6] >> (n & 63)) & 1; }
  bool empty() const { return top_ == 0; }
  /// Remove and return the largest member; requires !empty(). The scan
  /// only moves down, so a worklist that adds only ids below its last pop
  /// costs O(k + N/64) in all.
  NodeId popMax() {
    std::uint64_t& word = words_[top_ - 1];
    const int bit = 63 - std::countl_zero(word);
    word ^= std::uint64_t{1} << bit;
    const auto n = static_cast<NodeId>((top_ - 1) * 64 + bit);
    while (top_ > 0 && words_[top_ - 1] == 0) --top_;
    return n;
  }
  /// Append every member to `out`, largest first, emptying the set.
  void drainDescending(std::vector<NodeId>& out) {
    while (!empty()) out.push_back(popMax());
  }
  std::size_t bytes() const {
    return words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t top_ = 0;  // words_[top_ - 1] is the highest nonzero word
};

class DetectWorkspace {
 public:
  /// Independent mark planes (sets that coexist within one instance).
  enum Plane : unsigned {
    kMemberPlane = 0,  // fixed-set / SHHH membership
    kSplitPlane = 1,   // ADA tosplit flags
    kPlaneCount = 2,
  };

  /// Size every plane for a hierarchy of `nodes` ids and invalidate every
  /// slot. Rebinding is how a pooled workspace moves between streams, so
  /// bind() must leave no readable residue of the previous tenant: growing
  /// and shrinking reallocate the planes, and a same-size rebind (the
  /// common pooled case — also a *different* hierarchy of equal size)
  /// bumps every generation so stale stamps can never read as current.
  /// Every NodeBitSet is empty on return as well. Idempotent in sizing;
  /// always freshly invalidated on return.
  void bind(std::size_t nodes);

  std::size_t nodeCount() const { return raw_.size(); }
  bool bound() const { return !raw_.empty(); }

  /// Resident bytes of the dense planes plus the reusable buffers.
  std::size_t bytes() const;

  // --- value plane: per-unit raw / modified weights --------------------
  /// Invalidate all staged values (start of a new timeunit's pass).
  void beginUnit() { bump(valueGen_, valueEpoch_); }

  /// First touch of `n` this unit zeroes its values and returns true.
  bool touch(NodeId n) {
    if (valueEpoch_[n] == valueGen_) return false;
    valueEpoch_[n] = valueGen_;
    raw_[n] = 0.0;
    modified_[n] = 0.0;
    return true;
  }
  bool isTouched(NodeId n) const { return valueEpoch_[n] == valueGen_; }

  /// Mutable access; only meaningful after touch(n) this unit.
  double& raw(NodeId n) { return raw_[n]; }
  double& modified(NodeId n) { return modified_[n]; }

  double rawOrZero(NodeId n) const {
    return valueEpoch_[n] == valueGen_ ? raw_[n] : 0.0;
  }
  double modifiedOrZero(NodeId n) const {
    return valueEpoch_[n] == valueGen_ ? modified_[n] : 0.0;
  }

  // --- mark planes -----------------------------------------------------
  void beginMarks(Plane p) { bump(markGen_[p], markEpoch_[p]); }

  /// Returns true on the first mark of `n` in this plane's generation.
  bool mark(Plane p, NodeId n) {
    if (markEpoch_[p][n] == markGen_[p]) return false;
    markEpoch_[p][n] = markGen_[p];
    return true;
  }
  bool isMarked(Plane p, NodeId n) const {
    return markEpoch_[p][n] == markGen_[p];
  }

  // --- reusable buffers (capacity persists across units) ---------------
  /// Touched nodes of the current unit: the caller stages counted nodes,
  /// computeShhhStaged extends it with their ancestors and puts it in
  /// bottom-up (descending id) order.
  std::vector<NodeId> touched;

  /// Reorder `touched` by descending id through `order`.
  void orderTouched() {
    for (NodeId n : touched) order.insert(n);
    touched.clear();
    order.drainDescending(touched);
  }

  // --- descending-id sets (empty between uses) -------------------------
  /// `order` ranks `touched`; ADA's merge `worklist` and its `received`
  /// set (nodes that acquired a series this instance) are live together.
  NodeBitSet order;
  NodeBitSet worklist;
  NodeBitSet received;

 private:
  static void bump(std::uint32_t& gen, std::vector<std::uint32_t>& epoch);

  std::vector<double> raw_;
  std::vector<double> modified_;
  std::vector<std::uint32_t> valueEpoch_;
  std::uint32_t valueGen_ = 0;
  std::vector<std::uint32_t> markEpoch_[kPlaneCount];
  std::uint32_t markGen_[kPlaneCount] = {};
};

}  // namespace tiresias
