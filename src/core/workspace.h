// DetectWorkspace — reusable dense scratch for the per-unit detection hot
// path.
//
// The Hierarchy assigns dense BFS-ordered NodeIds, so every per-unit
// quantity the detectors juggle (direct counts, raw aggregates A_n,
// modified weights W_n, membership / tosplit / received marks) indexes a
// flat array instead of an unordered_map. Clearing between units would
// still be O(hierarchy), so every plane is *epoch-stamped*: each node
// carries the generation that last wrote it, and invalidating a whole
// plane is one counter bump. A slot is valid only while its stamp equals
// the plane's current generation; stale slots read as zero / unmarked.
//
// Workspaces are *pooled*, not per-stream: the engine keeps one workspace
// per worker and lends it to whichever stream that worker is advancing
// (the scheduler serializes a stream to one worker at a time, and nothing
// in the workspace survives a step, so lending is bit-identity-safe).
// Standalone pipelines lazily create a private workspace instead. The
// workspace is scratch only: nothing in it survives a step, and it is
// never serialized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hierarchy/hierarchy.h"

namespace tiresias {

class DetectWorkspace {
 public:
  /// Independent mark planes (sets that coexist within one instance).
  enum Plane : unsigned {
    kMemberPlane = 0,    // fixed-set / SHHH membership
    kSplitPlane = 1,     // ADA tosplit flags
    kReceivedPlane = 2,  // ADA nodes that acquired a series this instance
    kPlaneCount = 3,
  };

  /// Size every plane for a hierarchy of `nodes` ids and invalidate every
  /// slot. Rebinding is how a pooled workspace moves between streams, so
  /// bind() must leave no readable residue of the previous tenant: growing
  /// and shrinking reallocate the planes, and a same-size rebind (the
  /// common pooled case — also a *different* hierarchy of equal size)
  /// bumps every generation so stale stamps can never read as current.
  /// Idempotent in sizing; always freshly invalidated on return.
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
  /// computeShhhStaged extends it with their ancestors and sorts it
  /// bottom-up (descending id).
  std::vector<NodeId> touched;

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
