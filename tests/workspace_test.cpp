// DetectWorkspace rebind hardening: a pooled workspace cycles across
// hierarchies of different sizes (and different hierarchies of the *same*
// size), and every rebind must read as freshly invalidated — no value,
// epoch stamp, mark or bit-set member of the previous tenant may survive
// bind(). Also the bit-set order: the climb's bottom-up order must be the
// descending sort it replaces, and every drain must leave the set zero.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/rng.h"
#include "core/shhh.h"
#include "core/workspace.h"
#include "hierarchy/builder.h"

namespace tiresias {
namespace {

/// Stage a recognizable footprint into every plane of `ws`.
void populate(DetectWorkspace& ws) {
  ws.beginUnit();
  ws.beginMarks(DetectWorkspace::kMemberPlane);
  ws.beginMarks(DetectWorkspace::kSplitPlane);
  for (NodeId n = 0; n < ws.nodeCount(); ++n) {
    ws.touch(n);
    ws.raw(n) = 100.0 + n;
    ws.modified(n) = 200.0 + n;
    ws.mark(DetectWorkspace::kMemberPlane, n);
    ws.mark(DetectWorkspace::kSplitPlane, n);
    ws.touched.push_back(n);
  }
  for (NodeBitSet* set : {&ws.order, &ws.worklist, &ws.received}) {
    set->insert(0);
    set->insert(static_cast<NodeId>(ws.nodeCount() - 1));
  }
}

/// No id in [0, nodes) is a member: every word of `set` is zero.
bool allZero(const NodeBitSet& set, std::size_t nodes) {
  for (NodeId n = 0; n < nodes; ++n) {
    if (set.contains(n)) return false;
  }
  return true;
}

/// Every plane of `ws` must read as empty/unmarked for ids [0, nodes).
void expectInvalidated(const DetectWorkspace& ws, std::size_t nodes) {
  ASSERT_EQ(ws.nodeCount(), nodes);
  for (NodeId n = 0; n < nodes; ++n) {
    EXPECT_FALSE(ws.isTouched(n)) << "node " << n;
    EXPECT_EQ(ws.rawOrZero(n), 0.0) << "node " << n;
    EXPECT_EQ(ws.modifiedOrZero(n), 0.0) << "node " << n;
    EXPECT_FALSE(ws.isMarked(DetectWorkspace::kMemberPlane, n)) << n;
    EXPECT_FALSE(ws.isMarked(DetectWorkspace::kSplitPlane, n)) << n;
  }
  for (const NodeBitSet* set : {&ws.order, &ws.worklist, &ws.received}) {
    EXPECT_TRUE(set->empty());
    EXPECT_TRUE(allZero(*set, nodes));
  }
}

TEST(WorkspaceRebind, FreshBindIsInvalidated) {
  DetectWorkspace ws;
  ws.bind(8);
  expectInvalidated(ws, 8);
}

TEST(WorkspaceRebind, SameSizeRebindInvalidates) {
  // Same node count stands in for a *different* hierarchy of equal size:
  // without the rebind bump, the first tenant's stamps would still match
  // the current generation and its values would leak into the new stream.
  DetectWorkspace ws;
  ws.bind(8);
  populate(ws);
  ASSERT_TRUE(ws.isTouched(3));
  ASSERT_EQ(ws.rawOrZero(3), 103.0);

  ws.bind(8);
  expectInvalidated(ws, 8);
}

TEST(WorkspaceRebind, GrowInvalidates) {
  DetectWorkspace ws;
  ws.bind(4);
  populate(ws);

  ws.bind(16);
  expectInvalidated(ws, 16);
}

TEST(WorkspaceRebind, ShrinkInvalidates) {
  DetectWorkspace ws;
  ws.bind(16);
  populate(ws);

  ws.bind(4);
  expectInvalidated(ws, 4);
  // The shrunk workspace must be fully usable within the new bound.
  ws.beginUnit();
  EXPECT_TRUE(ws.touch(3));
  ws.raw(3) = 7.0;
  EXPECT_EQ(ws.rawOrZero(3), 7.0);
  EXPECT_FALSE(ws.touch(3));  // second touch in the same unit
}

TEST(WorkspaceRebind, CyclingGrowShrinkGrowStaysClean) {
  // The pooled pattern: one workspace lent to streams with hierarchies of
  // different sizes in arbitrary order. Every hop must start clean.
  DetectWorkspace ws;
  const std::size_t sizes[] = {8, 32, 8, 4, 32, 4, 8};
  for (const std::size_t nodes : sizes) {
    ws.bind(nodes);
    expectInvalidated(ws, nodes);
    populate(ws);
  }
}

TEST(WorkspaceRebind, RebindDoesNotDisturbNormalUnitCycle) {
  // beginUnit()/beginMarks() semantics are unchanged by the hardening:
  // within one binding, per-unit invalidation works exactly as before.
  DetectWorkspace ws;
  ws.bind(6);
  ws.beginUnit();
  ws.beginMarks(DetectWorkspace::kMemberPlane);
  EXPECT_TRUE(ws.touch(2));
  ws.raw(2) = 5.0;
  EXPECT_TRUE(ws.mark(DetectWorkspace::kMemberPlane, 2));
  EXPECT_FALSE(ws.mark(DetectWorkspace::kMemberPlane, 2));

  ws.beginUnit();
  EXPECT_FALSE(ws.isTouched(2));
  // Marks live on their own plane generations, untouched by beginUnit().
  EXPECT_TRUE(ws.isMarked(DetectWorkspace::kMemberPlane, 2));
  ws.beginMarks(DetectWorkspace::kMemberPlane);
  EXPECT_FALSE(ws.isMarked(DetectWorkspace::kMemberPlane, 2));
}

TEST(NodeBitSet, DrainIsDescendingAndLeavesTheSetZero) {
  NodeBitSet set;
  set.resize(130);
  for (NodeId n : {64u, 0u, 129u, 63u, 65u, 64u}) set.insert(n);
  EXPECT_TRUE(set.contains(63));
  EXPECT_FALSE(set.contains(62));
  std::vector<NodeId> out;
  set.drainDescending(out);
  EXPECT_EQ(out, (std::vector<NodeId>{129, 65, 64, 63, 0}));
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(allZero(set, 130));
  set.insert(7);
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(allZero(set, 130));
}

TEST(NodeBitSet, PopMaxServesAMonotoneWorklist) {
  // ADA's merge cascade: each pop may add the popped node's parent, whose
  // id is lower, and the pops must still come out in descending order.
  NodeBitSet set;
  set.resize(130);
  for (NodeId n : {129u, 64u, 63u, 0u, 65u}) set.insert(n);
  std::vector<NodeId> popped;
  while (!set.empty()) {
    const NodeId n = set.popMax();
    popped.push_back(n);
    if (n == 129) set.insert(100);
    if (n == 65) set.insert(64);  // already present: no duplicate pop
    if (n == 63) set.insert(1);
  }
  EXPECT_EQ(popped, (std::vector<NodeId>{129, 100, 65, 64, 63, 1, 0}));
  EXPECT_TRUE(allZero(set, 130));
}

TEST(NodeBitSet, ClimbOrderEqualsDescendingSortOfTouchedAndAncestors) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    HierarchyBuilder b("root");
    std::vector<NodeId> nodes{0};
    const std::size_t size = 66 + rng.below(200);  // ids 63/64/65 exist
    while (nodes.size() < size) {
      nodes.push_back(b.addChild(nodes[rng.below(nodes.size())],
                                 "n" + std::to_string(nodes.size())));
    }
    const auto h = b.build();
    const NodeId last = static_cast<NodeId>(h.size() - 1);
    DetectWorkspace ws;
    ws.bind(h.size());
    for (int round = 0; round < 24; ++round) {
      std::vector<NodeId> counted;
      // Word-boundary ids and the last id in about half the rounds each.
      for (NodeId n : {NodeId{63}, NodeId{64}, NodeId{65}, last}) {
        if (rng.below(2) == 0) counted.push_back(n);
      }
      const std::size_t extra = rng.below(h.size());  // often > 64 touched
      for (std::size_t i = 0; i < extra; ++i) {
        counted.push_back(static_cast<NodeId>(rng.below(h.size())));
      }
      std::vector<NodeId> expected;
      for (NodeId n : counted) {
        for (NodeId cur = n; cur != kInvalidNode; cur = h.parent(cur)) {
          expected.push_back(cur);
        }
      }
      std::sort(expected.begin(), expected.end(), std::greater<NodeId>());
      expected.erase(std::unique(expected.begin(), expected.end()),
                     expected.end());

      ws.beginUnit();
      ws.touched.clear();
      for (NodeId n : counted) stageCount(ws, n, 1.0);
      collectTouchedStaged(h, ws);
      EXPECT_EQ(ws.touched, expected) << "seed " << seed << " round " << round;
      EXPECT_TRUE(ws.order.empty());
      EXPECT_TRUE(allZero(ws.order, h.size()));
    }
  }
}

}  // namespace
}  // namespace tiresias
