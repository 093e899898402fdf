// Unit tests for the RingSeries buffer.
#include <gtest/gtest.h>

#include <string>

#include "timeseries/ring.h"

namespace tiresias {
namespace {

TEST(Ring, FillAndEvict) {
  RingSeries r(3);
  EXPECT_TRUE(r.empty());
  r.push(1);
  r.push(2);
  r.push(3);
  EXPECT_TRUE(r.full());
  EXPECT_EQ(r.toVector(), (std::vector<double>{1, 2, 3}));
  r.push(4);  // evicts 1
  EXPECT_EQ(r.toVector(), (std::vector<double>{2, 3, 4}));
  r.push(5);
  EXPECT_EQ(r.toVector(), (std::vector<double>{3, 4, 5}));
}

TEST(Ring, IndexingFromBothEnds) {
  RingSeries r(4);
  for (double v : {10.0, 20.0, 30.0, 40.0, 50.0}) r.push(v);
  EXPECT_DOUBLE_EQ(r.at(0), 20.0);
  EXPECT_DOUBLE_EQ(r.at(3), 50.0);
  EXPECT_DOUBLE_EQ(r.fromLatest(0), 50.0);
  EXPECT_DOUBLE_EQ(r.fromLatest(3), 20.0);
  EXPECT_DOUBLE_EQ(r.latest(), 50.0);
}

TEST(Ring, SetModifiesInPlace) {
  RingSeries r(3);
  r.push(1);
  r.push(2);
  r.set(0, 9);
  EXPECT_EQ(r.toVector(), (std::vector<double>{9, 2}));
}

TEST(Ring, ScaleAndAdd) {
  RingSeries a(3), b(3);
  for (double v : {1.0, 2.0, 3.0}) a.push(v);
  for (double v : {10.0, 20.0, 30.0}) b.push(v);
  a.scale(2.0);
  EXPECT_EQ(a.toVector(), (std::vector<double>{2, 4, 6}));
  a.addScaled(b, 1.0);
  EXPECT_EQ(a.toVector(), (std::vector<double>{12, 24, 36}));
  a.addScaled(b, -1.0);
  EXPECT_EQ(a.toVector(), (std::vector<double>{2, 4, 6}));
}

TEST(Ring, AddRespectsRotation) {
  RingSeries a(3), b(3);
  for (double v : {1.0, 2.0, 3.0, 4.0}) a.push(v);  // a = {2,3,4}, rotated
  for (double v : {1.0, 1.0, 1.0}) b.push(v);
  a.addScaled(b, 1.0);
  EXPECT_EQ(a.toVector(), (std::vector<double>{3, 4, 5}));
}

TEST(Ring, Sums) {
  RingSeries r(5);
  for (double v : {1.0, 2.0, 3.0, 4.0}) r.push(v);
  EXPECT_DOUBLE_EQ(r.sum(), 10.0);
  EXPECT_DOUBLE_EQ(r.sumLatest(2), 7.0);
}

TEST(Ring, AssignTruncatesToCapacity) {
  RingSeries r(3);
  r.assign({1, 2, 3, 4, 5});
  EXPECT_EQ(r.toVector(), (std::vector<double>{3, 4, 5}));
  r.assign({7});
  EXPECT_EQ(r.toVector(), (std::vector<double>{7}));
}

TEST(Ring, ClearKeepsCapacity) {
  RingSeries r(2);
  r.push(1);
  r.clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), 2u);
  r.push(5);
  EXPECT_DOUBLE_EQ(r.latest(), 5.0);
}

// A ring of `capacity` holding `size` values whose oldest value sits at
// backing index `rotation`: filling it and pushing `rotation` more moves
// the head that far. Values are inexact (k/3, k/7, ...), so any change in
// operation order would show in the low bits.
RingSeries makeRing(std::size_t capacity, std::size_t size,
                    std::size_t rotation, double step) {
  RingSeries r(capacity);
  const std::size_t pushes = size < capacity ? size : capacity + rotation;
  for (std::size_t k = 0; k < pushes; ++k) {
    r.push(step * static_cast<double>(k + 1));
  }
  return r;
}

// scale and addScaled split the live values into contiguous runs of the
// backing array (addScaled at every wrap of either ring). For every capacity,
// fill level and independent rotation of destination and source, both must
// equal the per-index scalar result exactly.
TEST(Ring, ScaleAndAddMatchScalarAtEveryRotation) {
  std::vector<std::size_t> capacities;
  for (std::size_t c = 1; c <= 17; ++c) capacities.push_back(c);
  capacities.push_back(288);
  const double factor = 1.0 / 3.0;
  for (const std::size_t cap : capacities) {
    // (size, rotation) layouts: every partial fill (head at 0), then the
    // full ring at every rotation.
    std::vector<std::pair<std::size_t, std::size_t>> layouts;
    for (std::size_t n = 0; n < cap; ++n) layouts.emplace_back(n, 0);
    for (std::size_t rot = 0; rot < cap; ++rot) layouts.emplace_back(cap, rot);

    for (const auto& [size, dstRot] : layouts) {
      const RingSeries dst = makeRing(cap, size, dstRot, 1.0 / 7.0);
      const std::vector<double> before = dst.toVector();
      const std::string where = "capacity " + std::to_string(cap) +
                                " size " + std::to_string(size) +
                                " dst rotation " + std::to_string(dstRot);

      RingSeries scaled = dst;
      scaled.scale(factor);
      std::vector<double> want(size);
      for (std::size_t i = 0; i < size; ++i) want[i] = before[i] * factor;
      const std::vector<double> got = scaled.toVector();
      for (std::size_t i = 0; i < size; ++i) {
        ASSERT_EQ(got[i], want[i]) << where << " scale index " << i;
      }

      const std::size_t srcRotations = size == cap ? cap : 1;
      for (std::size_t srcRot = 0; srcRot < srcRotations; ++srcRot) {
        const RingSeries src = makeRing(cap, size, srcRot, 1.0 / 3.0);
        const std::vector<double> addend = src.toVector();
        RingSeries sum = dst;
        sum.addScaled(src, 1.0);
        RingSeries diff = dst;
        diff.addScaled(src, -1.0);
        const std::vector<double> total = sum.toVector();
        const std::vector<double> rest = diff.toVector();
        for (std::size_t i = 0; i < size; ++i) {
          ASSERT_EQ(total[i], before[i] + addend[i])
              << where << " src rotation " << srcRot << " add index " << i;
          ASSERT_EQ(rest[i], before[i] - addend[i])
              << where << " src rotation " << srcRot << " sub index " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace tiresias
