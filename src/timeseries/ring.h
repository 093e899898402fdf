// Fixed-capacity ring buffer of time-series values.
//
// Each heavy hitter holds two of these (actual and forecast series of
// length ℓ, Fig 5 lines 26-29). Push evicts the oldest value once full.
// The split/merge adaptation needs element-wise scaling and addition, which
// are provided in place.
#pragma once

#include <cstddef>
#include <vector>

#include "persist/snapshot.h"

namespace tiresias {

class RingSeries {
 public:
  RingSeries() = default;
  explicit RingSeries(std::size_t capacity);

  std::size_t capacity() const { return buf_.size(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == buf_.size(); }

  /// Append a value, evicting the oldest if at capacity.
  void push(double v);

  /// i-th value, oldest first (0 <= i < size()).
  double at(std::size_t i) const;
  /// j-th value counting back from the newest (fromLatest(0) == newest).
  double fromLatest(std::size_t j) const;

  double latest() const { return fromLatest(0); }

  /// Replace the i-th (oldest-first) value.
  void set(std::size_t i, double v);

  /// Multiply every element by `factor` (series split).
  void scale(double factor);
  /// Element-wise add `k` times another series of the same size: k = 1 is
  /// a series merge, k = −1 a subtraction (bit-identical to x − y).
  void addScaled(const RingSeries& other, double k);

  /// Sum of all stored values.
  double sum() const;
  /// Sum of the newest n values.
  double sumLatest(std::size_t n) const;

  /// Copy out as a flat vector, oldest first.
  std::vector<double> toVector() const;
  /// Append all values (oldest first) to `out`, reusing its capacity.
  void appendTo(std::vector<double>& out) const;

  /// Snapshot the ring (capacity + values oldest-first; the rotation is
  /// normalized away, so equal observable state encodes identically).
  void saveState(persist::Serializer& out) const;
  /// Restore from a snapshot, replacing capacity and contents. Throws
  /// persist::SnapshotError on malformed input.
  void loadState(persist::Deserializer& in);

  /// Reset to empty, keeping capacity.
  void clear();
  /// Fill to full capacity from a flat vector (oldest first); the vector's
  /// last `capacity()` elements are used if it is longer.
  void assign(const std::vector<double>& values);

 private:
  std::size_t index(std::size_t i) const {
    // head_ and i are both below capacity, so one conditional subtraction
    // wraps — no hardware division on the per-unit push/read path.
    const std::size_t idx = head_ + i;
    return idx >= buf_.size() ? idx - buf_.size() : idx;
  }

  std::vector<double> buf_;
  std::size_t head_ = 0;  // index of the oldest element
  std::size_t size_ = 0;
};

}  // namespace tiresias
