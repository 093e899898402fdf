#include "timeseries/ring.h"

#include <algorithm>

#include "common/expect.h"

namespace tiresias {

RingSeries::RingSeries(std::size_t capacity) : buf_(capacity, 0.0) {
  TIRESIAS_EXPECT(capacity > 0, "ring capacity must be positive");
}

void RingSeries::push(double v) {
  TIRESIAS_EXPECT(!buf_.empty(), "ring not initialized");
  if (size_ < buf_.size()) {
    buf_[index(size_)] = v;
    ++size_;
  } else {
    buf_[head_] = v;
    if (++head_ == buf_.size()) head_ = 0;
  }
}

double RingSeries::at(std::size_t i) const {
  TIRESIAS_EXPECT(i < size_, "ring index out of range");
  return buf_[index(i)];
}

double RingSeries::fromLatest(std::size_t j) const {
  TIRESIAS_EXPECT(j < size_, "ring index out of range");
  return buf_[index(size_ - 1 - j)];
}

void RingSeries::set(std::size_t i, double v) {
  TIRESIAS_EXPECT(i < size_, "ring index out of range");
  buf_[index(i)] = v;
}

void RingSeries::scale(double factor) {
  // The live values occupy at most two contiguous runs of the backing
  // array. The loop body is element-wise (no reduction, no reassociation),
  // so vectorizing it is bit-identical to the rotated scalar loop.
  const std::size_t first = std::min(size_, buf_.size() - head_);
  double* const run = buf_.data() + head_;
  double* const wrapped = buf_.data();
  const std::size_t rest = size_ - first;
#pragma omp simd
  for (std::size_t k = 0; k < first; ++k) run[k] *= factor;
#pragma omp simd
  for (std::size_t k = 0; k < rest; ++k) wrapped[k] *= factor;
}

void RingSeries::addScaled(const RingSeries& other, double k) {
  TIRESIAS_EXPECT(other.size_ == size_,
                  "merge requires equal-length series");
  // Both rings are rotated (independently), so logical position i is
  // contiguous on each side until one of them wraps: at most three runs
  // where both sides are flat, each an element-wise vectorizable add.
  std::size_t i = 0;
  while (i < size_) {
    const std::size_t dstAt = index(i);
    const std::size_t srcAt = other.index(i);
    const std::size_t len = std::min(
        {size_ - i, buf_.size() - dstAt, other.buf_.size() - srcAt});
    double* const dst = buf_.data() + dstAt;
    const double* const src = other.buf_.data() + srcAt;
#pragma omp simd
    for (std::size_t m = 0; m < len; ++m) dst[m] += k * src[m];
    i += len;
  }
}

double RingSeries::sum() const {
  double total = 0.0;
  for (std::size_t i = 0; i < size_; ++i) total += buf_[index(i)];
  return total;
}

double RingSeries::sumLatest(std::size_t n) const {
  TIRESIAS_EXPECT(n <= size_, "not enough values");
  double total = 0.0;
  for (std::size_t j = 0; j < n; ++j) total += fromLatest(j);
  return total;
}

std::vector<double> RingSeries::toVector() const {
  std::vector<double> out(size_);
  for (std::size_t i = 0; i < size_; ++i) out[i] = at(i);
  return out;
}

void RingSeries::appendTo(std::vector<double>& out) const {
  out.reserve(out.size() + size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back(at(i));
}

void RingSeries::saveState(persist::Serializer& out) const {
  out.u64(buf_.size());
  out.u64(size_);
  // Oldest first: the run from head_, then the wrapped remainder.
  const std::size_t first = std::min(size_, buf_.size() - head_);
  out.f64s(std::span(buf_).subspan(head_, first));
  out.f64s(std::span(buf_).first(size_ - first));
}

void RingSeries::loadState(persist::Deserializer& in) {
  const std::size_t capacity = in.boundedCount(persist::kMaxUnbackedCount);
  const std::size_t size = in.count(sizeof(double));
  persist::Deserializer::require(size <= capacity,
                                 "ring snapshot: size exceeds capacity");
  buf_.assign(capacity, 0.0);
  head_ = 0;
  size_ = 0;  // stays a valid empty ring if the read throws
  in.f64s(std::span(buf_).first(size));  // unrotated: oldest at index 0
  size_ = size;
}

void RingSeries::clear() {
  head_ = 0;
  size_ = 0;
}

void RingSeries::assign(const std::vector<double>& values) {
  clear();
  const std::size_t skip =
      values.size() > capacity() ? values.size() - capacity() : 0;
  for (std::size_t i = skip; i < values.size(); ++i) push(values[i]);
}

}  // namespace tiresias
