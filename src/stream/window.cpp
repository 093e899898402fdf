#include "stream/window.h"

#include "common/expect.h"

namespace tiresias {

TimeUnitBatcher::TimeUnitBatcher(RecordSource& source, Duration delta,
                                 Timestamp startTime, std::size_t chunkSize)
    : source_(source),
      delta_(delta),
      nextUnit_(timeUnitOf(startTime, delta)),
      chunkSize_(chunkSize) {
  TIRESIAS_EXPECT(delta > 0, "timeunit size must be positive");
  TIRESIAS_EXPECT(chunkSize > 0, "chunk size must be positive");
}

TimeUnitBatcher::Refill TimeUnitBatcher::refill() {
  if (sourceDone_) return Refill::kEnd;
  chunkPos_ = 0;
  const std::size_t pulled = source_.nextBatch(chunk_, chunkSize_);
  if (pulled == 0) {
    if (source_.idle()) return Refill::kIdle;  // waiting, not ended
    sourceDone_ = true;
    return Refill::kEnd;
  }
  consumed_ += pulled;
  return Refill::kData;
}

TimeUnitBatcher::Pull TimeUnitBatcher::pull(TimeUnitBatch& out) {
  out.records.clear();
  if (!begun_) {
    // Skip records older than the first unit of interest. Sources are
    // time-ordered, so these can only lead the stream.
    const Timestamp firstStart = unitStart(nextUnit_, delta_);
    for (;;) {
      if (chunkPos_ >= chunk_.size()) {
        const Refill r = refill();
        if (r == Refill::kIdle) return Pull::kIdle;  // nothing seen yet
        if (r == Refill::kEnd) break;
      }
      if (chunk_[chunkPos_].time >= firstStart) break;
      ++dropped_;
      ++chunkPos_;
    }
    begun_ = true;
  }
  if (!carry_.empty()) {
    // Resume the unit a kIdle pull parked; its records lead the batch.
    out.records.swap(carry_);
  } else if (chunkPos_ >= chunk_.size()) {
    const Refill r = refill();
    if (r == Refill::kIdle) return Pull::kIdle;
    if (r == Refill::kEnd) return Pull::kEnd;
  }

  out.unit = nextUnit_;
  // This unit covers [lo, hi); comparing against the precomputed bounds
  // replaces the per-record floor division of timeUnitOf.
  const Timestamp lo = unitStart(nextUnit_, delta_);
  const Timestamp hi = unitStart(nextUnit_ + 1, delta_);
  for (;;) {
    // Extend over the run of records that fall inside this unit, then copy
    // the run in one splice.
    std::size_t runEnd = chunkPos_;
    while (runEnd < chunk_.size() && chunk_[runEnd].time < hi) {
      TIRESIAS_EXPECT(chunk_[runEnd].time >= lo,
                      "records must arrive in non-decreasing time order");
      ++runEnd;
    }
    out.records.insert(out.records.end(), chunk_.begin() + chunkPos_,
                       chunk_.begin() + runEnd);
    chunkPos_ = runEnd;
    if (chunkPos_ < chunk_.size()) break;  // next record is a future unit
    const Refill r = refill();
    if (r == Refill::kIdle) {
      // The unit cannot be closed yet (a future record may still belong
      // to it): park the partial and report idle.
      carry_.swap(out.records);
      out.records.clear();
      return Pull::kIdle;
    }
    if (r == Refill::kEnd) break;  // source exhausted mid-unit
  }
  ++nextUnit_;
  return Pull::kUnit;
}

bool TimeUnitBatcher::nextUnitBuffered() const {
  // Records are time-ordered, so the chunk's last record bounds the rest
  // (once the chunk is used up, that record precedes the next unit). The
  // chunk is empty before the first pull and after an idle pull parked a
  // partial unit.
  return !chunk_.empty() &&
         chunk_.back().time >= unitStart(nextUnit_ + 1, delta_);
}

bool TimeUnitBatcher::next(TimeUnitBatch& out) {
  for (;;) {
    switch (pull(out)) {
      case Pull::kUnit:
        return true;
      case Pull::kEnd:
        return false;
      case Pull::kIdle:
        continue;  // blocking semantics: retry until a unit or the end
    }
  }
}

void TimeUnitBatcher::saveState(persist::Serializer& out) const {
  out.i64(delta_);
  out.i64(nextUnit_);
  out.boolean(begun_);
  out.boolean(sourceDone_);
  out.u64(dropped_);
  out.u64(consumed_);
  // Read-ahead records already pulled from the source but not yet
  // emitted: a partial unit parked by an idle pull first (it precedes
  // the chunk remainder in stream order), then the chunk remainder.
  out.u64(carry_.size() + (chunk_.size() - chunkPos_));
  for (const Record& r : carry_) {
    out.u32(r.category);
    out.i64(r.time);
  }
  for (std::size_t i = chunkPos_; i < chunk_.size(); ++i) {
    out.u32(chunk_[i].category);
    out.i64(chunk_[i].time);
  }
}

void TimeUnitBatcher::loadState(persist::Deserializer& in) {
  using persist::Deserializer;
  Deserializer::require(in.i64() == delta_,
                        "batcher snapshot: timeunit size mismatch");
  const TimeUnit nextUnit = in.i64();
  const bool begun = in.boolean();
  const bool sourceDone = in.boolean();
  const std::size_t dropped = in.u64();
  const std::size_t consumed = in.u64();
  const std::size_t pending =
      in.count(sizeof(std::uint32_t) + sizeof(std::int64_t));
  std::vector<Record> chunk(pending);
  for (auto& r : chunk) {
    r.category = in.u32();
    r.time = in.i64();
  }

  nextUnit_ = nextUnit;
  begun_ = begun;
  sourceDone_ = sourceDone;
  dropped_ = dropped;
  consumed_ = consumed;
  chunk_ = std::move(chunk);
  chunkPos_ = 0;
  carry_.clear();
}

std::optional<TimeUnitBatch> TimeUnitBatcher::next() {
  TimeUnitBatch batch;
  if (!next(batch)) return std::nullopt;
  return batch;
}

}  // namespace tiresias
