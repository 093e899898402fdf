// InstrumentedSource — a RecordSource decorator that times every source
// pull into Stage::kSourceFetch.
//
// The engine wraps each registered stream's source with one of these when
// metrics are on, so the raw fetch cost (file read, CSV parse, generator
// work — or a remote source's round-trip) is separated from the batcher's
// unit-slicing on top of it: kSourceFetch nests inside kBatchFlush, and
// the gap between the two is pure batching cost.
#pragma once

#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "stream/source.h"

namespace tiresias::obs {

class InstrumentedSource final : public RecordSource {
 public:
  /// `registry` must outlive the source (the engine owns both).
  InstrumentedSource(std::unique_ptr<RecordSource> inner,
                     MetricsRegistry* registry)
      : inner_(std::move(inner)), registry_(registry) {}

  std::size_t nextBatch(std::vector<Record>& out, std::size_t max) override {
    StageSpan span(registry_, Stage::kSourceFetch);
    return inner_->nextBatch(out, max);
  }

  std::size_t skippedRecords() const override {
    return inner_->skippedRecords();
  }

  bool idle() const override { return inner_->idle(); }

  void noteResumePoint(Timestamp time) override {
    inner_->noteResumePoint(time);
  }

 private:
  std::unique_ptr<RecordSource> inner_;
  MetricsRegistry* registry_;
};

}  // namespace tiresias::obs
