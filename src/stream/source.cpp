#include "stream/source.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>
#include <unordered_map>

#include "common/csv.h"
#include "common/expect.h"
#include "persist/snapshot.h"

namespace tiresias {

std::optional<Record> RecordSource::next() {
  std::vector<Record> one;
  while (nextBatch(one, 1) == 0) {
    if (!idle()) return std::nullopt;
  }
  return one.front();
}

VectorSource::VectorSource(std::vector<Record> records)
    : records_(std::move(records)) {
  for (std::size_t i = 1; i < records_.size(); ++i) {
    TIRESIAS_EXPECT(records_[i - 1].time <= records_[i].time,
                    "VectorSource requires time-ordered records");
  }
}

std::size_t VectorSource::nextBatch(std::vector<Record>& out,
                                    std::size_t max) {
  out.clear();
  const std::size_t take = std::min(max, records_.size() - pos_);
  out.insert(out.end(), records_.begin() + pos_,
             records_.begin() + pos_ + take);
  pos_ += take;
  return take;
}

NodeId PathCache::resolve(std::string_view rawPath) {
  const auto it = map_.find(rawPath);
  if (it != map_.end()) {
    ++hits_;
    return it->second;
  }
  const NodeId node = hierarchy_.find(rawPath);
  if (map_.size() < kCap) {
    map_.emplace(std::string(rawPath), node);
  }
  return node;
}

struct CsvSource::Impl {
  std::ifstream in;
  /// Chunked file reader: lines are string_views into the read buffer,
  /// copied into `spill` only when they straddle a chunk boundary.
  std::vector<char> buf;
  std::size_t bufPos = 0;
  std::size_t bufLen = 0;
  std::string spill;
  PathCache pathCache;

  Impl(const std::string& path, const Hierarchy& h)
      : in(path), buf(std::size_t{64} << 10), pathCache(h) {
    if (!in) throw persist::SnapshotError("trace: cannot open file");
  }

  bool fill() {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    bufLen = static_cast<std::size_t>(in.gcount());
    bufPos = 0;
    return bufLen > 0;
  }

  /// Next line without its '\n', like std::getline (a file not ending in
  /// a newline still yields its last line). False at end of file.
  bool readLine(std::string_view& out) {
    bool inSpill = false;
    for (;;) {
      if (bufPos >= bufLen) {
        if (!fill()) {
          if (inSpill) {
            out = spill;
            return true;
          }
          return false;
        }
      }
      const char* start = buf.data() + bufPos;
      const void* nl = std::memchr(start, '\n', bufLen - bufPos);
      if (nl != nullptr) {
        const std::size_t n =
            static_cast<std::size_t>(static_cast<const char*>(nl) - start);
        bufPos += n + 1;
        if (!inSpill) {
          out = std::string_view(start, n);
        } else {
          spill.append(start, n);
          out = spill;
        }
        return true;
      }
      if (!inSpill) {
        spill.clear();
        inSpill = true;
      }
      spill.append(start, bufLen - bufPos);
      bufPos = bufLen;
    }
  }
};

CsvSource::CsvSource(std::string path, const Hierarchy& hierarchy)
    : impl_(std::make_unique<Impl>(path, hierarchy)) {}

CsvSource::~CsvSource() = default;

std::size_t CsvSource::pathCacheSize() const {
  return impl_->pathCache.size();
}

std::size_t CsvSource::pathCacheHits() const {
  return impl_->pathCache.hits();
}

namespace {

/// strtoll-equivalent full-field parse: from_chars covers the common
/// "[-]digits" case without needing a NUL-terminated copy; every other
/// shape (leading spaces, '+', out-of-range clamping, trailing junk,
/// embedded NULs) falls back to strtoll on a copy, so accept/skip
/// decisions are strtoll's exactly.
bool parseTimeField(std::string_view field, Timestamp& t) {
  std::int64_t value = 0;
  const char* first = field.data();
  const char* last = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(first, last, value, 10);
  if (ec == std::errc() && ptr == last) {
    t = value;
    return true;
  }
  const std::string copy(field);
  char* end = nullptr;
  const long long parsed = std::strtoll(copy.c_str(), &end, 10);
  if (end == copy.c_str() || *end != '\0') return false;
  t = static_cast<Timestamp>(parsed);
  return true;
}

}  // namespace

bool parseCsvTraceRow(std::string_view line,
                      std::vector<std::string>& quotedScratch,
                      std::string_view& path, Timestamp& time) {
  std::string_view pathField, timeField;
  // Two memchr-backed single-char scans beat one find_first_of here
  // (libstdc++'s two-needle search walks the line byte by byte).
  if (line.find('"') == std::string_view::npos &&
      line.find('\r') == std::string_view::npos) {
    // Plain row: exactly one comma splits path from timestamp, matching
    // what csvSplit yields for quote-free lines (csvSplit also strips
    // '\r', so CRLF rows go through it too).
    const std::size_t comma = line.find(',');
    if (comma == std::string_view::npos ||
        line.find(',', comma + 1) != std::string_view::npos) {
      return false;
    }
    pathField = line.substr(0, comma);
    timeField = line.substr(comma + 1);
  } else {
    quotedScratch = csvSplit(std::string(line));
    if (quotedScratch.size() != 2) return false;
    pathField = quotedScratch[0];
    timeField = quotedScratch[1];
  }
  Timestamp t = 0;
  if (!parseTimeField(timeField, t)) return false;
  path = pathField;
  time = t;
  return true;
}

std::size_t CsvSource::nextBatch(std::vector<Record>& out, std::size_t max) {
  out.clear();
  Impl& im = *impl_;
  std::string_view line;
  std::vector<std::string> quoted;  // slow-path storage, rarely used
  while (out.size() < max && im.readLine(line)) {
    if (line.empty()) continue;
    std::string_view pathField;
    Timestamp t = 0;
    if (!parseCsvTraceRow(line, quoted, pathField, t)) {
      ++skipped_;
      continue;
    }
    const NodeId node = im.pathCache.resolve(pathField);
    if (node == kInvalidNode) {
      ++skipped_;
      continue;
    }
    out.push_back(Record{node, t});
  }
  return out.size();
}

void writeRecordsCsv(const std::string& path, const Hierarchy& hierarchy,
                     const std::vector<Record>& records) {
  std::ofstream out(path);
  TIRESIAS_EXPECT(static_cast<bool>(out), "cannot open output trace file");
  CsvWriter writer(out);
  for (const auto& r : records) {
    writer.row({hierarchy.path(r.category), std::to_string(r.time)});
  }
}

}  // namespace tiresias
