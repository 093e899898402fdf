#include "stream/binary_source.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "persist/le.h"
#include "persist/snapshot.h"

namespace tiresias {

namespace {

using persist::Deserializer;
using persist::le32;
using persist::le64;
using persist::putLe32;
using persist::putLe64;
using persist::Serializer;
using persist::SnapshotError;

constexpr std::size_t kRecordBytes = 12;  // u32 fileId + i64 timestamp
constexpr std::size_t kPrologueBytes = 24;
/// Converter block size: large enough that the u32 count prefix is noise,
/// small enough that the reader's block buffer stays cache-friendly.
constexpr std::size_t kConvertBlockRecords = 8192;

}  // namespace

struct BinarySource::Impl {
  std::ifstream in;
  std::uint64_t recordCount = 0;   // declared by the prologue
  std::uint64_t decodedTotal = 0;  // records decoded so far (incl. skipped)
  /// fileId → NodeId against the reader's hierarchy (kInvalidNode when the
  /// path did not resolve — those records are skipped, not errors).
  std::vector<NodeId> fileIdToNode;
  std::size_t unresolved = 0;

  /// Current block, raw record bytes. `blockPos` counts records consumed.
  std::vector<std::uint8_t> block;
  std::size_t blockRecords = 0;
  std::size_t blockPos = 0;

  Impl(const std::string& path, const Hierarchy& hierarchy) : in(path) {
    if (!in) throw SnapshotError("binary trace: cannot open file");
    in.seekg(0, std::ios::end);
    const auto endPos = in.tellg();
    if (endPos < 0) throw SnapshotError("binary trace: cannot stat file");
    const std::uint64_t fileBytes = static_cast<std::uint64_t>(endPos);
    in.seekg(0, std::ios::beg);

    std::uint8_t prologue[kPrologueBytes];
    if (!readExact(prologue, kPrologueBytes)) {
      throw SnapshotError("binary trace: truncated prologue");
    }
    if (le32(prologue) != kBinaryTraceMagic) {
      throw SnapshotError("binary trace: bad magic");
    }
    if (le32(prologue + 4) != kBinaryTraceVersion) {
      throw SnapshotError("binary trace: unknown format version");
    }
    recordCount = le64(prologue + 8);
    const std::uint64_t tableBytes = le64(prologue + 16);
    // The table must be backed by real bytes before any allocation sized
    // from it — a corrupted length must not drive an OOM.
    if (tableBytes > fileBytes - kPrologueBytes) {
      throw SnapshotError("binary trace: path table overruns file");
    }
    std::vector<std::uint8_t> table(static_cast<std::size_t>(tableBytes));
    if (!readExact(table.data(), table.size())) {
      throw SnapshotError("binary trace: truncated path table");
    }
    Deserializer des(table);
    const std::size_t paths = des.count(sizeof(std::uint64_t));
    fileIdToNode.reserve(paths);
    for (std::size_t i = 0; i < paths; ++i) {
      const NodeId node = hierarchy.find(des.str());
      if (node == kInvalidNode) ++unresolved;
      fileIdToNode.push_back(node);
    }
    Deserializer::require(des.atEnd(),
                          "binary trace: trailing bytes in path table");
  }

  bool readExact(std::uint8_t* dst, std::size_t n) {
    in.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(n));
    return static_cast<std::size_t>(in.gcount()) == n;
  }

  /// Load the next record block. False at a clean end of file; throws on
  /// truncation, an implausible count, or a count overrunning the total
  /// declared by the prologue.
  bool loadBlock() {
    std::uint8_t prefix[4];
    in.read(reinterpret_cast<char*>(prefix), 4);
    const std::size_t got = static_cast<std::size_t>(in.gcount());
    if (got == 0) {
      if (decodedTotal != recordCount) {
        throw SnapshotError("binary trace: truncated (missing records)");
      }
      return false;
    }
    if (got != 4) throw SnapshotError("binary trace: truncated block header");
    const std::uint32_t count = le32(prefix);
    if (count == 0 || count > kBinaryTraceMaxBlockRecords) {
      throw SnapshotError("binary trace: implausible block record count");
    }
    if (decodedTotal + count > recordCount) {
      throw SnapshotError("binary trace: more records than declared");
    }
    block.resize(static_cast<std::size_t>(count) * kRecordBytes);
    if (!readExact(block.data(), block.size())) {
      throw SnapshotError("binary trace: truncated record block");
    }
    blockRecords = count;
    blockPos = 0;
    return true;
  }
};

BinarySource::BinarySource(std::string path, const Hierarchy& hierarchy)
    : impl_(std::make_unique<Impl>(path, hierarchy)) {}

BinarySource::~BinarySource() = default;

std::size_t BinarySource::unresolvedPaths() const {
  return impl_->unresolved;
}

std::size_t BinarySource::nextBatch(std::vector<Record>& out,
                                    std::size_t max) {
  out.clear();
  Impl& im = *impl_;
  while (out.size() < max) {
    if (im.blockPos >= im.blockRecords && !im.loadBlock()) break;
    const std::size_t take =
        std::min(max - out.size(), im.blockRecords - im.blockPos);
    const std::uint8_t* rec = im.block.data() + im.blockPos * kRecordBytes;
    const std::size_t tableSize = im.fileIdToNode.size();
    for (std::size_t i = 0; i < take; ++i, rec += kRecordBytes) {
      // le32/le64 compile to single unaligned loads on LE targets, so
      // this is the memcpy decode loop with byte order pinned for free.
      const std::uint32_t fileId = le32(rec);
      const std::int64_t time = static_cast<std::int64_t>(le64(rec + 4));
      if (fileId >= tableSize) {
        // Rewind so accounting stays exact if the caller catches and
        // retries: everything before this record was consumed.
        im.blockPos += i;
        im.decodedTotal += i;
        throw SnapshotError("binary trace: file id outside path table");
      }
      const NodeId node = im.fileIdToNode[fileId];
      if (node == kInvalidNode) {
        ++skipped_;
        continue;
      }
      out.push_back(Record{node, static_cast<Timestamp>(time)});
    }
    im.blockPos += take;
    im.decodedTotal += take;
  }
  return out.size();
}

namespace {

/// RAII temp file that self-deletes unless released (published by rename).
struct TempFile {
  std::string path;
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() {
    if (!path.empty()) std::remove(path.c_str());
  }
  void release() { path.clear(); }
};

void writeOrThrow(std::ofstream& out, const std::uint8_t* data,
                  std::size_t n, const char* what) {
  out.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(n));
  if (!out) throw SnapshotError(what);
}

}  // namespace

BinaryConvertStats convertCsvTraceToBinary(const std::string& csvPath,
                                           const std::string& binaryPath) {
  std::ifstream csv(csvPath);
  if (!csv) throw SnapshotError("convert: cannot open CSV trace");

  // Single pass: records spool to a side temp file in final block framing
  // while the path table (which must precede them) accumulates in memory;
  // the published file is prologue + table + spooled blocks.
  TempFile spool(binaryPath + ".rec.tmp");
  std::ofstream rec(spool.path, std::ios::binary | std::ios::trunc);
  if (!rec) throw SnapshotError("convert: cannot open temp record file");

  BinaryConvertStats stats;
  std::unordered_map<std::string, std::uint32_t> fileIds;
  Serializer table;  // str entries appended as paths first appear
  std::uint64_t tablePaths = 0;

  std::vector<std::uint8_t> blockBuf;
  blockBuf.reserve(4 + kConvertBlockRecords * kRecordBytes);
  std::size_t blockCount = 0;
  const auto flushBlock = [&] {
    if (blockCount == 0) return;
    std::uint8_t prefix[4];
    putLe32(prefix, static_cast<std::uint32_t>(blockCount));
    writeOrThrow(rec, prefix, 4, "convert: temp record write failed");
    writeOrThrow(rec, blockBuf.data(), blockBuf.size(),
                 "convert: temp record write failed");
    blockBuf.clear();
    blockCount = 0;
  };

  std::string line;
  std::vector<std::string> quoted;
  while (std::getline(csv, line)) {
    if (line.empty()) continue;
    std::string_view path;
    Timestamp t = 0;
    if (!parseCsvTraceRow(line, quoted, path, t)) {
      ++stats.skippedRows;
      continue;
    }
    auto [it, inserted] = fileIds.emplace(path, tablePaths);
    if (inserted) {
      table.str(path);
      ++tablePaths;
    }
    std::uint8_t encoded[kRecordBytes];
    putLe32(encoded, it->second);
    putLe64(encoded + 4, static_cast<std::uint64_t>(t));
    blockBuf.insert(blockBuf.end(), encoded, encoded + kRecordBytes);
    ++stats.records;
    if (++blockCount == kConvertBlockRecords) flushBlock();
  }
  if (csv.bad()) throw SnapshotError("convert: CSV read failed");
  flushBlock();
  rec.flush();
  if (!rec) throw SnapshotError("convert: temp record write failed");
  rec.close();
  stats.paths = tablePaths;

  // Assemble the published file next to the target, then rename: a crash
  // never leaves a half-written trace under the final name.
  TempFile tmp(binaryPath + ".tmp");
  {
    std::ofstream out(tmp.path, std::ios::binary | std::ios::trunc);
    if (!out) throw SnapshotError("convert: cannot open output file");
    Serializer header;
    header.u32(kBinaryTraceMagic);
    header.u32(kBinaryTraceVersion);
    header.u64(stats.records);
    // The table is framed as count + entries; the count lives with the
    // entries (not the prologue) so Deserializer::count() bounds it.
    Serializer framedTable;
    framedTable.u64(tablePaths);
    framedTable.raw(table.data());
    header.u64(framedTable.size());
    header.raw(framedTable.data());
    writeOrThrow(out, header.data().data(), header.size(),
                 "convert: output write failed");
    std::ifstream back(spool.path, std::ios::binary);
    if (!back) throw SnapshotError("convert: cannot reopen temp records");
    std::vector<char> chunk(std::size_t{256} << 10);
    while (back) {
      back.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      const auto got = back.gcount();
      if (got > 0) {
        out.write(chunk.data(), got);
        if (!out) throw SnapshotError("convert: output write failed");
      }
    }
    out.flush();
    if (!out) throw SnapshotError("convert: output write failed");
    stats.bytesWritten = header.size();
  }
  std::ifstream sized(tmp.path, std::ios::binary | std::ios::ate);
  if (sized) stats.bytesWritten = static_cast<std::size_t>(sized.tellg());
  sized.close();
  if (std::rename(tmp.path.c_str(), binaryPath.c_str()) != 0) {
    throw SnapshotError("convert: cannot publish output file");
  }
  tmp.release();
  return stats;
}

std::unique_ptr<RecordSource> openTraceSource(const std::string& path,
                                              const Hierarchy& hierarchy) {
  std::uint8_t head[4] = {0, 0, 0, 0};
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) throw SnapshotError("trace: cannot open file");
    probe.read(reinterpret_cast<char*>(head), 4);
    if (probe.gcount() != 4) {
      // Shorter than any binary prologue: treat as (tiny) CSV.
      return std::make_unique<CsvSource>(path, hierarchy);
    }
  }
  if (le32(head) == kBinaryTraceMagic) {
    return std::make_unique<BinarySource>(path, hierarchy);
  }
  return std::make_unique<CsvSource>(path, hierarchy);
}

}  // namespace tiresias
