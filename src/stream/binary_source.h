// Binary record traces: parse-free ingest.
//
// CSV field splitting and path→NodeId resolution dominate the ingest cost
// once batching removed the per-record virtual calls. The binary trace
// format eliminates both: categories are pre-resolved to small integer
// file-ids against a path table serialized once in the header, and records
// are fixed-width (u32 file-id + i64 timestamp, little-endian), so reading
// a batch is a bounds-checked memcpy loop.
//
// On-disk layout (all integers little-endian, fixed width):
//
//   +-------+---------+-------------+------------+
//   | magic | version | recordCount | tableBytes |   24-byte prologue
//   | "TSRB"| u32 (=1)| u64         | u64        |
//   +-------+---------+-------------+------------+
//   path table (tableBytes, TSNP Serializer framing):
//     u64 pathCount, then pathCount × str (u64 length + bytes);
//     a path's file-id is its position (first occurrence in the CSV).
//   record blocks until end of file:
//     u32 count (1 ≤ count ≤ kBinaryTraceMaxBlockRecords),
//     then count × { u32 fileId, i64 timestamp } — 12 bytes per record.
//
// Decoding is defensive end to end, like the snapshot codec: bad magic,
// an unknown version, a truncated header/block/record, a file-id outside
// the path table, or a record count disagreeing with the prologue all
// throw persist::SnapshotError — trace files come from disk and are
// untrusted input. A file-id whose path does not resolve against the
// *reader's* hierarchy is not corruption: it is the binary analog of a
// CSV row with an unknown category and lands in skippedRecords(), so a
// convert→ingest round trip reproduces CsvSource's accounting exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "stream/source.h"

namespace tiresias {

inline constexpr std::uint32_t kBinaryTraceMagic = 0x42525354;  // "TSRB"
inline constexpr std::uint32_t kBinaryTraceVersion = 1;
/// Ceiling for one block's record count (16 MiB of payload) — bounds the
/// block buffer a corrupted count could ask for.
inline constexpr std::uint32_t kBinaryTraceMaxBlockRecords = 1u << 20;

/// Streams records from a binary trace file. The header (including the
/// full path table resolution) is processed in the constructor, which
/// throws persist::SnapshotError on malformed input; nextBatch() throws
/// it lazily when it reaches a corrupt or truncated block.
class BinarySource final : public RecordSource {
 public:
  BinarySource(std::string path, const Hierarchy& hierarchy);
  ~BinarySource() override;

  std::size_t nextBatch(std::vector<Record>& out, std::size_t max) override;

  std::size_t skippedRecords() const override { return skipped_; }

  /// Paths in the file's table that did not resolve against the reader's
  /// hierarchy (each occurrence of such a record counts in
  /// skippedRecords()).
  std::size_t unresolvedPaths() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::size_t skipped_ = 0;
};

/// Converter statistics, reported by the CLI.
struct BinaryConvertStats {
  std::size_t records = 0;      // records written
  std::size_t skippedRows = 0;  // junk CSV rows (CsvSource semantics)
  std::size_t paths = 0;        // distinct category paths in the table
  std::size_t bytesWritten = 0;
};

/// Convert a CSV trace to the binary format. Paths are recorded verbatim
/// (resolution happens at read time, against the reader's hierarchy), so
/// conversion needs no hierarchy and a converted trace replays against
/// any topology. Junk rows — the ones CsvSource would skip regardless of
/// hierarchy — are dropped and counted. Writes via temp files + rename,
/// so a crash never leaves a half-written trace under the target name.
/// Throws persist::SnapshotError on I/O failure.
BinaryConvertStats convertCsvTraceToBinary(const std::string& csvPath,
                                           const std::string& binaryPath);

/// Open a trace file as the right RecordSource: binary traces are
/// recognized by their magic, anything else is treated as CSV. Throws
/// persist::SnapshotError when the file cannot be opened or a binary
/// header is malformed.
std::unique_ptr<RecordSource> openTraceSource(const std::string& path,
                                              const Hierarchy& hierarchy);

}  // namespace tiresias
