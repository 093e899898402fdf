// Versioned binary snapshot format for checkpoint/restore.
//
// Every stateful component implements saveState(Serializer&) /
// loadState(Deserializer&); the engine frames component payloads into
// sections and writes them atomically (write-to-temp + rename), so a crash
// mid-checkpoint can never leave a truncated file under the published name.
//
// File layout (all integers little-endian, fixed width):
//
//   +--------+---------------+       +-- per section ------------------+
//   | magic  | formatVersion |  then | tag u32 | len u64 | crc32 u32 |  |
//   | "TSNP" | u32 (= 1)     |       | payload bytes (len)            |
//   +--------+---------------+       +--------------------------------+
//
// The CRC covers the payload only; tag/length corruption is caught by the
// bounds checks (a corrupted length either overruns the file, which is a
// parse error, or truncates the payload, which fails the CRC). Decoding is
// defensive end to end: every read is bounds-checked, every count is
// validated against the bytes that could possibly back it, and every
// failure throws SnapshotError — corrupted or adversarial input must never
// crash, over-read, or over-allocate.
//
// Versioning rules: formatVersion guards the container layout; readers
// reject versions they do not know. Component payloads carry their own
// leading type tags (detector kind, forecaster kind) so a snapshot
// restored into a mismatched object fails with a clean error instead of
// misinterpreting bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "persist/le.h"

namespace tiresias::persist {

/// Any decode failure: truncated input, bad magic/version, CRC mismatch,
/// type-tag mismatch, or a semantic validation failure (e.g. ring size
/// exceeding its capacity). Always an exception, never an abort: snapshot
/// bytes come from disk and must be treated as untrusted input.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected).
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Append-only binary encoder. Little-endian fixed-width integers; doubles
/// as their IEEE-754 bit pattern (bit-identical round trips by design).
class Serializer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { putLe32(grow(4), v); }
  void u64(std::uint64_t v) { putLe64(grow(8), v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  /// A run of doubles, each encoded as f64() would, with one resize
  /// (no length prefix).
  void f64s(std::span<const double> values);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);
  void bytes(std::span<const std::uint8_t> b);
  /// Append `b` verbatim, no length prefix — for splicing an
  /// already-encoded payload (e.g. a hibernated pipeline's state bytes)
  /// into a larger stream at exactly the position the inline encoder
  /// would have produced it.
  void raw(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  /// Extends the buffer by `n` bytes and returns where they start.
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked binary decoder over a borrowed byte range. Every
/// overrun throws SnapshotError; the underlying bytes must outlive the
/// decoder.
class Deserializer {
 public:
  explicit Deserializer(std::span<const std::uint8_t> bytes) : buf_(bytes) {}

  std::uint8_t u8() { return *take(1); }
  std::uint32_t u32() { return le32(take(4)); }
  std::uint64_t u64() { return le64(take(8)); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  /// Fills `out` with a run of f64() values, bounds-checked once.
  void f64s(std::span<double> out);
  bool boolean();
  std::string str();

  /// Read an element count and validate it against the bytes remaining
  /// (each element needs at least `minElemBytes` more bytes), so a
  /// corrupted count can never drive a multi-gigabyte allocation.
  std::size_t count(std::size_t minElemBytes);

  /// Read a count that is not byte-backed (e.g. a ring capacity that may
  /// exceed the stored values) and bound it explicitly.
  std::size_t boundedCount(std::size_t max);

  /// Copy the next `n` bytes out in bulk (bounds-checked once).
  std::vector<std::uint8_t> raw(std::size_t n);

  /// Semantic validation helper: throws SnapshotError with `msg` when the
  /// condition does not hold.
  static void require(bool cond, const char* msg) {
    if (!cond) throw SnapshotError(msg);
  }

  std::size_t remaining() const { return buf_.size() - pos_; }
  bool atEnd() const { return pos_ == buf_.size(); }

 private:
  /// Consumes the next `n` bytes of a fixed-width field and returns where
  /// they start; throws when fewer remain.
  const std::uint8_t* take(std::size_t n) {
    if (remaining() < n) {
      throw SnapshotError("snapshot truncated: integer field overruns input");
    }
    const std::uint8_t* const at = buf_.data() + pos_;
    pos_ += n;
    return at;
  }

  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

inline constexpr std::uint32_t kSnapshotMagic = 0x504E5354;  // "TSNP"
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

/// Upper bound for counts that are not backed 1:1 by snapshot bytes
/// (ring capacities, seasonal periods): 2^26 doubles = 512 MiB, far above
/// any real configuration but small enough that a corrupted count cannot
/// drive an OOM before validation fails.
inline constexpr std::size_t kMaxUnbackedCount = std::size_t{1} << 26;

struct SnapshotSection {
  std::uint32_t tag = 0;
  std::vector<std::uint8_t> payload;
};

/// Collects tagged sections and encodes the framed snapshot.
class SnapshotWriter {
 public:
  /// Append one section. Tags may repeat (e.g. one section per stream).
  void addSection(std::uint32_t tag, const Serializer& payload);

  /// Full snapshot bytes: header followed by every section in order.
  std::vector<std::uint8_t> encode() const;

  /// Atomic publish: encode to `path + ".tmp"`, flush, then rename over
  /// `path`. Returns the encoded byte count. Throws SnapshotError on any
  /// I/O failure (the temp file is removed best-effort).
  std::size_t writeFile(const std::string& path) const;

 private:
  std::vector<SnapshotSection> sections_;
};

/// Parses and CRC-verifies a snapshot; throws SnapshotError on any
/// structural problem (bad magic, unknown version, truncation, trailing
/// bytes, checksum mismatch).
class SnapshotReader {
 public:
  static SnapshotReader parse(std::span<const std::uint8_t> bytes);
  static SnapshotReader readFile(const std::string& path);

  const std::vector<SnapshotSection>& sections() const { return sections_; }

 private:
  std::vector<SnapshotSection> sections_;
};

}  // namespace tiresias::persist
