#include "persist/snapshot.h"

#include <array>
#include <bit>
#include <cstdio>
#include <fstream>

namespace tiresias::persist {

namespace {

constexpr std::array<std::uint32_t, 256> makeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr auto kCrcTable = makeCrcTable();

// Section frame: tag u32 + length u64 + crc u32.
constexpr std::size_t kSectionHeaderBytes = 4 + 8 + 4;
constexpr std::size_t kFileHeaderBytes = 8;  // magic + version

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    c = kCrcTable[(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void Serializer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Serializer::f64s(std::span<const double> values) {
  std::uint8_t* p = grow(values.size() * sizeof(double));
  for (const double v : values) {
    putLe64(p, std::bit_cast<std::uint64_t>(v));
    p += sizeof(double);
  }
}

void Serializer::str(std::string_view s) {
  u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Serializer::bytes(std::span<const std::uint8_t> b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

double Deserializer::f64() { return std::bit_cast<double>(u64()); }

void Deserializer::f64s(std::span<double> out) {
  const std::uint8_t* p = take(out.size() * sizeof(double));
  for (double& v : out) {
    v = std::bit_cast<double>(le64(p));
    p += sizeof(double);
  }
}

bool Deserializer::boolean() {
  const std::uint8_t v = u8();
  require(v <= 1, "snapshot corrupt: boolean field is neither 0 nor 1");
  return v == 1;
}

std::string Deserializer::str() {
  const std::uint64_t len = u64();
  if (len > remaining()) {
    throw SnapshotError("snapshot truncated: string overruns input");
  }
  std::string out(reinterpret_cast<const char*>(buf_.data() + pos_),
                  static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return out;
}

std::size_t Deserializer::count(std::size_t minElemBytes) {
  const std::uint64_t n = u64();
  const std::size_t per = minElemBytes == 0 ? 1 : minElemBytes;
  if (n > remaining() / per) {
    throw SnapshotError(
        "snapshot corrupt: element count exceeds the bytes backing it");
  }
  return static_cast<std::size_t>(n);
}

std::vector<std::uint8_t> Deserializer::raw(std::size_t n) {
  if (n > remaining()) {
    throw SnapshotError("snapshot truncated: raw bytes overrun input");
  }
  std::vector<std::uint8_t> out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::size_t Deserializer::boundedCount(std::size_t max) {
  const std::uint64_t n = u64();
  if (n > max) {
    throw SnapshotError("snapshot corrupt: count exceeds its sanity bound");
  }
  return static_cast<std::size_t>(n);
}

void SnapshotWriter::addSection(std::uint32_t tag, const Serializer& payload) {
  sections_.push_back({tag, payload.data()});
}

std::vector<std::uint8_t> SnapshotWriter::encode() const {
  Serializer out;
  out.u32(kSnapshotMagic);
  out.u32(kSnapshotFormatVersion);
  for (const auto& s : sections_) {
    out.u32(s.tag);
    out.u64(s.payload.size());
    out.u32(crc32(s.payload));
    out.bytes(s.payload);
  }
  return out.data();
}

std::size_t SnapshotWriter::writeFile(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = encode();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw SnapshotError("cannot open snapshot temp file: " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw SnapshotError("failed writing snapshot temp file: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("failed to publish snapshot: rename to " + path);
  }
  return bytes.size();
}

SnapshotReader SnapshotReader::parse(std::span<const std::uint8_t> bytes) {
  Deserializer in(bytes);
  if (in.remaining() < kFileHeaderBytes) {
    throw SnapshotError("snapshot truncated: missing file header");
  }
  if (in.u32() != kSnapshotMagic) {
    throw SnapshotError("not a snapshot file (bad magic)");
  }
  const std::uint32_t version = in.u32();
  if (version != kSnapshotFormatVersion) {
    throw SnapshotError("unsupported snapshot format version " +
                        std::to_string(version));
  }
  SnapshotReader reader;
  while (!in.atEnd()) {
    if (in.remaining() < kSectionHeaderBytes) {
      throw SnapshotError("snapshot truncated: partial section header");
    }
    SnapshotSection section;
    section.tag = in.u32();
    const std::uint64_t len = in.u64();
    const std::uint32_t checksum = in.u32();
    if (len > in.remaining()) {
      throw SnapshotError("snapshot truncated: section payload overruns file");
    }
    section.payload = in.raw(static_cast<std::size_t>(len));
    if (crc32(section.payload) != checksum) {
      throw SnapshotError("snapshot corrupt: section CRC mismatch");
    }
    reader.sections_.push_back(std::move(section));
  }
  return reader;
}

SnapshotReader SnapshotReader::readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SnapshotError("cannot open snapshot file: " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (in.bad()) throw SnapshotError("failed reading snapshot file: " + path);
  return parse(bytes);
}

}  // namespace tiresias::persist
