// Little-endian fixed-width codecs for the byte formats built on TSNP
// framing: `.tsrb` trace files and the TSRS socket stream.
//
// Byte assembly rather than memcpy + byte swap: GCC folds these to single
// unaligned moves on little-endian targets, and they are alignment- and
// endianness-correct everywhere. They stay inline so the `.tsrb` block
// decode keeps compiling to plain loads.
#pragma once

#include <cstdint>

namespace tiresias::persist {

inline std::uint32_t le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(le32(p)) |
         (static_cast<std::uint64_t>(le32(p + 4)) << 32);
}

inline void putLe32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void putLe64(std::uint8_t* p, std::uint64_t v) {
  putLe32(p, static_cast<std::uint32_t>(v));
  putLe32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

}  // namespace tiresias::persist
