/// \file endian.h
/// \brief Fixed-width big/little-endian load/store helpers.

#pragma once

#include <cstdint>
#include <cstring>

namespace confide {

inline uint32_t LoadBe32(const uint8_t* p) {
  return (uint32_t(p[0]) << 24) | (uint32_t(p[1]) << 16) |
         (uint32_t(p[2]) << 8) | uint32_t(p[3]);
}

inline uint64_t LoadBe64(const uint8_t* p) {
  return (uint64_t(LoadBe32(p)) << 32) | LoadBe32(p + 4);
}

inline void StoreBe32(uint8_t* p, uint32_t v) {
  p[0] = uint8_t(v >> 24);
  p[1] = uint8_t(v >> 16);
  p[2] = uint8_t(v >> 8);
  p[3] = uint8_t(v);
}

inline void StoreBe64(uint8_t* p, uint64_t v) {
  StoreBe32(p, uint32_t(v >> 32));
  StoreBe32(p + 4, uint32_t(v));
}

inline uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t(p[0]) | (uint32_t(p[1]) << 8) | (uint32_t(p[2]) << 16) |
         (uint32_t(p[3]) << 24);
}

inline uint64_t LoadLe64(const uint8_t* p) {
  return uint64_t(LoadLe32(p)) | (uint64_t(LoadLe32(p + 4)) << 32);
}

inline void StoreLe32(uint8_t* p, uint32_t v) {
  p[0] = uint8_t(v);
  p[1] = uint8_t(v >> 8);
  p[2] = uint8_t(v >> 16);
  p[3] = uint8_t(v >> 24);
}

inline void StoreLe64(uint8_t* p, uint64_t v) {
  StoreLe32(p, uint32_t(v));
  StoreLe32(p + 4, uint32_t(v >> 32));
}

// Rotations by n in [0, width). The complementary shift is masked so a
// rotation by 0 (Keccak's rho offset for lane 0) shifts by 0, not by the
// full width, which is undefined.
inline uint32_t RotL32(uint32_t x, int n) { return (x << n) | (x >> ((32 - n) & 31)); }
inline uint32_t RotR32(uint32_t x, int n) { return (x >> n) | (x << ((32 - n) & 31)); }
inline uint64_t RotL64(uint64_t x, int n) { return (x << n) | (x >> ((64 - n) & 63)); }
inline uint64_t RotR64(uint64_t x, int n) { return (x >> n) | (x << ((64 - n) & 63)); }

}  // namespace confide
