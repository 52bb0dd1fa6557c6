#include "common/crc32.h"

#include <array>

#include "common/endian.h"

namespace confide {

namespace {

/// Slice-by-8 tables: kTables[0] is the classic bytewise table for the
/// reflected IEEE polynomial; kTables[k][i] is the CRC of byte i followed
/// by k zero bytes, so eight table lookups fold eight input bytes at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables BuildTables() {
  Tables tables;
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

}  // namespace

uint32_t Crc32(ByteView data, uint32_t seed) {
  static const Tables kTables = BuildTables();
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint32_t crc = ~seed;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
          kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
          kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) crc = kTables[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  return ~crc;
}

}  // namespace confide
