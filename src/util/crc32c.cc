#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace gpivot {

namespace {

// 4 x 256 lookup tables for slicing-by-4, generated once at first use.
// Table 0 is the classic byte-at-a-time table; table k folds a byte that
// sits k positions deeper in the word.
struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 4> t;

  Crc32cTables() {
    constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFFu];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFFu];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFFu];
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables* const kTables = new Crc32cTables();
  return *kTables;
}

#if defined(__x86_64__)
// The CRC32 instruction, one 8-byte word at a time. Compiled for SSE4.2
// whatever the build targets; called only once the CPU is known to have it.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(
    const unsigned char* p, size_t n, uint32_t crc) {
  uint64_t crc64 = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc64 = _mm_crc32_u64(crc64, word);
  }
  auto crc32 = static_cast<uint32_t>(crc64);
  while (n-- > 0) crc32 = _mm_crc32_u8(crc32, *p++);
  return ~crc32;
}
#endif

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t crc) {
#if defined(__x86_64__)
  static const bool kHasSse42 = __builtin_cpu_supports("sse4.2");
  if (kHasSse42) {
    return Crc32cSse42(static_cast<const unsigned char*>(data), n, crc);
  }
#endif
  return Crc32cPortable(data, n, crc);
}

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t crc) {
  const Crc32cTables& tables = Tables();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = tables.t[3][crc & 0xFFu] ^ tables.t[2][(crc >> 8) & 0xFFu] ^
          tables.t[1][(crc >> 16) & 0xFFu] ^ tables.t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ tables.t[0][(crc ^ *p++) & 0xFFu];
  }
  return ~crc;
}

}  // namespace gpivot
