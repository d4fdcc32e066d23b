#ifndef GPIVOT_UTIL_CRC32C_H_
#define GPIVOT_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace gpivot {

// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum LevelDB/RocksDB frame their log records with. The storage layer
// uses it to detect torn writes and bit rot in WAL entries and checkpoint
// payloads; the serialization fuzz tests assert every single-bit flip in a
// framed entry is caught.
//
// On x86-64 hosts with SSE4.2 (checked once, at the first call) Crc32c runs
// the CRC32 instruction eight bytes at a time; elsewhere it is the portable
// slicing-by-4 table loop, which the tests also use as the oracle.

// CRC of `data`, optionally extending a running crc (pass the previous
// return value to checksum a payload in chunks; start with 0).
uint32_t Crc32c(const void* data, size_t n, uint32_t crc = 0);

// The table loop alone: the same function as Crc32c on every host.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t crc = 0);

inline uint32_t Crc32c(std::string_view data, uint32_t crc = 0) {
  return Crc32c(data.data(), data.size(), crc);
}

}  // namespace gpivot

#endif  // GPIVOT_UTIL_CRC32C_H_
