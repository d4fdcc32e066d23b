#ifndef GPIVOT_UTIL_HASH_UTIL_H_
#define GPIVOT_UTIL_HASH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace gpivot {

// Mixes `value` into `seed` (boost::hash_combine-style, 64-bit constants).
inline size_t HashCombine(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

// murmur3's 64-bit finalizer: a bijection whose every output bit depends
// on every input bit.
inline uint64_t Fmix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

}  // namespace gpivot

#endif  // GPIVOT_UTIL_HASH_UTIL_H_
