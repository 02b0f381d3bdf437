// Hash combining utilities (FNV-1a style mixing), shared by Tuple, Value and
// Relation hashing.

#ifndef REL_BASE_HASH_H_
#define REL_BASE_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace rel {

/// Mixes `value` into the running hash `seed` (boost::hash_combine-style but
/// with a 64-bit multiplier).
inline size_t HashCombine(size_t seed, size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  return seed;
}

/// splitmix64 finalizer. Row hashes built over std::hash<int64_t> (identity
/// on common standard libraries) have strided low bits; mixing before a
/// power-of-two mask keeps linear-probe runs short.
inline size_t MixHash(size_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

template <typename T>
size_t HashOf(const T& v) {
  return std::hash<T>{}(v);
}

}  // namespace rel

#endif  // REL_BASE_HASH_H_
