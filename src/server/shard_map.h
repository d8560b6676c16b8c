#ifndef RESCQ_SERVER_SHARD_MAP_H_
#define RESCQ_SERVER_SHARD_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/fnv.h"

namespace rescq {

/// Consistent-hash placement of session names onto shards. Each shard
/// contributes kVnodes points on a 64-bit FNV-1a ring; a name is owned
/// by the first ring point at or after its hash (wrapping at the top).
/// The map is a pure function of the shard count: every router
/// instance over the same shard list computes the same placement, and
/// growing the shard count moves only the names whose arcs the new
/// points cut — roughly 1/(n+1) of them — instead of rehashing
/// everything (the property modulo-hashing lacks).
class ShardMap {
 public:
  /// Ring points per shard. A constant, not a setting: every router on
  /// a fleet must build the same ring.
  static constexpr size_t kVnodes = 64;

  explicit ShardMap(size_t shard_count)
      : shard_count_(shard_count == 0 ? 1 : shard_count) {
    ring_.reserve(shard_count_ * kVnodes);
    for (size_t shard = 0; shard < shard_count_; ++shard) {
      for (size_t v = 0; v < kVnodes; ++v) {
        Fnv1a hash;
        hash.MixString("shard-" + std::to_string(shard));
        hash.MixU32(static_cast<uint32_t>(v));
        ring_.emplace_back(Spread(hash.digest()),
                           static_cast<uint32_t>(shard));
      }
    }
    // Sorting by (hash, shard) makes hash collisions deterministic too.
    std::sort(ring_.begin(), ring_.end());
  }

  size_t shard_count() const { return shard_count_; }

  /// The shard that owns `name` — stable for a fixed shard count.
  size_t OwnerOf(std::string_view name) const {
    Fnv1a hash;
    hash.MixString(std::string(name));
    uint64_t point = Spread(hash.digest());
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), std::make_pair(point, uint32_t{0}));
    if (it == ring_.end()) it = ring_.begin();  // wrap past the top
    return it->second;
  }

 private:
  /// FNV-1a's high bits avalanche poorly on short keys, and ring order
  /// is decided by exactly those bits — without a finalizer a 4-shard
  /// ring gives one shard ~85% of the keyspace. Murmur3's fmix64 fixes
  /// the dispersion while staying a pure deterministic function.
  static uint64_t Spread(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }

  size_t shard_count_;
  std::vector<std::pair<uint64_t, uint32_t>> ring_;
};

}  // namespace rescq

#endif  // RESCQ_SERVER_SHARD_MAP_H_
