#ifndef RESCQ_OBS_MEMSTATS_H_
#define RESCQ_OBS_MEMSTATS_H_

// Memory telemetry in the Pequod pqmemory style: heap footprints are
// *approximated* from container geometry (capacity x element size plus
// per-node overhead for the hash maps) rather than hooking the
// allocator, so the accounting is cheap enough to recompute after every
// epoch and identical across platforms modulo sizeof. Owners expose an
// ApproxBytes() (WitnessIndex) or ApproxMemory() (IncrementalSession)
// built from these helpers; PublishMemBreakdown turns a breakdown into
// the mem.* gauges — including the bytes/tuple and bytes/witness
// ratios the capacity-planning docs quote.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace rescq::obs {

/// Heap bytes behind one vector (geometry only, not sizeof the header:
/// the header is counted by whoever embeds the vector).
template <typename T>
uint64_t VectorBytes(const std::vector<T>& v) {
  return static_cast<uint64_t>(v.capacity()) * sizeof(T);
}

/// Heap bytes behind a vector-of-vectors: outer geometry plus every
/// inner buffer.
template <typename T>
uint64_t NestedVectorBytes(const std::vector<std::vector<T>>& v) {
  uint64_t bytes = static_cast<uint64_t>(v.capacity()) * sizeof(std::vector<T>);
  for (const std::vector<T>& inner : v) bytes += VectorBytes(inner);
  return bytes;
}

/// Heap bytes behind one std::string (zero when the small-string
/// optimization holds the payload inline).
inline uint64_t StringBytes(const std::string& s) {
  return s.capacity() > sizeof(std::string) ? s.capacity() : 0;
}

/// Approximate heap bytes of a node-based hash container
/// (unordered_map / unordered_set): the bucket array plus, per element,
/// the value_type and two pointers of node overhead (next pointer +
/// cached hash, the libstdc++ layout). Value types that own heap of
/// their own (vectors, strings) must be added by the caller.
template <typename HashContainer>
uint64_t HashContainerBytes(const HashContainer& m) {
  return static_cast<uint64_t>(m.bucket_count()) * sizeof(void*) +
         static_cast<uint64_t>(m.size()) *
             (sizeof(typename HashContainer::value_type) + 2 * sizeof(void*));
}

/// One memory report: where the bytes sit and what they amortize over.
struct MemBreakdown {
  uint64_t index_bytes = 0;      // WitnessIndex row chains + enumerator scratch
  uint64_t family_bytes = 0;     // maintained witness set-family
  uint64_t component_bytes = 0;  // per-component records (solutions, labels)
  uint64_t tuples = 0;           // active tuples the index covers
  uint64_t witness_sets = 0;     // distinct endogenous tuple-sets held
  /// View inside family_bytes (not added again by TotalBytes): the
  /// family arena's pool high-water mark (capacity) vs the payload
  /// actually appended. A wide gap means growth reallocations left
  /// slack worth an eviction/rebuild cycle.
  uint64_t arena_reserved_bytes = 0;
  uint64_t arena_live_bytes = 0;

  uint64_t TotalBytes() const {
    return index_bytes + family_bytes + component_bytes;
  }
  double BytesPerTuple() const {
    return tuples == 0 ? 0.0
                       : static_cast<double>(TotalBytes()) /
                             static_cast<double>(tuples);
  }
  double BytesPerWitness() const {
    return witness_sets == 0 ? 0.0
                             : static_cast<double>(TotalBytes()) /
                                   static_cast<double>(witness_sets);
  }
};

/// Publishes a breakdown as the mem.* gauges on the global registry.
/// No-op when metrics are disabled, so callers can invoke it
/// unconditionally after computing a breakdown behind their own
/// MetricsEnabled() gate.
void PublishMemBreakdown(const MemBreakdown& breakdown);

}  // namespace rescq::obs

#endif  // RESCQ_OBS_MEMSTATS_H_
