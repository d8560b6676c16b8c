#ifndef RESCQ_DB_VALUE_H_
#define RESCQ_DB_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "util/fnv.h"

namespace rescq {

/// An interned domain constant. Values are dense indices into a
/// Database's domain table; the mapping to human-readable names lives in
/// the Database.
using Value = int32_t;

/// Identifies one tuple inside a Database: relation index + row index.
/// Tuple ids are stable: deactivating a tuple does not shift others.
struct TupleId {
  int relation = -1;
  int row = -1;

  bool operator==(const TupleId& o) const {
    return relation == o.relation && row == o.row;
  }
  bool operator<(const TupleId& o) const {
    return relation != o.relation ? relation < o.relation : row < o.row;
  }
};

struct TupleIdHash {
  size_t operator()(const TupleId& t) const {
    return std::hash<uint64_t>()(
        (static_cast<uint64_t>(static_cast<uint32_t>(t.relation)) << 32) |
        static_cast<uint32_t>(t.row));
  }
};

/// FNV-1a over a run of values (the shared util/fnv hash), for hashed
/// exact-match lookups keyed by rows or interface values: the values
/// hash directly instead of being serialized into string keys.
inline size_t HashValues(const Value* values, size_t n) {
  Fnv1a h;
  for (size_t i = 0; i < n; ++i) h.MixU32(static_cast<uint32_t>(values[i]));
  return static_cast<size_t>(h.digest());
}

}  // namespace rescq

#endif  // RESCQ_DB_VALUE_H_
