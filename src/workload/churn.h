#ifndef RESCQ_WORKLOAD_CHURN_H_
#define RESCQ_WORKLOAD_CHURN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/delta.h"

namespace rescq {

/// Shape knobs for a generated update stream. `rate` is the fraction of
/// the *current* active tuples touched per epoch (at least one update);
/// `seed` drives the deterministic Rng, so equal params over an equal
/// base always produce the identical log.
struct ChurnParams {
  int epochs = 4;
  double rate = 0.05;
  uint64_t seed = 1;
};

/// A named update-stream family — the updates axis of the workload
/// subsystem, the data-side analogue of ScenarioCatalog for streams.
struct ChurnKind {
  std::string name;         // e.g. "mixed"
  std::string description;  // one-liner for `rescq stream` usage/docs
};

/// Every registered churn kind, in a stable order: insert (new facts
/// only), delete (existing facts only), mixed (a coin flip per update),
/// hub (updates target the most frequent constant, stressing the
/// delta enumerator's skewed per-value row chains).
const std::vector<ChurnKind>& ChurnCatalog();

/// The registered names, catalog order.
std::vector<std::string> AllChurnNames();

bool IsChurnKind(const std::string& name);

/// Deterministically generates an update log against `base`: `epochs`
/// epochs, each touching ~rate * (active tuples at that point) facts.
/// The generator simulates application on a working copy so deletions
/// always name live facts and inserts always name absent ones; inserts
/// draw constants from the existing domain with an occasional fresh
/// one. `kind` must be registered (RESCQ_CHECKed).
UpdateLog GenerateChurn(const Database& base, const std::string& kind,
                        const ChurnParams& params);

}  // namespace rescq

#endif  // RESCQ_WORKLOAD_CHURN_H_
