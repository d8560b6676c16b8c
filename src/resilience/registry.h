#ifndef RESCQ_RESILIENCE_REGISTRY_H_
#define RESCQ_RESILIENCE_REGISTRY_H_

#include <cstddef>

#include "complexity/classifier.h"
#include "cq/query.h"
#include "db/database.h"
#include "resilience/result.h"
#include "util/check.h"

namespace rescq {

/// One resilience solver: its report name (SolverKindName, a
/// compatibility surface: CSV/JSON schemas, the CLI), the paper result
/// it implements, and, for a construction, when and how it runs.
struct SolverRow {
  SolverKind kind;
  const char* name;
  /// The paper result the solver implements, e.g. "Proposition 33".
  const char* citation;
  /// One-line description for `rescq explain`.
  const char* description;
  /// The full applicability test, run once at plan time on a connected,
  /// minimized, domination-normalized component: the classification
  /// pattern plus the construction's own shape matcher. Instance-
  /// independent, so a planned construction always runs, and disjoint
  /// across rows, so at most one accepts. Null for the exact rows, which
  /// planning picks by complexity.
  bool (*applies)(const Query& component, const Classification& c);
  /// Runs the construction on a component `applies` accepted. Null for
  /// the exact rows: the engine runs those itself, threading its witness
  /// and node budgets through.
  ResilienceResult (*run)(const Query& component, const Database& db);
};

inline constexpr size_t kNumSolverKinds =
    static_cast<size_t>(SolverKind::kExactFallback) + 1;

/// Every solver, row i for SolverKind i (a static_assert pins the
/// order): each published construction this repo implements plus the
/// two exact rows, exact and exact-fallback.
extern const SolverRow kSolverTable[kNumSolverKinds];

inline const SolverRow& SolverRowOf(SolverKind kind) {
  const size_t i = static_cast<size_t>(kind);
  RESCQ_CHECK_LT(i, kNumSolverKinds);
  return kSolverTable[i];
}

}  // namespace rescq

#endif  // RESCQ_RESILIENCE_REGISTRY_H_
