#ifndef RESCQ_RESILIENCE_REGISTRY_H_
#define RESCQ_RESILIENCE_REGISTRY_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "complexity/classifier.h"
#include "cq/query.h"
#include "db/database.h"
#include "resilience/result.h"

namespace rescq {

/// Every SolverKind in declaration order. Kept next to the registry so
/// the self-check test can assert the registry covers the whole enum —
/// adding a kind without registering it (or without a SolverKindName
/// case) fails the build or the test, not a production report.
inline constexpr SolverKind kAllSolverKinds[] = {
    SolverKind::kExact,     SolverKind::kLinearFlow,
    SolverKind::kPermCount, SolverKind::kUnboundPermFlow,
    SolverKind::kPerm3Flow, SolverKind::kRepFlow,
    SolverKind::kConf3Forced, SolverKind::kExactFallback,
};

/// A self-describing resilience solver. Its report string is
/// SolverKindName(kind), a compatibility surface (CSV/JSON schemas, the
/// CLI).
struct SolverEntry {
  SolverKind kind = SolverKind::kExact;
  /// The paper result the construction implements, e.g. "Proposition 33".
  std::string citation;
  /// One-line description for `rescq explain`.
  std::string description;
  /// The full applicability test, run once at plan time on a connected,
  /// minimized, domination-normalized component: the classification
  /// pattern plus the construction's own shape matcher. Instance-
  /// independent, so a planned construction always runs. Null for the
  /// exact entries, which are never probe-selected.
  std::function<bool(const Query& component, const Classification& c)> probe;
  /// Runs the construction on a component its probe accepted. Null for
  /// the exact entries: the engine runs those itself, threading its
  /// witness and node budgets through.
  std::function<ResilienceResult(const Query& component, const Database& db)>
      run;
};

/// The collection of solver entries.
class SolverRegistry {
 public:
  /// Registers an entry. Aborts on a duplicate kind, or when exactly one
  /// of probe and run is set.
  void Register(SolverEntry entry);

  /// Entry for this kind, or nullptr.
  const SolverEntry* Find(SolverKind kind) const;

  const std::vector<SolverEntry>& entries() const { return entries_; }

  /// The construction whose probe accepts this component, or nullopt.
  /// The probes are disjoint, so at most one accepts.
  std::optional<SolverKind> Probe(const Query& component,
                                  const Classification& c) const;

 private:
  std::vector<SolverEntry> entries_;
};

/// The built-in registry: every published construction this repo
/// implements plus the two exact entries (exact, exact-fallback), which
/// carry only their citation and description.
const SolverRegistry& DefaultRegistry();

}  // namespace rescq

#endif  // RESCQ_RESILIENCE_REGISTRY_H_
