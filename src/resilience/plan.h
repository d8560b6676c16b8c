#ifndef RESCQ_RESILIENCE_PLAN_H_
#define RESCQ_RESILIENCE_PLAN_H_

#include <string>
#include <vector>

#include "complexity/classifier.h"
#include "cq/query.h"
#include "resilience/result.h"

namespace rescq {

/// The plan for one connected component of the normalized query: its
/// classification and the one solver the engine will run.
struct ComponentPlan {
  /// The component itself — connected, minimized, domination-normalized.
  Query query;
  Classification classification;
  /// True when the component has no endogenous atoms: whenever it holds
  /// it is unbreakable, so it never contributes to the Lemma 14 minimum.
  bool no_endogenous = false;
  /// The solver: the construction whose kSolverTable row accepted the
  /// component, kExact (NP-complete / open / out-of-scope components),
  /// or kExactFallback (a PTIME component no construction covers).
  SolverKind solver = SolverKind::kExact;
  /// Why an exact solver runs, or why no solver is needed; empty when a
  /// construction runs.
  std::string reason;
};

/// A reusable, explainable query plan: all the pure query analysis of
/// the paper's pipeline (minimize, Section 4.1; normalize domination,
/// Proposition 18; split components, Lemma 14; classify, Theorem 37 /
/// Section 8; pick the published construction) done once, so repeated
/// Solve calls on the same query only pay for the data-dependent part.
/// Immutable after BuildPlan — safe to share read-only across threads.
struct ResiliencePlan {
  Query original;
  /// FNV-1a hex of the canonical query text — a compact display handle
  /// for logs and `rescq explain`. The engine's plan cache keys on the
  /// full canonical text itself, so hash collisions cannot mix plans.
  std::string fingerprint;
  Query minimized;
  Query normalized;
  std::vector<ComponentPlan> components;

  /// Human-readable plan: pipeline stages, per-component classification,
  /// and the chosen solver with its paper citation. This is what
  /// `rescq explain` prints.
  std::string Explain() const;
};

/// Stable fingerprint of the query's canonical text; two parses of the
/// same text always agree. Display/identification only — see
/// ResiliencePlan::fingerprint.
std::string QueryFingerprint(const Query& q);

/// Runs the full query-analysis pipeline and tries each construction row
/// of kSolverTable (registry.h).
ResiliencePlan BuildPlan(const Query& q);

}  // namespace rescq

#endif  // RESCQ_RESILIENCE_PLAN_H_
