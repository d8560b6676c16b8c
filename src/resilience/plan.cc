#include "resilience/plan.h"

#include "cq/components.h"
#include "cq/domination.h"
#include "cq/homomorphism.h"
#include "resilience/registry.h"
#include "util/check.h"
#include "util/fnv.h"
#include "util/string_util.h"

namespace rescq {

std::string QueryFingerprint(const Query& q) { return Fnv1aHex(q.ToString()); }

ResiliencePlan BuildPlan(const Query& q) {
  ResiliencePlan plan;
  plan.original = q;
  plan.fingerprint = QueryFingerprint(q);
  // Minimization and domination preserve both satisfaction and the
  // optimum contingency size (Section 4.1, Proposition 18).
  plan.minimized = Minimize(q);
  plan.normalized = NormalizeDomination(plan.minimized);
  for (Query& comp : SplitIntoComponents(plan.normalized)) {
    ComponentPlan cp;
    cp.classification = ClassifyResilience(comp);
    cp.no_endogenous = comp.EndogenousAtoms().empty();
    if (cp.no_endogenous) {
      cp.reason = "no endogenous atoms: unbreakable whenever true";
    } else if (cp.classification.complexity != Complexity::kPTime) {
      cp.reason =
          StrFormat("RES(component) is %s: exact branch-and-bound is the "
                    "planned solver",
                    ComplexityName(cp.classification.complexity));
    } else {
      cp.solver = SolverKind::kExactFallback;
      for (const SolverRow& row : kSolverTable) {
        if (row.applies != nullptr && row.applies(comp, cp.classification)) {
          cp.solver = row.kind;
          break;
        }
      }
      if (cp.solver == SolverKind::kExactFallback) {
        cp.reason = StrFormat(
            "pattern '%s': no registered construction accepts this component",
            cp.classification.pattern.c_str());
      }
    }
    cp.query = std::move(comp);
    plan.components.push_back(std::move(cp));
  }
  return plan;
}

std::string ResiliencePlan::Explain() const {
  std::string out;
  out += StrFormat("query:        %s\n", original.ToString().c_str());
  out += StrFormat("fingerprint:  %s\n", fingerprint.c_str());
  out +=
      "pipeline:     minimize (Sec 4.1) -> normalize domination (Prop 18) "
      "-> split components (Lemma 14) -> classify (Thm 37 / Sec 8) -> "
      "dispatch\n";
  if (!(minimized == original)) {
    out += StrFormat("minimized:    %s\n", minimized.ToString().c_str());
  }
  if (!(normalized == minimized)) {
    out += StrFormat("normalized:   %s\n", normalized.ToString().c_str());
  }
  out += StrFormat("components:   %zu\n", components.size());
  for (size_t i = 0; i < components.size(); ++i) {
    const ComponentPlan& cp = components[i];
    out += StrFormat("component %zu:  %s\n", i + 1,
                     cp.query.ToString().c_str());
    out += StrFormat("  complexity: RES is %s\n",
                     ComplexityName(cp.classification.complexity));
    out += StrFormat("  pattern:    %s\n", cp.classification.pattern.c_str());
    out += StrFormat("  reason:     %s\n", cp.classification.reason.c_str());
    if (cp.no_endogenous) {
      out += StrFormat("  solver:     none needed — %s\n", cp.reason.c_str());
      continue;
    }
    const SolverRow& row = SolverRowOf(cp.solver);
    out += StrFormat("  solver:     %s (%s) — %s%s%s\n", row.name,
                     row.citation, row.description,
                     cp.reason.empty() ? "" : "; ", cp.reason.c_str());
  }
  return out;
}

}  // namespace rescq
