#ifndef RESCQ_WORKLOAD_GENERATORS_H_
#define RESCQ_WORKLOAD_GENERATORS_H_

#include "cq/query.h"
#include "db/database.h"
#include "workload/scenario.h"

namespace rescq {

// Deterministic instance factories for the paper's query families. Each
// is a pure function of its params (the Rng seed included), so the same
// call always yields byte-identical databases — tests, the batch engine,
// and checked-in fixtures all rely on that. The named scenarios in
// ScenarioCatalog() bind these to their default queries.

/// Chain database for q_chain :- R(x,y), R(y,z) (Section 2): a directed
/// path over `size` nodes plus ~density*size extra forward edges and an
/// occasional self-loop, so witnesses overlap the way the running
/// example's do.
Database GenerateChain(const ScenarioParams& p);

/// Permutation instance for q_perm :- R(x,y), R(y,x) (Prop 33): a random
/// permutation's edges (2-cycles and fixpoints are the witnesses) plus
/// ~density*size noise edges.
Database GeneratePermutation(const ScenarioParams& p);

/// Bipartite variant for q_Aperm :- A(x), R(x,y), R(y,x): the
/// permutation instance with each constant added to A with probability
/// `density`: the bipartite (L-tuples x 2-way pairs) cover of Prop 33,
/// which the Prop 35 unbound-permutation flow solves.
Database GenerateBipartitePermutation(const ScenarioParams& p);

/// Erdős–Rényi G(size, density) encoded for q_vc :- R(x), S(x,y), R(y)
/// (Prop 9): R holds every vertex, S one direction of each sampled edge.
Database GenerateErdosRenyiVC(const ScenarioParams& p);

/// Path graph over `size` vertices for q_vc (minimum VC = floor(size/2)).
Database GeneratePathVC(const ScenarioParams& p);

/// Near-square grid graph with `size` vertices for q_vc.
Database GenerateGridVC(const ScenarioParams& p);

/// Planted vertex cover: ~density*size cover vertices, every edge
/// touches the cover, so the optimum is at most the planted size.
Database GeneratePlantedVC(const ScenarioParams& p);

/// Domination-heavy instance for q_ACconf :- A(x), R(x,y), R(z,y), C(z)
/// (Prop 12): few hub y-values shared by many x/z spokes, stressing the
/// domination normalization and the confluence flow solver.
Database GenerateDominationHeavy(const ScenarioParams& p);

/// Tripartite Erdős–Rényi instance for the triad q_triangle :- R(x,y),
/// S(y,z), T(z,x) (Theorem 24, NP-complete — exercises the exact
/// solver). Parts have `size` vertices each.
Database GenerateTriadHard(const ScenarioParams& p);

/// Generic per-atom uniform filler for *any* parsed query: `size` random
/// tuples per relation over a domain of ~density*size constants (at
/// least 2). This is what `rescq batch --names ...` crosses with the
/// paper catalog.
Database GenerateUniform(const Query& q, const ScenarioParams& p);

}  // namespace rescq

#endif  // RESCQ_WORKLOAD_GENERATORS_H_
