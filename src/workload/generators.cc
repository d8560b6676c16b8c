#include "workload/generators.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "cq/parser.h"
#include "util/rng.h"

namespace rescq {

namespace {

/// Bernoulli draw with probability p (clamped to [0,1]), deterministic
/// in rng. Rng::Chance wants a rational, so fix the denominator.
bool Bern(Rng& rng, double p) {
  constexpr uint64_t kDen = 1u << 20;
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return rng.Chance(static_cast<uint64_t>(p * kDen), kDen);
}

/// ~density*size, but at least `floor` — the "extra edges" knob shared
/// by several families.
int Extras(const ScenarioParams& p, int floor_count = 0) {
  return std::max(floor_count, static_cast<int>(p.density * p.size));
}

std::vector<Value> InternAll(Database* db, const char* prefix, int count) {
  std::vector<Value> vals;
  vals.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) vals.push_back(db->InternIndexed(prefix, i));
  return vals;
}

}  // namespace

Database GenerateChain(const ScenarioParams& p) {
  Rng rng(p.seed);
  Database db;
  int n = std::max(2, p.size);
  std::vector<Value> node = InternAll(&db, "n", n);
  for (int i = 0; i + 1 < n; ++i) db.AddTuple("R", {node[i], node[i + 1]});
  for (int e = 0; e < Extras(p); ++e) {
    // Forward skip edges keep the instance chain-shaped (acyclic but for
    // the optional self-loop below).
    int u = static_cast<int>(rng.Below(static_cast<uint64_t>(n - 1)));
    int v = u + 1 + static_cast<int>(rng.Range(0, n - 1 - u - 1));
    db.AddTuple("R", {node[u], node[v]});
  }
  // The Section 2 example's R(3,3): a self-loop forces its own deletion.
  if (Bern(rng, p.density)) db.AddTuple("R", {node[n - 1], node[n - 1]});
  return db;
}

namespace {

Database PermutationEdges(const ScenarioParams& p, std::vector<Value>* out) {
  Rng rng(p.seed);
  Database db;
  int n = std::max(2, p.size);
  std::vector<Value> node = InternAll(&db, "a", n);
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  rng.Shuffle(perm);
  for (int i = 0; i < n; ++i) {
    db.AddTuple("R", {node[i], node[perm[static_cast<size_t>(i)]]});
  }
  for (int e = 0; e < Extras(p); ++e) {
    Value u = node[rng.Below(static_cast<uint64_t>(n))];
    Value v = node[rng.Below(static_cast<uint64_t>(n))];
    db.AddTuple("R", {u, v});
  }
  if (out) *out = node;
  return db;
}

}  // namespace

Database GeneratePermutation(const ScenarioParams& p) {
  return PermutationEdges(p, nullptr);
}

Database GenerateBipartitePermutation(const ScenarioParams& p) {
  std::vector<Value> node;
  Database db = PermutationEdges(p, &node);
  // Distinct stream for the A-membership draws so they do not perturb
  // the shared permutation edges.
  Rng rng(p.seed ^ 0x9e3779b97f4a7c15ULL);
  for (Value v : node) {
    if (Bern(rng, p.density)) db.AddTuple("A", {v});
  }
  return db;
}

namespace {

/// Encodes an undirected edge list as a q_vc instance: R holds every
/// vertex, S one direction per edge.
Database EncodeVC(const std::vector<Value>& vertex,
                  const std::vector<std::pair<int, int>>& edges, Database db) {
  for (Value v : vertex) db.AddTuple("R", {v});
  for (const auto& [u, v] : edges) {
    db.AddTuple("S", {vertex[static_cast<size_t>(u)],
                      vertex[static_cast<size_t>(v)]});
  }
  return db;
}

}  // namespace

Database GenerateErdosRenyiVC(const ScenarioParams& p) {
  Rng rng(p.seed);
  Database db;
  int n = std::max(2, p.size);
  std::vector<Value> vertex = InternAll(&db, "v", n);
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (Bern(rng, p.density)) edges.push_back({u, v});
    }
  }
  return EncodeVC(vertex, edges, std::move(db));
}

Database GeneratePathVC(const ScenarioParams& p) {
  Database db;
  int n = std::max(2, p.size);
  std::vector<Value> vertex = InternAll(&db, "v", n);
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1});
  return EncodeVC(vertex, edges, std::move(db));
}

Database GenerateGridVC(const ScenarioParams& p) {
  Database db;
  int n = std::max(2, p.size);
  int width = std::max(1, static_cast<int>(std::ceil(std::sqrt(n))));
  std::vector<Value> vertex = InternAll(&db, "v", n);
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) {
    if ((i + 1) % width != 0 && i + 1 < n) edges.push_back({i, i + 1});
    if (i + width < n) edges.push_back({i, i + width});
  }
  return EncodeVC(vertex, edges, std::move(db));
}

Database GeneratePlantedVC(const ScenarioParams& p) {
  Rng rng(p.seed);
  Database db;
  int n = std::max(3, p.size);
  int cover = std::min(n - 1, std::max(1, static_cast<int>(p.density * n)));
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);  // order[0..cover) is the planted cover
  std::vector<Value> vertex = InternAll(&db, "v", n);
  std::vector<std::pair<int, int>> edges;
  for (int i = cover; i < n; ++i) {
    int fan = 1 + static_cast<int>(rng.Below(2));
    for (int e = 0; e < fan; ++e) {
      int c = order[rng.Below(static_cast<uint64_t>(cover))];
      edges.push_back({c, order[static_cast<size_t>(i)]});
    }
  }
  for (int e = 0; e < cover / 2; ++e) {
    int a = order[rng.Below(static_cast<uint64_t>(cover))];
    int b = order[rng.Below(static_cast<uint64_t>(cover))];
    if (a != b) edges.push_back({a, b});
  }
  return EncodeVC(vertex, edges, std::move(db));
}

Database GenerateDominationHeavy(const ScenarioParams& p) {
  Rng rng(p.seed);
  Database db;
  int n = std::max(2, p.size);
  int hubs = std::max(1, n / 4);
  std::vector<Value> hub = InternAll(&db, "h", hubs);
  std::vector<Value> xs = InternAll(&db, "x", n);
  std::vector<Value> zs = InternAll(&db, "z", n);
  for (int i = 0; i < n; ++i) {
    db.AddTuple("A", {xs[static_cast<size_t>(i)]});
    db.AddTuple("C", {zs[static_cast<size_t>(i)]});
    // Every spoke reaches one hub, so witnesses always exist; extra
    // hub edges below create the skew that domination pruning feeds on.
    db.AddTuple("R", {xs[static_cast<size_t>(i)], hub[i % hubs]});
    db.AddTuple("R", {zs[static_cast<size_t>(i)], hub[i % hubs]});
  }
  for (int i = 0; i < n; ++i) {
    for (int h = 0; h < hubs; ++h) {
      if (Bern(rng, p.density / 2)) {
        db.AddTuple("R", {xs[static_cast<size_t>(i)], hub[h]});
      }
      if (Bern(rng, p.density / 2)) {
        db.AddTuple("R", {zs[static_cast<size_t>(i)], hub[h]});
      }
    }
  }
  return db;
}

Database GenerateTriadHard(const ScenarioParams& p) {
  Rng rng(p.seed);
  Database db;
  int n = std::max(2, p.size);
  std::vector<Value> xs = InternAll(&db, "x", n);
  std::vector<Value> ys = InternAll(&db, "y", n);
  std::vector<Value> zs = InternAll(&db, "z", n);
  // One guaranteed triangle; the rest is tripartite Erdős–Rényi.
  db.AddTuple("R", {xs[0], ys[0]});
  db.AddTuple("S", {ys[0], zs[0]});
  db.AddTuple("T", {zs[0], xs[0]});
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (Bern(rng, p.density)) {
        db.AddTuple("R", {xs[static_cast<size_t>(a)],
                          ys[static_cast<size_t>(b)]});
      }
      if (Bern(rng, p.density)) {
        db.AddTuple("S", {ys[static_cast<size_t>(a)],
                          zs[static_cast<size_t>(b)]});
      }
      if (Bern(rng, p.density)) {
        db.AddTuple("T", {zs[static_cast<size_t>(a)],
                          xs[static_cast<size_t>(b)]});
      }
    }
  }
  return db;
}

Database GenerateUniform(const Query& q, const ScenarioParams& p) {
  Rng rng(p.seed);
  Database db;
  int n = std::max(1, p.size);
  int domain = std::max(2, static_cast<int>(p.density * n));
  std::vector<Value> dom = InternAll(&db, "c", domain);
  for (const std::string& rel : q.RelationNames()) {
    int arity = q.RelationArity(rel);
    for (int t = 0; t < n; ++t) {
      std::vector<Value> row;
      row.reserve(static_cast<size_t>(arity));
      for (int c = 0; c < arity; ++c) {
        row.push_back(dom[rng.Below(static_cast<uint64_t>(domain))]);
      }
      db.AddTuple(rel, row);
    }
  }
  return db;
}

const std::vector<Scenario>& ScenarioCatalog() {
  static const std::vector<Scenario>* catalog = new std::vector<Scenario>{
      {"chain", "R(x,y), R(y,z)",
       "directed path + skip edges for q_chain (Section 2, exact solver)",
       GenerateChain},
      {"perm", "R(x,y), R(y,x)",
       "random permutation + noise edges for q_perm (Prop 33 counting)",
       GeneratePermutation},
      {"perm_bipartite", "A(x), R(x,y), R(y,x)",
       "permutation instance with sampled A for q_Aperm (Props 33/35 flow)",
       GenerateBipartitePermutation},
      {"vc_er", "R(x), S(x,y), R(y)",
       "Erdos-Renyi G(n, density) encoded for q_vc (Prop 9)",
       GenerateErdosRenyiVC},
      {"vc_path", "R(x), S(x,y), R(y)",
       "path graph for q_vc; optimum floor(n/2)", GeneratePathVC},
      {"vc_grid", "R(x), S(x,y), R(y)", "near-square grid graph for q_vc",
       GenerateGridVC},
      {"vc_planted", "R(x), S(x,y), R(y)",
       "planted cover of ~density*n vertices touching every edge",
       GeneratePlantedVC},
      {"domination", "A(x), R(x,y), R(z,y), C(z)",
       "hub-skewed instance for q_ACconf (Prop 12 flow + domination)",
       GenerateDominationHeavy},
      {"triad", "R(x,y), S(y,z), T(z,x)",
       "tripartite Erdos-Renyi for the triangle triad (Theorem 24, "
       "NP-complete)",
       GenerateTriadHard},
      {"uniform", "R(x,y), A(x), T(z,x), S(y,z)",
       "generic per-atom uniform filler (default query q_rats)",
       [](const ScenarioParams& p) {
         return GenerateUniform(MustParseQuery("R(x,y), A(x), T(z,x), S(y,z)"),
                                p);
       }},
  };
  return *catalog;
}

std::vector<std::string> AllScenarioNames() {
  std::vector<std::string> names;
  names.reserve(ScenarioCatalog().size());
  for (const Scenario& s : ScenarioCatalog()) names.push_back(s.name);
  return names;
}

const Scenario* FindScenario(const std::string& name) {
  for (const Scenario& s : ScenarioCatalog()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace rescq
