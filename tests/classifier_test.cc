#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "complexity/classifier.h"
#include "cq/parser.h"

namespace rescq {
namespace {

// --- The big sweep: every named query in the paper classifies as published.

class CatalogClassification : public ::testing::TestWithParam<CatalogEntry> {};

TEST_P(CatalogClassification, MatchesPaperVerdict) {
  const CatalogEntry& entry = GetParam();
  Query q = MustParseQuery(entry.text);
  Classification c = ClassifyResilience(q);
  EXPECT_EQ(c.complexity, entry.expected)
      << entry.name << " (" << entry.reference << "): got pattern '"
      << c.pattern << "', reason: " << c.reason;
}

INSTANTIATE_TEST_SUITE_P(
    Paper, CatalogClassification, ::testing::ValuesIn(PaperCatalog()),
    [](const ::testing::TestParamInfo<CatalogEntry>& info) {
      return info.param.name;
    });

// The complexity of RES(q) is invariant under globally swapping the
// columns of any binary relation (it is a relabeling of the stored
// tuples). The classifier must agree with itself across that symmetry
// for every named query.
TEST_P(CatalogClassification, InvariantUnderColumnSwap) {
  const CatalogEntry& entry = GetParam();
  Query q = MustParseQuery(entry.text);
  Complexity base = ClassifyResilience(q).complexity;
  for (const std::string& rel : q.RelationNames()) {
    if (q.RelationArity(rel) != 2) continue;
    std::vector<Atom> atoms = q.atoms();
    for (Atom& a : atoms) {
      if (a.relation == rel) std::swap(a.vars[0], a.vars[1]);
    }
    Query swapped(std::move(atoms), q.var_names());
    EXPECT_EQ(static_cast<int>(ClassifyResilience(swapped).complexity),
              static_cast<int>(base))
        << entry.name << " with " << rel << " swapped";
  }
}

// ... and under renaming every relation (prefixing preserves structure).
TEST_P(CatalogClassification, InvariantUnderRelationRenaming) {
  const CatalogEntry& entry = GetParam();
  Query q = MustParseQuery(entry.text);
  std::vector<Atom> atoms = q.atoms();
  for (Atom& a : atoms) a.relation = "Q" + a.relation;
  Query renamed(std::move(atoms), q.var_names());
  EXPECT_EQ(static_cast<int>(ClassifyResilience(renamed).complexity),
            static_cast<int>(ClassifyResilience(q).complexity))
      << entry.name;
}

// --- Decisive patterns for the flagship queries --------------------------------

TEST(Classifier, TrianglePattern) {
  Classification c = ClassifyResilience(MustParseQuery("R(x,y), S(y,z), T(z,x)"));
  EXPECT_EQ(c.complexity, Complexity::kNpComplete);
  EXPECT_EQ(c.pattern, "triad");
}

TEST(Classifier, QvcPattern) {
  Classification c = ClassifyResilience(MustParseQuery("R(x), S(x,y), R(y)"));
  EXPECT_EQ(c.pattern, "unary-path");
}

TEST(Classifier, QchainPattern) {
  Classification c = ClassifyResilience(MustParseQuery("R(x,y), R(y,z)"));
  EXPECT_EQ(c.pattern, "chain");
}

TEST(Classifier, ABpermPattern) {
  Classification c =
      ClassifyResilience(MustParseQuery("A(x), R(x,y), R(y,x), B(y)"));
  EXPECT_EQ(c.pattern, "bound-permutation");
}

TEST(Classifier, ApermPattern) {
  Classification c = ClassifyResilience(MustParseQuery("A(x), R(x,y), R(y,x)"));
  EXPECT_EQ(c.pattern, "unbound-permutation");
  EXPECT_EQ(c.complexity, Complexity::kPTime);
}

TEST(Classifier, CfpPattern) {
  Classification c =
      ClassifyResilience(MustParseQuery("R(x,y), H^x(x,z), R(z,y)"));
  EXPECT_EQ(c.pattern, "confluence-exogenous-path");
}

TEST(Classifier, RatsIsEasyViaDomination) {
  Classification c =
      ClassifyResilience(MustParseQuery("R(x,y), A(x), T(z,x), S(y,z)"));
  EXPECT_EQ(c.complexity, Complexity::kPTime);
  EXPECT_TRUE(c.normalized.IsRelationExogenous("R"));
  EXPECT_TRUE(c.normalized.IsRelationExogenous("T"));
}

// --- Structural generalizations beyond the named queries -----------------------

TEST(Classifier, ChainExpansionWithBinaryRelationIsHard) {
  // Prop 30: any query whose only self-join is a 2-chain is hard; here the
  // chain is embedded among fresh binary relations.
  Classification c = ClassifyResilience(
      MustParseQuery("U(v,x), R(x,y), R(y,z), V(z,w)"));
  EXPECT_EQ(c.complexity, Complexity::kNpComplete);
  EXPECT_EQ(c.pattern, "chain");
}

TEST(Classifier, FourChainIsHard) {
  Classification c = ClassifyResilience(
      MustParseQuery("R(x,y), R(y,z), R(z,w), R(w,v)"));
  EXPECT_EQ(c.complexity, Complexity::kNpComplete);
  EXPECT_EQ(c.pattern, "k-chain");
}

TEST(Classifier, AC3confUnaryVariationIsHard) {
  // Prop 40: adding unary relations to q_AC3conf keeps it hard.
  Classification c = ClassifyResilience(MustParseQuery(
      "A(x), P(x), R(x,y), B(y), R(z,y), R(z,w), C(w), D(w)"));
  EXPECT_EQ(c.complexity, Complexity::kNpComplete);
}

TEST(Classifier, BinaryPathEmbedded) {
  Classification c = ClassifyResilience(
      MustParseQuery("A(x), R(x,y), S(y,z), R(z,w), B(w)"));
  EXPECT_EQ(c.complexity, Complexity::kNpComplete);
  EXPECT_EQ(c.pattern, "binary-path");
}

TEST(Classifier, UnaryPathEmbedded) {
  Classification c =
      ClassifyResilience(MustParseQuery("R(x), S(x,y), T(y,z), R(z)"));
  EXPECT_EQ(c.complexity, Complexity::kNpComplete);
  EXPECT_EQ(c.pattern, "unary-path");
}

// --- Normalization interplay ---------------------------------------------------

TEST(Classifier, NonMinimalSelfJoinVariationBecomesTrivial) {
  // Example 22: R(x,y),R(z,y),R(z,w),R(x,w) minimizes to R(x,y): PTIME.
  Classification c =
      ClassifyResilience(MustParseQuery("R(x,y), R(z,y), R(z,w), R(x,w)"));
  EXPECT_EQ(c.complexity, Complexity::kPTime);
  EXPECT_EQ(c.minimized.num_atoms(), 1);
}

TEST(Classifier, DominatedSelfJoinBecomesSjFree) {
  // Example 17 q2: A dominates R (and S); the endogenous part is a single
  // atom, so PTIME.
  Classification c = ClassifyResilience(
      MustParseQuery("R(x,y), A(y), R(z,y), S(y,z)"));
  EXPECT_EQ(c.complexity, Complexity::kPTime);
  EXPECT_EQ(c.pattern, "sj-free-triad-free");
}

TEST(Classifier, AllExogenousIsTrivial) {
  Classification c = ClassifyResilience(MustParseQuery("R^x(x,y), R^x(y,z)"));
  EXPECT_EQ(c.complexity, Complexity::kPTime);
  EXPECT_EQ(c.pattern, "all-exogenous");
}

// --- Components -----------------------------------------------------------------

TEST(Classifier, DisconnectedTakesHardestComponent) {
  // One component is a chain (hard), the other is a single atom (easy).
  Classification c =
      ClassifyResilience(MustParseQuery("R(x,y), R(y,z), B(w), S(w,v)"));
  EXPECT_EQ(c.complexity, Complexity::kNpComplete);
}

TEST(Classifier, DisconnectedAllEasy) {
  Classification c = ClassifyResilience(MustParseQuery("A(x), B(y)"));
  EXPECT_EQ(c.complexity, Complexity::kPTime);
}

// --- Scope boundaries -------------------------------------------------------------

TEST(Classifier, TwoRepeatedRelationsOutOfScopeUnlessHardByTriadOrPath) {
  // Two repeated relations, no triad/path: out of scope.
  Classification c = ClassifyResilience(
      MustParseQuery("R(x,y), R(y,x), S(x,u), S(u,x)"));
  EXPECT_EQ(c.complexity, Complexity::kOutOfScope);
}

TEST(Classifier, TriadTrumpsScope) {
  // Triangle with two repeated relations: still NP-complete via triad.
  Classification c = ClassifyResilience(
      MustParseQuery("R(x,y), R(y,z), S(z,u), S(u,x)"));
  EXPECT_EQ(c.complexity, Complexity::kNpComplete);
  EXPECT_EQ(c.pattern, "triad");
}

TEST(Classifier, TernarySelfJoinOutOfScope) {
  Classification c = ClassifyResilience(
      MustParseQuery("W(x,y,z), W(y,z,u), A(x), B(u)"));
  EXPECT_EQ(c.complexity, Complexity::kOutOfScope);
}

TEST(Classifier, OpenThreeAtomCaseBeyondCatalog) {
  // A 3-R-atom pseudo-linear query not in the catalog: reported open.
  Classification c = ClassifyResilience(
      MustParseQuery("D(v,x), R(x,y), R(y,z), R(z,y), E(v,w)"));
  EXPECT_TRUE(c.complexity == Complexity::kOpen ||
              c.complexity == Complexity::kNpComplete);
}

// --- Theorem 37, exhaustively: the two-R-atom census.

// Canonicalizes a variable vector to first-occurrence order so renamings
// collapse.
std::vector<int> Canonicalize(const std::vector<int>& vars) {
  std::map<int, int> remap;
  std::vector<int> out;
  for (int v : vars) {
    auto [it, inserted] = remap.emplace(v, static_cast<int>(remap.size()));
    out.push_back(it->second);
  }
  return out;
}

// Every single-self-join binary query with exactly two R-atoms over up
// to four variables (up to renaming), each variable optionally pinned
// by an endogenous (U<v>) or exogenous (X<v>) unary atom, with an
// optional endogenous or exogenous S connector between the first and
// last variable; calls visit(query) once per query.
void EnumerateTwoAtomFamily(const std::function<void(const Query&)>& visit) {
  static const char* kVarNames[] = {"x", "y", "z", "w"};
  std::set<std::vector<int>> seen_pairs;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      for (int c = 0; c < 4; ++c) {
        for (int d = 0; d < 4; ++d) {
          std::vector<int> pair = Canonicalize({a, b, c, d});
          if (!seen_pairs.insert(pair).second) continue;
          int num_vars = 1;
          for (int v : pair) num_vars = std::max(num_vars, v + 1);
          // Decorations: each variable gets nothing (0), an endogenous
          // unary atom (1), or an exogenous unary atom (2).
          int combos = 1;
          for (int v = 0; v < num_vars; ++v) combos *= 3;
          for (int deco = 0; deco < combos; ++deco) {
            // Connector between the first and last variable: none,
            // endogenous S, or exogenous S^x. This adds the path and
            // exogenous-confluence-path cases to the family.
            for (int conn = 0; conn < (num_vars >= 2 ? 3 : 1); ++conn) {
              std::vector<Atom> atoms;
              atoms.push_back(Atom{"R", {pair[0], pair[1]}, false});
              atoms.push_back(Atom{"R", {pair[2], pair[3]}, false});
              if (conn > 0) {
                atoms.push_back(Atom{"S", {0, num_vars - 1}, conn == 2});
              }
              int d2 = deco;
              for (int v = 0; v < num_vars; ++v) {
                int kind = d2 % 3;
                d2 /= 3;
                if (kind == 0) continue;
                std::string rel =
                    std::string(kind == 1 ? "U" : "X") + kVarNames[v];
                atoms.push_back(Atom{rel, {v}, kind == 2});
              }
              std::vector<std::string> names(kVarNames,
                                             kVarNames + num_vars);
              visit(Query(std::move(atoms), std::move(names)));
            }
          }
        }
      }
    }
  }
}

// The dichotomy: no query of the family comes back open or out of
// scope. The census itself is pinned too, so a classifier change that
// moves a query between PTIME and NP-complete, or between decisive
// patterns, fails here rather than passing unnoticed.
TEST(Theorem37, EveryTwoRAtomQueryIsPTimeOrNpComplete) {
  std::map<std::string, int> by_verdict;
  std::map<std::string, int> by_pattern;
  int total = 0;
  EnumerateTwoAtomFamily([&](const Query& q) {
    Classification c = ClassifyResilience(q);
    EXPECT_TRUE(c.complexity == Complexity::kPTime ||
                c.complexity == Complexity::kNpComplete)
        << q.ToString() << ": " << ComplexityName(c.complexity) << " ("
        << c.pattern << ")";
    ++by_verdict[ComplexityName(c.complexity)];
    ++by_pattern[c.pattern];
    ++total;
  });
  EXPECT_EQ(total, 921);
  EXPECT_EQ(by_verdict, (std::map<std::string, int>{{"NP-complete", 491},
                                                     {"PTIME", 430}}));
  EXPECT_EQ(by_pattern, (std::map<std::string, int>{
                            {"binary-path", 288},
                            {"bound-permutation", 3},
                            {"chain", 148},
                            {"confluence", 40},
                            {"confluence-exogenous-path", 28},
                            {"rep", 64},
                            {"sj-free-triad-free", 302},
                            {"triad", 24},
                            {"unbound-permutation", 24},
                        }));
}

}  // namespace
}  // namespace rescq
