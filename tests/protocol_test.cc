// Protocol-layer tests: drive a ProtocolHandler directly (no sockets)
// through the happy path and every error path, plus the table-driven
// malformed-input sweep over the text parsers the server exposes to
// untrusted bytes. Nothing in here may abort or throw — that is the
// hardening contract.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cq/parser.h"
#include "db/tuple_io.h"
#include "gtest/gtest.h"
#include "resilience/engine.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/session_registry.h"

namespace rescq {
namespace {

bool StartsWithStr(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

class ProtocolTest : public ::testing::Test {
 protected:
  std::string Req(const std::string& line) {
    ProtocolResult r = handler_.Handle(line);
    EXPECT_FALSE(r.close_connection) << line;
    EXPECT_FALSE(r.stop_server) << line;
    return r.response;
  }

  SessionRegistry registry_;
  ResilienceEngine engine_;
  ServerLimits limits_;
  ProtocolHandler handler_{&registry_, &engine_, &limits_};
};

TEST_F(ProtocolTest, HappyPathSessionLifecycle) {
  EXPECT_EQ(Req("ping"), "ok pong\n");
  EXPECT_EQ(Req("open s1 R(x,y)"), "ok open s1 staging\n");
  EXPECT_EQ(Req("push R(a, b)"), "ok push 1\n");
  EXPECT_EQ(Req("push R(c, d)"), "ok push 2\n");

  std::string begin = Req("begin");
  ASSERT_TRUE(StartsWithStr(begin, "ok begin ")) << begin;
  EXPECT_NE(begin.find("resilience=2"), std::string::npos) << begin;
  EXPECT_NE(begin.find("unbreakable=0"), std::string::npos) << begin;
  EXPECT_NE(begin.find("tuples=2"), std::string::npos) << begin;

  EXPECT_EQ(Req("resilience"), "ok resilience 2\n");
  EXPECT_EQ(Req("- R(a, b)"), "ok queued 1\n");
  std::string epoch = Req("epoch");
  ASSERT_TRUE(StartsWithStr(epoch, "ok epoch ")) << epoch;
  EXPECT_NE(epoch.find("n=1"), std::string::npos) << epoch;
  EXPECT_NE(epoch.find("resilience=1"), std::string::npos) << epoch;
  EXPECT_EQ(Req("resilience"), "ok resilience 1\n");

  std::string stats = Req("stats");
  ASSERT_TRUE(StartsWithStr(stats, "ok stats session=s1 state=live "))
      << stats;
  EXPECT_NE(stats.find("poisoned=0"), std::string::npos) << stats;

  std::string classify = Req("classify");
  ASSERT_TRUE(StartsWithStr(classify, "ok classify PTIME ")) << classify;
  std::string explain = Req("explain");
  ASSERT_TRUE(StartsWithStr(explain, "ok explain ")) << explain;

  std::string sessions = Req("sessions");
  ASSERT_TRUE(StartsWithStr(sessions, "ok sessions 1\ns1 live ")) << sessions;

  EXPECT_EQ(Req("close"), "ok close s1\n");
  EXPECT_EQ(registry_.size(), 0u);
}

TEST_F(ProtocolTest, BlankAndCommentLinesGetNoReply) {
  EXPECT_EQ(Req(""), "");
  EXPECT_EQ(Req("   "), "");
  EXPECT_EQ(Req("# piped update file comment"), "");
}

// CRLF round trip: a telnet/netcat-style client terminating lines with
// \r\n (the transport strips the \n, leaving a trailing \r) must see
// byte-identical replies to an LF client.
TEST_F(ProtocolTest, CrlfLinesBehaveLikeLfLines) {
  EXPECT_EQ(Req("ping\r"), "ok pong\n");
  EXPECT_EQ(Req("open s1 R(x,y)\r"), "ok open s1 staging\n");
  EXPECT_EQ(Req("push R(a, b)\r"), "ok push 1\n");
  EXPECT_EQ(Req("push R(c, d)\r"), "ok push 2\n");
  ASSERT_TRUE(StartsWithStr(Req("begin\r"), "ok begin "));
  EXPECT_EQ(Req("- R(a, b)\r"), "ok queued 1\n");
  ASSERT_TRUE(StartsWithStr(Req("epoch\r"), "ok epoch "));
  EXPECT_EQ(Req("resilience\r"), "ok resilience 1\n");
  EXPECT_EQ(Req("\r"), "");
  EXPECT_EQ(Req("# comment\r"), "");
  EXPECT_EQ(Req("close\r"), "ok close s1\n");
}

// With no session selected, `stats` reports one summable server-scope
// line — the form the shard router scatter-gathers and adds up.
TEST_F(ProtocolTest, StatsWithoutSessionReportsServerScope) {
  EXPECT_EQ(Req("stats"),
            "ok stats scope=server sessions=0 live=0 staging=0 tuples=0 "
            "sets=0\n");

  EXPECT_EQ(Req("open a R(x,y)"), "ok open a staging\n");
  EXPECT_EQ(Req("push R(a, b)"), "ok push 1\n");
  ASSERT_TRUE(StartsWithStr(Req("begin"), "ok begin "));
  EXPECT_EQ(Req("open b R(x,y)"), "ok open b staging\n");
  EXPECT_EQ(Req("push R(c, d)"), "ok push 1\n");
  EXPECT_EQ(Req("push R(e, f)"), "ok push 2\n");

  // A fresh handler (same registry) has no current session and sums
  // both: one live session with 1 tuple, one staging with 2.
  ProtocolHandler fresh(&registry_, &engine_, &limits_);
  EXPECT_EQ(fresh.Handle("stats").response,
            "ok stats scope=server sessions=2 live=1 staging=1 tuples=3 "
            "sets=1\n");
}

TEST_F(ProtocolTest, QuitAndShutdownControlTheConnection) {
  ProtocolResult quit = handler_.Handle("quit");
  EXPECT_EQ(quit.response, "ok bye\n");
  EXPECT_TRUE(quit.close_connection);
  EXPECT_FALSE(quit.stop_server);

  ProtocolResult shutdown = handler_.Handle("shutdown");
  EXPECT_EQ(shutdown.response, "ok shutdown\n");
  EXPECT_TRUE(shutdown.close_connection);
  EXPECT_TRUE(shutdown.stop_server);
}

TEST_F(ProtocolTest, ShutdownCanBeDisabled) {
  limits_.allow_shutdown = false;
  ProtocolResult r = handler_.Handle("shutdown");
  EXPECT_TRUE(StartsWithStr(r.response, "err shutdown-disabled "));
  EXPECT_FALSE(r.stop_server);
}

TEST_F(ProtocolTest, ErrorPathsAreStructured) {
  // No session selected yet.
  EXPECT_TRUE(StartsWithStr(Req("push R(a)"), "err no-session "));
  EXPECT_TRUE(StartsWithStr(Req("begin"), "err no-session "));
  EXPECT_TRUE(StartsWithStr(Req("+ R(a)"), "err no-session "));
  EXPECT_TRUE(StartsWithStr(Req("epoch"), "err no-session "));
  EXPECT_TRUE(StartsWithStr(Req("resilience"), "err no-session "));
  EXPECT_TRUE(StartsWithStr(Req("explain"), "err no-session "));
  EXPECT_TRUE(StartsWithStr(Req("close"), "err no-session "));

  // Malformed opens.
  EXPECT_TRUE(StartsWithStr(Req("open"), "err bad-request "));
  EXPECT_TRUE(StartsWithStr(Req("open s1"), "err bad-request "));
  EXPECT_TRUE(StartsWithStr(Req("open s1 not a query ((("), "err parse "));
  EXPECT_TRUE(StartsWithStr(
      Req("open " + std::string(300, 'x') + " R(x,y)"), "err bad-request "));

  // Unknown verbs and sessions.
  EXPECT_TRUE(StartsWithStr(Req("frobnicate"), "err bad-request "));
  EXPECT_TRUE(StartsWithStr(Req("use nope"), "err no-session "));
  EXPECT_TRUE(StartsWithStr(Req("close nope"), "err no-session "));

  // Duplicate session names.
  EXPECT_EQ(Req("open s1 R(x,y)"), "ok open s1 staging\n");
  EXPECT_TRUE(StartsWithStr(Req("open s1 R(x,y)"), "err session-exists "));

  // Staging-state violations and malformed facts.
  EXPECT_TRUE(StartsWithStr(Req("epoch"), "err not-live "));
  EXPECT_TRUE(StartsWithStr(Req("+ R(a, b)"), "err not-live "));
  EXPECT_TRUE(StartsWithStr(Req("resilience"), "err not-live "));
  EXPECT_TRUE(StartsWithStr(Req("push nonsense(("), "err parse "));
  EXPECT_EQ(Req("push R(a, b)"), "ok push 1\n");
  EXPECT_TRUE(StartsWithStr(Req("push R(a, b, c)"), "err parse "));

  // begin option validation.
  EXPECT_TRUE(StartsWithStr(Req("begin frobs=3"), "err bad-request "));
  EXPECT_TRUE(
      StartsWithStr(Req("begin witness_limit=banana"), "err bad-request "));

  // Live-state violations.
  ASSERT_TRUE(StartsWithStr(Req("begin"), "ok begin "));
  EXPECT_TRUE(StartsWithStr(Req("begin"), "err not-staging "));
  EXPECT_TRUE(StartsWithStr(Req("push R(c, d)"), "err not-staging "));
  EXPECT_TRUE(StartsWithStr(Req("+ R(a, b, c)"), "err parse "));
  EXPECT_TRUE(StartsWithStr(Req("+ garbage"), "err parse "));

  EXPECT_EQ(Req("close"), "ok close s1\n");
  EXPECT_TRUE(StartsWithStr(Req("resilience"), "err no-session "));
}

TEST_F(ProtocolTest, AdmissionControlLimits) {
  SessionRegistry registry(/*max_sessions=*/1);
  limits_.max_sessions = 1;
  limits_.max_base_tuples = 2;
  limits_.max_epoch_updates = 1;
  ProtocolHandler handler(&registry, &engine_, &limits_);
  auto req = [&](const std::string& line) {
    return handler.Handle(line).response;
  };

  EXPECT_EQ(req("open s1 R(x,y)"), "ok open s1 staging\n");
  EXPECT_TRUE(StartsWithStr(req("open s2 R(x,y)"), "err limit "));

  EXPECT_EQ(req("push R(a, b)"), "ok push 1\n");
  EXPECT_EQ(req("push R(c, d)"), "ok push 2\n");
  EXPECT_TRUE(StartsWithStr(req("push R(e, f)"), "err limit "));

  ASSERT_TRUE(StartsWithStr(req("begin"), "ok begin "));
  EXPECT_EQ(req("- R(a, b)"), "ok queued 1\n");
  EXPECT_TRUE(StartsWithStr(req("- R(c, d)"), "err limit "));
}

// The pending-epoch cap counts queued updates only: rejected lines do
// not use it up, and an applied epoch frees it.
TEST_F(ProtocolTest, PendingEpochLimitRejectsAtTheSameCount) {
  limits_.max_epoch_updates = 3;
  EXPECT_EQ(Req("open s1 R(x,y)"), "ok open s1 staging\n");
  EXPECT_EQ(Req("push R(a, b)"), "ok push 1\n");
  ASSERT_TRUE(StartsWithStr(Req("begin"), "ok begin "));
  EXPECT_EQ(Req("+ R(c, d)"), "ok queued 1\n");
  EXPECT_TRUE(StartsWithStr(Req("+ R(c)"), "err parse "));
  EXPECT_EQ(Req("+ R(e, f)"), "ok queued 2\n");
  EXPECT_EQ(Req("- R(a, b)"), "ok queued 3\n");
  const std::string full =
      "err limit pending epoch limit reached (max_epoch_updates=3)\n";
  EXPECT_EQ(Req("+ R(g, h)"), full);
  EXPECT_EQ(Req("+ R(g, h)"), full);
  ASSERT_TRUE(StartsWithStr(Req("epoch"), "ok epoch n=1 "));
  EXPECT_EQ(Req("+ R(g, h)"), "ok queued 1\n");
}

// An update is checked against the live base's arities and against the
// updates already queued in the same batch; the reply names the
// conflict in the same words as ValidateUpdateLog.
TEST_F(ProtocolTest, ArityConflictsInsideOnePendingBatch) {
  EXPECT_EQ(Req("open s1 R(x,y)"), "ok open s1 staging\n");
  EXPECT_EQ(Req("push R(a, b)"), "ok push 1\n");
  ASSERT_TRUE(StartsWithStr(Req("begin"), "ok begin "));

  // Against the base.
  EXPECT_EQ(Req("+ R(a)"),
            "err parse epoch 1: relation 'R' used with arity 1, but its "
            "other facts have arity 2\n");
  // Against the batch, for a relation the base does not have.
  EXPECT_EQ(Req("+ T(a, b)"), "ok queued 1\n");
  EXPECT_EQ(Req("+ T(c)"),
            "err parse epoch 1: relation 'T' used with arity 1, but its "
            "other facts have arity 2\n");
  EXPECT_EQ(Req("- T(c, d, e)"),
            "err parse epoch 1: relation 'T' used with arity 3, but its "
            "other facts have arity 2\n");
  // Rejected lines are not queued; consistent ones still are.
  EXPECT_EQ(Req("- T(c, d)"), "ok queued 2\n");
  std::string stats = Req("stats");
  EXPECT_NE(stats.find(" pending=2 "), std::string::npos) << stats;
}

// Every request that drops the pending batch (epoch, use, open, close)
// also forgets the arities it queued: a fresh batch may use a relation
// the dropped batch used with another arity.
TEST_F(ProtocolTest, PendingArityResetsWithThePendingBatch) {
  const std::string conflict =
      "err parse epoch 1: relation 'T' used with arity 1, but its other "
      "facts have arity 2\n";
  // Each case queues `- T(a, b)` (a no-op delete: T never reaches the
  // base), sees `+ T(c)` refused, then runs `reset` lines and expects
  // `+ T(c)` to be queued as the first update of a fresh batch.
  struct Case {
    const char* name;
    std::vector<std::string> reset;
  };
  const std::vector<Case> cases = {
      {"epoch", {"epoch"}},
      {"use", {"use s1"}},
      {"open", {"open s2 R(x,y)", "push R(a, b)", "begin"}},
      {"close", {"close", "open s1 R(x,y)", "push R(a, b)", "begin"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SessionRegistry registry;
    ProtocolHandler handler(&registry, &engine_, &limits_);
    auto req = [&](const std::string& line) {
      return handler.Handle(line).response;
    };
    EXPECT_EQ(req("open s1 R(x,y)"), "ok open s1 staging\n");
    EXPECT_EQ(req("push R(a, b)"), "ok push 1\n");
    ASSERT_TRUE(StartsWithStr(req("begin"), "ok begin "));
    EXPECT_EQ(req("- T(a, b)"), "ok queued 1\n");
    EXPECT_EQ(req("+ T(c)"), conflict);
    for (const std::string& line : c.reset) {
      EXPECT_TRUE(StartsWithStr(req(line), "ok ")) << line;
    }
    EXPECT_EQ(req("+ T(c)"), "ok queued 1\n");
  }
}

TEST_F(ProtocolTest, BudgetAdmissionClampAndReject) {
  limits_.max_witness_limit = 100;
  limits_.max_node_budget = 1000;

  EXPECT_EQ(Req("open s1 R(x,y)"), "ok open s1 staging\n");
  EXPECT_EQ(Req("push R(a, b)"), "ok push 1\n");

  // Asking for more than the cap (or for unlimited via 0) is rejected.
  EXPECT_TRUE(StartsWithStr(Req("begin witness_limit=101"), "err budget "));
  EXPECT_TRUE(StartsWithStr(Req("begin node_budget=0"), "err budget "));
  // Within the cap is fine; unset budgets clamp to the cap silently.
  ASSERT_TRUE(StartsWithStr(Req("begin witness_limit=50 node_budget=1000"),
                            "ok begin "));
  EXPECT_EQ(Req("resilience"), "ok resilience 1\n");
}

TEST_F(ProtocolTest, WitnessBudgetTripPoisonsTheSession) {
  limits_.default_witness_limit = 1;
  EXPECT_EQ(Req("open s1 R(x,y)"), "ok open s1 staging\n");
  EXPECT_EQ(Req("push R(a, b)"), "ok push 1\n");
  EXPECT_EQ(Req("push R(c, d)"), "ok push 2\n");
  // Epoch 0 must stream 2 witnesses against a budget of 1.
  EXPECT_TRUE(StartsWithStr(Req("begin"), "err budget "));
  EXPECT_TRUE(StartsWithStr(Req("resilience"), "err poisoned "));
  EXPECT_TRUE(StartsWithStr(Req("epoch"), "err poisoned "));
  std::string stats = Req("stats");
  EXPECT_NE(stats.find("poisoned=1"), std::string::npos) << stats;
}

TEST_F(ProtocolTest, EvictedSessionAnswersAfterLazyRebuild) {
  EXPECT_EQ(Req("open s1 R(x,y)"), "ok open s1 staging\n");
  EXPECT_EQ(Req("push R(a, b)"), "ok push 1\n");
  EXPECT_EQ(Req("push R(c, d)"), "ok push 2\n");
  ASSERT_TRUE(StartsWithStr(Req("begin"), "ok begin "));
  EXPECT_EQ(Req("resilience"), "ok resilience 2\n");

  // Force an idle sweep far in the future of any touch stamp: the
  // session drops its index but keeps serving reads from the
  // maintained answer.
  EXPECT_EQ(registry_.EvictColdSessions(SteadyNowMs() + 1000000, 1, 0), 1u);
  std::string stats = Req("stats");
  EXPECT_NE(stats.find("index=evicted evictions=1 rebuilds=0"),
            std::string::npos)
      << stats;
  EXPECT_EQ(Req("resilience"), "ok resilience 2\n");

  // The next epoch rebuilds lazily and answers exactly what a
  // never-evicted session would.
  EXPECT_EQ(Req("- R(a, b)"), "ok queued 1\n");
  std::string epoch = Req("epoch");
  ASSERT_TRUE(StartsWithStr(epoch, "ok epoch ")) << epoch;
  EXPECT_NE(epoch.find("resilience=1"), std::string::npos) << epoch;
  EXPECT_EQ(Req("resilience"), "ok resilience 1\n");
  stats = Req("stats");
  EXPECT_NE(stats.find("index=resident evictions=1 rebuilds=1"),
            std::string::npos)
      << stats;

  // A sweep under a generous byte cap with no idle limit is a no-op.
  EXPECT_EQ(registry_.EvictColdSessions(SteadyNowMs(), 0, 1u << 30), 0u);
}

TEST_F(ProtocolTest, ResidentByteCapEvictsThroughTheHandler) {
  limits_.max_resident_bytes = 1;  // every live session is over the cap
  EXPECT_EQ(Req("open s1 R(x,y)"), "ok open s1 staging\n");
  EXPECT_EQ(Req("push R(a, b)"), "ok push 1\n");
  EXPECT_EQ(Req("push R(c, d)"), "ok push 2\n");
  ASSERT_TRUE(StartsWithStr(Req("begin"), "ok begin "));
  // The post-request sweep already ran: the just-begun session was over
  // the 1-byte cap and lost its index, yet still answers.
  std::string stats = Req("stats");
  EXPECT_NE(stats.find("index=evicted evictions=1 rebuilds=0"),
            std::string::npos)
      << stats;
  EXPECT_EQ(Req("resilience"), "ok resilience 2\n");
  EXPECT_EQ(Req("- R(a, b)"), "ok queued 1\n");
  std::string epoch = Req("epoch");
  ASSERT_TRUE(StartsWithStr(epoch, "ok epoch ")) << epoch;
  EXPECT_NE(epoch.find("resilience=1"), std::string::npos) << epoch;
  EXPECT_EQ(Req("resilience"), "ok resilience 1\n");
  stats = Req("stats");
  EXPECT_NE(stats.find("index=evicted evictions=2 rebuilds=1"),
            std::string::npos)
      << stats;
}

TEST_F(ProtocolTest, ClassifyInlineAndUnbreakable) {
  EXPECT_TRUE(StartsWithStr(Req("classify R(x,y), R(y,z), R(z,x)"),
                            "ok classify NP-complete "));
  EXPECT_TRUE(StartsWithStr(Req("classify ((("), "err parse "));

  // An exogenous-only witness makes the query unbreakable.
  EXPECT_EQ(Req("open s1 R^x(x,y)"), "ok open s1 staging\n");
  EXPECT_EQ(Req("push R(a, b)"), "ok push 1\n");
  std::string begin = Req("begin");
  ASSERT_TRUE(StartsWithStr(begin, "ok begin ")) << begin;
  EXPECT_NE(begin.find("unbreakable=1"), std::string::npos) << begin;
  EXPECT_EQ(Req("resilience"), "ok resilience unbreakable\n");
}

TEST_F(ProtocolTest, UseSwitchesBetweenSessions) {
  EXPECT_EQ(Req("open a R(x,y)"), "ok open a staging\n");
  EXPECT_EQ(Req("push R(a, b)"), "ok push 1\n");
  ASSERT_TRUE(StartsWithStr(Req("begin"), "ok begin "));
  EXPECT_EQ(Req("open b R(x,y)"), "ok open b staging\n");
  EXPECT_EQ(Req("use a"), "ok use a live\n");
  EXPECT_EQ(Req("resilience"), "ok resilience 1\n");
  EXPECT_EQ(Req("use b"), "ok use b staging\n");
  EXPECT_TRUE(StartsWithStr(Req("resilience"), "err not-live "));
  std::string sessions = Req("sessions");
  EXPECT_TRUE(StartsWithStr(sessions, "ok sessions 2\n")) << sessions;
}

TEST_F(ProtocolTest, LoadCanBeDisabledAndReportsIoErrors) {
  EXPECT_EQ(Req("open s1 R(x,y)"), "ok open s1 staging\n");
  EXPECT_TRUE(StartsWithStr(Req("load"), "err bad-request "));
  EXPECT_TRUE(StartsWithStr(Req("load /nonexistent/nope.tuples"), "err io "));
  limits_.allow_load = false;
  EXPECT_TRUE(StartsWithStr(Req("load x.tuples"), "err bad-request "));
}

TEST_F(ProtocolTest, LoadRepliesWithTheTupleCount) {
  Database db;
  db.AddTuple("R", {db.Intern("a"), db.Intern("b")});
  db.AddTuple("R", {db.Intern("c"), db.Intern("d")});
  const std::string path = testing::TempDir() + "/protocol_load.tuples";
  std::string error;
  ASSERT_TRUE(SaveTupleFile(db, path, "", &error)) << error;
  EXPECT_EQ(Req("open s1 R(x,y)"), "ok open s1 staging\n");
  EXPECT_EQ(Req("load " + path), "ok load 2\n");
  std::remove(path.c_str());
}

// --- Satellite 1: table-driven malformed-input hardening ---------------------

struct MalformedCase {
  const char* name;
  const char* input;
};

TEST(ParserHardeningTest, ParseFactLineRejectsMalformedInput) {
  const MalformedCase kCases[] = {
      {"empty", ""},
      {"whitespace", "   "},
      {"no-parens", "R"},
      {"no-close", "R(a, b"},
      {"no-open", "R a, b)"},
      {"empty-relation", "(a, b)"},
      {"lowercase-relation", "r(a, b)"},
      {"empty-constant", "R(a, )"},
      {"only-comma", "R(,)"},
      {"trailing-junk", "R(a, b) extra"},
      {"nested-parens", "R((a), b)"},
      {"control-bytes", "R(\x01, \x02)x\x7f"},
      {"unbalanced-deep", "R(((((((((("},
  };
  for (const MalformedCase& c : kCases) {
    std::string relation, error;
    std::vector<std::string> constants;
    EXPECT_FALSE(ParseFactLine(c.input, &relation, &constants, &error))
        << c.name;
    EXPECT_FALSE(error.empty()) << c.name;
  }
  // And the sanity case that must keep working.
  std::string relation, error;
  std::vector<std::string> constants;
  ASSERT_TRUE(ParseFactLine("  R(a, b)  ", &relation, &constants, &error));
  EXPECT_EQ(relation, "R");
  EXPECT_EQ(constants, (std::vector<std::string>{"a", "b"}));
}

TEST(ParserHardeningTest, ParseUpdateLineRejectsMalformedInput) {
  const MalformedCase kCases[] = {
      {"empty", ""},
      {"no-sign", "R(a, b)"},
      {"sign-only-plus", "+"},
      {"sign-only-minus", "-"},
      {"double-sign", "+- R(a, b)"},
      {"bad-fact", "+ R(a,"},
      {"epoch-is-not-an-update", "epoch"},
      {"unicode-sign", "\xe2\x88\x92 R(a, b)"},
  };
  for (const MalformedCase& c : kCases) {
    Update update;
    std::string error;
    EXPECT_FALSE(ParseUpdateLine(c.input, &update, &error)) << c.name;
    EXPECT_FALSE(error.empty()) << c.name;
  }
  Update update;
  std::string error;
  ASSERT_TRUE(ParseUpdateLine("-R(a, b)", &update, &error));
  EXPECT_EQ(update.kind, UpdateKind::kDelete);
  EXPECT_EQ(update.relation, "R");
}

TEST(ParserHardeningTest, AddFactCheckedVetsArity) {
  Database db;
  std::string error;
  ASSERT_TRUE(AddFactChecked(&db, "R", {"a", "b"}, &error));
  EXPECT_FALSE(AddFactChecked(&db, "R", {"a"}, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(db.NumActiveTuples(), 1);  // the mismatch left db unchanged
}

TEST(ParserHardeningTest, ReadTuplesRejectsMalformedStreams) {
  const MalformedCase kCases[] = {
      {"garbage-line", "R(a, b)\nnot a fact\n"},
      {"arity-flip", "R(a, b)\nR(c)\n"},
      {"binary-noise", "\x01\x02(\xff)\n"},
  };
  for (const MalformedCase& c : kCases) {
    std::istringstream in(c.input);
    Database db;
    std::string error;
    EXPECT_FALSE(ReadTuples(in, "<test>", &db, &error)) << c.name;
    EXPECT_NE(error.find("<test>"), std::string::npos) << c.name;
  }
}

TEST(ParserHardeningTest, ReadUpdatesRejectsMalformedStreams) {
  const MalformedCase kCases[] = {
      {"unsigned-fact", "R(a, b)\n"},
      {"bad-fact", "+ R(a,\n"},
      {"arity-flip-in-log", "+ R(a, b)\n- R(c)\n"},
      {"sign-noise", "* R(a, b)\n"},
  };
  for (const MalformedCase& c : kCases) {
    std::istringstream in(c.input);
    UpdateLog log;
    std::string error;
    EXPECT_FALSE(ReadUpdates(in, "<test>", &log, &error)) << c.name;
    EXPECT_FALSE(error.empty()) << c.name;
  }
}

TEST(ParserHardeningTest, ParseQueryRejectsMalformedInput) {
  const MalformedCase kCases[] = {
      {"empty", ""},
      {"bare-head", "q :-"},
      {"unclosed-atom", "R(x, y"},
      {"numeric-relation", "1(x, y)"},
      {"stray-comma", "R(x,y),, S(y)"},
      {"binary-noise", "\x01\x02\x03"},
      {"arity-disagreement", "R(x, y), R(x)"},
  };
  for (const MalformedCase& c : kCases) {
    ParseResult r = ParseQuery(c.input);
    EXPECT_FALSE(r.ok) << c.name;
    EXPECT_FALSE(r.error.empty()) << c.name;
  }
}

// --- LineClient transport hardening ------------------------------------------

/// A bare TCP listener with no protocol behind it: connections land in
/// the backlog (or are accepted by the test) and never get a reply —
/// exactly the half-dead-server shape the client deadlines exist for.
class RawListener {
 public:
  RawListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 8), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }
  ~RawListener() {
    if (fd_ >= 0) ::close(fd_);
  }

  int Accept() { return ::accept(fd_, nullptr, nullptr); }
  int port() const { return port_; }

 private:
  int fd_ = -1;
  int port_ = 0;
};

TEST(LineClientTest, RequestTimesOutAgainstASilentServer) {
  RawListener listener;  // never replies; the connect rides the backlog
  LineClient client;
  client.set_io_timeout_ms(150);
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", listener.port(), &error)) << error;
  std::string reply;
  EXPECT_FALSE(client.Request("ping", &reply, &error));
  EXPECT_NE(error.find("timeout"), std::string::npos) << error;
  EXPECT_FALSE(client.connected());  // the failed request closed it
}

TEST(LineClientTest, OversizedReplyLineIsAStructuredError) {
  RawListener listener;
  std::thread peer([&listener] {
    int fd = listener.Accept();
    ASSERT_GE(fd, 0);
    // 80 KiB of reply bytes and never a newline: past the client's
    // 64 KiB line cap.
    std::string noise(80 * 1024, 'a');
    size_t sent = 0;
    while (sent < noise.size()) {
      ssize_t n = ::send(fd, noise.data() + sent, noise.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    ::close(fd);
  });
  LineClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", listener.port(), &error)) << error;
  std::string reply;
  EXPECT_FALSE(client.Request("ping", &reply, &error));
  EXPECT_NE(error.find("reply line over"), std::string::npos) << error;
  peer.join();
}

TEST(LineClientTest, ConnectResolvesHostNames) {
  RawListener listener;
  LineClient client;
  std::string error;
  // getaddrinfo resolution: "localhost" must work, not just numeric
  // IPv4 (the shard-spec form is host:port with arbitrary hosts).
  EXPECT_TRUE(client.Connect("localhost", listener.port(), &error)) << error;
  LineClient bad;
  bad.set_connect_timeout_ms(500);
  EXPECT_FALSE(
      bad.Connect("no-such-host.invalid", listener.port(), &error));
  EXPECT_NE(error.find("no-such-host.invalid"), std::string::npos) << error;
}

}  // namespace
}  // namespace rescq
