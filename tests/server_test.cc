// Server tests, in three tiers:
//   1. a registry hammer — concurrent open/close/epoch/query through
//      per-connection ProtocolHandlers against one shared registry and
//      engine, exactly the daemon's concurrency model (runs under the
//      TSan preset via the `parallel` label);
//   2. end-to-end over a real socket: a daemon on an ephemeral port, a
//      scripted connection, and a byte-exact golden transcript
//      (tests/golden/server_transcript.golden);
//   3. the loadgen acceptance loop: concurrent sessions with
//      --check-oracle semantics, zero mismatches required.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "resilience/engine.h"
#include "server/client.h"
#include "server/loadgen.h"
#include "server/protocol.h"
#include "server/router.h"
#include "server/server.h"
#include "server/session_registry.h"
#include "server/shard_map.h"

namespace rescq {
namespace {

/// A plain TCP connection to 127.0.0.1:port.
int ConnectRawTo(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Writes `script` to a fresh connection and returns every byte the
/// peer sent back until it closed the connection.
std::string RunScriptOn(int port, const std::string& script) {
  int fd = ConnectRawTo(port);
  // The server may legitimately close mid-send (over-long line), so a
  // short or failed send is not an error here.
  ssize_t sent = ::send(fd, script.data(), script.size(), MSG_NOSIGNAL);
  (void)sent;
  std::string out;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    out.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

// The script behind tests/golden/server_transcript.golden, replayed
// against one server and through a 2-shard router.
constexpr char kGoldenScript[] =
    "# golden transcript: comments and blanks get no reply\n"
    "\n"
    "ping\n"
    "open g1 R(x,y), S(y)\n"
    "push R(a, b)\n"
    "push S(b)\n"
    "push R(c, d)\n"
    "push S(d)\n"
    "begin\n"
    "resilience\n"
    "stats\n"
    "- S(b)\n"
    "epoch\n"
    "resilience\n"
    "+ R(a, e)\n"
    "+ S(e)\n"
    "epoch\n"
    "resilience\n"
    "sessions\n"
    "classify\n"
    "classify R(x,y), R(y,z), R(z,x)\n"
    "push R(z, z)\n"
    "bogus verb\n"
    "close\n"
    "quit\n";

std::string ReadGoldenTranscript() {
  std::ifstream golden(std::string(RESCQ_SOURCE_DIR) +
                       "/tests/golden/server_transcript.golden");
  EXPECT_TRUE(golden.is_open())
      << "missing tests/golden/server_transcript.golden";
  std::stringstream expected;
  expected << golden.rdbuf();
  return expected.str();
}

TEST(SessionRegistryTest, OpenFindCloseBasics) {
  SessionRegistry registry(/*max_sessions=*/2);
  std::shared_ptr<SessionEntry> a, b, c;
  std::string error;
  ASSERT_TRUE(registry.Open("a", &a, &error));
  ASSERT_TRUE(registry.Open("b", &b, &error));
  EXPECT_FALSE(registry.Open("a", &c, &error));  // duplicate
  EXPECT_NE(error.find("already exists"), std::string::npos);
  EXPECT_FALSE(registry.Open("c", &c, &error));  // over the cap
  EXPECT_NE(error.find("limit"), std::string::npos);

  EXPECT_EQ(registry.Find("a"), a);
  EXPECT_EQ(registry.Find("nope"), nullptr);
  EXPECT_EQ(registry.size(), 2u);

  std::vector<std::shared_ptr<SessionEntry>> list = registry.List();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0]->name, "a");  // deterministic name order
  EXPECT_EQ(list[1]->name, "b");

  ASSERT_TRUE(registry.Close("a", &error));
  EXPECT_FALSE(registry.Close("a", &error));
  EXPECT_TRUE(a->closed);  // the held handle learns about the close
  EXPECT_EQ(registry.Find("a"), nullptr);
  // The freed slot is reusable.
  ASSERT_TRUE(registry.Open("c", &c, &error));
  EXPECT_EQ(registry.size(), 2u);
}

// The daemon's concurrency model in miniature: every thread is one
// connection (its own ProtocolHandler), all of them sharing the
// registry and the plan-cache-bearing engine, racing session
// create/push/begin/epoch/query/close on a small name pool so the same
// sessions are contended from several threads at once.
TEST(SessionRegistryHammerTest, ConcurrentOpenCloseEpochQuery) {
  SessionRegistry registry;
  ResilienceEngine engine;
  ServerLimits limits;
  constexpr int kThreads = 8;
  constexpr int kRounds = 40;

  std::vector<std::thread> threads;
  std::vector<int> violations(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ProtocolHandler handler(&registry, &engine, &limits);
      auto req = [&](const std::string& line) {
        std::string r = handler.Handle(line).response;
        // Every reply is structured: ok or err, never empty, never a
        // crash. (Blank lines are not sent here.)
        if (r.rfind("ok ", 0) != 0 && r.rfind("err ", 0) != 0) {
          ++violations[t];
        }
        return r;
      };
      for (int round = 0; round < kRounds; ++round) {
        std::string name = "s" + std::to_string((t + round) % 4);
        req("open " + name + " R(x,y), S(y)");
        req("use " + name);
        req("push R(a" + std::to_string(round) + ", b)");
        req("push S(b)");
        req("begin");
        req("+ R(c" + std::to_string(round) + ", b)");
        req("epoch");
        req("resilience");
        req("stats");
        req("sessions");
        if (round % 3 == 0) req("close " + name);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(violations[t], 0) << t;
  // Whatever survived is consistent: every listed session is findable.
  for (const std::shared_ptr<SessionEntry>& e : registry.List()) {
    EXPECT_EQ(registry.Find(e->name), e);
  }
}

// Eviction under concurrent readers: handler threads hammer live
// sessions with epoch applies and resilience/stats reads while a
// dedicated evictor thread sweeps the registry nonstop with an
// always-idle deadline. Every reply must stay structured and every
// served resilience must be self-consistent across the rebuilds (the
// TSan preset runs this via the `parallel` label).
TEST(SessionRegistryHammerTest, EvictionRacesReadersAndEpochApplies) {
  SessionRegistry registry;
  ResilienceEngine engine;
  ServerLimits limits;
  constexpr int kThreads = 6;
  constexpr int kRounds = 30;

  std::atomic<bool> stop{false};
  std::thread evictor([&] {
    while (!stop.load()) {
      registry.EvictColdSessions(SteadyNowMs() + 1000000, /*idle_ms=*/1,
                                 /*max_resident_bytes=*/1);
    }
  });

  std::vector<std::thread> threads;
  std::vector<int> violations(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ProtocolHandler handler(&registry, &engine, &limits);
      auto req = [&](const std::string& line) {
        std::string r = handler.Handle(line).response;
        if (r.rfind("ok ", 0) != 0 && r.rfind("err ", 0) != 0) {
          ++violations[t];
        }
        return r;
      };
      for (int round = 0; round < kRounds; ++round) {
        std::string name = "s" + std::to_string((t + round) % 3);
        req("open " + name + " R(x,y), S(y)");
        req("use " + name);
        req("push R(a" + std::to_string(round) + ", b)");
        req("push S(b)");
        req("begin");
        req("+ R(c" + std::to_string(round) + ", b)");
        req("epoch");
        // An evicted session must still answer reads; a live session's
        // resilience and stats must agree with each other.
        std::string res = req("resilience");
        std::string stats = req("stats");
        if (res.rfind("ok resilience ", 0) == 0 &&
            stats.rfind("ok stats ", 0) == 0 &&
            stats.find(" state=live ") != std::string::npos) {
          // Both reads raced other writers, so values may differ between
          // them — but each line alone must be well-formed.
          if (stats.find(" index=") == std::string::npos) ++violations[t];
        }
        if (round % 3 == 0) req("close " + name);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true);
  evictor.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(violations[t], 0) << t;
  for (const std::shared_ptr<SessionEntry>& e : registry.List()) {
    EXPECT_EQ(registry.Find(e->name), e);
  }
}

// --- End-to-end over a real socket ------------------------------------------

class ServerEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.port = 0;  // ephemeral
    options.threads = 4;
    engine_ = std::make_unique<ResilienceEngine>();
    server_ = std::make_unique<ResilienceServer>(options, engine_.get());
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override { server_->Stop(); }

  int ConnectRaw() { return ConnectRawTo(server_->port()); }

  std::string RunScript(const std::string& script) {
    return RunScriptOn(server_->port(), script);
  }

  /// Appends to *out what the server sends on fd until *out holds
  /// `lines` newline-terminated lines. False on EOF, error or once
  /// `timeout_ms` has passed.
  static bool ReadLines(int fd, size_t lines, int timeout_ms,
                        std::string* out) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    char chunk[4096];
    while (static_cast<size_t>(std::count(out->begin(), out->end(), '\n')) <
           lines) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd pfd{fd, POLLIN, 0};
      if (left.count() <= 0 ||
          ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
        return false;
      }
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      out->append(chunk, static_cast<size_t>(n));
    }
    return true;
  }

  /// One send() of the whole string.
  static void SendOnce(int fd, const std::string& bytes) {
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Opens session `name` for q_vc over a fixed 30-vertex graph and
  /// begins it, reading every setup reply.
  void OpenVcSession(int fd, const std::string& name) {
    std::string script = "open " + name + " R(x), S(x,y), R(y)\n";
    size_t lines = 2;  // open + begin
    for (int v = 0; v < 30; ++v) {
      script += "push R(v" + std::to_string(v) + ")\n";
      script += "push S(v" + std::to_string(v) + ", v" +
                std::to_string((v * 7 + 3) % 30) + ")\n";
      lines += 2;
    }
    script += "begin\n";
    SendOnce(fd, script);
    std::string replies;
    ASSERT_TRUE(ReadLines(fd, lines, 5000, &replies)) << replies;
    ASSERT_EQ(replies.find("err "), std::string::npos) << replies;
  }

  /// `use` of the session, 250 updates over the same vertices (edges
  /// inserted and deleted, plus R facts), `epoch`, `resilience`: the
  /// shape of a piped update file.
  static std::vector<std::string> VcBurst(const std::string& name) {
    std::vector<std::string> lines = {"use " + name};
    uint32_t state = 12345;
    auto next = [&state](uint32_t mod) {
      state = state * 1103515245u + 12345u;
      return (state >> 16) % mod;
    };
    for (int i = 0; i < 250; ++i) {
      std::string a = "v" + std::to_string(next(30));
      std::string b = "v" + std::to_string(next(30));
      const char* sign = next(3) == 0 ? "- " : "+ ";
      lines.push_back(sign + (next(5) == 0 ? "R(" + a + ")"
                                           : "S(" + a + ", " + b + ")"));
    }
    lines.push_back("epoch");
    lines.push_back("resilience");
    return lines;
  }

  static std::string Joined(const std::vector<std::string>& lines) {
    std::string text;
    for (const std::string& line : lines) text += line + "\n";
    return text;
  }

  std::unique_ptr<ResilienceEngine> engine_;
  std::unique_ptr<ResilienceServer> server_;
};

// The wire protocol's bytes are pinned: one scripted connection, every
// reply byte compared against the checked-in golden file. Replies are
// deterministic by design (no timings on the wire), so this is an exact
// comparison — any protocol change must update the golden on purpose.
TEST_F(ServerEndToEndTest, GoldenTranscript) {
  EXPECT_EQ(RunScript(kGoldenScript), ReadGoldenTranscript());
}

TEST_F(ServerEndToEndTest, MalformedBytesNeverKillTheServer) {
  // Binary garbage gets structured errors, then the client leaves.
  std::string garbage("\x00\x01\xfe\xff(((\n+++\nR\x7f(\n", 16);
  std::string out = RunScript(garbage + "quit\n");
  EXPECT_NE(out.find("err "), std::string::npos) << out;
  EXPECT_NE(out.find("ok bye"), std::string::npos) << out;

  // An over-long request line is refused and the connection dropped...
  std::string long_line(70 * 1024, 'a');
  out = RunScript(long_line + "\nquit\n");
  EXPECT_EQ(out, "err bad-request request line over 64KiB\n");

  // ...while the server keeps serving new connections.
  out = RunScript("ping\nquit\n");
  EXPECT_EQ(out, "ok pong\nok bye\n");
}

// A piped update file, as one send(), gets exactly the replies, in the
// same order, that the same lines get one round trip at a time.
TEST_F(ServerEndToEndTest, PipelinedBurstMatchesLockStepReplies) {
  std::vector<std::string> burst = VcBurst("p");
  int fd = ConnectRaw();
  OpenVcSession(fd, "p");
  SendOnce(fd, Joined(burst));
  std::string pipelined;
  ASSERT_TRUE(ReadLines(fd, burst.size(), 5000, &pipelined)) << pipelined;

  // A second session with the same base, named the same so that the
  // `use` replies match too.
  std::string closed;
  SendOnce(fd, "close p\n");
  ASSERT_TRUE(ReadLines(fd, 1, 5000, &closed));
  ASSERT_EQ(closed, "ok close p\n");
  OpenVcSession(fd, "p");
  std::string lockstep;
  for (size_t i = 0; i < burst.size(); ++i) {
    SendOnce(fd, burst[i] + "\n");
    ASSERT_TRUE(ReadLines(fd, i + 1, 5000, &lockstep)) << burst[i];
  }
  ::close(fd);

  EXPECT_EQ(pipelined, lockstep);
  size_t epoch = pipelined.find("\nok epoch n=1 ");
  size_t resilience = pipelined.find("\nok resilience ");
  EXPECT_NE(epoch, std::string::npos) << pipelined;
  EXPECT_LT(epoch, resilience) << pipelined;
  EXPECT_EQ(pipelined.find("err "), std::string::npos) << pipelined;
}

// Replies to the complete lines of a burst leave before the server
// waits for the rest of its trailing partial line.
TEST_F(ServerEndToEndTest, PartialLineDoesNotHoldEarlierReplies) {
  int fd = ConnectRaw();
  SendOnce(fd, "ping\nping\npi");
  std::string out;
  EXPECT_TRUE(ReadLines(fd, 2, 2000, &out)) << out;
  EXPECT_EQ(out, "ok pong\nok pong\n");
  SendOnce(fd, "ng\nquit\n");
  out.clear();
  EXPECT_TRUE(ReadLines(fd, 2, 2000, &out)) << out;
  EXPECT_EQ(out, "ok pong\nok bye\n");
  ::close(fd);
}

// `quit` inside a burst: the replies before it are sent, the lines
// after it are dropped with the connection.
TEST_F(ServerEndToEndTest, QuitMidBurstFlushesEarlierReplies) {
  EXPECT_EQ(RunScript("ping\nstats\nquit\nping\nping\n"),
            "ok pong\nok stats scope=server sessions=0 live=0 staging=0 "
            "tuples=0 sets=0\nok bye\n");
}

// Short requests with long replies: one read's replies outgrow the
// 64 KiB output buffer and go out in several writes, with no reply
// lost, doubled or reordered at the seams.
TEST_F(ServerEndToEndTest, LongPipelineRepliesCrossTheOutputCap) {
  const std::string reply =
      "ok stats scope=server sessions=0 live=0 staging=0 tuples=0 sets=0\n";
  std::string script, expected;
  for (int i = 0; i < 5000; ++i) {
    script += "stats\n";
    expected += reply;
  }
  EXPECT_EQ(RunScript(script + "quit\n"), expected + "ok bye\n");
}

// Latency guard for the reply path: a 253-line burst's replies must not
// wait for the client's delayed ACK (a ~40 ms floor per burst when
// every reply is its own Nagle-delayed segment).
TEST_F(ServerEndToEndTest, PipelinedBurstsAreNotHeldByDelayedAcks) {
  std::vector<std::string> burst = VcBurst("lat");
  std::string bytes = Joined(burst);
  int fd = ConnectRaw();
  OpenVcSession(fd, "lat");
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    auto start = std::chrono::steady_clock::now();
    SendOnce(fd, bytes);
    std::string replies;
    ASSERT_TRUE(ReadLines(fd, burst.size(), 5000, &replies)) << replies;
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  ::close(fd);
  std::sort(ms.begin(), ms.end());
  EXPECT_LT(ms[2], 20.0) << "median burst " << ms[2] << " ms";
}

TEST_F(ServerEndToEndTest, ShutdownVerbStopsTheServer) {
  std::string out = RunScript("shutdown\n");
  EXPECT_EQ(out, "ok shutdown\n");
  server_->Wait();  // returns because the verb stopped the daemon
}

// The small oracle-checked load: 4 connections, 3 epochs each.
LoadgenOptions SmallLoad(int port) {
  LoadgenOptions options;
  options.host = "127.0.0.1";
  options.port = port;
  options.connections = 4;
  options.scenario = "vc_er";
  options.size = 8;
  options.epochs = 3;
  options.rate = 0.15;
  options.seed = 7;
  options.check_oracle = true;
  return options;
}

// The pressure load: 8 connections of mixed churn, 6 epochs each (672
// requests), more connections than a 1-, 2- or 4-thread server has
// handler slots.
LoadgenOptions PressureLoad(int port) {
  LoadgenOptions options = SmallLoad(port);
  options.connections = 8;
  options.size = 10;
  options.epochs = 6;
  options.seed = 11;
  options.timeout_ms = 60000;
  return options;
}

// Clean: no transport error, no `err` reply, every checked answer equal
// to the from-scratch oracle, and every epoch applied.
void ExpectClean(const LoadgenReport& report, const LoadgenOptions& load) {
  EXPECT_EQ(report.error, "");
  EXPECT_EQ(report.err_replies, 0u);
  EXPECT_EQ(report.oracle_mismatches, 0u);
  EXPECT_GT(report.oracle_checks, 0u);
  EXPECT_EQ(report.epochs_applied,
            static_cast<uint64_t>(load.connections * load.epochs));
}

// The serving acceptance loop, in-process: >= 4 concurrent sessions of
// open -> churn -> query with every served answer checked against a
// from-scratch exact solve on a mirrored instance; zero mismatches, and
// the report's latency/throughput fields are populated. The pressure
// load then runs clean against servers with 1, 2 and 4 handler threads.
TEST_F(ServerEndToEndTest, ConcurrentLoadgenMatchesOracle) {
  const LoadgenOptions options = SmallLoad(server_->port());
  LoadgenReport report = RunLoadgen(options);
  ExpectClean(report, options);
  EXPECT_GT(report.requests, 0u);
  EXPECT_GT(report.requests_per_sec, 0.0);
  EXPECT_GT(report.latency.count, 0u);
  EXPECT_GT(report.latency.p50_ms, 0.0);
  EXPECT_GT(report.latency.p99_ms, 0.0);
  EXPECT_GE(report.latency.p999_ms, report.latency.p99_ms);
  EXPECT_GE(report.latency.max_ms, report.latency.p999_ms);
  EXPECT_GT(report.epoch_latency.count, 0u);

  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ServerOptions soptions;
    soptions.port = 0;
    soptions.threads = threads;
    ResilienceEngine engine;
    ResilienceServer server(soptions, &engine);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    const LoadgenOptions load = PressureLoad(server.port());
    ExpectClean(RunLoadgen(load), load);
    server.Stop();
  }
}

// LineClient's framing: multi-line verbs arrive whole.
TEST_F(ServerEndToEndTest, LineClientFramesMultiLineReplies) {
  LineClient client;
  std::string error, reply;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;
  ASSERT_TRUE(client.Request("open f1 R(x,y)", &reply, &error)) << error;
  EXPECT_EQ(reply, "ok open f1 staging");
  ASSERT_TRUE(client.Request("push R(a, b)", &reply, &error)) << error;
  ASSERT_TRUE(client.Request("begin", &reply, &error)) << error;
  ASSERT_TRUE(client.Request("sessions", &reply, &error)) << error;
  EXPECT_EQ(reply.rfind("ok sessions 1\nf1 live ", 0), 0u) << reply;
  ASSERT_TRUE(client.Request("explain", &reply, &error)) << error;
  EXPECT_EQ(reply.rfind("ok explain ", 0), 0u) << reply;
  EXPECT_NE(reply.find('\n'), std::string::npos) << reply;
  ASSERT_TRUE(client.Request("close", &reply, &error)) << error;
  EXPECT_EQ(reply, "ok close f1");
}

// pool.* describes solver pools only. The transport's handler threads
// are not one, so a serve with 2 handler threads and serial solves
// publishes no pool utilization, through its stop included.
TEST(ServerMetricsTest, HandlerThreadsPublishNoPoolCounters) {
  obs::SetMetricsEnabled(true);
  obs::GlobalRegistry().Reset();
  ServerOptions options;
  options.port = 0;
  options.threads = 2;
  options.limits.solver_threads = 1;
  ResilienceEngine engine;
  ResilienceServer server(options, &engine);
  std::string error, reply;
  ASSERT_TRUE(server.Start(&error)) << error;
  {
    LineClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
    for (const char* line : {"open p R(x,y), S(y)", "push R(a, b)",
                             "push S(b)", "begin", "+ R(c, b)", "epoch"}) {
      ASSERT_TRUE(client.Request(line, &reply, &error)) << error;
      EXPECT_EQ(reply.rfind("ok ", 0), 0u) << line << " -> " << reply;
    }
    EXPECT_EQ(reply.rfind("ok epoch n=1 resilience=1 ", 0), 0u) << reply;
  }
  server.Stop();
  obs::SetMetricsEnabled(false);

  const obs::Counter* workers =
      obs::GlobalRegistry().FindCounter("pool.workers");
  EXPECT_TRUE(workers == nullptr || workers->Value() == 0)
      << "pool.workers " << workers->Value();
  obs::GlobalRegistry().Reset();
}

// --- Sharding: ShardMap placement + router end to end -----------------------

TEST(ShardMapTest, PlacementIsDeterministicAndBalanced) {
  ShardMap map(4);
  std::vector<size_t> counts(4, 0);
  for (int i = 0; i < 4000; ++i) {
    std::string name = "session-" + std::to_string(i);
    size_t owner = map.OwnerOf(name);
    ASSERT_LT(owner, 4u);
    EXPECT_EQ(owner, map.OwnerOf(name));  // stable across calls
    counts[owner]++;
  }
  // Consistent hashing over 64 vnodes is not perfectly uniform, but no
  // shard may be starved or hoard the keyspace.
  for (size_t c : counts) {
    EXPECT_GT(c, 4000u / 16) << "starved shard";
    EXPECT_LT(c, 4000u / 2) << "hoarding shard";
  }
  // Two rings over the same shard count agree everywhere — every router
  // instance computes the same placement.
  ShardMap again(4);
  for (int i = 0; i < 100; ++i) {
    std::string name = "agree-" + std::to_string(i);
    EXPECT_EQ(map.OwnerOf(name), again.OwnerOf(name));
  }
}

TEST(ShardMapTest, GrowingTheRingMovesFewKeys) {
  ShardMap four(4), five(5);
  int moved = 0;
  const int kKeys = 2000;
  for (int i = 0; i < kKeys; ++i) {
    std::string name = "grow-" + std::to_string(i);
    size_t before = four.OwnerOf(name);
    size_t after = five.OwnerOf(name);
    if (after != before) {
      ++moved;
      EXPECT_EQ(after, 4u) << "a key moved between two old shards";
    }
  }
  // ~1/5 of the keys should move to the new shard; modulo placement
  // would reshuffle ~4/5 of them.
  EXPECT_GT(moved, kKeys / 20);
  EXPECT_LT(moved, kKeys / 2);
}

class RouterEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions base;
    base.threads = 2;
    std::string error;
    ASSERT_TRUE(shards_.Start(2, base, &error)) << error;
    RouterOptions options;
    options.shards = shards_.specs();
    options.threads = 4;
    options.connect_timeout_ms = 1000;
    options.request_timeout_ms = 5000;
    options.retries = 1;
    options.backoff_ms = 20;
    options.down_cooldown_ms = 200;
    router_ = std::make_unique<ShardRouter>(options);
    ASSERT_TRUE(router_->Start(&error)) << error;
    ASSERT_GT(router_->port(), 0);
  }

  void TearDown() override {
    if (router_ != nullptr) router_->Stop();
    shards_.Stop();
  }

  // A session name the ring places on shard `want`.
  std::string NameOwnedBy(size_t want, const std::string& prefix) {
    for (int i = 0; i < 10000; ++i) {
      std::string name = prefix + std::to_string(i);
      if (router_->shard_map().OwnerOf(name) == want) return name;
    }
    ADD_FAILURE() << "no name found for shard " << want;
    return "";
  }

  void Connect(LineClient* client, int port) {
    std::string error;
    ASSERT_TRUE(client->Connect("127.0.0.1", port, &error)) << error;
  }

  std::string Req(LineClient* client, const std::string& line) {
    std::string reply, error;
    EXPECT_TRUE(client->Request(line, &reply, &error)) << line << ": " << error;
    return reply;
  }

  InProcessShards shards_;
  std::unique_ptr<ShardRouter> router_;
};

// A named session lands on its ring owner and stays there across
// epochs: the owning backend knows it, the other backend does not, and
// every epoch applied through the router shows up on the owner.
TEST_F(RouterEndToEndTest, SessionIsPinnedToItsOwningShardAcrossEpochs) {
  const std::string name = NameOwnedBy(0, "pin");
  LineClient via_router;
  Connect(&via_router, router_->port());
  EXPECT_EQ(Req(&via_router, "open " + name + " R(x,y)"),
            "ok open " + name + " staging");
  EXPECT_EQ(Req(&via_router, "push R(a, b)"), "ok push 1");
  EXPECT_EQ(Req(&via_router, "push R(c, d)"), "ok push 2");
  EXPECT_EQ(Req(&via_router, "begin").rfind("ok begin ", 0), 0u);
  for (int epoch = 1; epoch <= 2; ++epoch) {
    std::string fact = "R(e" + std::to_string(epoch) + ", f)";
    EXPECT_EQ(Req(&via_router, "+ " + fact), "ok queued 1");
    EXPECT_EQ(Req(&via_router, "epoch").rfind("ok epoch ", 0), 0u);
  }
  EXPECT_EQ(Req(&via_router, "resilience").rfind("ok resilience ", 0), 0u);

  // The owner has the session, live, at epoch 2.
  LineClient owner;
  Connect(&owner, shards_.server(0)->port());
  EXPECT_EQ(Req(&owner, "use " + name), "ok use " + name + " live");
  std::string stats = Req(&owner, "stats");
  EXPECT_NE(stats.find("epoch=2"), std::string::npos) << stats;

  // The other shard never heard of it.
  LineClient other;
  Connect(&other, shards_.server(1)->port());
  EXPECT_EQ(Req(&other, "use " + name).rfind("err no-session ", 0), 0u);
}

// Routed replies are byte-identical to direct ones: the golden script
// through a 2-shard router reproduces the single-server golden.
TEST_F(RouterEndToEndTest, GoldenTranscriptThroughTheRouter) {
  EXPECT_EQ(RunScriptOn(router_->port(), kGoldenScript),
            ReadGoldenTranscript());
}

// Scatter-gathered router `stats` equals the field-wise sum of each
// shard's own server-scope stats, and `sessions` merges both listings.
TEST_F(RouterEndToEndTest, ScatterGatherAggregatesAcrossShards) {
  const std::string on0 = NameOwnedBy(0, "agg0-");
  const std::string on1 = NameOwnedBy(1, "agg1-");
  LineClient via_router;
  Connect(&via_router, router_->port());
  EXPECT_EQ(Req(&via_router, "open " + on0 + " R(x,y)"),
            "ok open " + on0 + " staging");
  EXPECT_EQ(Req(&via_router, "push R(a, b)"), "ok push 1");
  EXPECT_EQ(Req(&via_router, "begin").rfind("ok begin ", 0), 0u);
  EXPECT_EQ(Req(&via_router, "open " + on1 + " R(x,y)"),
            "ok open " + on1 + " staging");
  EXPECT_EQ(Req(&via_router, "push R(c, d)"), "ok push 1");
  EXPECT_EQ(Req(&via_router, "push R(e, f)"), "ok push 2");

  auto field = [](const std::string& reply, const std::string& key) {
    size_t at = reply.find(" " + key + "=");
    EXPECT_NE(at, std::string::npos) << key << " in " << reply;
    if (at == std::string::npos) return -1LL;
    return static_cast<long long>(
        std::stoll(reply.substr(at + key.size() + 2)));
  };
  long long sessions = 0, live = 0, staging = 0, tuples = 0, sets = 0;
  for (size_t i = 0; i < shards_.count(); ++i) {
    LineClient direct;
    Connect(&direct, shards_.server(i)->port());
    std::string stats = Req(&direct, "stats");
    ASSERT_EQ(stats.rfind("ok stats scope=server ", 0), 0u) << stats;
    sessions += field(stats, "sessions");
    live += field(stats, "live");
    staging += field(stats, "staging");
    tuples += field(stats, "tuples");
    sets += field(stats, "sets");
  }
  EXPECT_EQ(sessions, 2);
  EXPECT_EQ(live, 1);
  EXPECT_EQ(staging, 1);

  // A fresh router connection (no session selected) aggregates to
  // exactly those sums.
  LineClient fresh;
  Connect(&fresh, router_->port());
  std::string agg = Req(&fresh, "stats");
  ASSERT_EQ(agg.rfind("ok stats scope=router shards=2 up=2 ", 0), 0u) << agg;
  EXPECT_EQ(field(agg, "sessions"), sessions);
  EXPECT_EQ(field(agg, "live"), live);
  EXPECT_EQ(field(agg, "staging"), staging);
  EXPECT_EQ(field(agg, "tuples"), tuples);
  EXPECT_EQ(field(agg, "sets"), sets);

  std::string listing = Req(&fresh, "sessions");
  EXPECT_EQ(listing.rfind("ok sessions 2\n", 0), 0u) << listing;
  EXPECT_NE(listing.find(on0 + " live"), std::string::npos) << listing;
  EXPECT_NE(listing.find(on1 + " staging"), std::string::npos) << listing;
}

// The per-shard forward counters are handles the router resolves once
// per shard: together they count exactly what the total counts.
TEST_F(RouterEndToEndTest, PerShardForwardCountersSumToTheTotal) {
  obs::SetMetricsEnabled(true);
  obs::GlobalRegistry().Reset();
  LineClient via_router;
  Connect(&via_router, router_->port());
  for (size_t owner = 0; owner < 2; ++owner) {
    const std::string name = NameOwnedBy(owner, "fwd" + std::to_string(owner));
    EXPECT_EQ(Req(&via_router, "open " + name + " R(x,y)"),
              "ok open " + name + " staging");
    for (size_t i = 0; i <= owner; ++i) {
      EXPECT_EQ(Req(&via_router, "push R(a" + std::to_string(i) + ", b)"),
                "ok push " + std::to_string(i + 1));
    }
    EXPECT_EQ(Req(&via_router, "begin").rfind("ok begin ", 0), 0u);
  }
  obs::SetMetricsEnabled(false);

  auto value = [](const char* name) -> uint64_t {
    const obs::Counter* c = obs::GlobalRegistry().FindCounter(name);
    EXPECT_NE(c, nullptr) << name;
    return c == nullptr ? 0 : c->Value();
  };
  // open + 1 push + begin on shard 0; open + 2 pushes + begin on shard 1.
  EXPECT_EQ(value("shard.forwarded.0"), 3u);
  EXPECT_EQ(value("shard.forwarded.1"), 4u);
  EXPECT_EQ(value("shard.forwarded.0") + value("shard.forwarded.1"),
            value("shard.forwarded"));
  obs::GlobalRegistry().Reset();
}

// A downed shard costs its sessions a structured `err shard_unavailable`
// (no hang), leaves the other shard serving, and comes back after a
// restart once the down-cooldown lapses.
TEST_F(RouterEndToEndTest, ShardDownIsStructuredAndRecoverable) {
  const std::string doomed = NameOwnedBy(1, "down");
  LineClient via_router;
  Connect(&via_router, router_->port());
  EXPECT_EQ(Req(&via_router, "open " + doomed + " R(x,y)"),
            "ok open " + doomed + " staging");
  EXPECT_EQ(Req(&via_router, "push R(a, b)"), "ok push 1");
  EXPECT_EQ(Req(&via_router, "begin").rfind("ok begin ", 0), 0u);

  int shard1_port = shards_.server(1)->port();
  shards_.server(1)->Stop();

  // The in-flight channel breaks, the reconnect finds nobody, and the
  // reply is structured — immediately and on the fail-fast path after.
  EXPECT_EQ(Req(&via_router, "resilience").rfind("err shard_unavailable ", 0),
            0u);
  EXPECT_EQ(Req(&via_router, "resilience").rfind("err shard_unavailable ", 0),
            0u);

  // Shard-0 sessions keep working through the same router.
  const std::string alive = NameOwnedBy(0, "alive");
  LineClient healthy;
  Connect(&healthy, router_->port());
  EXPECT_EQ(Req(&healthy, "open " + alive + " R(x,y)"),
            "ok open " + alive + " staging");

  // Restart a backend on the same port; after the cooldown the router
  // probes again and the shard serves fresh sessions.
  ResilienceEngine engine;
  ServerOptions options;
  options.port = shard1_port;
  options.threads = 2;
  ResilienceServer revived(options, &engine);
  std::string error;
  ASSERT_TRUE(revived.Start(&error)) << error;
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  const std::string recovered = NameOwnedBy(1, "recover");
  LineClient back;
  Connect(&back, router_->port());
  EXPECT_EQ(Req(&back, "open " + recovered + " R(x,y)"),
            "ok open " + recovered + " staging");
  // The doomed session died with its shard: the honest reply is
  // no-session, not a hang or a silently re-created session.
  EXPECT_EQ(Req(&back, "use " + doomed).rfind("err no-session ", 0), 0u);
  revived.Stop();
}

// The ISSUE acceptance drive, in-process: an oracle-checked loadgen
// through a 4-shard router stays clean, and the aggregated router stats
// match the per-shard sums afterwards. The pressure load then runs
// clean through fleets of 1, 2 and 4 shards.
TEST(RouterLoadgenTest, FourShardOracleCheckedLoadgenIsClean) {
  InProcessShards shards;
  ServerOptions base;
  base.threads = 2;
  std::string error;
  ASSERT_TRUE(shards.Start(4, base, &error)) << error;
  RouterOptions options;
  options.shards = shards.specs();
  options.threads = 4;
  ShardRouter router(options);
  ASSERT_TRUE(router.Start(&error)) << error;

  // Two persistent sessions so the post-loadgen aggregation has
  // non-trivial sums (loadgen closes its own sessions on the way out).
  LineClient setup;
  ASSERT_TRUE(setup.Connect("127.0.0.1", router.port(), &error)) << error;
  std::string reply, err;
  ASSERT_TRUE(setup.Request("open keeper-a R(x,y)", &reply, &err)) << err;
  ASSERT_TRUE(setup.Request("push R(a, b)", &reply, &err)) << err;
  ASSERT_TRUE(setup.Request("begin", &reply, &err)) << err;
  ASSERT_TRUE(setup.Request("open keeper-b R(x,y)", &reply, &err)) << err;
  ASSERT_TRUE(setup.Request("push R(c, d)", &reply, &err)) << err;

  const LoadgenOptions load = SmallLoad(router.port());
  ExpectClean(RunLoadgen(load), load);

  auto field = [](const std::string& text, const std::string& key) {
    size_t at = text.find(" " + key + "=");
    EXPECT_NE(at, std::string::npos) << key << " in " << text;
    if (at == std::string::npos) return -1LL;
    return static_cast<long long>(std::stoll(text.substr(at + key.size() + 2)));
  };
  long long sessions = 0, live = 0, tuples = 0, sets = 0;
  for (size_t i = 0; i < shards.count(); ++i) {
    LineClient direct;
    ASSERT_TRUE(direct.Connect("127.0.0.1", shards.server(i)->port(), &error))
        << error;
    std::string stats;
    ASSERT_TRUE(direct.Request("stats", &stats, &err)) << err;
    ASSERT_EQ(stats.rfind("ok stats scope=server ", 0), 0u) << stats;
    sessions += field(stats, "sessions");
    live += field(stats, "live");
    tuples += field(stats, "tuples");
    sets += field(stats, "sets");
  }
  EXPECT_EQ(sessions, 2);  // the keepers survived the loadgen traffic
  EXPECT_EQ(live, 1);

  LineClient via_router;
  ASSERT_TRUE(via_router.Connect("127.0.0.1", router.port(), &error)) << error;
  std::string agg;
  ASSERT_TRUE(via_router.Request("stats", &agg, &err)) << err;
  ASSERT_EQ(agg.rfind("ok stats scope=router shards=4 up=4 ", 0), 0u) << agg;
  EXPECT_EQ(field(agg, "sessions"), sessions);
  EXPECT_EQ(field(agg, "live"), live);
  EXPECT_EQ(field(agg, "tuples"), tuples);
  EXPECT_EQ(field(agg, "sets"), sets);

  router.Stop();
  shards.Stop();

  for (size_t count : {1, 2, 4}) {
    SCOPED_TRACE("shards " + std::to_string(count));
    InProcessShards fleet;
    ServerOptions fleet_base;
    fleet_base.threads = 4;
    ASSERT_TRUE(fleet.Start(count, fleet_base, &error)) << error;
    RouterOptions fleet_options;
    fleet_options.shards = fleet.specs();
    fleet_options.threads = 4;
    ShardRouter fleet_router(fleet_options);
    ASSERT_TRUE(fleet_router.Start(&error)) << error;
    const LoadgenOptions pressure = PressureLoad(fleet_router.port());
    ExpectClean(RunLoadgen(pressure), pressure);
    fleet_router.Stop();
    fleet.Stop();
  }
}

}  // namespace
}  // namespace rescq
