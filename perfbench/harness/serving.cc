// Pieces shared by the two serving workloads (ingest_bulk, route_churn):
// the serve stack, session set-up over the wire, and the layer metrics
// both derive from their in-process replays.

#include <cstdio>
#include <thread>
#include <unordered_map>
#include <utility>

#include "bench.h"
#include "cq/parser.h"
#include "resilience/exact_solver.h"
#include "util/string_util.h"

namespace perfbench {

using rescq::Database;
using rescq::Query;

ServeStack::ServeStack(SpanSink* sink) {
  if (sink == nullptr) {
    rescq::ServerOptions options;
    options.threads = kServerThreads;
    server_ = std::make_unique<rescq::ResilienceServer>(options, &engine_);
    return;
  }
  registry_ = std::make_unique<rescq::SessionRegistry>(limits_.max_sessions);
  rescq::LineServerOptions options;
  options.threads = kServerThreads;
  transport_ = std::make_unique<rescq::LineServer>(options, [this, sink] {
    return std::make_unique<TimedHandler>(
        std::make_unique<rescq::ProtocolHandler>(registry_.get(), &engine_,
                                                 &limits_),
        sink);
  });
}

bool ServeStack::Start(std::string* error) {
  return server_ ? server_->Start(error) : transport_->Start(error);
}

int ServeStack::port() const {
  return server_ ? server_->port() : transport_->port();
}

void ServeStack::Stop() {
  if (server_) server_->Stop();
  if (transport_) transport_->Stop();
}

bool OpenSession(ClientConnection* c, ServedSession* s, RunResult* result) {
  const std::string setup[] = {"open " + s->input.name + " " + kVcQuery,
                               "load " + s->path, "begin"};
  std::string error, reply;
  for (const std::string& line : setup) {
    ++s->lines_sent;
    if (!c->client.Request(line, &reply, &error)) {
      result->Fail(s->input.name + " '" + line + "': " + error);
      c->broken = true;
      return false;
    }
    if (!rescq::StartsWith(reply, "ok ")) {
      result->Fail(s->input.name + " '" + line + "': " + reply);
      return false;
    }
  }
  return true;
}

bool RunServing(const RunOptions& options, const ServingSpec& spec,
                ServingRun* run, RunResult* result) {
  std::unique_ptr<Service> service;
  bool ready = false;
  auto setup = [&] {
    Clock::time_point start = Clock::now();
    for (int c = 0; c < kConnections; ++c) {
      ClientConnection& conn = run->connections[c];
      conn.sessions = std::vector<ServedSession>(spec.sessions_per_connection);
      for (int i = 0; i < spec.sessions_per_connection; ++i) {
        uint64_t index = static_cast<uint64_t>(
            c * spec.sessions_per_connection + i);
        conn.sessions[i].input = MakeSessionInput(
            spec.prefix + std::to_string(c) + "_" + std::to_string(i),
            spec.vertices, spec.density, spec.forward_epochs,
            spec.updates_per_epoch,
            options.seed * 1000003 + spec.seed_salt * 1000 + index);
      }
    }
    run->generate_ms = MsBetween(start, Clock::now());
    for (ClientConnection& conn : run->connections) {
      for (ServedSession& s : conn.sessions) {
        s.path = WriteBase(options.data_dir, s.input.name, s.input.base);
      }
    }
    service = spec.make_service(options.trace ? &run->sink : nullptr);
    std::string error;
    if (!service->Start(&error)) {
      result->Fail("start: " + error);
      return;
    }
    std::vector<char> ok(kConnections, 0);
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        ClientConnection& conn = run->connections[c];
        std::string connect_error;
        if (!conn.client.Connect(service->port(), &connect_error)) {
          result->Fail("connect: " + connect_error);
          return;
        }
        for (ServedSession& s : conn.sessions) {
          if (!OpenSession(&conn, &s, result)) return;
        }
        ok[c] = 1;
      });
    }
    for (std::thread& t : threads) t.join();
    ready = ok[0] && ok[1];
  };
  auto teardown = [&] {
    for (ClientConnection& conn : run->connections) {
      conn.client.Close();
      for (ServedSession& s : conn.sessions) std::remove(s.path.c_str());
    }
    if (service) service->Stop();
  };
  run->setup_s =
      MedianSetup(options.trace ? 1 : kSetupRepeats, setup, teardown);
  if (!ready) {
    teardown();
    return false;
  }

  // Every connection runs rounds until the deadline, untimed first.
  auto drive = [&](double seconds, bool timed) {
    Clock::time_point deadline =
        Clock::now() +
        std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
    std::vector<std::thread> threads;
    for (ClientConnection& conn : run->connections) {
      threads.emplace_back([&] {
        while (!conn.broken && Clock::now() < deadline) {
          spec.round(&conn, timed, result);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  };
  drive(kWarmupSeconds, false);
  for (ClientConnection& conn : run->connections) {
    for (ServedSession& s : conn.sessions) s.warmup_epochs = s.answers.size();
  }
  double cpu_start = ProcessCpuSeconds();
  Clock::time_point start = Clock::now();
  drive(options.seconds, true);
  run->elapsed_s = MsBetween(start, Clock::now()) / 1000.0;
  run->cpu_s = ProcessCpuSeconds() - cpu_start;
  teardown();

  // Correctness, outside the timed loop.
  rescq::Query q = rescq::MustParseQuery(kVcQuery);
  for (const ClientConnection& conn : run->connections) {
    for (const ServedSession& s : conn.sessions) {
      run->replays.push_back(ReplayCycle(q, s.input));
      CheckServedAnswers(q, s.input, run->replays.back(), s.answers, result);
    }
  }
  result->checked = true;
  return true;
}

ExactPathTiming TimeExactPath(const Query& q, const Database& db) {
  ExactPathTiming timing;
  Clock::time_point start = Clock::now();
  rescq::QueryHolds(q, db);
  timing.holds_ms = MsBetween(start, Clock::now());
  start = Clock::now();
  rescq::WitnessFamily family =
      rescq::CollectWitnessFamily(q, db, rescq::kNoWitnessLimit);
  timing.collect_ms = MsBetween(start, Clock::now());
  timing.witnesses = family.witnesses;
  if (family.unbreakable || family.sets.empty()) return timing;

  // Dense element ids, as the exact path numbers tuples.
  rescq::HittingSetFamily sets;
  std::unordered_map<rescq::TupleId, int, rescq::TupleIdHash> ids;
  std::vector<int> dense;
  for (size_t i = 0; i < family.size(); ++i) {
    dense.clear();
    for (const rescq::TupleId* t = family.begin(i); t != family.end(i); ++t) {
      auto it = ids.emplace(*t, static_cast<int>(ids.size())).first;
      dense.push_back(it->second);
    }
    sets.Add(dense);
  }
  rescq::ExactStats stats;
  start = Clock::now();
  rescq::SolveMinHittingSet(sets, rescq::ExactOptions(), &stats);
  timing.search_ms = MsBetween(start, Clock::now());
  timing.nodes = stats.nodes;
  return timing;
}

void ServingLayerMetrics(const Query& q,
                         const std::vector<ClientConnection>& connections,
                         const std::vector<Replay>& replays,
                         RunResult* result) {
  std::vector<const ServedSession*> sessions;
  for (const ClientConnection& c : connections) {
    for (const ServedSession& s : c.sessions) sessions.push_back(&s);
  }
  std::vector<double> apply, begin, delta, bytes, collect, search, nodes,
      witnesses;
  double resolved = 0, epochs = 0;
  for (size_t i = 0; i < sessions.size(); ++i) {
    const Replay& replay = replays[i];
    apply.insert(apply.end(), replay.apply_ms.begin(), replay.apply_ms.end());
    begin.push_back(replay.begin_ms);
    bytes.push_back(replay.bytes_per_set);
    for (size_t e = 0; e < replay.apply_ms.size(); ++e) {
      delta.push_back(static_cast<double>(replay.delta_witnesses[e]));
      resolved += replay.resolved[e] ? 1 : 0;
      epochs += 1;
    }
    // The full exact path on every state of the cycle: what an
    // epoch would cost without incremental maintenance.
    Database state = sessions[i]->input.base;
    for (const rescq::Epoch& epoch : sessions[i]->input.log.epochs) {
      rescq::ApplyEpoch(epoch, &state);
      ExactPathTiming t = TimeExactPath(q, state);
      collect.push_back(t.collect_ms);
      search.push_back(t.search_ms);
      nodes.push_back(static_cast<double>(t.nodes));
      witnesses.push_back(static_cast<double>(t.witnesses));
    }
  }
  result->Set("incremental.apply_p50_ms", Percentile(apply, 0.5), "ms");
  result->Set("incremental.apply_p90_ms", Percentile(apply, 0.9), "ms");
  result->Set("incremental.begin_ms", Median(begin), "ms");
  result->Set("incremental.delta_witnesses", Median(delta), "count");
  result->Set("incremental.resolve_ratio", epochs > 0 ? resolved / epochs : 0,
              "ratio");
  result->Set("incremental.bytes_per_set", Median(bytes), "bytes");
  result->Set("witness.collect_ms", Median(collect), "ms");
  result->Set("witness.per_cell", Median(witnesses), "count");
  result->Set("exact.search_ms", Median(search), "ms");
  result->Set("exact.nodes", Median(nodes), "count");
}

}  // namespace perfbench
