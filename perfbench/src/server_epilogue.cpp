// spb_query's server epilogue: the SP²Bench-shaped graph in a durable
// store (SSDM::Open) served by SsdmServer on loopback. Two reader and two
// writer connections (RemoteSession) run kServerRounds closed-loop rounds
// in lock step: in every round each reader runs the fixed shape mix and
// each writer a fixed number of INSERT DATA / DELETE DATA statements, so
// the WAL, fsync, delta, fold, scheduler and wire layers do the same work
// in every run. The epilogue ends by stopping the server and reopening the
// store, which loads the snapshot and replays the WAL (recovery_s).
//
// Mid-run reads may see a torn mix of snapshots (only the ID-join path pins
// one epoch per statement), so statements whose answers writers can change
// are checked as lower bounds; the final counts are checked exactly, before
// and after the reopen.
#include <barrier>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "client/server.h"
#include "engine/ssdm.h"
#include "sp2b.h"
#include "workloads.h"

namespace perfbench {

using scisparql::QueryOutcome;
using scisparql::QueryRequest;
using scisparql::Result;
using scisparql::SSDM;
using scisparql::client::RemoteSession;
using scisparql::client::SsdmServer;

namespace {

constexpr int kRecoveries = 5;
constexpr int kServerRounds = 3;
constexpr int kReaders = 2;
constexpr int kWriters = 2;
// Per writer and round: 25 inserts alternating with 25 deletes of the
// writer's oldest live statement, so every round leaves the store as it
// found it. Each writer first inserts a backlog, so a delete removes
// documents written a round earlier rather than a moment ago.
constexpr int kWritesPerRound = 50;
constexpr int kBacklog = 25;
// Writer documents per statement: 2 x 6 triples, so the compactor (which
// folds at 512 pending operations) runs every ~43 writes and its stalls
// sit well inside the slowest percent of updates.
constexpr int kDocsPerWrite = 2;

struct Served {
  std::unique_ptr<SSDM> engine;
  std::unique_ptr<SsdmServer> server;
  /// The server must stop before the engine it serves goes away.
  void Reset() {
    server.reset();
    engine.reset();
  }
};

/// Opens a fresh durable store in `dir`, bulk-loads the Turtle, checkpoints
/// it, and starts a server on an ephemeral loopback port.
Served OpenAndServe(const std::string& dir, const std::string& turtle, CountingVfs* vfs) {
  Served s;
  s.engine = std::make_unique<SSDM>();
  scisparql::Status st = s.engine->Open(dir, vfs);
  if (st.ok()) st = s.engine->LoadTurtleString(turtle);
  if (st.ok()) st = s.engine->Checkpoint().status();
  if (!st.ok()) {
    Log("store set-up failed: %s", st.ToString().c_str());
    std::exit(2);
  }
  SsdmServer::Options opts;
  opts.sched.workers = 4;
  s.server = std::make_unique<SsdmServer>(s.engine.get(), opts);
  Result<int> port = s.server->Start(0);
  if (!port.ok()) {
    Log("server start failed: %s", port.status().ToString().c_str());
    std::exit(2);
  }
  return s;
}

RemoteSession Connect(int port) {
  Result<RemoteSession> c = RemoteSession::Connect("127.0.0.1", port);
  if (!c.ok()) {
    Log("connect failed: %s", c.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(*c);
}

int64_t CountWriterDocs(SSDM* engine) {
  Result<QueryOutcome> r = engine->Execute(
      Prolog() + "SELECT (COUNT(?d) AS ?n) WHERE { ?d dcterms:issued 2100 }");
  if (!r.ok() || r->rows().rows.size() != 1) return -1;
  return r->rows().rows[0][0].integer();
}

/// One writer connection's documents: the Turtle of each live statement's
/// documents, oldest first, and the acknowledged statement counts.
struct Writer {
  int id = 0;
  int next = 0;
  std::deque<std::string> live;
  int64_t acked_inserts = 0;
  int64_t acked_deletes = 0;

  /// The triples of a fresh statement's documents: existing authors,
  /// journals, and first-year citations only (see WriterDocTriples).
  std::string NewDocs(const Sp2bModel& m, Rng& rng) {
    const std::vector<int>& cited = m.docs_of_year[0];
    std::string out;
    for (int k = 0; k < kDocsPerWrite; ++k) {
      const Sp2bModel::Doc& by = m.docs[rng.Below(m.docs.size())];
      int journal = m.journals[rng.Below(m.journals.size())];
      std::string iri = "http://localhost/publications/w" + std::to_string(id) + "_" +
                        std::to_string(next++);
      out += WriterDocTriples(iri, by.authors[0], journal, cited[rng.Below(cited.size())]) + "\n";
    }
    return out;
  }
};

}  // namespace

ServerRun RunServer(const Args& args, Outcome* result, LayerTally* tally, SpanLog* span_log) {
  ServerRun run;
  Outcome& out = *result;
  LayerTally& layers = *tally;
  SpanLog& spans = *span_log;
  Sp2bConfig cfg;
  Sp2bModel model;
  CountingVfs vfs(scisparql::storage::DefaultVfs());
  Served served;
  std::mutex mu;  // guards `out`, `layers`, the samples and the statement log
  bool probes_on = false;  // set between rounds, read by the clients
  std::map<Shape, Samples> per_shape;

  // Runs under the exclusive lock, so no fold races the check; a reader may
  // still rebuild the permutations between this probe and its statement,
  // which makes the count a lower bound here (sched.compactions counts the
  // folds that invalidate them).
  auto perm_probe = [&](SsdmServer* server) {
    (void)server->scheduler()->ExecuteExclusive([&](SSDM* e) {
      const scisparql::Graph& g = e->dataset().default_graph();
      if (g.PeekIdIndexes() == nullptr) {
        ScopedSpan build("rdf.perm_build");
        double b0 = NowMs();
        g.EnsureIdIndexes();
        std::lock_guard<std::mutex> lock(mu);
        layers.perm_build_ms += NowMs() - b0;
        ++layers.perm_builds;
      }
      return scisparql::Status::OK();
    });
  };

  auto read = [&](RemoteSession& c, const ReadStatement& st, Samples* samples) {
    // A probed statement's latency includes the probes run for it, so the
    // probed/unprobed difference is the whole tracing overhead.
    bool probed = probes_on;
    double t_start = NowMs();
    std::optional<ScopedSpan> root;
    if (probed) {
      root.emplace("statement", true);
      perm_probe(served.server.get());
    }
    size_t pending = served.engine->PendingDeltaOps();
    scisparql::obs::QueryTrace trace;
    QueryRequest req(st.text);
    if (probed) req.trace_sink = &trace;
    double t0 = NowMs();
    Result<QueryOutcome> r = [&] {
      ScopedSpan call("client.remote_execute");
      return c.Execute(req);
    }();
    double t1 = NowMs();
    std::string diff = r.ok() ? CheckAnswer(st, *r, true) : "";
    std::lock_guard<std::mutex> lock(mu);
    ++out.attempted;
    if (samples != nullptr) {
      samples->Add(t1 - t0);
      per_shape[st.shape].Add(t1 - t0);
      (probed ? layers.traced_latency : layers.untraced_latency).Add(t1 - t_start);
    }
    if (!r.ok()) {
      ++out.failed;
      Log("%s failed: %s", ShapeName(st.shape), r.status().ToString().c_str());
      return;
    }
    if (!diff.empty()) out.Wrong(diff);
    if (samples != nullptr) {
      layers.result_rows += r->kind() == QueryOutcome::Kind::kRows ? r->rows().rows.size() : 1;
    }
    if (probed) {
      std::vector<TraceLine> lines = layers.AddTrace(trace.Render(), st.bgp_text);
      double server_ms = TraceWall(lines, "query", 0) + TraceWall(lines, "serialize", 1);
      layers.wire_ms += std::max(0.0, (t1 - t0) - server_ms);
      ++layers.remote_statements;
      layers.delta_ops_peak = std::max(layers.delta_ops_peak, pending);
    }
  };

  auto write = [&](RemoteSession& c, const std::string& verb, const std::string& docs,
                   Samples* samples) -> bool {
    double t0 = NowMs();
    Result<QueryOutcome> r = c.Execute(QueryRequest(Prolog() + verb + " { " + docs + " }"));
    double ms = NowMs() - t0;
    std::lock_guard<std::mutex> lock(mu);
    ++out.attempted;
    samples->Add(ms);
    if (!r.ok()) {
      ++out.failed;
      Log("update failed: %s", r.status().ToString().c_str());
      return false;
    }
    if (r->update_count() != kDocsPerWrite * kWriterDocTriples) {
      out.Wrong(verb + " touched " + std::to_string(r->update_count()) + " triples");
    }
    return true;
  };

  // Set-up: generate, open the store, bulk-load, checkpoint, start the
  // server.
  std::string dir = args.work_dir + "/store";
  ResetDir(dir);
  model = GenerateSp2b(cfg, args.seed);
  served = OpenAndServe(dir, model.Turtle(), &vfs);
  SSDM* engine = served.engine.get();
  SsdmServer* server = served.server.get();
  size_t base_triples = engine->dataset().default_graph().size();
  if (base_triples != model.triples) out.Wrong("store holds a different triple count");
  Log("server: %zu triples on port %d", base_triples, server->port());

  // kServerRounds lock-step rounds, every statement probed in traced runs.
  ProbeReading& before = run.before;
  Phase phase;
  std::vector<Writer> writers(kWriters);
  bool stop = false;
  int rounds = 0;
  // Round boundary, run by one thread while the others wait. The first
  // boundary (all clients connected, backlogs written) takes the probe
  // reading the layer figures start from.
  std::barrier sync(kReaders + kWriters, [&]() noexcept {
    if (rounds == 0) {
      before = ReadProbes(&vfs, nullptr);
      probes_on = args.trace;
      g_span_log.store(probes_on ? &spans : nullptr);
    }
    if (rounds == kServerRounds) {
      stop = true;
      return;
    }
    ++rounds;
  });

  std::vector<std::thread> clients;
  for (int i = 0; i < kReaders; ++i) {
    clients.emplace_back([&, i]() {
      RemoteSession c = Connect(server->port());
      Sp2bMix mix(model, args.seed * 16 + i + 1);
      sync.arrive_and_wait();
      while (!stop) {
        for (const ReadStatement& st : mix.NextRound()) read(c, st, &phase.queries);
        sync.arrive_and_wait();
      }
    });
  }
  static_assert(kWritesPerRound % 2 == 0);
  for (int w = 0; w < kWriters; ++w) {
    clients.emplace_back([&, w]() {
      RemoteSession c = Connect(server->port());
      Writer& me = writers[w];
      me.id = w;
      Rng rng(args.seed * 7000003 + w + 1);
      Samples backlog;
      for (int k = 0; k < kBacklog; ++k) {
        std::string docs = me.NewDocs(model, rng);
        if (write(c, "INSERT DATA", docs, &backlog)) {
          me.live.push_back(docs);
          ++me.acked_inserts;
        }
      }
      sync.arrive_and_wait();
      while (!stop) {
        Samples* samples = &phase.updates;
        for (int k = 0; k < kWritesPerRound; ++k) {
          if (k % 2 == 0) {
            std::string docs = me.NewDocs(model, rng);
            if (write(c, "INSERT DATA", docs, samples)) {
              me.live.push_back(docs);
              ++me.acked_inserts;
            }
          } else {
            std::string docs = me.live.front();
            me.live.pop_front();
            if (write(c, "DELETE DATA", docs, samples)) ++me.acked_deletes;
          }
        }
        sync.arrive_and_wait();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  g_span_log.store(nullptr);
  probes_on = false;
  run.after = ReadProbes(&vfs, nullptr);
  Log("%d rounds", rounds);
  LogShapes(per_shape);

  // Final state: base data plus acknowledged inserts minus acknowledged
  // deletes, checked on the live server and again after every reopen.
  int64_t live = 0;
  for (const Writer& w : writers) live += (w.acked_inserts - w.acked_deletes) * kDocsPerWrite;
  size_t want_triples = base_triples + static_cast<size_t>(live) * kWriterDocTriples;
  auto check_state = [&](SSDM* e, const char* when) {
    size_t have = e->dataset().default_graph().size();
    int64_t docs = CountWriterDocs(e);
    if (have != want_triples || docs != live) {
      out.Wrong(std::string(when) + ": " + std::to_string(have) + " triples and " +
                std::to_string(docs) + " writer documents, want " +
                std::to_string(want_triples) + " and " + std::to_string(live));
    }
  };
  (void)server->scheduler()->ExecuteExclusive([&](SSDM* e) {
    check_state(e, "after the run");
    return scisparql::Status::OK();
  });

  if (args.trace) {
    // BGP-only probe pass, through the scheduler like any statement.
    SplitBgpTime(&layers, [&](const std::string& text) {
      scisparql::obs::QueryTrace trace;
      QueryRequest req(text);
      req.trace_sink = &trace;
      return server->scheduler()->Execute(req).ok() ? trace.Render() : std::string();
    });
    layers.timed_queries = phase.queries.size();
    layers.updates = phase.updates.size();
    layers.triples_written = layers.updates * kDocsPerWrite * kWriterDocTriples;
  }

  served.Reset();
  for (int i = 0; i < kRecoveries; ++i) {
    auto e = std::make_unique<SSDM>();
    double t0 = NowMs();
    scisparql::Status st = e->Open(dir, &vfs);
    run.recovery_s.push_back((NowMs() - t0) / 1000);
    if (!st.ok()) {
      out.Wrong("reopen failed: " + st.ToString());
      continue;
    }
    check_state(e.get(), "after reopen");
  }
  return run;
}

}  // namespace perfbench
