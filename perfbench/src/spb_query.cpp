// spb_query: one closed-loop client against the embedded engine over the
// SP²Bench-shaped graph. Each round runs the fixed shape mix (fresh
// constants per execution), then a fixed batch of INSERT DATA / DELETE DATA
// pairs on a side graph the queries never read, so the read path sees a
// graph that never changes after set-up. Rounds run in blocks that start
// from an empty plan cache (see kRoundsPerBlock).
#include <map>
#include <memory>
#include <optional>

#include "engine/ssdm.h"
#include "sp2b.h"
#include "workloads.h"

namespace perfbench {

using scisparql::QueryOutcome;
using scisparql::QueryRequest;
using scisparql::Result;
using scisparql::SSDM;

namespace {

constexpr int kSetups = 9;
constexpr int kUpdatesPerRound = 40;
const char* kSideGraph = "http://localhost/side";

// The engine's plan cache keeps every distinct statement text until it
// holds 1024, then empties itself at once, and every update revalidates
// each cached plan, so an update's cost grows with the plans cached. A
// block of 24 rounds caches at most 24 x 40 reads plus the 40 update
// statements, just under the cap; emptying the cache before each block
// (the state the engine's own wholesale clear leaves) makes every block go
// through the same cache states, whatever the number of blocks.
constexpr int kRoundsPerBlock = 24;

void EmptyPlanCache(SSDM* engine) {
  scisparql::cache::QueryCache::Config c = engine->cache().config();
  c.plan_cache = false;
  engine->cache().Configure(c);
  c.plan_cache = true;
  engine->cache().Configure(c);
}

uint64_t RowsOf(const QueryOutcome& out) {
  return out.kind() == QueryOutcome::Kind::kRows ? out.rows().rows.size() : 1;
}

}  // namespace

Outcome RunSpbQuery(const Args& args) {
  Outcome out;
  Sp2bConfig cfg;
  std::unique_ptr<SSDM> engine;
  Sp2bModel model;
  LayerTally layers;
  SpanLog spans;
  std::map<Shape, Samples> per_shape;
  bool probes_on = false;  // the traced run's per-statement probes

  // Executes one read statement and checks it; with probes on it also
  // records the statement's layer breakdown.
  auto run_read = [&](const ReadStatement& st, Samples* samples) {
    ++out.attempted;
    const scisparql::Graph& graph = engine->dataset().default_graph();
    // A probed statement's latency includes the probes run for it, so the
    // probed/unprobed difference is the whole tracing overhead.
    double t_start = NowMs();
    std::optional<ScopedSpan> root;
    if (probes_on) {
      root.emplace("statement", true);
      if (graph.PeekIdIndexes() == nullptr) {
        ScopedSpan build("rdf.perm_build");
        double b0 = NowMs();
        graph.EnsureIdIndexes();
        layers.perm_build_ms += NowMs() - b0;
        ++layers.perm_builds;
      }
    }
    scisparql::obs::QueryTrace trace;
    QueryRequest req(st.text);
    if (probes_on) req.trace_sink = &trace;
    Result<QueryOutcome> r = [&] {
      ScopedSpan call("engine.execute");
      double t0 = NowMs();
      Result<QueryOutcome> res = engine->Execute(req);
      double t1 = NowMs();
      if (samples != nullptr) {
        samples->Add(t1 - t0);
        per_shape[st.shape].Add(t1 - t0);
        (probes_on ? layers.traced_latency : layers.untraced_latency).Add(t1 - t_start);
      }
      return res;
    }();
    if (!r.ok()) {
      ++out.failed;
      Log("%s failed: %s", ShapeName(st.shape), r.status().ToString().c_str());
      return;
    }
    std::string diff = CheckAnswer(st, *r, false);
    if (!diff.empty()) out.Wrong(diff);
    if (samples != nullptr) layers.result_rows += RowsOf(*r);
    if (probes_on) layers.AddTrace(trace.Render(), st.bgp_text);
  };

  auto run_update = [&](const std::string& text, Samples* samples) {
    ++out.attempted;
    double t0 = NowMs();
    Result<QueryOutcome> r = engine->Execute(text);
    samples->Add(NowMs() - t0);
    if (!r.ok()) {
      ++out.failed;
      Log("update failed: %s", r.status().ToString().c_str());
    } else if (r->update_count() != 1) {
      out.Wrong("update touched " + std::to_string(r->update_count()) + " triples, want 1");
    }
  };

  // Set-up, repeated so setup_s is a median: generate, render, load. Each
  // fresh engine then runs the cold pass, the first run of the mix, which
  // pays the lazy permutation and statistics builds. A first, unreported
  // set-up keeps the fresh process's first-touch costs (page faults on
  // memory it never used) out of the measured ones.
  std::vector<double> setup_s, load_rate, turtle_ms, cold_ms;
  size_t rss_before = 0, rss_after = 0;
  for (int i = -1; i < kSetups; ++i) {
    engine.reset();
    model = Sp2bModel();
    rss_before = TrimmedRssBytes();
    double t0 = NowMs();
    model = GenerateSp2b(cfg, args.seed);
    std::string turtle = model.Turtle();
    engine = std::make_unique<SSDM>();
    double l0 = NowMs();
    scisparql::Status st = engine->LoadTurtleString(turtle);
    double load_ms = NowMs() - l0;
    if (st.ok()) {
      st = engine->Execute("INSERT DATA { GRAPH <" + std::string(kSideGraph) +
                           "> { <urn:side:s> <urn:side:p> 0 } }")
               .status();
    }
    if (!st.ok()) {
      Log("set-up failed: %s", st.ToString().c_str());
      std::exit(2);
    }
    double setup = (NowMs() - t0) / 1000;
    turtle.clear();
    turtle.shrink_to_fit();

    bool last = i + 1 == kSetups;
    probes_on = args.trace && last;
    if (probes_on) g_span_log.store(&spans);
    std::vector<ReadStatement> cold = Sp2bMix(model, args.seed + 1, true).NextRound();
    double c0 = NowMs();
    for (const ReadStatement& s : cold) run_read(s, nullptr);
    double cold_pass = NowMs() - c0;
    Log("set-up %d: %.4f s, load %.2f ms, cold pass %.2f ms", i, setup, load_ms, cold_pass);
    if (i >= 0) {
      setup_s.push_back(setup);
      turtle_ms.push_back(load_ms);
      load_rate.push_back(engine->dataset().default_graph().size() / (load_ms / 1000));
      cold_ms.push_back(cold_pass);
    }
    g_span_log.store(nullptr);
    if (last) rss_after = TrimmedRssBytes();
  }
  const scisparql::Graph& graph = engine->dataset().default_graph();
  if (graph.size() != model.triples) {
    out.Wrong("loaded " + std::to_string(graph.size()) + " triples, generated " +
              std::to_string(model.triples));
  }
  Log("spb_query: %zu triples, %zu documents, %zu persons", graph.size(), model.docs.size(),
      model.names.size());
  layers.dict_bytes_per_triple = DictBytesPerTriple(graph);
  layers.turtle_ms = Median(turtle_ms);

  // Timed phase: whole blocks of rounds until the time is up. Traced runs
  // alternate probed and unprobed rounds; the difference is the tracing
  // overhead.
  ProbeReading before = ReadProbes(nullptr, nullptr);
  Sp2bMix mix(model, args.seed);
  Phase phase;
  double start = NowMs();
  for (int r = 1; NowMs() - start < args.seconds * 1000;) {
    EmptyPlanCache(engine.get());
    for (int k = 0; k < kRoundsPerBlock; ++k, ++r) {
      std::vector<ReadStatement> round = mix.NextRound();
      probes_on = args.trace && r % 2 == 1;
      if (probes_on) g_span_log.store(&spans);
      phase.BeginRound();
      for (const ReadStatement& st : round) run_read(st, &phase.queries);
      g_span_log.store(nullptr);
      probes_on = false;
      for (int i = 0; i < kUpdatesPerRound / 2; ++i) {
        std::string triple = "<urn:side:s" + std::to_string(i) + "> <urn:side:p> " +
                             std::to_string(i);
        run_update("INSERT DATA { GRAPH <" + std::string(kSideGraph) + "> { " + triple + " } }",
                   &phase.updates);
        run_update("DELETE DATA { GRAPH <" + std::string(kSideGraph) + "> { " + triple + " } }",
                   &phase.updates);
      }
      phase.EndRound();
    }
  }
  ProbeReading after = ReadProbes(nullptr, nullptr);
  LogShapes(per_shape);

  out.Set("setup_s", Median(setup_s), "s");
  out.Set("load_triples_per_s", Median(load_rate), "triples/s");
  out.Set("rss_bytes_per_triple",
          static_cast<double>(rss_after > rss_before ? rss_after - rss_before : 0) /
              graph.size(),
          "B/triple");
  out.Set("cold_pass_ms", Median(cold_ms), "ms");
  ReportEndToEnd(phase, &out);

  const scisparql::Graph* side = engine->dataset().FindNamed(kSideGraph);
  if (side == nullptr || side->size() != 1) out.Wrong("side graph did not return to one triple");

  // Epilogue: the same graph in a durable store behind SsdmServer, with a
  // fixed amount of remote read and write traffic (two readers, two
  // writers, three lock-step rounds), so the WAL, fsync, scheduler
  // and wire layers do real work. It is not timed end to end: through the
  // server, latencies on a shared VM follow the host's fsync and vCPU
  // wake-up latency, which swing twofold within minutes. recovery_s is the
  // median time to reopen that store: snapshot load plus a WAL replay whose
  // length the fixed traffic fixes.
  LayerTally server_layers;
  ServerRun server = RunServer(args, &out, &server_layers, &spans);
  out.Set("recovery_s", Median(server.recovery_s), "s");

  if (args.trace) {
    SplitBgpTime(&layers, [&](const std::string& text) {
      scisparql::obs::QueryTrace trace;
      QueryRequest req(text);
      req.trace_sink = &trace;
      return engine->Execute(req).ok() ? trace.Render() : std::string();
    });
    layers.timed_queries = phase.queries.size();
    // The durable-write and wire layers come from the server epilogue.
    layers.updates = server_layers.updates;
    layers.triples_written = server_layers.triples_written;
    layers.remote_statements = server_layers.remote_statements;
    layers.serialize_ms = server_layers.serialize_ms;
    layers.wire_ms = server_layers.wire_ms;
    layers.delta_ops_peak = server_layers.delta_ops_peak;
    ReportLayers(layers, before, after, server.before, server.after, spans, &out);
    spans.WriteJson(TracePath(args));
  }
  return out;
}

}  // namespace perfbench
