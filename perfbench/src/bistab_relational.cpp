// bistab_relational: the BISTAB parameter sweep (apps::GenerateBistab) with
// its trajectory arrays in the relational back-end, whose buffer pool holds
// an eighth of the array volume. One client::Session runs closed-loop
// rounds: the application queries Q1-Q4 with seeded thresholds, a
// whole-array mean the back-end can aggregate itself, slice FetchArray
// calls, and StoreResult writes that replace the results in a fixed ring of
// derived experiments, each read back at once with FetchArray. The ring
// keeps the graph and the array volume the same in every round.
//
// Expected answers come from plain C++ over the trajectories fetched whole
// with FetchArray from a reference copy of the sweep kept resident in the
// graph (same generator, same seed), not from the engine's aggregates.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "apps/bistab.h"
#include "client/session.h"
#include "engine/ssdm.h"
#include "relstore/database.h"
#include "storage/array_proxy.h"
#include "storage/relational_backend.h"
#include "workloads.h"

namespace perfbench {

using scisparql::NumericArray;
using scisparql::QueryOutcome;
using scisparql::QueryRequest;
using scisparql::Result;
using scisparql::SSDM;

namespace {

constexpr int kSetups = 9;
constexpr int kRecoveries = 25;
constexpr int kCases = 32;
constexpr int kRealizations = 16;
constexpr int kTimesteps = 2000;
constexpr int64_t kChunkElems = 1024;
constexpr size_t kPoolPages = 256;  // 256 x 8 KiB = 2 MiB
// The round's make-up is chosen, not measured (BISTAB prescribes no mix):
// the five application queries once each, and as many writes as the ring
// has slots, so a round replaces every derived result once and a 10-s run
// has over 1000 write samples for update_p99_ms.
constexpr int kSlicesPerRound = 8;
constexpr int kStoresPerRound = 16;
constexpr int kStoredElems = 512;
constexpr double kGolden = 0.6180339887498949;
const std::string kBi = scisparql::apps::kBistabNs;
const std::string kPrefix = "PREFIX bi: <" + kBi + ">\n";

scisparql::apps::BistabConfig SweepConfig(uint64_t seed, const std::string& storage) {
  scisparql::apps::BistabConfig cfg;
  cfg.parameter_cases = kCases;
  cfg.realizations = kRealizations;
  cfg.timesteps = kTimesteps;
  cfg.seed = seed;
  cfg.storage = storage;
  cfg.chunk_elems = kChunkElems;
  return cfg;
}

struct Store {
  std::unique_ptr<scisparql::relstore::Database> db;
  std::shared_ptr<CountingStorage> asei;
  std::unique_ptr<SSDM> engine;
  /// The engine holds the storage; both go before the database.
  void Reset() {
    engine.reset();
    asei.reset();
    db.reset();
  }
};

Store OpenStore(const std::string& path, std::string* error) {
  Store s;
  auto db = scisparql::relstore::Database::Open(path, kPoolPages);
  if (!db.ok()) {
    *error = db.status().ToString();
    return s;
  }
  s.db = std::move(*db);
  auto rel = scisparql::RelationalArrayStorage::Attach(s.db.get());
  if (!rel.ok()) {
    *error = rel.status().ToString();
    return s;
  }
  (*rel)->set_strategy(scisparql::relstore::SelectStrategy::kInterval);
  s.asei = std::make_shared<CountingStorage>(
      std::shared_ptr<scisparql::ArrayStorage>(std::move(*rel)));
  s.engine = std::make_unique<SSDM>();
  s.engine->AttachStorage(s.asei);
  return s;
}

/// Per task: what the benchmark computed itself from the fetched arrays.
struct TaskRef {
  std::string iri;
  double k1 = 0;
  int64_t realization = 0;
  double final_a = 0;   ///< species A at the last timestep
  double mean_a = 0;    ///< mean of species A over the trajectory
  double mean_all = 0;  ///< mean of the whole array (both species)
  NumericArray array;
};

double Num(const scisparql::Term& t) {
  Result<double> d = t.AsDouble();
  return d.ok() ? *d : std::nan("");
}

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

/// Builds the sweep with resident arrays and computes every task's
/// reference values from its trajectory, fetched whole.
std::vector<TaskRef> ReferenceTasks(uint64_t seed) {
  SSDM resident;
  if (!scisparql::apps::GenerateBistab(&resident, SweepConfig(seed, "")).ok()) {
    Log("reference sweep failed");
    std::exit(2);
  }
  scisparql::client::Session session(&resident);
  Result<scisparql::sparql::QueryResult> meta = session.Query(
      kPrefix + "SELECT ?task ?k1 ?real WHERE { ?task a bi:Task ; bi:k_1 ?k1 ; "
                "bi:realization ?real }");
  if (!meta.ok()) {
    Log("metadata listing failed: %s", meta.status().ToString().c_str());
    std::exit(2);
  }
  std::vector<TaskRef> tasks;
  for (const auto& row : meta->rows) {
    TaskRef t;
    t.iri = row[0].iri();
    t.k1 = Num(row[1]);
    t.realization = row[2].integer();
    Result<NumericArray> a =
        session.FetchArray(kPrefix + "SELECT ?r WHERE { <" + t.iri + "> bi:result ?r }");
    if (!a.ok()) {
      Log("fetch failed: %s", a.status().ToString().c_str());
      std::exit(2);
    }
    t.array = std::move(*a);
    double sum = 0;
    for (int s = 0; s < kTimesteps; ++s) sum += t.array.DoubleAt(2 * s);
    t.mean_a = sum / kTimesteps;
    t.final_a = t.array.DoubleAt(2 * (kTimesteps - 1));
    double all = 0;
    for (int64_t k = 0; k < t.array.NumElements(); ++k) all += t.array.DoubleAt(k);
    t.mean_all = all / static_cast<double>(t.array.NumElements());
    tasks.push_back(std::move(t));
  }
  return tasks;
}

/// Compares a fetched array with `want`, element by element.
std::string SameArray(const NumericArray& got, const NumericArray& want, const char* what) {
  if (got.NumElements() != want.NumElements()) return std::string(what) + ": wrong size";
  for (int64_t i = 0; i < want.NumElements(); ++i) {
    if (got.DoubleAt(i) != want.DoubleAt(i)) return std::string(what) + ": wrong element";
  }
  return "";
}

/// One slot of the ring of derived results the writes cycle through.
struct Slot {
  std::string experiment;
  NumericArray array;  ///< what was stored, for the read-back check
  scisparql::Term value;  ///< the stored array term (a proxy)
  int64_t round = -1;  ///< the round that stored it; -1 = empty
};

}  // namespace

Outcome RunBistabRelational(const Args& args) {
  Outcome out;
  const std::vector<TaskRef> tasks = ReferenceTasks(args.seed);
  std::map<std::string, const TaskRef*> by_iri;
  for (const TaskRef& t : tasks) by_iri[t.iri] = &t;

  Store store;
  std::optional<scisparql::client::Session> session;
  LayerTally layers;
  SpanLog spans;
  bool probes_on = false;  // the traced run's per-statement probes
  std::map<std::string, Samples> per_kind;  // timed reads by statement kind

  // Opens a probed statement's root span and runs the permutation-build
  // probe. A probed statement's latency includes the probes run for it, so
  // the probed/unprobed difference is the whole tracing overhead.
  auto probe_statement = [&](std::optional<ScopedSpan>* root) {
    if (!probes_on) return;
    root->emplace("statement", true);
    const scisparql::Graph& graph = store.engine->dataset().default_graph();
    if (graph.PeekIdIndexes() == nullptr) {
      ScopedSpan build("rdf.perm_build");
      double b0 = NowMs();
      graph.EnsureIdIndexes();
      layers.perm_build_ms += NowMs() - b0;
      ++layers.perm_builds;
    }
  };

  // Runs one read through the session; `check` validates the outcome and
  // `bgp` is the statement's basic graph pattern alone, for the probe pass.
  auto run_read = [&](const char* kind, const std::string& text, const std::string& bgp,
                      Samples* samples,
                      const std::function<std::string(const QueryOutcome&)>& check) {
    ++out.attempted;
    double t_start = NowMs();
    std::optional<ScopedSpan> root;
    probe_statement(&root);
    scisparql::obs::QueryTrace trace;
    QueryRequest req(text);
    if (probes_on) req.trace_sink = &trace;
    double t0 = NowMs();
    Result<QueryOutcome> r = [&] {
      ScopedSpan call("client.session_execute");
      return session->Execute(req);
    }();
    double t1 = NowMs();
    if (samples != nullptr) {
      samples->Add(t1 - t0);
      per_kind[kind].Add(t1 - t0);
      (probes_on ? layers.traced_latency : layers.untraced_latency).Add(t1 - t_start);
    }
    if (!r.ok()) {
      ++out.failed;
      Log("query failed: %s", r.status().ToString().c_str());
      return;
    }
    std::string diff = check(*r);
    if (!diff.empty()) out.Wrong(diff);
    if (samples != nullptr) {
      layers.result_rows += r->kind() == QueryOutcome::Kind::kRows ? r->rows().rows.size() : 1;
    }
    if (probes_on) layers.AddTrace(trace.Render(), bgp);
  };

  // Fetches one array with FetchArray, which materializes it: the chunk
  // retrieval (SPD intervals, buffer pool, B+-tree) happens inside the
  // timed call. The comparison with `want` runs after it.
  auto run_fetch = [&](const std::string& text, const NumericArray& want, const char* what,
                       Samples* samples) {
    ++out.attempted;
    double t_start = NowMs();
    std::optional<ScopedSpan> root;
    probe_statement(&root);
    double t0 = NowMs();
    Result<NumericArray> got = [&] {
      ScopedSpan call("client.session_fetch_array");
      return session->FetchArray(text);
    }();
    double t1 = NowMs();
    if (samples != nullptr) {
      samples->Add(t1 - t0);
      per_kind[what].Add(t1 - t0);
      (probes_on ? layers.traced_latency : layers.untraced_latency).Add(t1 - t_start);
    }
    root.reset();
    if (!got.ok()) {
      ++out.failed;
      Log("%s failed: %s", what, got.status().ToString().c_str());
      return;
    }
    std::string diff = SameArray(*got, want, what);
    if (!diff.empty()) out.Wrong(diff);
    if (samples != nullptr) ++layers.result_rows;
  };

  // Replaces a slot's derived result: removes the old result's triples and
  // its stored array, then stores the new one with StoreResult.
  auto replace_result = [&](Slot* slot, NumericArray next, int64_t r) -> scisparql::Status {
    scisparql::Graph& graph = store.engine->dataset().default_graph();
    if (slot->round >= 0) {
      const scisparql::Term exp = scisparql::Term::Iri(slot->experiment);
      size_t removed = graph.Remove({exp, scisparql::Term::Iri(kBi + "derived"), slot->value}) +
                       graph.Remove({exp, scisparql::Term::Iri(kBi + "round"),
                                     scisparql::Term::Integer(slot->round)});
      if (removed != 2) return scisparql::Status::Internal("old result's triples not found");
      auto proxy = std::dynamic_pointer_cast<const scisparql::ArrayProxy>(slot->value.array());
      if (proxy == nullptr) return scisparql::Status::Internal("stored result is no proxy");
      SCISPARQL_RETURN_NOT_OK(store.asei->Remove(proxy->array_id()));
      slot->round = -1;
    }
    Result<scisparql::Term> term =
        session->StoreResult(slot->experiment, kBi + "derived", next,
                             {{kBi + "round", scisparql::Term::Integer(r)}});
    if (!term.ok()) return term.status();
    slot->array = std::move(next);
    slot->value = *term;
    slot->round = r;
    return scisparql::Status::OK();
  };

  std::vector<Slot> ring(kStoresPerRound);
  for (int k = 0; k < kStoresPerRound; ++k) {
    ring[k].experiment = kBi + "derived" + std::to_string(k);
  }
  const std::string task_result_bgp =
      kPrefix + "SELECT * WHERE { ?task a bi:Task ; bi:k_1 ?k1 ; bi:result ?r }";

  // One round of the mix. Thresholds, slice windows and stored arrays
  // follow low-discrepancy sequences in the round number `r`, so a run of
  // any length samples them evenly; `rng` draws the rest.
  auto run_round = [&](int r, Rng& rng, Phase* b) {
    auto step = [&](double offset) { return std::fmod(offset + r * kGolden, 1.0); };
    // Thresholds have two decimals, so the query text states them exactly.
    double k1_min = std::round(1000.0 + 4000.0 * step(0.1)) / 100;
    double mean_min = std::round(2000.0 + 6000.0 * step(0.7)) / 100;

    run_read("q1", scisparql::apps::BistabQ1(k1_min),
             kPrefix + "SELECT * WHERE { ?task a bi:Task ; bi:k_1 ?k1 ; bi:realization 1 }",
             &b->queries, [&](const QueryOutcome& o) {
               size_t want = 0;
               for (const TaskRef& t : tasks) want += t.realization == 1 && t.k1 > k1_min;
               const auto& rows = o.rows().rows;
               if (rows.size() != want) return std::string("Q1: wrong row count");
               for (size_t i = 0; i < rows.size(); ++i) {
                 const TaskRef* t = by_iri[rows[i][0].iri()];
                 if (t == nullptr || Num(rows[i][1]) != t->k1 || t->k1 <= k1_min) {
                   return std::string("Q1: wrong task");
                 }
                 if (i > 0 && Num(rows[i][1]) < Num(rows[i - 1][1])) {
                   return std::string("Q1: unordered");
                 }
               }
               return std::string();
             });
    run_read("q2", scisparql::apps::BistabQ2(k1_min), task_result_bgp, &b->queries,
             [&](const QueryOutcome& o) {
               size_t want = 0;
               for (const TaskRef& t : tasks) want += t.k1 > k1_min;
               const auto& rows = o.rows().rows;
               if (rows.size() != want) return std::string("Q2: wrong row count");
               for (const auto& row : rows) {
                 const TaskRef* t = by_iri[row[0].iri()];
                 if (t == nullptr || t->k1 <= k1_min || Num(row[1]) != t->final_a) {
                   return std::string("Q2: wrong final value");
                 }
               }
               return std::string();
             });
    run_read("q3", scisparql::apps::BistabQ3(mean_min),
             kPrefix + "SELECT * WHERE { ?task a bi:Task ; bi:result ?r }", &b->queries,
             [&](const QueryOutcome& o) {
               size_t want = 0;
               for (const TaskRef& t : tasks) want += t.mean_a > mean_min;
               const auto& rows = o.rows().rows;
               if (rows.size() != want) return std::string("Q3: wrong row count");
               for (const auto& row : rows) {
                 const TaskRef* t = by_iri[row[0].iri()];
                 if (t == nullptr || !Close(Num(row[1]), t->mean_a)) {
                   return std::string("Q3: wrong mean");
                 }
               }
               return std::string();
             });
    // Q3 averages a column view, which the engine computes itself; the same
    // filter with a whole-array mean is the aggregate the relational
    // back-end evaluates in place (AAPR pushdown).
    std::ostringstream q3w;
    q3w << kPrefix << "SELECT ?task ?m WHERE { ?task a bi:Task ; bi:k_1 ?k1 ; bi:result ?r . "
        << "FILTER (?k1 > " << k1_min << ") BIND (AAVG(?r) AS ?m) }";
    run_read("whole-array mean", q3w.str(), task_result_bgp, &b->queries,
             [&](const QueryOutcome& o) {
               size_t want = 0;
               for (const TaskRef& t : tasks) want += t.k1 > k1_min;
               const auto& rows = o.rows().rows;
               if (rows.size() != want) return std::string("whole-array mean: wrong row count");
               for (const auto& row : rows) {
                 const TaskRef* t = by_iri[row[0].iri()];
                 if (t == nullptr || !Close(Num(row[1]), t->mean_all)) {
                   return std::string("whole-array mean: wrong value");
                 }
               }
               return std::string();
             });
    run_read("q4", scisparql::apps::BistabQ4(kTimesteps), task_result_bgp, &b->queries,
             [&](const QueryOutcome& o) {
               std::map<double, std::pair<int, int>> want;  // k1 -> (high, realizations)
               for (const TaskRef& t : tasks) {
                 auto& w = want[t.k1];
                 w.first += t.final_a > 50;
                 ++w.second;
               }
               const auto& rows = o.rows().rows;
               if (rows.size() != want.size()) return std::string("Q4: wrong row count");
               for (const auto& row : rows) {
                 auto it = want.find(Num(row[0]));
                 if (it == want.end() || row[2].integer() != it->second.second ||
                     !Close(Num(row[1]),
                            static_cast<double>(it->second.first) / it->second.second)) {
                   return std::string("Q4: wrong fraction");
                 }
               }
               return std::string();
             });

    // Slices: a window of species A of one task.
    for (int s = 0; s < kSlicesPerRound; ++s) {
      const TaskRef& t = tasks[rng.Below(tasks.size())];
      int len = 1 + static_cast<int>(400 * step(0.3 + 0.1 * s));
      int lo = 1 + static_cast<int>(rng.Below(kTimesteps - len + 1));
      int hi = lo + len - 1;
      NumericArray want = NumericArray::Zeros(scisparql::ElementType::kDouble, {len});
      for (int i = 0; i < len; ++i) want.SetDoubleAt(i, t.array.DoubleAt(2 * (lo - 1 + i)));
      run_fetch(kPrefix + "SELECT (?r[" + std::to_string(lo) + ":" + std::to_string(hi) +
                    ", 1] AS ?s) WHERE { <" + t.iri + "> bi:result ?r }",
                want, "slice", &b->queries);
    }

    // Writes: replace each slot's result, then read the new one back.
    for (Slot& slot : ring) {
      NumericArray next = NumericArray::Zeros(scisparql::ElementType::kDouble, {kStoredElems});
      for (int i = 0; i < kStoredElems; ++i) next.SetDoubleAt(i, rng.Uniform() * 100);
      ++out.attempted;
      double t0 = NowMs();
      scisparql::Status st = [&] {
        ScopedSpan span("client.replace_result", true);
        return replace_result(&slot, std::move(next), r);
      }();
      b->updates.Add(NowMs() - t0);
      if (!st.ok()) {
        ++out.failed;
        Log("replacing a stored result failed: %s", st.ToString().c_str());
        continue;
      }
      run_fetch(kPrefix + "SELECT ?a WHERE { <" + slot.experiment + "> bi:derived ?a }",
                slot.array, "stored array", &b->queries);
    }
  };

  // Set-up, repeated so setup_s is a median: open the database, generate
  // the sweep into it. Each fresh store then runs the cold pass (round 0).
  std::vector<double> setup_s, cold_ms;
  size_t rss_before = 0, rss_after = 0;
  std::string db_path;
  scisparql::apps::BistabStats gen;
  for (int i = 0; i < kSetups; ++i) {
    session.reset();
    store.Reset();
    for (Slot& slot : ring) slot.round = -1;
    db_path = args.work_dir + "/bistab" + std::to_string(i) + ".db";
    rss_before = TrimmedRssBytes();
    double t0 = NowMs();
    std::string error;
    store = OpenStore(db_path, &error);
    Result<scisparql::apps::BistabStats> g =
        error.empty()
            ? scisparql::apps::GenerateBistab(store.engine.get(), SweepConfig(args.seed, "relational"))
            : Result<scisparql::apps::BistabStats>(scisparql::Status::IoError(error));
    if (!g.ok()) {
      Log("BISTAB set-up failed: %s", g.status().ToString().c_str());
      std::exit(2);
    }
    gen = *g;
    setup_s.push_back((NowMs() - t0) / 1000);
    session.emplace(store.engine.get(), "relational");

    bool last = i + 1 == kSetups;
    probes_on = args.trace && last;
    if (probes_on) g_span_log.store(&spans);
    Rng rng(args.seed * 1000003);
    Phase cold;
    double c0 = NowMs();
    run_round(0, rng, &cold);
    cold_ms.push_back(NowMs() - c0);
    g_span_log.store(nullptr);
    probes_on = false;
    if (last) rss_after = TrimmedRssBytes();
  }
  if (static_cast<size_t>(gen.tasks) != tasks.size()) out.Wrong("sweep sizes differ");
  Log("bistab_relational: %d tasks, %zu triples, %.1f MiB of arrays, buffer pool %.1f MiB",
      gen.tasks, gen.triples, gen.array_elements * 8 / 1048576.0,
      kPoolPages * 8192 / 1048576.0);
  layers.dict_bytes_per_triple = DictBytesPerTriple(store.engine->dataset().default_graph());

  // Timed phase: whole rounds until the time is up. Traced runs alternate
  // probed and unprobed rounds; the difference is the tracing overhead.
  ProbeReading before = ReadProbes(nullptr, store.asei.get());
  // The cold rounds' samples stay out of the timed phase's figures.
  per_kind.clear();
  layers.traced_latency = Samples();
  layers.untraced_latency = Samples();
  Rng rng(args.seed * 1000003 + 1);
  Phase phase;
  double start = NowMs();
  for (int r = 1; NowMs() - start < args.seconds * 1000; ++r) {
    probes_on = args.trace && r % 2 == 1;
    if (probes_on) g_span_log.store(&spans);
    phase.BeginRound();
    run_round(r, rng, &phase);
    phase.EndRound();
    g_span_log.store(nullptr);
    probes_on = false;
  }
  ProbeReading after = ReadProbes(nullptr, store.asei.get());
  if (store.engine->dataset().default_graph().size() != gen.triples + 2 * kStoresPerRound) {
    out.Wrong("the graph did not keep the sweep plus the ring's triples");
  }
  Log("%-16s %8s %10s %10s %10s", "reads", "count", "p50_ms", "p99_ms", "total_ms");
  for (const auto& [kind, k] : per_kind) {
    Log("%-16s %8zu %10.3f %10.3f %10.1f", kind.c_str(), k.size(), k.Quantile(0.5),
        k.Quantile(0.99), k.Sum());
  }
  Log("%-16s %8zu %10.3f %10.3f %10.1f", "replace result", phase.updates.size(),
      phase.updates.Quantile(0.5), phase.updates.Quantile(0.99), phase.updates.Sum());
  if (args.trace) {
    SplitBgpTime(&layers, [&](const std::string& text) {
      scisparql::obs::QueryTrace trace;
      QueryRequest req(text);
      req.trace_sink = &trace;
      return session->Execute(req).ok() ? trace.Render() : std::string();
    });
  }

  out.Set("setup_s", Median(setup_s), "s");
  out.Set("load_triples_per_s", gen.triples / Median(setup_s), "triples/s");
  out.Set("rss_bytes_per_triple",
          static_cast<double>(rss_after > rss_before ? rss_after - rss_before : 0) /
              gen.triples,
          "B/triple");
  out.Set("cold_pass_ms", Median(cold_ms), "ms");
  ReportEndToEnd(phase, &out);

  // Recovery: the time to the first answer over every trajectory after a
  // restart. Reopen the relational database, re-attach its schema, re-open
  // a proxy for each of the sweep's arrays (ids 1..tasks, stored first) and
  // take its whole-array mean (the back-end aggregates in place) from a
  // cold buffer pool; the means must match, and every derived result in
  // the ring must read back exactly.
  std::vector<std::pair<scisparql::ArrayId, NumericArray>> derived;
  for (const Slot& slot : ring) {
    auto proxy = std::dynamic_pointer_cast<const scisparql::ArrayProxy>(slot.value.array());
    if (slot.round < 0 || proxy == nullptr) {
      out.Wrong("ring slot holds no stored result");
      continue;
    }
    derived.emplace_back(proxy->array_id(), slot.array);
  }
  session.reset();
  store.Reset();
  std::vector<double> want_means;
  for (const TaskRef& t : tasks) want_means.push_back(t.mean_all);
  std::sort(want_means.begin(), want_means.end());
  std::vector<double> recovery;
  for (int i = 0; i < kRecoveries; ++i) {
    std::string error;
    double t0 = NowMs();
    Store reopened = OpenStore(db_path, &error);
    std::vector<double> means;
    for (int id = 1; error.empty() && id <= gen.tasks; ++id) {
      Result<scisparql::Term> proxy =
          reopened.engine->OpenStoredArray("relational", static_cast<scisparql::ArrayId>(id));
      Result<double> v = proxy.ok() ? proxy->array()->Aggregate(scisparql::AggOp::kAvg)
                                    : Result<double>(proxy.status());
      if (!v.ok()) {
        error = v.status().ToString();
        break;
      }
      means.push_back(*v);
    }
    recovery.push_back((NowMs() - t0) / 1000);
    std::sort(means.begin(), means.end());
    bool means_ok = error.empty() && means.size() == want_means.size();
    for (size_t k = 0; means_ok && k < means.size(); ++k) means_ok = Close(means[k], want_means[k]);
    if (!means_ok) out.Wrong("array means differ after reopen " + error);
    for (const auto& [id, want] : derived) {
      Result<scisparql::Term> proxy = reopened.engine->OpenStoredArray("relational", id);
      Result<NumericArray> back = proxy.ok() ? proxy->array()->Materialize()
                                             : Result<NumericArray>(proxy.status());
      if (!back.ok() || !SameArray(*back, want, "derived result").empty()) {
        out.Wrong("derived result differs after reopen");
      }
    }
    reopened.Reset();
  }
  out.Set("recovery_s", Median(recovery), "s");

  if (args.trace) {
    layers.timed_queries = phase.queries.size();
    layers.updates = phase.updates.size();
    ReportLayers(layers, before, after, before, after, spans, &out);
    spans.WriteJson(TracePath(args));
  }
  return out;
}

}  // namespace perfbench
