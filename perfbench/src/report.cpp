#include <algorithm>

#include "rdf/graph.h"
#include "workloads.h"

namespace perfbench {

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void Phase::BeginRound() {
  queries_at_ = queries.size();
  updates_at_ = updates.size();
  query_ms_at_ = queries.Sum();
  update_ms_at_ = updates.Sum();
}

void Phase::EndRound() {
  query_rates.push_back(Ratio(static_cast<double>(queries.size() - queries_at_),
                              (queries.Sum() - query_ms_at_) / 1000));
  update_rates.push_back(Ratio(static_cast<double>(updates.size() - updates_at_),
                               (updates.Sum() - update_ms_at_) / 1000));
}

void ReportEndToEnd(const Phase& phase, Outcome* out) {
  const Samples& q = phase.queries;
  const Samples& u = phase.updates;
  out->Set("query_qps", Median(phase.query_rates), "queries/s");
  out->Set("query_p50_ms", q.Quantile(0.50), "ms");
  out->Set("query_p99_ms", q.Quantile(0.99), "ms");
  out->Set("update_qps", Median(phase.update_rates), "updates/s");
  out->Set("update_p50_ms", u.Quantile(0.50), "ms");
  out->Set("update_p99_ms", u.Quantile(0.99), "ms");
  for (const auto& [name, s] : {std::pair<const char*, const Samples*>{"queries", &q},
                                {"updates", &u}}) {
    Log("%-8s n=%zu  p50 %.4f  p90 %.4f  p95 %.4f  p98 %.4f  p99 %.4f  p99.5 %.4f ms", name,
        s->size(), s->Quantile(0.5), s->Quantile(0.9), s->Quantile(0.95), s->Quantile(0.98),
        s->Quantile(0.99), s->Quantile(0.995));
  }
  Log("%zu rounds; whole-phase rates %.1f queries/s, %.1f updates/s", phase.query_rates.size(),
      Ratio(static_cast<double>(q.size()), q.Sum() / 1000),
      Ratio(static_cast<double>(u.size()), u.Sum() / 1000));
  if (q.size() < 1000 || u.size() < 1000) Log("note: fewer than 1000 samples: p99 is no tail");
}

std::vector<TraceLine> LayerTally::AddTrace(const std::string& rendered,
                                            const std::string& bgp_text) {
  std::vector<TraceLine> lines = ParseTrace(rendered);
  ++statements;
  parse_ms += TraceWall(lines, "parse", 1);
  double plan = TraceWall(lines, "optimize");
  plan_ms += plan;
  serialize_ms += TraceWall(lines, "serialize", 1);
  probed.push_back({bgp_text, TraceWall(lines, "execute", 1), plan});
  return lines;
}

void SplitBgpTime(LayerTally* t,
                  const std::function<std::string(const std::string&)>& run_traced) {
  for (const LayerTally::Probed& p : t->probed) {
    std::vector<TraceLine> lines = ParseTrace(run_traced(p.bgp_text));
    double own = std::max(0.0, p.execute_ms - p.plan_ms);
    double bgp = std::min(own, TraceWall(lines, "execute", 1) - TraceWall(lines, "optimize"));
    t->bgp_ms += bgp;
    t->execute_self_ms += own - bgp;
  }
}

ProbeReading ReadProbes(const CountingVfs* vfs, const CountingStorage* asei) {
  ProbeReading r;
  r.metrics = ReadMetrics();
  if (vfs != nullptr) r.vfs = vfs->Snapshot();
  if (asei != nullptr) r.asei = asei->Snapshot();
  return r;
}

void ReportLayers(const LayerTally& t, const ProbeReading& before,
                  const ProbeReading& after, const ProbeReading& server_before,
                  const ProbeReading& server_after, const SpanLog& spans, Outcome* out) {
  auto delta = [&](const std::string& name) {
    return MetricDelta(before.metrics, after.metrics, name);
  };
  auto server_delta = [&](const std::string& name) {
    return MetricDelta(server_before.metrics, server_after.metrics, name);
  };
  double n = static_cast<double>(t.statements);

  out->Set("sparql.parse_ms", Ratio(t.parse_ms, n), "ms");
  out->Set("opt.plan_ms", Ratio(t.plan_ms, n), "ms");
  double hits = delta("ssdm_cache_plan_hits_total");
  double misses = delta("ssdm_cache_plan_misses_total");
  out->Set("cache.plan_hit_ratio", Ratio(hits, hits + misses), "ratio");
  out->Set("sparql.bgp_ms", Ratio(t.bgp_ms, n), "ms");
  out->Set("sparql.execute_self_ms", Ratio(t.execute_self_ms, n), "ms");
  out->Set("rdf.scan_rows_per_result",
           Ratio(delta("ssdm_rdf_scan_rows_total"), static_cast<double>(t.result_rows)),
           "rows/row");
  out->Set("rdf.perm_builds", static_cast<double>(t.perm_builds), "count");
  out->Set("rdf.perm_build_ms", Ratio(t.perm_build_ms, static_cast<double>(t.perm_builds)),
           "ms");
  out->Set("rdf.dict_bytes_per_triple", t.dict_bytes_per_triple, "B/triple");
  out->Set("rdf.delta_ops_peak", static_cast<double>(t.delta_ops_peak), "count");
  out->Set("loaders.turtle_ms", t.turtle_ms, "ms");
  double remote = static_cast<double>(t.remote_statements);
  out->Set("sparql.serialize_ms", Ratio(t.serialize_ms, remote), "ms");
  out->Set("client.wire_ms", Ratio(t.wire_ms, remote), "ms");

  double waits = server_delta("ssdm_sched_wait_micros_count");
  out->Set("sched.queue_wait_ms",
           Ratio(server_delta("ssdm_sched_wait_micros_sum") / 1000, waits), "ms");
  out->Set("sched.compactions", server_delta("ssdm_sched_compactions_total"), "count");

  double commits = static_cast<double>(t.updates);
  const CountingVfs::Counts& v = server_after.vfs;
  const CountingVfs::Counts& vfs_before = server_before.vfs;
  double syncs = static_cast<double>(v.syncs - vfs_before.syncs);
  out->Set("storage.fsyncs_per_commit", Ratio(syncs, commits), "fsyncs/commit");
  out->Set("storage.fsync_ms", Ratio(v.sync_ms - vfs_before.sync_ms, syncs), "ms");
  out->Set("storage.wal_write_ms", Ratio(v.wal_write_ms - vfs_before.wal_write_ms, commits),
           "ms");
  out->Set("storage.wal_bytes_per_triple",
           Ratio(static_cast<double>(v.wal_bytes - vfs_before.wal_bytes),
                 static_cast<double>(t.triples_written)),
           "B/triple");

  const CountingStorage::Counts& a = after.asei;
  const CountingStorage::Counts& asei_before = before.asei;
  double q = static_cast<double>(t.timed_queries);
  auto calls_of = [&](CountingStorage::Method m) { return a.calls[m] - asei_before.calls[m]; };
  auto ms_of = [&](CountingStorage::Method m) { return a.ms[m] - asei_before.ms[m]; };
  // Store and Remove are the write side; the rest is what reads cost.
  uint64_t stores = calls_of(CountingStorage::kStore);
  double store_ms = ms_of(CountingStorage::kStore);
  uint64_t calls = a.CallsTotal() - asei_before.CallsTotal() - stores -
                   calls_of(CountingStorage::kRemove);
  double asei_ms =
      a.MsTotal() - asei_before.MsTotal() - store_ms - ms_of(CountingStorage::kRemove);
  out->Set("storage.asei_calls_per_query", Ratio(static_cast<double>(calls), q), "calls/query");
  out->Set("storage.pushdowns",
           Ratio(static_cast<double>(calls_of(CountingStorage::kAggregate)), q),
           "calls/query");
  out->Set("storage.asei_ms", Ratio(asei_ms, q), "ms");
  out->Set("storage.asei_bytes_per_query",
           Ratio(static_cast<double>(a.bytes - asei_before.bytes), q), "B/query");
  out->Set("storage.store_ms", Ratio(store_ms, static_cast<double>(stores)), "ms");

  double pool_hits = delta("ssdm_buffer_pool_hits_total");
  double pool_misses = delta("ssdm_buffer_pool_misses_total");
  out->Set("relstore.pool_hit_ratio", Ratio(pool_hits, pool_hits + pool_misses), "ratio");
  out->Set("relstore.pool_misses", Ratio(pool_misses, q), "misses/query");

  double traced = Ratio(t.traced_latency.Sum(), t.traced_latency.size());
  double untraced = Ratio(t.untraced_latency.Sum(), t.untraced_latency.size());
  out->Set("trace.overhead_pct", untraced > 0 ? 100 * (traced - untraced) / untraced : 0,
           "%");

  Log("traced phase: %llu read statements, %llu updates",
      static_cast<unsigned long long>(t.statements),
      static_cast<unsigned long long>(t.updates));
  Log("%-32s %10s %12s %12s", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, tot] : spans.SelfTimes()) {
    Log("%-32s %10llu %12.3f %12.3f", name.c_str(),
        static_cast<unsigned long long>(tot.count), tot.total_ms, tot.self_ms);
  }
  Log("tracing overhead: traced mean %.4f ms vs untraced mean %.4f ms (%+.2f%%)", traced,
      untraced, untraced > 0 ? 100 * (traced - untraced) / untraced : 0.0);
}

std::string TracePath(const Args& args) {
  return args.work_dir + "-trace.json";
}

double DictBytesPerTriple(const scisparql::Graph& g) {
  const scisparql::TermDictionary& d = g.dict();
  double bytes = static_cast<double>(d.size() * sizeof(scisparql::Term) + d.string_bytes());
  return Ratio(bytes, static_cast<double>(g.size()));
}

}  // namespace perfbench
