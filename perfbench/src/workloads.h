// The two workloads, spb_query's server epilogue, and the per-layer
// bookkeeping they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "probes.h"
#include "rdf/graph.h"

namespace perfbench {

Outcome RunSpbQuery(const Args& args);
Outcome RunBistabRelational(const Args& args);

/// Per-layer figures gathered in a traced run. Every workload reports all
/// of them; a layer a workload bypasses reads (near) zero.
struct LayerTally {
  // Per read statement, from the engine's QueryTrace.
  uint64_t statements = 0;
  double parse_ms = 0;
  double plan_ms = 0;
  // Per remote read statement (RemoteSession to SsdmServer).
  uint64_t remote_statements = 0;
  double serialize_ms = 0;
  /// Execute time split by SplitBgpTime into the statement's basic graph
  /// pattern and the rest (paths, FILTER, OPTIONAL, aggregation, ORDER BY).
  double bgp_ms = 0;
  double execute_self_ms = 0;
  struct Probed {
    std::string bgp_text;
    double execute_ms = 0;
    double plan_ms = 0;
  };
  std::vector<Probed> probed;
  double wire_ms = 0;
  // Counter-based figures are normalised by the whole timed phase, traced
  // and untraced rounds alike (counters cost nothing to keep).
  uint64_t timed_queries = 0;
  uint64_t result_rows = 0;
  // Permutation builds seen by the PeekIdIndexes probe.
  uint64_t perm_builds = 0;
  double perm_build_ms = 0;
  size_t delta_ops_peak = 0;
  // Tracing overhead: mean statement latency in traced vs untraced rounds.
  Samples traced_latency;
  Samples untraced_latency;
  // Writes.
  uint64_t updates = 0;
  uint64_t triples_written = 0;
  double dict_bytes_per_triple = 0;
  double turtle_ms = 0;

  /// Records one probed statement from its rendered engine trace, with the
  /// text of its basic graph pattern alone; returns the parsed trace.
  std::vector<TraceLine> AddTrace(const std::string& rendered, const std::string& bgp_text);
};

/// The BGP probe pass: runs each probed statement's basic graph pattern
/// alone through `run_traced` (which returns the rendered trace, or "" on
/// failure) and splits the statement's execute time into BGP time (capped
/// at the execute time less planning) and the remainder.
void SplitBgpTime(LayerTally* t,
                  const std::function<std::string(const std::string&)>& run_traced);

/// Latency samples and per-round rates of the timed phase.
struct Phase {
  Samples queries;
  Samples updates;
  /// Per round, each side's operations per second of its own call time
  /// (the benchmark's answer checks run outside the timed calls).
  std::vector<double> query_rates;
  std::vector<double> update_rates;

  /// Brackets one round; EndRound records the rates of the samples the
  /// round added.
  void BeginRound();
  void EndRound();

 private:
  size_t queries_at_ = 0, updates_at_ = 0;
  double query_ms_at_ = 0, update_ms_at_ = 0;
};

/// Adds the end-to-end metrics of the timed phase: latency quantiles pooled
/// over every sample, rates as the median round's. Logs the latency tails
/// to stderr.
void ReportEndToEnd(const Phase& phase, Outcome* out);

/// Counter readings at one point of a run: the engine's METRICS and the
/// storage probes (zero where a workload has no such probe).
struct ProbeReading {
  MetricsSnapshot metrics;
  CountingVfs::Counts vfs;
  CountingStorage::Counts asei;
};
ProbeReading ReadProbes(const CountingVfs* vfs, const CountingStorage* asei);

/// Emits every per-layer metric from the tally and the probe deltas, then
/// prints the span log's self times to stderr. Engine, ASEI and buffer-pool
/// counters come from the `before`/`after` pair; scheduler and WAL ones from
/// the `server_*` pair (the same pair where one phase serves both).
void ReportLayers(const LayerTally& t, const ProbeReading& before,
                  const ProbeReading& after, const ProbeReading& server_before,
                  const ProbeReading& server_after, const SpanLog& spans, Outcome* out);

/// spb_query's server epilogue: the SP²Bench graph in a durable store
/// behind SsdmServer, a fixed number of lock-step rounds of two reader and
/// two writer connections, then the store reopened (server_epilogue.cpp).
/// Layer probes are on in traced runs.
struct ServerRun {
  std::vector<double> recovery_s;
  ProbeReading before, after;  ///< around the rounds
};
ServerRun RunServer(const Args& args, Outcome* out, LayerTally* layers, SpanLog* spans);

/// Where a traced run writes its span file: beside the work directory,
/// which is removed after the run.
std::string TracePath(const Args& args);

/// Bytes per triple held by a graph's term dictionary: one Term slot per
/// interned term plus the terms' heap strings.
double DictBytesPerTriple(const scisparql::Graph& g);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
