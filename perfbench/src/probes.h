// Outside-in layer probes: everything here wraps or reads the engine's public
// surface, so the engine itself carries no benchmark code.
//  - CountingVfs: a storage::Vfs decorator that counts and times fsyncs and
//    WAL writes, handed to SSDM::Open.
//  - CountingStorage: an ArrayStorage (ASEI) decorator that counts calls,
//    bytes and time per ASEI method.
//  - MetricsSnapshot: before/after diffs of the engine's METRICS counters.
//  - SpanLog: the traced run's own spans around layer calls.
//  - ParseTrace: the engine's rendered QueryTrace, as (name, depth, wall).
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/asei.h"
#include "storage/vfs.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark itself (traced runs only).

class SpanLog {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;   ///< 0 = a request root
    uint64_t request = 0;  ///< spans of one statement share this
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
  };

  /// Records a finished span.
  uint64_t Add(std::string name, uint64_t parent, uint64_t request,
               double start_ms, double end_ms);
  /// Records a span whose id was reserved with NextId().
  void Record(Span s);
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  /// Per span name: total duration and self time (duration minus the part
  /// covered by child spans), in ms, and the span count.
  struct Totals {
    double total_ms = 0;
    double self_ms = 0;
    uint64_t count = 0;
  };
  std::map<std::string, Totals> SelfTimes() const;

  /// Writes every span as a JSON array to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> next_id_{0};
};

/// The span log of the traced phase, or null when tracing is off. Probes
/// record spans only while it is set.
extern std::atomic<SpanLog*> g_span_log;

/// The request and span the calling thread is inside, so probe spans nest
/// under the statement that caused them.
struct SpanContext {
  uint64_t request = 0;
  uint64_t span = 0;
};
SpanContext& CurrentSpan();

/// Times a block as a span of the current request (no-op when tracing is
/// off). Nested ScopedSpans form a tree.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, bool new_request = false);
  ~ScopedSpan();

 private:
  SpanLog* log_;
  const char* name_;
  uint64_t id_ = 0;
  SpanContext saved_;
  double start_ms_ = 0;
};

// ---------------------------------------------------------------------------
// Storage probes.

class CountingVfs : public scisparql::storage::Vfs {
 public:
  explicit CountingVfs(scisparql::storage::Vfs* base) : base_(base) {}

  struct Counts {
    uint64_t syncs = 0;
    double sync_ms = 0;
    uint64_t wal_writes = 0;
    uint64_t wal_bytes = 0;
    double wal_write_ms = 0;
  };
  Counts Snapshot() const;

  scisparql::Result<std::unique_ptr<scisparql::storage::VfsFile>> Open(
      const std::string& path, OpenMode mode) override;
  scisparql::Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  scisparql::Status Remove(const std::string& path) override { return base_->Remove(path); }
  bool Exists(const std::string& path) override { return base_->Exists(path); }
  scisparql::Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  scisparql::Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }

  // Updated by the file handles.
  std::atomic<uint64_t> syncs{0};
  std::atomic<uint64_t> sync_ns{0};
  std::atomic<uint64_t> wal_writes{0};
  std::atomic<uint64_t> wal_bytes{0};
  std::atomic<uint64_t> wal_write_ns{0};

 private:
  scisparql::storage::Vfs* base_;
};

/// Forwarding ASEI decorator: keeps the wrapped back-end's name() and
/// pushdown capability, counts and times every call.
class CountingStorage : public scisparql::ArrayStorage {
 public:
  explicit CountingStorage(std::shared_ptr<scisparql::ArrayStorage> base)
      : base_(std::move(base)) {}

  enum Method { kStore, kGetMeta, kFetchChunks, kFetchIntervals, kAggregate, kRemove, kMethods };
  struct Counts {
    uint64_t calls[kMethods] = {};
    double ms[kMethods] = {};
    uint64_t bytes = 0;  ///< chunk payload bytes delivered to the engine
    uint64_t CallsTotal() const;
    double MsTotal() const;
  };
  Counts Snapshot() const;

  std::string name() const override { return base_->name(); }
  bool SupportsAggregatePushdown() const override {
    return base_->SupportsAggregatePushdown();
  }
  scisparql::Result<scisparql::ArrayId> Store(const scisparql::NumericArray& array,
                                              int64_t chunk_elems) override;
  scisparql::Result<scisparql::StoredArrayMeta> GetMeta(scisparql::ArrayId id) const override;
  scisparql::Status FetchChunks(
      scisparql::ArrayId id, std::span<const uint64_t> chunk_ids,
      const std::function<void(uint64_t, const uint8_t*, size_t)>& cb) override;
  scisparql::Status FetchIntervals(
      scisparql::ArrayId id, std::span<const scisparql::relstore::Interval> intervals,
      const std::function<void(uint64_t, const uint8_t*, size_t)>& cb) override;
  scisparql::Result<double> AggregateWhole(scisparql::ArrayId id,
                                           scisparql::AggOp op) override;
  scisparql::Status Remove(scisparql::ArrayId id) override;

 private:
  void Count(Method m, uint64_t ns) const;
  std::shared_ptr<scisparql::ArrayStorage> base_;
  mutable std::atomic<uint64_t> calls_[kMethods] = {};
  mutable std::atomic<uint64_t> ns_[kMethods] = {};
  std::atomic<uint64_t> bytes_{0};
};

// ---------------------------------------------------------------------------
// Engine-exported counters and traces.

/// The METRICS exposition parsed into sample name (with labels) -> value.
using MetricsSnapshot = std::map<std::string, double>;
MetricsSnapshot ReadMetrics();
/// after[name] - before[name] (missing samples read as 0).
double MetricDelta(const MetricsSnapshot& before, const MetricsSnapshot& after,
                   const std::string& name);

/// One line of a rendered scisparql::obs::QueryTrace.
struct TraceLine {
  std::string name;
  int depth = 0;
  double wall_ms = 0;
};
std::vector<TraceLine> ParseTrace(const std::string& rendered);
/// Sum of wall time of spans named `name` at `depth` (-1 = any depth).
double TraceWall(const std::vector<TraceLine>& lines, const std::string& name,
                 int depth = -1);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
