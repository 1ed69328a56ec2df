#include "probes.h"

#include <chrono>
#include <fstream>
#include <sstream>

#include "harness.h"
#include "obs/metrics.h"

namespace perfbench {

using scisparql::Result;
using scisparql::Status;
namespace storage = scisparql::storage;

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// Records a probe span under the calling thread's current request.
void ProbeSpan(const char* name, uint64_t start_ns, uint64_t end_ns) {
  SpanLog* log = g_span_log.load(std::memory_order_acquire);
  if (log == nullptr) return;
  const SpanContext& ctx = CurrentSpan();
  log->Add(name, ctx.span, ctx.request, start_ns / 1e6, end_ns / 1e6);
}

}  // namespace

// ---------------------------------------------------------------------------

std::atomic<SpanLog*> g_span_log{nullptr};

SpanContext& CurrentSpan() {
  thread_local SpanContext ctx;
  return ctx;
}

uint64_t SpanLog::Add(std::string name, uint64_t parent, uint64_t request,
                      double start_ms, double end_ms) {
  uint64_t id = NextId();
  Record({id, parent, request, std::move(name), start_ms, end_ms});
  return id;
}

void SpanLog::Record(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::map<std::string, SpanLog::Totals> SpanLog::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, double> child_ms;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ms[s.parent] += s.end_ms - s.start_ms;
  }
  std::map<std::string, Totals> out;
  for (const Span& s : spans_) {
    double dur = s.end_ms - s.start_ms;
    Totals& t = out[s.name];
    t.total_ms += dur;
    auto it = child_ms.find(s.id);
    t.self_ms += dur - (it == child_ms.end() ? 0 : it->second);
    ++t.count;
  }
  return out;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  if (!f) return false;
  f << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char times[96];
    std::snprintf(times, sizeof(times), "\"start_ms\": %.6f, \"end_ms\": %.6f",
                  s.start_ms, s.end_ms);
    f << "{\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"request\": " << s.request << ", \"name\": " << JsonString(s.name)
      << ", " << times << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]\n";
  return static_cast<bool>(f);
}

ScopedSpan::ScopedSpan(const char* name, bool new_request)
    : log_(g_span_log.load(std::memory_order_acquire)), name_(name) {
  if (log_ == nullptr) return;
  SpanContext& ctx = CurrentSpan();
  saved_ = ctx;
  id_ = log_->NextId();
  if (new_request) ctx.request = id_;
  ctx.span = id_;
  start_ms_ = NowMs();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  double end = NowMs();
  SpanContext& ctx = CurrentSpan();
  uint64_t request = ctx.request;
  ctx = saved_;
  // The reserved id is the one children recorded meanwhile point at.
  log_->Record({id_, saved_.span, request, name_, start_ms_, end});
}

// ---------------------------------------------------------------------------

namespace {

class CountingFile : public storage::VfsFile {
 public:
  CountingFile(std::unique_ptr<storage::VfsFile> base, CountingVfs* vfs, bool wal)
      : base_(std::move(base)), vfs_(vfs), wal_(wal) {}

  Result<size_t> ReadAt(uint64_t off, void* buf, size_t n) override {
    return base_->ReadAt(off, buf, n);
  }
  Status WriteAt(uint64_t off, const void* buf, size_t n) override {
    if (!wal_) return base_->WriteAt(off, buf, n);
    uint64_t t0 = NowNs();
    Status st = base_->WriteAt(off, buf, n);
    uint64_t t1 = NowNs();
    vfs_->wal_writes.fetch_add(1, std::memory_order_relaxed);
    vfs_->wal_bytes.fetch_add(n, std::memory_order_relaxed);
    vfs_->wal_write_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    ProbeSpan("storage.wal_write", t0, t1);
    return st;
  }
  Result<uint64_t> Size() override { return base_->Size(); }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Sync() override {
    uint64_t t0 = NowNs();
    Status st = base_->Sync();
    uint64_t t1 = NowNs();
    vfs_->syncs.fetch_add(1, std::memory_order_relaxed);
    vfs_->sync_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    ProbeSpan("storage.fsync", t0, t1);
    return st;
  }

 private:
  std::unique_ptr<storage::VfsFile> base_;
  CountingVfs* vfs_;
  bool wal_;
};

}  // namespace

Result<std::unique_ptr<storage::VfsFile>> CountingVfs::Open(const std::string& path,
                                                            OpenMode mode) {
  Result<std::unique_ptr<storage::VfsFile>> f = base_->Open(path, mode);
  if (!f.ok()) return f;
  size_t slash = path.find_last_of('/');
  bool wal = path.compare(slash == std::string::npos ? 0 : slash + 1, 4, "wal-") == 0;
  return std::unique_ptr<storage::VfsFile>(
      std::make_unique<CountingFile>(std::move(*f), this, wal));
}

CountingVfs::Counts CountingVfs::Snapshot() const {
  Counts c;
  c.syncs = syncs.load();
  c.sync_ms = sync_ns.load() / 1e6;
  c.wal_writes = wal_writes.load();
  c.wal_bytes = wal_bytes.load();
  c.wal_write_ms = wal_write_ns.load() / 1e6;
  return c;
}

// ---------------------------------------------------------------------------

uint64_t CountingStorage::Counts::CallsTotal() const {
  uint64_t n = 0;
  for (uint64_t c : calls) n += c;
  return n;
}

double CountingStorage::Counts::MsTotal() const {
  double t = 0;
  for (double m : ms) t += m;
  return t;
}

CountingStorage::Counts CountingStorage::Snapshot() const {
  Counts c;
  for (int m = 0; m < kMethods; ++m) {
    c.calls[m] = calls_[m].load();
    c.ms[m] = ns_[m].load() / 1e6;
  }
  c.bytes = bytes_.load();
  return c;
}

void CountingStorage::Count(Method m, uint64_t ns) const {
  calls_[m].fetch_add(1, std::memory_order_relaxed);
  ns_[m].fetch_add(ns, std::memory_order_relaxed);
}

namespace {
const char* kMethodSpan[] = {"storage.asei.store",        "storage.asei.get_meta",
                             "storage.asei.fetch_chunks", "storage.asei.fetch_intervals",
                             "storage.asei.aggregate",    "storage.asei.remove"};
}  // namespace

#define PERFBENCH_TIMED(method, expr)       \
  uint64_t t0 = NowNs();                    \
  auto result = (expr);                     \
  uint64_t t1 = NowNs();                    \
  Count(method, t1 - t0);                   \
  ProbeSpan(kMethodSpan[method], t0, t1);   \
  return result

Result<scisparql::ArrayId> CountingStorage::Store(const scisparql::NumericArray& array,
                                                  int64_t chunk_elems) {
  PERFBENCH_TIMED(kStore, base_->Store(array, chunk_elems));
}

Result<scisparql::StoredArrayMeta> CountingStorage::GetMeta(scisparql::ArrayId id) const {
  PERFBENCH_TIMED(kGetMeta, base_->GetMeta(id));
}

Status CountingStorage::FetchChunks(
    scisparql::ArrayId id, std::span<const uint64_t> chunk_ids,
    const std::function<void(uint64_t, const uint8_t*, size_t)>& cb) {
  auto counting = [&](uint64_t c, const uint8_t* p, size_t n) {
    bytes_.fetch_add(n, std::memory_order_relaxed);
    cb(c, p, n);
  };
  PERFBENCH_TIMED(kFetchChunks, base_->FetchChunks(id, chunk_ids, counting));
}

Status CountingStorage::FetchIntervals(
    scisparql::ArrayId id, std::span<const scisparql::relstore::Interval> intervals,
    const std::function<void(uint64_t, const uint8_t*, size_t)>& cb) {
  auto counting = [&](uint64_t c, const uint8_t* p, size_t n) {
    bytes_.fetch_add(n, std::memory_order_relaxed);
    cb(c, p, n);
  };
  PERFBENCH_TIMED(kFetchIntervals, base_->FetchIntervals(id, intervals, counting));
}

Result<double> CountingStorage::AggregateWhole(scisparql::ArrayId id,
                                               scisparql::AggOp op) {
  PERFBENCH_TIMED(kAggregate, base_->AggregateWhole(id, op));
}

Status CountingStorage::Remove(scisparql::ArrayId id) {
  PERFBENCH_TIMED(kRemove, base_->Remove(id));
}

#undef PERFBENCH_TIMED

// ---------------------------------------------------------------------------

MetricsSnapshot ReadMetrics() {
  MetricsSnapshot out;
  std::istringstream in(scisparql::obs::DefaultMetrics().RenderPrometheusText());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t sp = line.find_last_of(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

double MetricDelta(const MetricsSnapshot& before, const MetricsSnapshot& after,
                   const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
}

std::vector<TraceLine> ParseTrace(const std::string& rendered) {
  std::vector<TraceLine> out;
  std::istringstream in(rendered);
  std::string line;
  while (std::getline(in, line)) {
    size_t indent = line.find_first_not_of(' ');
    if (indent == std::string::npos) continue;
    TraceLine t;
    t.depth = static_cast<int>(indent / 2);
    size_t end = line.find("  ", indent);
    t.name = line.substr(indent, end == std::string::npos ? std::string::npos : end - indent);
    size_t w = line.find("wall=", indent);
    if (w != std::string::npos) t.wall_ms = std::strtod(line.c_str() + w + 5, nullptr);
    out.push_back(std::move(t));
  }
  return out;
}

double TraceWall(const std::vector<TraceLine>& lines, const std::string& name, int depth) {
  double sum = 0;
  for (const TraceLine& t : lines) {
    if (t.name == name && (depth < 0 || t.depth == depth)) sum += t.wall_ms;
  }
  return sum;
}

}  // namespace perfbench
