#include "harness.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <filesystem>
#include <fstream>

namespace perfbench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> sorted = v_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

size_t TrimmedRssBytes() {
  malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  size_t pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return pages_resident * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

void Outcome::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Outcome::Wrong(const std::string& what) {
  if (correct) Log("WRONG ANSWER: %s", what.c_str());
  correct = false;
}

void PrintResult(const Outcome& out) {
  std::string s = "{\"correct\": ";
  s += out.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    char num[64];
    double v = std::isfinite(m.value) ? m.value : 0;
    std::snprintf(num, sizeof(num), "%.9g", v);
    if (i > 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit +
         "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

void Log(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

double CalibrationLoopMs() {
  double t0 = NowMs();
  uint64_t s = 0x9e3779b97f4a7c15ULL;
  uint64_t acc = 0;
  for (long i = 0; i < 100000000; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    acc += s & 0xff;
  }
  double ms = NowMs() - t0;
  if (acc == 42) Log("unlikely");  // keeps the loop from being elided
  return ms;
}

double CalibrationMemoryMs() {
  // Sattolo's shuffle makes one cycle through all slots, so the walk
  // touches every cache line in a fixed pseudo-random order.
  constexpr uint32_t kSlots = 8u << 20;
  std::vector<uint32_t> next(kSlots);
  for (uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  Rng rng(12345);
  for (uint32_t i = kSlots - 1; i > 0; --i) std::swap(next[i], next[rng.Below(i)]);
  double t0 = NowMs();
  uint32_t at = 0;
  for (int step = 0; step < (4 << 20); ++step) at = next[at];
  double ms = NowMs() - t0;
  if (at == kSlots) Log("unlikely");  // keeps the walk from being elided
  return ms;
}

}  // namespace perfbench
