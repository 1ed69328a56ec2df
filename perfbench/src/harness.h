// Shared plumbing of the benchmark program: command-line arguments, seeded
// randomness, clocks, latency samples, resident memory, and the one-line
// JSON result the program prints last.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for stores, databases and trace files (inside the
  /// checkout, under the build directory).
  std::string work_dir = ".bench_build/work";
};

/// splitmix64: small, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL + 1) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) / 9007199254740992.0; }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

/// Monotonic wall clock in milliseconds.
double NowMs();

/// Latency samples of one operation type.
class Samples {
 public:
  void Add(double v) {
    v_.push_back(v);
    sum_ += v;
  }
  size_t size() const { return v_.size(); }
  double Sum() const { return sum_; }
  /// Nearest-rank quantile, q in (0, 1]; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<double> v_;
  double sum_ = 0;
};

double Median(std::vector<double> v);

/// Current resident set size of this process in bytes, after returning
/// freed heap pages to the kernel.
size_t TrimmedRssBytes();

/// A named measurement with its unit, printed in insertion order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: correctness, operation counts, and metrics.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit);
  /// Records a wrong answer: prints the message and clears `correct`.
  void Wrong(const std::string& what);
};

/// Prints the result object as one line of JSON on stdout.
void PrintResult(const Outcome& out);

/// Human-readable progress on stderr (stdout carries only the result).
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Removes a directory tree (no-op when absent) and recreates it.
void ResetDir(const std::string& dir);

/// Fixed, engine-independent loops, run beside benchmark runs to tell
/// drift of the machine from noise in the program: an arithmetic loop that
/// stays in registers, and a dependent random walk over 32 MiB, which
/// slows down when other tenants crowd the shared cache or memory bus.
/// Each returns its wall time in ms.
double CalibrationLoopMs();
double CalibrationMemoryMs();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
