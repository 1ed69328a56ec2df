// Benchmark program entry point:
//   perfbench --workload <spb_query|bistab_relational>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//   perfbench --calibrate
// Prints progress on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones. The
// exit code is 0 only when every answer was right and no operation failed.
#include <set>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

const std::set<std::string> kEndToEnd = {
    "setup_s",      "load_triples_per_s", "rss_bytes_per_triple", "cold_pass_ms",
    "query_qps",    "query_p50_ms",       "query_p99_ms",         "update_qps",
    "update_p50_ms", "update_p99_ms",     "recovery_s"};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <spb_query|bistab_relational> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n"
               "       perfbench --calibrate\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--calibrate") {
      double cpu = CalibrationLoopMs();
      double mem = CalibrationMemoryMs();
      std::printf("{\"calibration_ms\": %.3f, \"calibration_mem_ms\": %.3f}\n", cpu, mem);
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::stoull(v);
    } else if (a == "--seconds") {
      args.seconds = std::stod(v);
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--work-dir") {
      args.work_dir = v;
    } else {
      return Usage();
    }
  }
  Outcome (*run)(const Args&) = nullptr;
  if (args.workload == "spb_query") run = RunSpbQuery;
  if (args.workload == "bistab_relational") run = RunBistabRelational;
  if (run == nullptr) return Usage();

  ResetDir(args.work_dir);
  double t0 = NowMs();
  Outcome out = run(args);
  Log("%s seed=%llu trace=%d finished in %.1f s", args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0, (NowMs() - t0) / 1000);

  // Keep exactly the metric family the mode reports.
  std::vector<Metric> kept;
  for (const Metric& m : out.metrics) {
    Log("  %-28s %14.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    if ((kEndToEnd.count(m.name) > 0) != args.trace) kept.push_back(m);
  }
  out.metrics = kept;
  PrintResult(out);
  if (!out.correct || out.failed > 0) {
    Log("%s: %s", args.workload.c_str(), out.correct ? "operations failed" : "wrong answers");
    return 1;
  }
  return 0;
}
