// Reproduces paper Figure 7: per-benchmark exploration counts (total and
// feasible executions) and wall-clock time for the unit-test suites, with
// the paper's values printed for shape comparison.
//
//   figure7_perf                 schedule mode (the EXPERIMENTS.md table)
//   figure7_perf --json [PATH]   both --explore modes, then the rf rows
//                                again at --jobs 4, and writes PATH
//                                (default BENCH_figure7.json): per row and
//                                mode the executions, feasible executions,
//                                rf_infeasible terminals, seconds and
//                                execs/s; per --jobs 4 row the seconds,
//                                work units (planned plus minted by work
//                                stealing) and steals; plus the host's CPU
//                                count
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include <unistd.h>

#include "bench/paper_refs.h"
#include "ds/suite.h"
#include "harness/parallel.h"
#include "harness/runner.h"

namespace {

constexpr std::uint64_t kMaxExecutions = 2000000;

int cpu_count() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

// Prints one mode's table; appends its rows to `json` when non-null.
void run_mode(cds::mc::ExploreMode mode, std::string* json) {
  std::printf("\n--explore %s\n", cds::mc::to_string(mode));
  std::printf("%-20s | %12s %12s %9s | %12s %12s %9s\n", "Benchmark",
              "paper #Exec", "paper #Feas", "paper s", "ours #Exec",
              "ours #Feas", "ours s");
  std::printf("%.*s\n", 98,
              "--------------------------------------------------------------"
              "----------------------------------------");
  double total_secs = 0;
  for (const auto& row : cds::bench::kFigure7) {
    const auto* b = cds::harness::find_benchmark(row.benchmark);
    if (b == nullptr) {
      std::printf("%-20s | MISSING\n", row.display);
      continue;
    }
    cds::harness::RunOptions opts;
    opts.engine.max_executions = kMaxExecutions;
    opts.engine.explore = mode;
    auto r = cds::harness::run_benchmark(*b, opts);
    total_secs += r.mc.seconds;
    std::printf("%-20s | %12llu %12llu %9.2f | %12llu %12llu %9.2f%s\n",
                row.display,
                static_cast<unsigned long long>(row.paper_executions),
                static_cast<unsigned long long>(row.paper_feasible),
                row.paper_seconds,
                static_cast<unsigned long long>(r.mc.executions),
                static_cast<unsigned long long>(r.mc.feasible), r.mc.seconds,
                r.mc.violations_total != 0 ? "  [VIOLATIONS!]" : "");
    if (json == nullptr) continue;
    const double rate =
        r.mc.seconds > 0 ? static_cast<double>(r.mc.executions) / r.mc.seconds
                         : 0.0;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "%s    {\"benchmark\": \"%s\", \"explore\": \"%s\", "
        "\"verdict\": \"%s\", \"executions\": %llu, \"feasible\": %llu, "
        "\"rf_infeasible\": %llu, \"seconds\": %.3f, \"execs_per_s\": %.0f}",
        json->empty() ? "" : ",\n", row.benchmark, cds::mc::to_string(mode),
        cds::mc::to_string(r.verdict),
        static_cast<unsigned long long>(r.mc.executions),
        static_cast<unsigned long long>(r.mc.feasible),
        static_cast<unsigned long long>(r.mc.rf_infeasible), r.mc.seconds,
        rate);
    *json += buf;
  }
  std::printf("\nTotal wall-clock: %.2fs (paper: all benchmarks within 14s; "
              "9/10 within 5s)\n", total_secs);
}

// The rf rows through run_benchmark_parallel with 4 workers; appends the
// rows to `json`.
void run_jobs4(std::string* json) {
  constexpr int kJobs = 4;
  std::printf("\n--explore rf --jobs %d\n", kJobs);
  std::printf("%-20s | %12s %12s %9s | %8s %8s\n", "Benchmark", "#Exec",
              "#Feas", "s", "units", "steals");
  std::printf("%.*s\n", 80,
              "--------------------------------------------------------------"
              "------------------");
  for (const auto& row : cds::bench::kFigure7) {
    const auto* b = cds::harness::find_benchmark(row.benchmark);
    if (b == nullptr) continue;
    cds::harness::RunOptions opts;
    opts.engine.max_executions = kMaxExecutions;
    opts.engine.explore = cds::mc::ExploreMode::kRf;
    cds::harness::ParallelOptions par;
    par.jobs = kJobs;
    const auto t0 = std::chrono::steady_clock::now();
    const auto pr = cds::harness::run_benchmark_parallel(*b, opts, par);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const auto& r = pr.merged;
    std::printf("%-20s | %12llu %12llu %9.3f | %8llu %8llu\n", row.display,
                static_cast<unsigned long long>(r.mc.executions),
                static_cast<unsigned long long>(r.mc.feasible), secs,
                static_cast<unsigned long long>(pr.shards),
                static_cast<unsigned long long>(pr.steals));
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "%s    {\"benchmark\": \"%s\", \"explore\": \"rf\", \"jobs\": %d, "
        "\"verdict\": \"%s\", \"executions\": %llu, \"feasible\": %llu, "
        "\"rf_infeasible\": %llu, \"seconds\": %.3f, \"units\": %llu, "
        "\"steals\": %llu}",
        json->empty() ? "" : ",\n", row.benchmark, kJobs,
        cds::mc::to_string(r.verdict),
        static_cast<unsigned long long>(r.mc.executions),
        static_cast<unsigned long long>(r.mc.feasible),
        static_cast<unsigned long long>(r.mc.rf_infeasible), secs,
        static_cast<unsigned long long>(pr.shards),
        static_cast<unsigned long long>(pr.steals));
    *json += buf;
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json_mode = false;
  std::string out_path = "BENCH_figure7.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_mode = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: figure7_perf [--json [PATH]]\n");
      return 2;
    }
  }
  cds::ds::register_all_benchmarks();

  std::printf("Figure 7 — specification-checking performance\n");
  std::printf(
      "(paper columns from an Intel Xeon E3-1246 v3 running CDSChecker; our "
      "substrate\n is the operational explorer described in DESIGN.md — "
      "compare shapes, not values)\n");

  std::string rows;
  run_mode(cds::mc::ExploreMode::kSchedule, json_mode ? &rows : nullptr);
  if (!json_mode) return 0;
  run_mode(cds::mc::ExploreMode::kRf, &rows);
  std::string jobs4_rows;
  run_jobs4(&jobs4_rows);

  std::string json = "{\n";
  json += "  \"bench\": \"figure7_perf\",\n";
  json += "  \"cpus\": " + std::to_string(cpu_count()) + ",\n";
  json += "  \"max_executions\": " + std::to_string(kMaxExecutions) + ",\n";
  json += "  \"rows\": [\n" + rows + "\n  ],\n";
  json += "  \"jobs4_rows\": [\n" + jobs4_rows + "\n  ]\n}\n";
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "figure7_perf: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
