// Parallel exploration scaling: exhaustive DFS behavior collection on two
// widened seed litmus shapes at --jobs 1/2/4/8, reported as executions/sec
// and speedup over the serial run (BENCH_parallel.json).
//
// The sharded run enumerates exactly the serial run's executions (disjoint
// subtree prefixes; see src/mc/shard.h), so speedup is pure wall-clock —
// the bench asserts the execution counts and behavior sets agree before
// reporting. The host CPU count is recorded alongside: on a single-core
// container the workers serialize and speedup ~1x is the honest result;
// the nightly CI runners are multi-core.
//
// A distributed point (--dist-workers analog: socket coordinator plus
// forked workers, src/dist/) is appended per shape and held to the same
// bar: merged executions must equal the serial count with zero failed
// shards, so the nightly artifact tracks protocol overhead honestly.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "bench/bench_shapes.h"
#include "dist/coordinator.h"
#include "fuzz/oracle.h"
#include "fuzz/program.h"
#include "harness/runner.h"

namespace {

using cds_bench::Shape;

struct Point {
  int jobs;
  double seconds;
  double execs_per_sec;
  double speedup;
  std::uint64_t executions;
};

int cpu_count() {
#if defined(__unix__) || defined(__APPLE__)
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
#else
  return 1;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_parallel.json";
  const int jobs_axis[] = {1, 2, 4, 8};
  const int ncpu = cpu_count();

  std::string json = "{\n";
  json += "  \"bench\": \"parallel_scaling\",\n";
  json += "  \"cpus\": " + std::to_string(ncpu) + ",\n";
  json += "  \"shapes\": [\n";

  bool first_shape = true;
  for (const Shape& s : cds_bench::kBenchShapes) {
    cds::fuzz::Program p;
    std::string err;
    if (!cds::fuzz::Program::parse(s.text, &p, &err)) {
      std::fprintf(stderr, "parallel_scaling: bad shape %s: %s\n", s.name,
                   err.c_str());
      return 1;
    }
    std::printf("%s:\n", s.name);
    std::vector<Point> points;
    cds::fuzz::McBehaviors serial;
    // One untimed serial run first: otherwise the jobs=1 point alone pays
    // the process's first-touch costs and every speedup reads high.
    (void)cds::fuzz::mc_behaviors(p, cds::fuzz::OracleConfig{});
    for (int jobs : jobs_axis) {
      cds::fuzz::OracleConfig cfg;
      cfg.jobs = jobs;
      auto t0 = std::chrono::steady_clock::now();
      cds::fuzz::McBehaviors r = cds::fuzz::mc_behaviors(p, cfg);
      auto t1 = std::chrono::steady_clock::now();
      double secs = std::chrono::duration<double>(t1 - t0).count();
      if (jobs == 1) {
        serial = r;
      } else if (r.behaviors != serial.behaviors ||
                 r.executions != serial.executions ||
                 r.exhausted != serial.exhausted) {
        std::fprintf(stderr,
                     "parallel_scaling: jobs=%d diverged from serial on %s\n",
                     jobs, s.name);
        return 1;
      }
      Point pt;
      pt.jobs = jobs;
      pt.seconds = secs;
      pt.executions = r.executions;
      pt.execs_per_sec = secs > 0 ? static_cast<double>(r.executions) / secs
                                  : 0.0;
      pt.speedup = points.empty() || secs <= 0
                       ? 1.0
                       : points.front().seconds / secs;
      points.push_back(pt);
      std::printf("  jobs=%d  %8llu execs  %7.3fs  %10.0f execs/s  %.2fx\n",
                  jobs, static_cast<unsigned long long>(r.executions), secs,
                  pt.execs_per_sec, pt.speedup);
    }

    // Distributed axis: the same shape through the socket
    // coordinator/worker path. The behavior set lives in the forked
    // workers' memory, so only the counter identity is checkable here;
    // the dist test suite covers the rest.
    const int dist_workers = 4;
    double dist_secs = 0.0;
    std::uint64_t dist_failed = 0;
    {
      std::vector<std::uint64_t> obs;
      cds::harness::Benchmark b;
      b.name = s.name;
      b.display = s.name;
      b.spec = nullptr;
      b.tests.push_back(p.test_fn(&obs));
      cds::harness::RunOptions opts;
      // The identity assertion below compares against the jobs=1 oracle
      // run, so the dist workers explore under the oracle's engine config.
      opts.engine = cds::fuzz::engine_config(cds::fuzz::OracleConfig{}, false);
      cds::dist::DistOptions d;
      d.dist_workers = dist_workers;
      auto t0 = std::chrono::steady_clock::now();
      cds::dist::DistRunResult r =
          cds::dist::run_benchmark_distributed(b, opts, d);
      auto t1 = std::chrono::steady_clock::now();
      dist_secs = std::chrono::duration<double>(t1 - t0).count();
      dist_failed = r.crashed_shards;
      if (r.merged.mc.executions != serial.executions ||
          r.merged.mc.exhausted != serial.exhausted ||
          r.crashed_shards != 0) {
        std::fprintf(stderr,
                     "parallel_scaling: dist-workers=%d diverged from serial "
                     "on %s (execs %llu vs %llu, failed shards %llu)\n",
                     dist_workers, s.name,
                     static_cast<unsigned long long>(r.merged.mc.executions),
                     static_cast<unsigned long long>(serial.executions),
                     static_cast<unsigned long long>(r.crashed_shards));
        return 1;
      }
      std::printf(
          "  dist=%d  %8llu execs  %7.3fs  %10.0f execs/s  %.2fx\n",
          dist_workers, static_cast<unsigned long long>(serial.executions),
          dist_secs,
          dist_secs > 0 ? static_cast<double>(serial.executions) / dist_secs
                        : 0.0,
          dist_secs > 0 && !points.empty()
              ? points.front().seconds / dist_secs
              : 1.0);
    }

    json += first_shape ? "    {\n" : "    ,{\n";
    first_shape = false;
    json += "      \"name\": \"" + std::string(s.name) + "\",\n";
    json += "      \"executions\": " + std::to_string(serial.executions) +
            ",\n";
    json += "      \"exhausted\": ";
    json += serial.exhausted ? "true" : "false";
    json += ",\n      \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      // More workers than cores: the point measures scheduling contention,
      // not parallel speedup. Flag it so BENCH_parallel.json consumers
      // (and the nightly regression check) stop reading sub-1.0 speedups
      // on saturated hosts as meaningful.
      const bool saturated = ncpu < points[i].jobs;
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "        {\"jobs\": %d, \"seconds\": %.4f, "
                    "\"execs_per_sec\": %.1f, \"speedup\": %.3f, "
                    "\"saturated\": %s}%s\n",
                    points[i].jobs, points[i].seconds,
                    points[i].execs_per_sec, points[i].speedup,
                    saturated ? "true" : "false",
                    i + 1 < points.size() ? "," : "");
      json += buf;
    }
    json += "      ],\n";
    {
      char buf[256];
      std::snprintf(
          buf, sizeof buf,
          "      \"distributed\": {\"workers\": %d, \"seconds\": %.4f, "
          "\"execs_per_sec\": %.1f, \"speedup\": %.3f, "
          "\"failed_shards\": %llu, \"saturated\": %s}\n",
          dist_workers, dist_secs,
          dist_secs > 0 ? static_cast<double>(serial.executions) / dist_secs
                        : 0.0,
          dist_secs > 0 && !points.empty()
              ? points.front().seconds / dist_secs
              : 1.0,
          static_cast<unsigned long long>(dist_failed),
          ncpu < dist_workers ? "true" : "false");
      json += buf;
    }
    json += "    }\n";
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "parallel_scaling: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
