// cdsbench: the checker's benchmark runner (see perfbench/README.md).
//
//   cdsbench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//
// Sets up the workload's inputs from the seed, then runs passes over them
// for about S seconds (at least three untraced passes, or one untraced and
// one traced pass with --trace 1). Every verdict is checked against its
// known answer. Human-readable lines go first; the last line of standard
// output is one JSON object with `correct`, `attempted`, `failed` and
// `metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Exits 1 when any verdict was wrong, 2 on a usage error.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "layers.h"
#include "workloads.h"

namespace {

using perfbench::Clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
};

// Units of every metric, as declared in BENCHMARK.json.
const std::map<std::string, const char*>& units() {
  static const std::map<std::string, const char*> u = {
      {"verdict_s", "s"},
      {"cpu_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"setup_s", "s"},
      {"mc.self_s", "s"},
      {"mc.us_per_exec", "us"},
      {"mc.executions", "count"},
      {"mc.feasible", "count"},
      {"mc.useful_ratio", "ratio"},
      {"mc.rf_infeasible", "count"},
      {"mc.pruned_redundant", "count"},
      {"mc.pruned_livelock", "count"},
      {"mc.ops_per_exec", "count"},
      {"engine.schedule_choice_points", "count"},
      {"engine.rf_choice_points", "count"},
      {"engine.rf_candidates", "count"},
      {"engine.rf_wait_choices", "count"},
      {"mc.arena_peak_bytes", "bytes"},
      {"mc.explores", "count"},
      {"mc.explore_fixed_us", "us"},
      {"fiber.switch_ns", "ns"},
      {"fiber.est_share", "ratio"},
      {"spec.self_s", "s"},
      {"spec.share", "ratio"},
      {"spec.us_per_check", "us"},
      {"spec.histories", "count"},
      {"spec.justifications", "count"},
      {"spec.cap_hits", "count"},
      {"shard.units", "count"},
      {"shard.probe_s", "s"},
      {"shard.probe_executions", "count"},
      {"shard.largest_share", "ratio"},
      {"shard.worker_busy_share", "ratio"},
      {"shard.crashed", "count"},
      {"fuzz.trials", "count"},
      {"fuzz.oracle_checks", "count"},
      {"fuzz.skipped", "count"},
      {"fuzz.generate_s", "s"},
      {"fuzz.dfs_s", "s"},
      {"fuzz.sampling_s", "s"},
      {"fuzz.sc_enum_s", "s"},
      {"fuzz.metamorphic_s", "s"},
      {"fail_ratio", "ratio"},
      {"trace.overhead_share", "ratio"},
      {"trace.accounted_share", "ratio"},
  };
  return u;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "cdsbench: %s\nusage: cdsbench --workload "
               "fig7_rf|fig7_schedule|fig7_jobs4|fuzz_oracles --seed N "
               "--seconds S --trace 0|1 [--smoke]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("invalid value for --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0) ||
          a.seconds > 120.0) {
        usage("invalid value for --seconds");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("invalid value for --trace");
      a.trace = v == "1" ? 1 : 0;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.seconds == 0.0 || a.trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

std::string json_metrics(const std::map<std::string, double>& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : values) {
    char number[32];
    std::snprintf(number, sizeof number, "%.17g", value);
    out += std::string(first ? "" : ", ") + "\"" + name +
           "\": {\"value\": " + number + ", \"unit\": \"" + units().at(name) +
           "\"}";
    first = false;
  }
  return out + "}";
}

int host_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

int run(const Args& args) {
  // Set-up, repeated so its median is stable: build the inputs from the
  // seed and calibrate the fiber switch.
  const int setup_reps = args.smoke ? 1 : 5;
  const std::uint64_t round_trips = args.smoke ? 20000 : 200000;
  std::vector<double> setup_s;
  std::vector<double> switch_ns;
  std::optional<perfbench::Workload> w;
  for (int i = 0; i < setup_reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    w.emplace(args.workload, args.seed, args.smoke);
    switch_ns.push_back(perfbench::calibrate_switch_ns(round_trips));
    setup_s.push_back(perfbench::seconds_between(t0, Clock::now()));
  }

  // Passes: untraced only, or alternating untraced/traced pairs. A pass
  // starts only while the previous one suggests it ends within budget.
  const bool traced_run = args.trace == 1;
  const int min_passes = traced_run ? 2 : (args.smoke ? 1 : 3);
  std::vector<perfbench::PassResult> plain;
  std::vector<perfbench::PassResult> traced;
  const Clock::time_point start = Clock::now();
  double next_s = 0.0;  // expected cost of the next pass (or pair)
  // Peak RSS as a user running the workload once sees it: the process's
  // high-water mark keeps growing over repeated passes, so a later reading
  // would depend on how many passes fit into --seconds.
  double rss_mb = 0.0;
  for (int n = 0;; ++n) {
    const bool trace_this = traced_run && n % 2 == 1;
    const Clock::time_point t0 = Clock::now();
    if (!trace_this && n >= min_passes &&
        perfbench::seconds_between(start, t0) + next_s > args.seconds) {
      break;
    }
    perfbench::PassResult p = w->run(trace_this);
    const double took = perfbench::seconds_between(t0, Clock::now());
    if (n == 0) rss_mb = perfbench::peak_rss_mb();
    next_s = trace_this ? next_s + took : took;
    (trace_this ? traced : plain).push_back(std::move(p));
  }

  // Known answers: every row of every pass, plus (traced) exact agreement
  // of the traced passes' counts with the untraced ones.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto check_rows = [&](const perfbench::PassResult& p, const char* kind) {
    for (const perfbench::RowResult& r : p.rows) {
      ++attempted;
      if (!r.ok) {
        ++failed;
        std::fprintf(stderr, "cdsbench: WRONG VERDICT (%s pass) %s %s: %s\n",
                     kind, r.name.c_str(), r.mode.c_str(), r.problem.c_str());
      }
    }
  };
  for (const auto& p : plain) check_rows(p, "untraced");
  for (const auto& p : traced) check_rows(p, "traced");
  for (const auto& p : traced) {
    for (std::size_t i = 0; i < p.rows.size(); ++i) {
      const perfbench::RowResult& want = plain.front().rows[i];
      if (p.rows[i].signature != want.signature) {
        ++failed;
        std::fprintf(stderr,
                     "cdsbench: traced pass diverged on %s: %s (untraced: "
                     "%s)\n",
                     want.name.c_str(), p.rows[i].signature.c_str(),
                     want.signature.c_str());
      }
    }
  }
  if (traced_run && w->is_fuzz()) {
    for (const std::string& d : w->verify_replicas()) {
      ++attempted;
      ++failed;
      std::fprintf(stderr, "cdsbench: traced oracle DFS diverged: %s\n",
                   d.c_str());
    }
  }

  // Human-readable report: one line per row, then the pass timings.
  const int cpus = host_cpus();
  const perfbench::PassResult& ref = plain.front();
  if (w->is_fuzz()) {
    std::vector<double> trial_s;
    for (const auto& p : plain) {
      for (const auto& r : p.rows) trial_s.push_back(r.seconds);
    }
    std::vector<double> pass_s;
    for (const auto& p : plain) pass_s.push_back(p.verdict_s);
    std::printf("row %s campaign mode=oracles trials=%zu seconds=%.4f cpus=%d\n",
                args.workload.c_str(), ref.rows.size(),
                perfbench::median(pass_s), cpus);
    std::printf("trial latency: %s\n", perfbench::describe(trial_s, "s").c_str());
  } else {
    for (std::size_t i = 0; i < ref.rows.size(); ++i) {
      std::vector<double> secs;
      for (const auto& p : plain) secs.push_back(p.rows[i].seconds);
      const perfbench::RowResult& r = ref.rows[i];
      std::printf("row %s %s mode=%s executions=%" PRIu64 " feasible=%" PRIu64
                  " rf_infeasible=%" PRIu64 " seconds=%.4f cpus=%d",
                  args.workload.c_str(), r.name.c_str(), r.mode.c_str(),
                  r.executions, r.feasible, r.rf_infeasible,
                  perfbench::median(secs), cpus);
      if (!traced.empty() && traced.front().rows[i].largest_share >= 0.0) {
        std::printf(" largest_share=%.4f", traced.front().rows[i].largest_share);
      }
      std::printf("\n");
    }
  }
  std::vector<double> verdict_s;
  std::vector<double> cpu_s;
  for (const auto& p : plain) {
    verdict_s.push_back(p.verdict_s);
    cpu_s.push_back(p.cpu_s);
  }
  std::printf("verdict_s: %s\n", perfbench::describe(verdict_s, "s").c_str());
  std::printf("passes:");
  for (double s : verdict_s) std::printf(" %.4f", s);
  std::printf("\n");
  std::printf("cpu_s: %s\n", perfbench::describe(cpu_s, "s").c_str());
  std::printf("setup_s: %s\n", perfbench::describe(setup_s, "s").c_str());
  std::printf("fail_ratio: %" PRIu64 "/%" PRIu64 "\n", failed, attempted);
  std::printf("host: cpus=%d jobs=%d\n", cpus, perfbench::kJobs);

  std::map<std::string, double> metrics;
  const double fail_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  if (!traced_run) {
    metrics["verdict_s"] = perfbench::median(verdict_s);
    metrics["cpu_s"] = perfbench::median(cpu_s);
    metrics["peak_rss_mb"] = rss_mb;
    metrics["setup_s"] = perfbench::median(setup_s);
  } else {
    // Per-layer metrics: medians over the traced passes.
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> traced_s;
    for (const auto& p : traced) {
      traced_s.push_back(p.verdict_s);
      for (const auto& [k, v] :
           p.layers.metrics(p.verdict_s, perfbench::median(switch_ns),
                            w->is_fuzz())) {
        samples[k].push_back(v);
      }
    }
    for (const auto& [k, v] : samples) metrics[k] = perfbench::median(v);
    metrics["fail_ratio"] = fail_ratio;
    const double untraced = perfbench::median(verdict_s);
    metrics["trace.overhead_share"] =
        (perfbench::median(traced_s) - untraced) / untraced;
    std::printf("traced verdict_s: %s\n",
                perfbench::describe(traced_s, "s").c_str());
    for (const auto& [k, v] : metrics) {
      std::printf("layer %s = %.6g %s\n", k.c_str(), v, units().at(k));
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": %s}\n",
      failed == 0 ? "true" : "false", attempted, failed,
      json_metrics(metrics).c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cdsbench: %s\n", e.what());
    return 2;
  }
}
