// cdsspec-run — command-line driver over the benchmark registry.
//
//   cdsspec-run --list
//   cdsspec-run <benchmark>                 run a benchmark's unit tests
//   cdsspec-run <benchmark> --inject <i>    weaken the i-th injectable site
//   cdsspec-run <benchmark> --sites         list the benchmark's sites
//   cdsspec-run <benchmark> --sweep         run the injection experiment
//   cdsspec-run --replay-trail <file>       re-execute one recorded execution
//   cdsspec-run --worker ADDR               serve shards for a coordinator
//
// Backends: --backend model (default) explores exhaustively under the
// C/C++11 model; --backend stress re-runs the same test bodies on real
// std::threads with seeded preemption (--iters N per unit test,
// --threads-mult R concurrent runners). Stress runs sample hardware
// schedules, so they never verify: the verdict is falsified (exit 1) or
// inconclusive (exit 3), never verified-exhaustive.
//
// Flags: --explore schedule|rf (branch on scheduler choices — the default —
//            or on reads-from classes: one representative execution per
//            (rf,mo,sc) class, typically far fewer executions for the same
//            behavior set; see mc/revisit.h),
//        --cap N (execution cap), --stale N (stale-read bound),
//        --timeout SECS (wall-clock budget; degrades to sampling),
//        --mem-cap MB (memory budget), --seed N (RNG seed),
//        --checkpoint FILE (write-ahead shard journal; a serial run
//            journals one shard per unit test, see harness/parallel.h),
//        --resume (replay the --checkpoint journal, recompute the rest),
//        --trail-out FILE (write a .trail repro of the found violation),
//        --jobs N (parallel sharded exploration over forked workers),
//        --shard-depth N (prefix depth for --jobs shard enumeration),
//        --dist-workers N (distributed exploration over N forked
//            socket-connected workers), --coordinator ADDR (listen address
//            for external --worker processes), --lease-secs S
//            (assignment lease), --max-shard-retries N,
//        --progress[=SECS] (heartbeat lines on stderr while exploring),
//        --metrics-out FILE (JSON snapshot of the metrics registry),
//        --trace-out FILE (Chrome trace-event JSON; open in Perfetto),
//        --json (machine-readable results),
//        --no-sleep-sets, --stop-on-violation, --reports
//
// Exit codes: 0 verified-exhaustive, 1 violation found, 2 usage error
//             (also: replay divergence, resume fingerprint mismatch),
//             3 inconclusive (budget/cap hit; sampled without a finding).
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "dist/coordinator.h"
#include "ds/suite.h"
#include "harness/parallel.h"
#include "harness/runner.h"
#include "harness/stress_backend.h"
#include "spec/observed.h"
#include "inject/inject.h"
#include "mc/trace.h"
#include "obs/trace_export.h"
#include "spec/checker.h"
#include "spec/render.h"
#include "support/rng.h"

namespace {

constexpr int kExitVerified = 0;
constexpr int kExitFalsified = 1;
constexpr int kExitUsage = 2;
constexpr int kExitInconclusive = 3;

void usage() {
  std::printf(
      "usage: cdsspec-run --list\n"
      "       cdsspec-run <benchmark> [--inject I | --sites | --sweep]\n"
      "                   [--backend model|stress] [--iters N]\n"
      "                   [--threads-mult R] [--explore schedule|rf]\n"
      "                   [--cap N] [--stale N] [--timeout SECS] [--mem-cap MB]\n"
      "                   [--seed N] [--checkpoint FILE] [--resume]\n"
      "                   [--trail-out FILE] [--json] [--no-sleep-sets]\n"
      "                   [--stop-on-violation] [--reports] [--dot]\n"
      "                   [--jobs N] [--shard-depth N] [--progress[=SECS]]\n"
      "                   [--metrics-out FILE] [--trace-out FILE]\n"
      "                   [--dist-workers N] [--coordinator ADDR]\n"
      "                   [--lease-secs S] [--max-shard-retries N]\n"
      "       cdsspec-run --replay-trail FILE\n"
      "       cdsspec-run --worker ADDR [--progress[=SECS]]\n"
      "addresses: 'host:port' (TCP) or 'unix:PATH' (Unix-domain socket)\n"
      "durability: --checkpoint FILE names a write-ahead shard journal;\n"
      "            --resume with the same flags replays it after a crash\n"
      "            to a bit-identical verdict and counter set\n"
      "exit codes: 0 verified-exhaustive, 1 violation found, 2 usage error\n"
      "            (also replay divergence / resume mismatch), 3 inconclusive\n");
}

// Strict numeric parsing: the whole argument must be a non-negative
// number. Rejects the silent garbage atoi accepts ("-3", "2x", "").
bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0' || *s == '-' || *s == '+') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_double(const char* s, double* out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || v < 0.0) return false;
  *out = v;
  return true;
}

// Fetches the value of flag `name` at argv[i+1], parses it with `parse`,
// and advances i. Prints usage and returns false on any failure.
template <typename T>
bool flag_value(int argc, char** argv, int* i, const char* name, T* out,
                bool (*parse)(const char*, T*)) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "cdsspec-run: %s requires a value\n", name);
    usage();
    return false;
  }
  ++*i;
  if (!parse(argv[*i], out)) {
    std::fprintf(stderr, "cdsspec-run: invalid value for %s: '%s'\n", name,
                 argv[*i]);
    usage();
    return false;
  }
  return true;
}

// String-valued flag: takes argv[i+1] verbatim and advances i.
bool flag_str(int argc, char** argv, int* i, const char* name,
              std::string* out) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "cdsspec-run: %s requires a value\n", name);
    usage();
    return false;
  }
  *out = argv[++*i];
  return true;
}

// `cdsspec-run --replay-trail FILE`: load a .trail repro, resolve its
// "<benchmark>#<index>" test, apply the recorded config fingerprint, and
// strictly re-execute that single execution — the debug-build replay
// determinism assertion is a runtime divergence check here. Exit 1 when the
// recorded violation reproduces, 0 on a clean replay, 2 on any divergence
// or file problem.
int replay_trail(const std::string& path) {
  cds::mc::TrailFile tf;
  std::string err;
  if (!cds::mc::load_trail_file(path, &tf, &err)) {
    std::fprintf(stderr, "cdsspec-run: cannot replay '%s': %s\n", path.c_str(),
                 err.c_str());
    return kExitUsage;
  }
  auto hash = tf.test_name.find('#');
  std::uint64_t test_idx = 0;
  if (hash == std::string::npos ||
      !parse_u64(tf.test_name.c_str() + hash + 1, &test_idx)) {
    std::fprintf(stderr,
                 "cdsspec-run: trail '%s' is for test '%s', not a "
                 "'<benchmark>#<index>' registry test (litmus trails replay "
                 "with cdsspec-fuzz --replay)\n",
                 path.c_str(), tf.test_name.c_str());
    return kExitUsage;
  }
  const std::string bench = tf.test_name.substr(0, hash);
  const auto* b = cds::harness::find_benchmark(bench);
  if (b == nullptr) {
    std::fprintf(stderr,
                 "cdsspec-run: trail '%s' names unknown benchmark '%s' "
                 "(try --list)\n",
                 path.c_str(), bench.c_str());
    return kExitUsage;
  }
  if (test_idx >= b->tests.size()) {
    std::fprintf(stderr,
                 "cdsspec-run: trail '%s' names unit test %llu but '%s' has "
                 "%zu tests; the trail was recorded against a different "
                 "build\n",
                 path.c_str(), static_cast<unsigned long long>(test_idx),
                 bench.c_str(), b->tests.size());
    return kExitUsage;
  }

  // The trail was recorded with this injection active; the weakened memory
  // order shapes the choice tree, so replay needs it too.
  if (!tf.inject_site.empty()) {
    bool found = false;
    for (const auto& s : cds::inject::sites_for(bench)) {
      if (s.name == tf.inject_site) {
        cds::inject::inject(s.id);
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr,
                   "cdsspec-run: trail '%s' was recorded with injection site "
                   "'%s', which this build does not have (try --sites)\n",
                   path.c_str(), tf.inject_site.c_str());
      return kExitUsage;
    }
    std::printf("re-activating injection: %s\n", tf.inject_site.c_str());
  }

  // Stress trails replay by re-running one iteration under the recorded
  // seed: the preemption decision stream is reproduced exactly, the
  // hardware schedule only probabilistically.
  if (tf.backend == "stress") {
    cds::harness::StressOptions sopts;
    cds::harness::StressBackend be(sopts);
    be.run_iteration(b->tests[test_idx], tf.seed);
    cds::spec::ObservedCheckResult oc = cds::spec::check_observed_calls(
        be.iteration_recorder().calls(), sopts.max_histories);
    if (oc.violation) {
      be.report_violation(cds::mc::ViolationKind::kSpecAssertion,
                          std::move(oc.detail));
    }
    cds::inject::clear_injection();
    if (!tf.kind.empty()) {
      std::printf("trail records: %s%s%s\n", tf.kind.c_str(),
                  tf.detail.empty() ? "" : " -- ", tf.detail.c_str());
    }
    std::printf("re-ran one stress iteration of %s under seed %llu\n",
                tf.test_name.c_str(),
                static_cast<unsigned long long>(tf.seed));
    const auto& vs = be.iteration_violations();
    if (!vs.empty()) {
      for (const auto& kv : vs) {
        std::printf("reproduced: %s: %s\n", cds::mc::wire_name(kv.first),
                    kv.second.c_str());
      }
      return kExitFalsified;
    }
    std::printf(
        "no violation on this iteration (stress replay is probabilistic; "
        "re-run, or use --backend stress --seed to widen the search)\n");
    return kExitVerified;
  }

  cds::mc::Config cfg;
  tf.apply_fingerprint(&cfg);
  cfg.test_index = static_cast<std::uint32_t>(test_idx);
  cds::mc::Engine engine(cfg);
  cds::spec::SpecChecker::Options copts;
  copts.seed = cds::support::derive_seed(cfg.seed, 1);
  cds::spec::SpecChecker checker(copts);
  checker.attach(engine);
  std::string divergence;
  bool ok = engine.replay(tf.choices, b->tests[test_idx], /*strict=*/true,
                          &divergence);
  std::uint64_t reproduced = engine.violations_total();
  std::vector<cds::mc::Violation> violations = engine.violations();
  checker.detach();
  cds::inject::clear_injection();
  if (!ok) {
    std::fprintf(stderr, "cdsspec-run: replay of '%s' diverged: %s\n",
                 path.c_str(), divergence.c_str());
    return kExitUsage;
  }
  if (!tf.kind.empty()) {
    std::printf("trail records: %s%s%s\n", tf.kind.c_str(),
                tf.detail.empty() ? "" : " -- ", tf.detail.c_str());
  }
  std::printf("replayed %zu recorded choices deterministically (test %s)\n",
              tf.choices.size(), tf.test_name.c_str());
  if (reproduced > 0) {
    for (const auto& v : violations) {
      std::printf("reproduced: %s: %s\n", to_string(v.kind), v.detail.c_str());
    }
    return kExitFalsified;
  }
  std::printf("no violation on this execution\n");
  return kExitVerified;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* bstr(bool b) { return b ? "true" : "false"; }

int exit_code_for(cds::mc::Verdict v) {
  switch (v) {
    case cds::mc::Verdict::kVerifiedExhaustive: return kExitVerified;
    case cds::mc::Verdict::kFalsified: return kExitFalsified;
    case cds::mc::Verdict::kInconclusive: return kExitInconclusive;
  }
  return kExitInconclusive;
}

void print_result(const cds::harness::RunResult& r, bool reports) {
  std::printf(
      "executions=%llu feasible=%llu sampled=%llu pruned(livelock=%llu "
      "bound=%llu redundant=%llu) engine-fatal=%llu\n",
      static_cast<unsigned long long>(r.mc.executions),
      static_cast<unsigned long long>(r.mc.feasible),
      static_cast<unsigned long long>(r.mc.sampled),
      static_cast<unsigned long long>(r.mc.pruned_livelock),
      static_cast<unsigned long long>(r.mc.pruned_bound),
      static_cast<unsigned long long>(r.mc.pruned_redundant),
      static_cast<unsigned long long>(r.mc.engine_fatal_execs));
  if (r.mc.rf_classes > 0 || r.mc.rf_infeasible > 0) {
    // rf mode only: each class is one representative execution of a
    // distinct (rf,mo,sc) equivalence class. rf-infeasible stays 0: a
    // later write reaches a load through a store-driven revisit.
    std::printf("rf-classes=%llu rf-infeasible=%llu\n",
                static_cast<unsigned long long>(r.mc.rf_classes),
                static_cast<unsigned long long>(r.mc.rf_infeasible));
  }
  std::printf(
      "histories=%llu justifications=%llu  violations: builtin=%s "
      "admissibility=%s assertion=%s (total %llu)\n",
      static_cast<unsigned long long>(r.spec.histories_checked),
      static_cast<unsigned long long>(r.spec.justification_checks),
      r.detected_builtin() ? "YES" : "no",
      r.detected_admissibility() ? "YES" : "no",
      r.detected_assertion() ? "YES" : "no",
      static_cast<unsigned long long>(r.mc.violations_total));
  std::string limits;
  if (r.mc.hit_execution_cap) limits += " (execution cap hit)";
  if (r.mc.hit_time_budget) limits += " (time budget hit)";
  if (r.mc.hit_memory_budget) limits += " (memory budget hit)";
  if (r.mc.watchdog_fired) limits += " (watchdog: no-progress DFS)";
  std::printf("time=%.2fs seed=%llu%s\n", r.mc.seconds,
              static_cast<unsigned long long>(r.mc.seed), limits.c_str());
  std::printf("verdict=%s (max trail depth %llu%s)\n", to_string(r.verdict),
              static_cast<unsigned long long>(r.mc.max_trail_depth),
              r.mc.exhausted ? ", state space exhausted" : "");
  if (reports) {
    for (const auto& rep : r.reports) std::printf("\n%s\n", rep.c_str());
  }
}

void print_result_json(const std::string& benchmark,
                       const cds::harness::RunResult& r,
                       const cds::harness::ParallelRunResult* par = nullptr,
                       const cds::dist::DistRunResult* dist = nullptr) {
  std::printf("{\n");
  std::printf("  \"benchmark\": \"%s\",\n", json_escape(benchmark).c_str());
  std::printf("  \"mode\": \"run\",\n");
  if (par != nullptr) {
    std::printf("  \"parallel\": {\n");
    std::printf("    \"jobs\": %d,\n", par->jobs);
    std::printf("    \"shards\": %llu,\n",
                static_cast<unsigned long long>(par->shards));
    std::printf("    \"crashed_shards\": %llu,\n",
                static_cast<unsigned long long>(par->crashed_shards));
    std::printf("    \"probe_executions\": %llu,\n",
                static_cast<unsigned long long>(par->probe_executions));
    std::printf("    \"steals\": %llu,\n",
                static_cast<unsigned long long>(par->steals));
    std::printf("    \"minted\": %llu,\n",
                static_cast<unsigned long long>(par->minted));
    std::printf("    \"epoch\": %llu,\n",
                static_cast<unsigned long long>(par->epoch));
    std::printf("    \"resumed\": %s,\n", bstr(par->resumed));
    std::printf("    \"replayed_shards\": %llu,\n",
                static_cast<unsigned long long>(par->replayed_shards));
    std::printf("    \"journal_quarantined_bytes\": %llu\n",
                static_cast<unsigned long long>(par->journal_quarantined_bytes));
    std::printf("  },\n");
  }
  if (dist != nullptr) {
    std::printf("  \"dist\": {\n");
    std::printf("    \"listen\": \"%s\",\n",
                json_escape(dist->listen_address).c_str());
    std::printf("    \"shards\": %llu,\n",
                static_cast<unsigned long long>(dist->shards));
    std::printf("    \"probe_executions\": %llu,\n",
                static_cast<unsigned long long>(dist->probe_executions));
    std::printf("    \"workers_connected_peak\": %llu,\n",
                static_cast<unsigned long long>(dist->workers_connected));
    std::printf("    \"connections_total\": %llu,\n",
                static_cast<unsigned long long>(dist->connections_total));
    std::printf("    \"retries\": %llu,\n",
                static_cast<unsigned long long>(dist->retries));
    std::printf("    \"leases_expired\": %llu,\n",
                static_cast<unsigned long long>(dist->leases_expired));
    std::printf("    \"steals\": %llu,\n",
                static_cast<unsigned long long>(dist->steals));
    std::printf("    \"steal_subshards\": %llu,\n",
                static_cast<unsigned long long>(dist->steal_subshards));
    std::printf("    \"failed_shards\": %llu,\n",
                static_cast<unsigned long long>(dist->failed_shards));
    std::printf("    \"stale_results\": %llu,\n",
                static_cast<unsigned long long>(dist->stale_results));
    std::printf("    \"corrupt_results\": %llu,\n",
                static_cast<unsigned long long>(dist->corrupt_results));
    std::printf("    \"fell_back_local\": %s,\n", bstr(dist->fell_back_local));
    std::printf("    \"epoch\": %llu,\n",
                static_cast<unsigned long long>(dist->epoch));
    std::printf("    \"resumed\": %s,\n", bstr(dist->resumed));
    std::printf("    \"replayed_shards\": %llu,\n",
                static_cast<unsigned long long>(dist->replayed_shards));
    std::printf("    \"fenced_results\": %llu,\n",
                static_cast<unsigned long long>(dist->fenced_results));
    std::printf("    \"journal_quarantined_bytes\": %llu\n",
                static_cast<unsigned long long>(
                    dist->journal_quarantined_bytes));
    std::printf("  },\n");
  }
  std::printf("  \"seed\": %llu,\n",
              static_cast<unsigned long long>(r.mc.seed));
  std::printf("  \"verdict\": \"%s\",\n", to_string(r.verdict));
  std::printf("  \"exit_code\": %d,\n", exit_code_for(r.verdict));
  std::printf("  \"coverage\": {\n");
  std::printf("    \"executions\": %llu,\n",
              static_cast<unsigned long long>(r.mc.executions));
  std::printf("    \"feasible\": %llu,\n",
              static_cast<unsigned long long>(r.mc.feasible));
  std::printf("    \"sampled\": %llu,\n",
              static_cast<unsigned long long>(r.mc.sampled));
  std::printf("    \"pruned_bound\": %llu,\n",
              static_cast<unsigned long long>(r.mc.pruned_bound));
  std::printf("    \"pruned_livelock\": %llu,\n",
              static_cast<unsigned long long>(r.mc.pruned_livelock));
  std::printf("    \"pruned_redundant\": %llu,\n",
              static_cast<unsigned long long>(r.mc.pruned_redundant));
  std::printf("    \"rf_classes\": %llu,\n",
              static_cast<unsigned long long>(r.mc.rf_classes));
  std::printf("    \"rf_infeasible\": %llu,\n",
              static_cast<unsigned long long>(r.mc.rf_infeasible));
  std::printf("    \"max_trail_depth\": %llu,\n",
              static_cast<unsigned long long>(r.mc.max_trail_depth));
  std::printf("    \"exhausted\": %s\n", bstr(r.mc.exhausted));
  std::printf("  },\n");
  std::printf("  \"budgets\": {\n");
  std::printf("    \"hit_execution_cap\": %s,\n", bstr(r.mc.hit_execution_cap));
  std::printf("    \"hit_time_budget\": %s,\n", bstr(r.mc.hit_time_budget));
  std::printf("    \"hit_memory_budget\": %s,\n", bstr(r.mc.hit_memory_budget));
  std::printf("    \"watchdog_fired\": %s\n", bstr(r.mc.watchdog_fired));
  std::printf("  },\n");
  std::printf("  \"detections\": {\n");
  std::printf("    \"builtin\": %s,\n", bstr(r.detected_builtin()));
  std::printf("    \"admissibility\": %s,\n", bstr(r.detected_admissibility()));
  std::printf("    \"assertion\": %s,\n", bstr(r.detected_assertion()));
  std::printf("    \"violations_total\": %llu,\n",
              static_cast<unsigned long long>(r.mc.violations_total));
  std::printf("    \"engine_fatal_execs\": %llu\n",
              static_cast<unsigned long long>(r.mc.engine_fatal_execs));
  std::printf("  },\n");
  std::printf("  \"seconds\": %.3f\n", r.mc.seconds);
  std::printf("}\n");
}

void print_sweep_json(const cds::harness::InjectionSummary& sum,
                      std::uint64_t seed) {
  std::printf("{\n");
  std::printf("  \"benchmark\": \"%s\",\n",
              json_escape(sum.benchmark).c_str());
  std::printf("  \"mode\": \"sweep\",\n");
  std::printf("  \"seed\": %llu,\n", static_cast<unsigned long long>(seed));
  std::printf("  \"trials\": [\n");
  for (std::size_t i = 0; i < sum.outcomes.size(); ++i) {
    const auto& o = sum.outcomes[i];
    std::printf("    {\"site\": \"%s\", \"default\": \"%s\", "
                "\"weakened\": \"%s\", \"status\": \"%s\", "
                "\"detection\": \"%s\", \"verdict\": \"%s\", "
                "\"retried\": %s, \"term_signal\": %d, \"seconds\": %.3f}%s\n",
                json_escape(o.site.name).c_str(), to_string(o.site.def),
                to_string(o.site.weakened()),
                cds::harness::to_string(o.status),
                cds::harness::to_string(o.how), to_string(o.verdict),
                bstr(o.retried), o.term_signal, o.seconds,
                i + 1 < sum.outcomes.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"summary\": {\n");
  std::printf("    \"injections\": %d,\n", sum.injections);
  std::printf("    \"builtin\": %d,\n", sum.builtin);
  std::printf("    \"admissibility\": %d,\n", sum.admissibility);
  std::printf("    \"assertion\": %d,\n", sum.assertion);
  std::printf("    \"undetected\": %d,\n", sum.undetected);
  std::printf("    \"crashed\": %d,\n", sum.crashed);
  std::printf("    \"timed_out\": %d,\n", sum.timed_out);
  std::printf("    \"detection_rate\": %.4f\n", sum.detection_rate());
  std::printf("  }\n");
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  cds::ds::register_all_benchmarks();
  if (argc < 2) {
    usage();
    return kExitUsage;
  }

  std::string cmd = argv[1];
  if (cmd == "--replay-trail") {
    if (argc != 3) {
      std::fprintf(stderr, "cdsspec-run: --replay-trail requires a file\n");
      usage();
      return kExitUsage;
    }
    return replay_trail(argv[2]);
  }
  if (cmd == "--worker") {
    if (argc < 3) {
      std::fprintf(stderr, "cdsspec-run: --worker requires an address\n");
      usage();
      return kExitUsage;
    }
    cds::dist::WorkerOptions wo;
    for (int i = 3; i < argc; ++i) {
      std::string a = argv[i];
      if (a == "--progress") {
        wo.progress_interval_seconds = 2.0;
      } else if (a.rfind("--progress=", 0) == 0) {
        double secs = 0.0;
        if (!parse_double(a.c_str() + 11, &secs) || secs <= 0.0) {
          std::fprintf(stderr,
                       "cdsspec-run: --progress wants a positive interval\n");
          return kExitUsage;
        }
        wo.progress_interval_seconds = secs;
      } else if (a == "--connect-timeout") {
        if (!flag_value(argc, argv, &i, "--connect-timeout",
                        &wo.connect_timeout_seconds, parse_double))
          return kExitUsage;
      } else {
        std::fprintf(stderr, "cdsspec-run: unknown --worker flag '%s'\n",
                     a.c_str());
        usage();
        return kExitUsage;
      }
    }
    return cds::dist::run_worker(argv[2], wo) == 0 ? kExitVerified
                                                   : kExitUsage;
  }
  if (cmd == "--list") {
    for (const auto& b : cds::harness::benchmarks()) {
      std::printf("%-22s %s (%zu unit tests, %zu injectable sites)\n",
                  b.name.c_str(), b.display.c_str(), b.tests.size(),
                  [&] {
                    std::size_t n = 0;
                    for (const auto& s : cds::inject::sites_for(b.name)) {
                      if (s.injectable()) ++n;
                    }
                    return n;
                  }());
    }
    return 0;
  }

  const auto* b = cds::harness::find_benchmark(cmd);
  if (b == nullptr) {
    std::fprintf(stderr, "unknown benchmark '%s' (try --list)\n", cmd.c_str());
    return kExitUsage;
  }

  cds::harness::RunOptions opts;
  cds::harness::SweepOptions sweep_opts;
  bool sites = false, sweep = false, reports = false, dot = false, json = false;
  bool have_timeout = false;
  std::uint64_t inject_idx_u = 0;
  bool have_inject = false;
  bool want_resume = false;
  std::string journal_path;
  std::string trail_out;
  std::string metrics_out;
  std::string trace_out;
  std::uint64_t jobs_u = 1;
  std::uint64_t shard_depth_u = 2;
  std::uint64_t dist_workers_u = 0;
  std::string backend = "model";
  std::uint64_t iters_u = 256;
  std::uint64_t threads_mult_u = 1;
  bool have_stress_flag = false;
  std::string coordinator_addr;
  double lease_secs = 5.0;
  std::uint64_t max_shard_retries_u = 3;
  std::uint64_t chaos_kill_u = 0;
  std::uint64_t chaos_coord_kill_append_u = 0;
  std::uint64_t chaos_coord_kill_merge_u = 0;
  std::uint64_t chaos_coord_trunc_u = 0;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--sites") sites = true;
    else if (a == "--sweep") sweep = true;
    else if (a == "--reports") reports = true;
    else if (a == "--dot") dot = true;
    else if (a == "--json") json = true;
    else if (a == "--no-sleep-sets") opts.engine.enable_sleep_sets = false;
    else if (a == "--stop-on-violation") opts.engine.stop_on_first_violation = true;
    else if (a == "--inject") {
      if (!flag_value(argc, argv, &i, "--inject", &inject_idx_u, parse_u64))
        return kExitUsage;
      have_inject = true;
    } else if (a == "--cap") {
      if (!flag_value(argc, argv, &i, "--cap", &opts.engine.max_executions,
                      parse_u64))
        return kExitUsage;
    } else if (a == "--stale") {
      std::uint64_t v = 0;
      if (!flag_value(argc, argv, &i, "--stale", &v, parse_u64))
        return kExitUsage;
      if (v > 0xffffffffull) {
        std::fprintf(stderr, "cdsspec-run: --stale value too large\n");
        return kExitUsage;
      }
      opts.engine.stale_read_bound = static_cast<std::uint32_t>(v);
    } else if (a == "--timeout") {
      if (!flag_value(argc, argv, &i, "--timeout",
                      &opts.engine.time_budget_seconds, parse_double))
        return kExitUsage;
      have_timeout = true;
    } else if (a == "--mem-cap") {
      std::uint64_t mb = 0;
      if (!flag_value(argc, argv, &i, "--mem-cap", &mb, parse_u64))
        return kExitUsage;
      opts.engine.memory_budget_bytes =
          static_cast<std::size_t>(mb) * 1024 * 1024;
    } else if (a == "--seed") {
      if (!flag_value(argc, argv, &i, "--seed", &opts.engine.seed, parse_u64))
        return kExitUsage;
      sweep_opts.seed = opts.engine.seed;
    } else if (a == "--checkpoint") {
      if (!flag_str(argc, argv, &i, "--checkpoint", &journal_path))
        return kExitUsage;
    } else if (a == "--resume") {
      want_resume = true;
    } else if (a == "--trail-out") {
      if (!flag_str(argc, argv, &i, "--trail-out", &trail_out))
        return kExitUsage;
    } else if (a == "--metrics-out") {
      if (!flag_str(argc, argv, &i, "--metrics-out", &metrics_out))
        return kExitUsage;
    } else if (a == "--trace-out") {
      if (!flag_str(argc, argv, &i, "--trace-out", &trace_out))
        return kExitUsage;
    } else if (a == "--progress") {
      opts.engine.progress_interval_seconds = 2.0;
    } else if (a.rfind("--progress=", 0) == 0) {
      double secs = 0.0;
      if (!parse_double(a.c_str() + 11, &secs) || secs <= 0.0) {
        std::fprintf(stderr,
                     "cdsspec-run: --progress wants a positive interval in "
                     "seconds, not '%s'\n",
                     a.c_str() + 11);
        return kExitUsage;
      }
      opts.engine.progress_interval_seconds = secs;
    } else if (a == "--jobs") {
      if (!flag_value(argc, argv, &i, "--jobs", &jobs_u, parse_u64))
        return kExitUsage;
      if (jobs_u == 0 || jobs_u > 256) {
        std::fprintf(stderr, "cdsspec-run: --jobs must be in 1..256\n");
        return kExitUsage;
      }
    } else if (a == "--shard-depth") {
      if (!flag_value(argc, argv, &i, "--shard-depth", &shard_depth_u,
                      parse_u64))
        return kExitUsage;
      if (shard_depth_u == 0 || shard_depth_u > 16) {
        std::fprintf(stderr, "cdsspec-run: --shard-depth must be in 1..16\n");
        return kExitUsage;
      }
    } else if (a == "--backend") {
      if (!flag_str(argc, argv, &i, "--backend", &backend))
        return kExitUsage;
      if (backend != "model" && backend != "stress") {
        std::fprintf(stderr,
                     "cdsspec-run: --backend must be 'model' or 'stress', "
                     "not '%s'\n",
                     backend.c_str());
        return kExitUsage;
      }
    } else if (a == "--explore") {
      std::string mode;
      if (!flag_str(argc, argv, &i, "--explore", &mode))
        return kExitUsage;
      if (mode == "schedule") {
        opts.engine.explore = cds::mc::ExploreMode::kSchedule;
      } else if (mode == "rf") {
        opts.engine.explore = cds::mc::ExploreMode::kRf;
      } else {
        std::fprintf(stderr,
                     "cdsspec-run: --explore must be 'schedule' or 'rf', "
                     "not '%s'\n",
                     mode.c_str());
        return kExitUsage;
      }
    } else if (a == "--iters") {
      if (!flag_value(argc, argv, &i, "--iters", &iters_u, parse_u64))
        return kExitUsage;
      if (iters_u == 0) {
        std::fprintf(stderr, "cdsspec-run: --iters must be positive\n");
        return kExitUsage;
      }
      have_stress_flag = true;
    } else if (a == "--threads-mult") {
      if (!flag_value(argc, argv, &i, "--threads-mult", &threads_mult_u,
                      parse_u64))
        return kExitUsage;
      if (threads_mult_u == 0 || threads_mult_u > 64) {
        std::fprintf(stderr,
                     "cdsspec-run: --threads-mult must be in 1..64\n");
        return kExitUsage;
      }
      have_stress_flag = true;
    } else if (a == "--dist-workers") {
      if (!flag_value(argc, argv, &i, "--dist-workers", &dist_workers_u,
                      parse_u64))
        return kExitUsage;
      if (dist_workers_u == 0 || dist_workers_u > 64) {
        std::fprintf(stderr, "cdsspec-run: --dist-workers must be in 1..64\n");
        return kExitUsage;
      }
    } else if (a == "--coordinator") {
      if (!flag_str(argc, argv, &i, "--coordinator", &coordinator_addr))
        return kExitUsage;
    } else if (a == "--lease-secs") {
      if (!flag_value(argc, argv, &i, "--lease-secs", &lease_secs,
                      parse_double))
        return kExitUsage;
      if (lease_secs <= 0.0) {
        std::fprintf(stderr, "cdsspec-run: --lease-secs must be positive\n");
        return kExitUsage;
      }
    } else if (a == "--max-shard-retries") {
      if (!flag_value(argc, argv, &i, "--max-shard-retries",
                      &max_shard_retries_u, parse_u64))
        return kExitUsage;
      if (max_shard_retries_u > 100) {
        std::fprintf(stderr,
                     "cdsspec-run: --max-shard-retries must be <= 100\n");
        return kExitUsage;
      }
    } else if (a == "--chaos-kill-assignment") {
      // Undocumented test/CI hook: SIGKILL the first forked worker on its
      // K-th assignment to exercise lease revocation + retry.
      if (!flag_value(argc, argv, &i, "--chaos-kill-assignment", &chaos_kill_u,
                      parse_u64))
        return kExitUsage;
    } else if (a == "--chaos-coord-kill-append") {
      // Undocumented test/CI hooks: coordinator-side crash injection in
      // the journal's write-ahead windows (see dist/chaos.h). Each names
      // the 1-based ordinal of a journal append by this incarnation.
      if (!flag_value(argc, argv, &i, "--chaos-coord-kill-append",
                      &chaos_coord_kill_append_u, parse_u64))
        return kExitUsage;
    } else if (a == "--chaos-coord-kill-merge") {
      if (!flag_value(argc, argv, &i, "--chaos-coord-kill-merge",
                      &chaos_coord_kill_merge_u, parse_u64))
        return kExitUsage;
    } else if (a == "--chaos-coord-truncate-tail") {
      if (!flag_value(argc, argv, &i, "--chaos-coord-truncate-tail",
                      &chaos_coord_trunc_u, parse_u64))
        return kExitUsage;
    } else {
      std::fprintf(stderr, "cdsspec-run: unknown flag '%s'\n", a.c_str());
      usage();
      return kExitUsage;
    }
  }
  // One seed reproduces the whole run: the spec checker's history sampler
  // derives its stream from the engine seed.
  opts.checker.seed = cds::support::derive_seed(opts.engine.seed, 1);
  // Budgeted runs have already conceded exhaustiveness, so arm the
  // no-progress watchdog too: a DFS stuck in pruned/livelocked subtrees
  // degrades to sampling instead of burning the rest of the budget.
  if (opts.engine.time_budget_seconds > 0 ||
      opts.engine.memory_budget_bytes > 0) {
    opts.engine.watchdog_no_progress_execs = 100000;
  }

  if ((sweep || dot) && (!journal_path.empty() || want_resume ||
                         !trail_out.empty() || !metrics_out.empty() ||
                         !trace_out.empty())) {
    std::fprintf(stderr,
                 "cdsspec-run: --checkpoint/--resume/--trail-out/"
                 "--metrics-out/--trace-out apply to plain runs, not --sweep "
                 "or --dot\n");
    return kExitUsage;
  }
  if (want_resume && journal_path.empty()) {
    std::fprintf(stderr, "cdsspec-run: --resume requires --checkpoint FILE\n");
    return kExitUsage;
  }
  if (jobs_u > 1 && (sweep || dot)) {
    std::fprintf(stderr,
                 "cdsspec-run: --jobs applies to plain runs only; "
                 "--sweep/--dot stay serial\n");
    return kExitUsage;
  }
  const bool dist_mode = dist_workers_u > 0 || !coordinator_addr.empty();
  if (dist_mode && (jobs_u > 1 || sweep || dot)) {
    std::fprintf(stderr,
                 "cdsspec-run: --dist-workers/--coordinator apply to plain "
                 "runs only and are exclusive with --jobs, --sweep and "
                 "--dot\n");
    return kExitUsage;
  }
  // A journal (--checkpoint) turns a serial run into a one-job shard
  // run: the coordinator-side chaos hooks then apply to it as well.
  const bool journaled = !journal_path.empty();
  if (!journaled && jobs_u <= 1 && !dist_mode &&
      (chaos_coord_kill_append_u > 0 || chaos_coord_kill_merge_u > 0 ||
       chaos_coord_trunc_u > 0)) {
    std::fprintf(stderr,
                 "cdsspec-run: --chaos-coord-* apply to --checkpoint, --jobs "
                 "and --dist-workers runs only\n");
    return kExitUsage;
  }
  const bool stress_mode = backend == "stress";
  if (have_stress_flag && !stress_mode) {
    std::fprintf(stderr,
                 "cdsspec-run: --iters/--threads-mult apply to "
                 "--backend stress only\n");
    return kExitUsage;
  }
  if (stress_mode &&
      (sweep || dot || jobs_u > 1 || dist_mode || want_resume ||
       journaled || !metrics_out.empty() ||
       !trace_out.empty())) {
    std::fprintf(stderr,
                 "cdsspec-run: --backend stress runs plain only; it is "
                 "exclusive with --sweep, --dot, --jobs, --dist-workers/"
                 "--coordinator, --checkpoint/--resume, --metrics-out and "
                 "--trace-out\n");
    return kExitUsage;
  }

  if (sites) {
    int i = 0;
    for (const auto& s : cds::inject::sites_for(b->name)) {
      if (!s.injectable()) continue;
      std::printf("%2d  %-40s %s -> %s\n", i++, s.name.c_str(),
                  to_string(s.def), to_string(s.weakened()));
    }
    return 0;
  }

  if (sweep) {
    if (have_timeout) {
      // --timeout budgets each fork-isolated trial; the engine inside the
      // trial gets a slightly tighter budget so it degrades to sampling
      // before the hard kill fires.
      sweep_opts.trial_timeout_seconds = opts.engine.time_budget_seconds;
      opts.engine.time_budget_seconds *= 0.9;
    }
    auto sum = cds::harness::run_injection_experiment(*b, opts, sweep_opts);
    if (json) {
      print_sweep_json(sum, sweep_opts.seed);
    } else {
      for (const auto& o : sum.outcomes) {
        const char* how = o.status == cds::harness::TrialStatus::kCompleted
                              ? cds::harness::to_string(o.how)
                              : cds::harness::to_string(o.status);
        std::printf("%-42s %-8s -> %s%s\n", o.site.name.c_str(),
                    to_string(o.site.def), how, o.retried ? " (retried)" : "");
      }
      std::printf(
          "detection rate: %.0f%% (%d/%d completed; %d crashed, %d timed "
          "out) seed=%llu\n",
          sum.detection_rate() * 100, sum.completed() - sum.undetected,
          sum.completed(), sum.crashed, sum.timed_out,
          static_cast<unsigned long long>(sweep_opts.seed));
    }
    // A campaign with crashed or timed-out trials has holes in its
    // coverage: inconclusive, not verified.
    return (sum.crashed > 0 || sum.timed_out > 0) ? kExitInconclusive
                                                  : kExitVerified;
  }

  std::string injected_site_name;
  if (have_inject) {
    std::uint64_t i = 0;
    bool found = false;
    for (const auto& s : cds::inject::sites_for(b->name)) {
      if (!s.injectable()) continue;
      if (i++ == inject_idx_u) {
        std::printf("injecting: %s (%s -> %s)\n", s.name.c_str(),
                    to_string(s.def), to_string(s.weakened()));
        cds::inject::inject(s.id);
        injected_site_name = s.name;
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "no injectable site #%llu (try --sites)\n",
                   static_cast<unsigned long long>(inject_idx_u));
      return kExitUsage;
    }
  }

  if (dot) {
    // Run the first unit test once and render the last execution's call
    // graph (stop at the first violating execution when one exists, so
    // the rendered graph is the interesting one).
    cds::mc::Config cfg = opts.engine;
    cfg.stop_on_first_violation = true;
    cds::mc::Engine engine(cfg);
    cds::spec::SpecChecker checker(opts.checker);
    checker.attach(engine);
    (void)engine.explore(b->tests.front());
    std::printf("%s", cds::spec::render_dot(checker.recorder().calls()).c_str());
    checker.detach();
    cds::inject::clear_injection();
    return 0;
  }

  if (stress_mode) {
    cds::harness::StressOptions sopts;
    sopts.iters = iters_u;
    sopts.threads_mult = static_cast<int>(threads_mult_u);
    sopts.stop_on_first_violation = opts.engine.stop_on_first_violation;

    cds::harness::StressStats total;
    std::vector<std::pair<std::size_t, cds::harness::StressViolation>> found;
    bool falsified = false;
    for (std::size_t ti = 0; ti < b->tests.size(); ++ti) {
      // Per-test seed stream: adding a unit test must not shift the
      // iteration seeds of its siblings.
      cds::harness::StressOptions topts = sopts;
      topts.seed = cds::support::derive_seed(opts.engine.seed, ti);
      auto res = cds::harness::run_stress(b->tests[ti], topts);
      total.iterations += res.stats.iterations;
      total.violations_total += res.stats.violations_total;
      total.spec_histories_checked += res.stats.spec_histories_checked;
      total.spec_cap_hits += res.stats.spec_cap_hits;
      total.seconds += res.stats.seconds;
      for (auto& v : res.violations) {
        if (found.size() < cds::harness::StressRunResult::kMaxRecorded) {
          found.emplace_back(ti, std::move(v));
        }
      }
      if (res.verdict == cds::mc::Verdict::kFalsified) {
        falsified = true;
        if (sopts.stop_on_first_violation) break;
      }
    }
    const cds::mc::Verdict verdict = falsified
                                         ? cds::mc::Verdict::kFalsified
                                         : cds::mc::Verdict::kInconclusive;
    if (json) {
      std::printf("{\n");
      std::printf("  \"benchmark\": \"%s\",\n",
                  json_escape(b->name).c_str());
      std::printf("  \"mode\": \"stress\",\n");
      std::printf("  \"seed\": %llu,\n",
                  static_cast<unsigned long long>(opts.engine.seed));
      std::printf("  \"iters\": %llu,\n",
                  static_cast<unsigned long long>(iters_u));
      std::printf("  \"threads_mult\": %llu,\n",
                  static_cast<unsigned long long>(threads_mult_u));
      std::printf("  \"iterations\": %llu,\n",
                  static_cast<unsigned long long>(total.iterations));
      std::printf("  \"violations_total\": %llu,\n",
                  static_cast<unsigned long long>(total.violations_total));
      std::printf("  \"spec_histories\": %llu,\n",
                  static_cast<unsigned long long>(
                      total.spec_histories_checked));
      std::printf("  \"spec_cap_hits\": %llu,\n",
                  static_cast<unsigned long long>(total.spec_cap_hits));
      std::printf("  \"verdict\": \"%s\",\n", to_string(verdict));
      std::printf("  \"exit_code\": %d,\n", exit_code_for(verdict));
      std::printf("  \"seconds\": %.3f\n", total.seconds);
      std::printf("}\n");
    } else {
      std::printf(
          "backend=stress iterations=%llu (%llu per unit test, "
          "threads-mult %llu) violations=%llu\n",
          static_cast<unsigned long long>(total.iterations),
          static_cast<unsigned long long>(iters_u),
          static_cast<unsigned long long>(threads_mult_u),
          static_cast<unsigned long long>(total.violations_total));
      std::printf("spec: histories=%llu unresolved-by-cap=%llu\n",
                  static_cast<unsigned long long>(
                      total.spec_histories_checked),
                  static_cast<unsigned long long>(total.spec_cap_hits));
      for (const auto& [ti, v] : found) {
        std::printf("violation in %s#%zu (iteration %llu): %s: %s\n",
                    b->name.c_str(), ti,
                    static_cast<unsigned long long>(v.iteration),
                    cds::mc::wire_name(v.kind), v.detail.c_str());
      }
      std::printf("time=%.2fs seed=%llu\n", total.seconds,
                  static_cast<unsigned long long>(opts.engine.seed));
      std::printf(
          "verdict=%s (stress samples real schedules: it can falsify, "
          "never verify)\n",
          to_string(verdict));
    }
    if (!trail_out.empty()) {
      if (found.empty()) {
        std::fprintf(stderr,
                     "cdsspec-run: --trail-out: no stress violation this "
                     "run; nothing written\n");
      } else {
        const auto& [ti, v] = found.front();
        cds::mc::TrailFile tf;
        tf.fingerprint_from(opts.engine);
        tf.backend = "stress";
        tf.test_name = b->name + "#" + std::to_string(ti);
        tf.seed = v.iter_seed;
        tf.kind = cds::mc::wire_name(v.kind);
        tf.detail = v.detail;
        tf.inject_site = injected_site_name;
        tf.choices = v.decisions;
        std::string err;
        if (!cds::mc::write_trail_file(trail_out, tf, &err)) {
          std::fprintf(stderr, "cdsspec-run: cannot write '%s': %s\n",
                       trail_out.c_str(), err.c_str());
        } else {
          std::printf("wrote stress repro trail: %s (%s in %s)\n",
                      trail_out.c_str(), tf.kind.c_str(),
                      tf.test_name.c_str());
        }
      }
    }
    cds::inject::clear_injection();
    return exit_code_for(verdict);
  }

  cds::harness::RunResult r;
  cds::harness::ParallelRunResult par;
  cds::dist::DistRunResult dist;
  const bool parallel = jobs_u > 1;
  // A journaled serial run is a one-job shard run: one shard per unit
  // test, the same journal records as --jobs.
  const bool pooled = parallel || (journaled && !dist_mode);
  cds::dist::CoordinatorChaos coord_chaos;
  if (chaos_coord_kill_append_u > 0) {
    coord_chaos.kill_after_append =
        static_cast<std::ptrdiff_t>(chaos_coord_kill_append_u);
  }
  if (chaos_coord_kill_merge_u > 0) {
    coord_chaos.kill_before_merge_on =
        static_cast<std::ptrdiff_t>(chaos_coord_kill_merge_u);
  }
  if (chaos_coord_trunc_u > 0) {
    coord_chaos.truncate_tail_after =
        static_cast<std::ptrdiff_t>(chaos_coord_trunc_u);
  }
  if (dist_mode) {
    cds::dist::DistOptions dopts;
    dopts.listen = coordinator_addr;
    dopts.dist_workers = static_cast<int>(dist_workers_u);
    dopts.lease_seconds = lease_secs;
    dopts.max_shard_retries = static_cast<int>(max_shard_retries_u);
    dopts.shard_depth = static_cast<int>(shard_depth_u);
    dopts.worker_progress_interval_seconds =
        opts.engine.progress_interval_seconds;
    dopts.journal_path = journal_path;
    dopts.resume = want_resume;
    dopts.coord_chaos = coord_chaos;
    if (chaos_kill_u > 0) {
      dopts.worker_chaos.kill_on_assignment =
          static_cast<std::ptrdiff_t>(chaos_kill_u);
    }
    dist = cds::dist::run_benchmark_distributed(*b, opts, dopts);
    if (!dist.resume_error.empty()) {
      std::fprintf(stderr, "cdsspec-run: %s\n", dist.resume_error.c_str());
      return kExitUsage;
    }
    r = std::move(dist.merged);
  } else if (pooled) {
    cds::harness::ParallelOptions popts;
    popts.jobs = static_cast<int>(jobs_u);
    popts.shard_depth = static_cast<int>(shard_depth_u);
    if (!parallel) popts.max_shards = 1;
    popts.journal_path = journal_path;
    popts.resume = want_resume;
    popts.coord_chaos = coord_chaos;
    par = cds::harness::run_benchmark_parallel(*b, opts, popts);
    if (!par.resume_error.empty()) {
      std::fprintf(stderr, "cdsspec-run: %s\n", par.resume_error.c_str());
      return kExitUsage;
    }
    r = std::move(par.merged);
  } else {
    r = cds::harness::run_benchmark(*b, opts);
  }
  // Note: an active --inject stays armed until after --trace-out below —
  // replaying a violation trail needs the same weakened memory order that
  // shaped it.
  if (json) {
    print_result_json(b->name, r, pooled ? &par : nullptr,
                      dist_mode ? &dist : nullptr);
  } else {
    if (dist_mode) {
      std::printf(
          "dist: listen=%s workers-peak=%llu shards=%llu retries=%llu "
          "leases-expired=%llu steals=%llu(+%llu sub-shards) failed=%llu "
          "stale=%llu corrupt=%llu%s\n",
          dist.listen_address.c_str(),
          static_cast<unsigned long long>(dist.workers_connected),
          static_cast<unsigned long long>(dist.shards),
          static_cast<unsigned long long>(dist.retries),
          static_cast<unsigned long long>(dist.leases_expired),
          static_cast<unsigned long long>(dist.steals),
          static_cast<unsigned long long>(dist.steal_subshards),
          static_cast<unsigned long long>(dist.failed_shards),
          static_cast<unsigned long long>(dist.stale_results),
          static_cast<unsigned long long>(dist.corrupt_results),
          dist.fell_back_local ? " (fell back to local fork pool)" : "");
      if (dist.epoch != 0) {
        std::printf(
            "journal: epoch=%llu%s replayed=%llu fenced=%llu "
            "quarantined-bytes=%llu\n",
            static_cast<unsigned long long>(dist.epoch),
            dist.resumed ? " (resumed)" : "",
            static_cast<unsigned long long>(dist.replayed_shards),
            static_cast<unsigned long long>(dist.fenced_results),
            static_cast<unsigned long long>(dist.journal_quarantined_bytes));
      }
    }
    if (parallel) {
      std::printf("parallel: jobs=%d shards=%llu (%llu minted by %llu "
                  "steals) crashed=%llu probe-executions=%llu\n",
                  par.jobs, static_cast<unsigned long long>(par.shards),
                  static_cast<unsigned long long>(par.minted),
                  static_cast<unsigned long long>(par.steals),
                  static_cast<unsigned long long>(par.crashed_shards),
                  static_cast<unsigned long long>(par.probe_executions));
    }
    if (pooled && par.epoch != 0) {
      std::printf(
          "journal: epoch=%llu%s shards=%llu replayed=%llu "
          "quarantined-bytes=%llu\n",
          static_cast<unsigned long long>(par.epoch),
          par.resumed ? " (resumed)" : "",
          static_cast<unsigned long long>(par.shards),
          static_cast<unsigned long long>(par.replayed_shards),
          static_cast<unsigned long long>(par.journal_quarantined_bytes));
    }
    print_result(r, reports);
  }

  // Persist a one-execution repro of the found violation. Crashes win the
  // tie-break: a contained SIGSEGV is the finding most worth replaying
  // under a debugger. Journaled results keep their trails, so this works
  // after a --resume too.
  if (!trail_out.empty()) {
    const cds::mc::Violation* pick = nullptr;
    for (const auto& v : r.violations) {
      if (v.trail.empty()) continue;
      if (pick == nullptr || (v.kind == cds::mc::ViolationKind::kCrash &&
                              pick->kind != cds::mc::ViolationKind::kCrash)) {
        pick = &v;
      }
    }
    if (pick == nullptr) {
      std::fprintf(stderr,
                   "cdsspec-run: --trail-out: no violation with a recorded "
                   "trail this run; nothing written\n");
    } else {
      cds::mc::TrailFile tf;
      tf.fingerprint_from(opts.engine);
      tf.test_name = b->name + "#" + std::to_string(pick->test_index);
      tf.kind = cds::mc::wire_name(pick->kind);
      tf.detail = pick->detail;
      tf.inject_site = injected_site_name;
      tf.choices = pick->trail;
      std::string err;
      if (!cds::mc::write_trail_file(trail_out, tf, &err)) {
        std::fprintf(stderr, "cdsspec-run: cannot write '%s': %s\n",
                     trail_out.c_str(), err.c_str());
      } else {
        std::printf("wrote repro trail: %s (%s in %s)\n", trail_out.c_str(),
                    tf.kind.c_str(), tf.test_name.c_str());
      }
    }
  }

  // JSON snapshot of the merged metrics registry (serial or shard-merged).
  if (!metrics_out.empty()) {
    std::string err;
    if (!cds::mc::write_text_file_atomic(metrics_out, r.metrics.to_json(),
                                         &err)) {
      std::fprintf(stderr, "cdsspec-run: cannot write '%s': %s\n",
                   metrics_out.c_str(), err.c_str());
    } else {
      std::printf("wrote metrics: %s\n", metrics_out.c_str());
    }
  }

  // Chrome trace-event export: one timeline row per modeled thread from a
  // replayed execution, plus exploration-phase spans. The interesting
  // execution is the first violation carrying a trail; a clean run renders
  // the first unit test's first execution instead.
  if (!trace_out.empty()) {
    const cds::mc::Violation* pick = nullptr;
    for (const auto& v : r.violations) {
      if (!v.trail.empty()) {
        pick = &v;
        break;
      }
    }
    const std::size_t ti = pick != nullptr ? pick->test_index : 0;
    cds::mc::Config cfg = opts.engine;
    cfg.collect_trace = true;
    cfg.progress_interval_seconds = 0.0;
    cfg.max_executions = 1;
    cfg.sample_executions = 0;
    cfg.time_budget_seconds = 0.0;
    cfg.memory_budget_bytes = 0;
    cfg.watchdog_no_progress_execs = 0;
    cfg.test_name = b->name + "#" + std::to_string(ti);
    cfg.test_index = static_cast<std::uint32_t>(ti);
    cds::mc::Engine engine(cfg);
    if (pick != nullptr) {
      std::string divergence;
      (void)engine.replay(pick->trail, b->tests[ti], /*strict=*/false,
                          &divergence);
    } else {
      (void)engine.explore(b->tests[ti]);
    }

    std::vector<cds::obs::PhaseSpan> phases;
    if (parallel) {
      // Per-shard spans on the coordinator's wall clock, labeled with the
      // worker slot that ran each shard.
      for (const auto& s : par.spans) {
        phases.push_back(cds::obs::PhaseSpan{
            s.name + " (w" + std::to_string(s.worker) + ")", s.start_seconds,
            s.duration_seconds});
      }
    } else {
      const auto& timers = r.metrics.timers();
      double at = 0.0;
      auto it = timers.find("engine.dfs_phase");
      if (it != timers.end() && it->second.total_ns > 0) {
        phases.push_back(
            cds::obs::PhaseSpan{"dfs", 0.0, it->second.total_seconds()});
        at = it->second.total_seconds();
      }
      it = timers.find("engine.sampling_phase");
      if (it != timers.end() && it->second.total_ns > 0) {
        phases.push_back(
            cds::obs::PhaseSpan{"sampling", at, it->second.total_seconds()});
      }
    }

    std::string err;
    if (!cds::obs::write_chrome_trace_file(
            trace_out, engine.trace(),
            [&engine](std::uint32_t loc) {
              const char* n = engine.location_name(loc);
              return n != nullptr ? std::string(n)
                                  : "loc" + std::to_string(loc);
            },
            phases, &err)) {
      std::fprintf(stderr, "cdsspec-run: cannot write '%s': %s\n",
                   trace_out.c_str(), err.c_str());
    } else {
      std::printf("wrote chrome trace: %s (%zu events%s; open in Perfetto "
                  "or chrome://tracing)\n",
                  trace_out.c_str(), engine.trace().size(),
                  pick != nullptr ? ", violating execution" : "");
    }
  }
  cds::inject::clear_injection();
  return exit_code_for(r.verdict);
}
