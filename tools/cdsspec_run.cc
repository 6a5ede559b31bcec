// cdsspec-run — command-line driver over the benchmark registry: checks a
// benchmark's unit tests under the C/C++11 model (or samples them on real
// threads with --backend stress, which can falsify but never verify), runs
// its injection campaign, replays a .trail repro, or serves shards as a
// distributed worker. `cdsspec-run` alone prints usage, which is rendered
// from the flag tables in main().
//
// Exit codes: 0 verified-exhaustive, 1 violation found, 2 usage error
//             (also: replay divergence, resume config mismatch),
//             3 inconclusive (budget/cap hit; sampled without a finding).
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
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
#include "support/flags.h"
#include "support/record.h"
#include "support/rng.h"

namespace {

constexpr int kExitVerified = 0;
constexpr int kExitFalsified = 1;
constexpr int kExitUsage = 2;
constexpr int kExitInconclusive = 3;

using cds::support::Field;
using cds::support::Flag;
using cds::support::parse_u64;

void usage(std::span<const Flag> commands, std::span<const Flag> flags,
           std::span<const Flag> worker_flags) {
  std::printf(
      "usage: cdsspec-run <benchmark> [flags]\n"
      "       cdsspec-run <command>\n"
      "commands:\n%s"
      "flags:\n%s"
      "worker flags (after --worker ADDR):\n%s"
      "addresses: 'host:port' (TCP) or 'unix:PATH' (Unix-domain socket)\n"
      "exit codes: 0 verified-exhaustive, 1 violation found, 2 usage error\n"
      "            (also replay divergence / resume mismatch), 3 inconclusive\n",
      cds::support::flag_usage(commands).c_str(),
      cds::support::flag_usage(flags).c_str(),
      cds::support::flag_usage(worker_flags).c_str());
}

const char* backend_name(bool stress) { return stress ? "stress" : "model"; }

// `cdsspec-run --replay-trail FILE`: load a .trail repro, resolve its
// "<benchmark>#<index>" test, take on the recorded config, and
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
      !parse_u64(std::string_view(tf.test_name).substr(hash + 1), &test_idx)) {
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
  if (!cds::inject::activate_site(bench, tf.inject_site)) {
    std::fprintf(stderr,
                 "cdsspec-run: trail '%s' was recorded with injection site "
                 "'%s', which this build does not have (try --sites)\n",
                 path.c_str(), tf.inject_site.c_str());
    return kExitUsage;
  }
  if (!tf.inject_site.empty()) {
    std::printf("re-activating injection: %s\n", tf.inject_site.c_str());
  }
  auto print_recorded = [&tf] {
    if (tf.kind.empty()) return;
    std::printf("trail records: %s%s%s\n", tf.kind.c_str(),
                tf.detail.empty() ? "" : " -- ", tf.detail.c_str());
  };

  // Stress trails replay by re-running one iteration under the recorded
  // seed: the preemption decision stream is reproduced exactly, the
  // hardware schedule only probabilistically.
  if (tf.backend == "stress") {
    cds::harness::StressOptions sopts;
    cds::harness::StressBackend be(sopts);
    be.run_iteration(b->tests[test_idx], tf.config.seed);
    cds::spec::ObservedCheckResult oc = cds::spec::check_observed_calls(
        be.iteration_recorder().calls(), sopts.max_histories);
    if (oc.violation) {
      be.report_violation(cds::mc::ViolationKind::kSpecAssertion,
                          std::move(oc.detail));
    }
    cds::inject::clear_injection();
    print_recorded();
    std::printf("re-ran one stress iteration of %s under seed %llu\n",
                tf.test_name.c_str(),
                static_cast<unsigned long long>(tf.config.seed));
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

  cds::mc::Config cfg = tf.config;
  cfg.test_name = tf.test_name;
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
  print_recorded();
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

// Writes `tf` to `path` and says so on `out`: "wrote <what>: ...".
void write_trail(const std::string& path, const cds::mc::TrailFile& tf,
                 const char* what, FILE* out) {
  std::string err;
  if (!cds::mc::write_trail_file(path, tf, &err)) {
    std::fprintf(stderr, "cdsspec-run: cannot write '%s': %s\n", path.c_str(),
                 err.c_str());
  } else {
    std::fprintf(out, "wrote %s: %s (%s in %s)\n", what, path.c_str(),
                 tf.kind.c_str(), tf.test_name.c_str());
  }
}

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

using cds::support::JsonMember;
using cds::support::render_fields;
using cds::support::render_json;
using cds::support::render_json_array;

// Prints the one --json document of a run: its benchmark, mode and seed,
// then `head`'s fields and the named blocks, each rendered from a record
// table (support/record.h).
void print_json(std::string benchmark, std::string mode, std::uint64_t seed,
                std::span<const Field> head,
                std::span<const JsonMember> blocks) {
  std::vector<Field> f = {
      {"benchmark", &benchmark}, {"mode", &mode}, {"seed", &seed}};
  f.insert(f.end(), head.begin(), head.end());
  std::printf("%s\n", render_json(f, blocks).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  cds::ds::register_all_benchmarks();
  using cds::support::enum_ref;

  bool list = false, serving = false;
  std::string trail_path, worker_addr;
  const Flag commands[] = {
      {{"--list", &list}, "", "list the registered benchmarks"},
      {{"--replay-trail", &trail_path}, "FILE",
       "re-execute the one execution a .trail file records"},
      {{"--worker", &worker_addr}, "ADDR",
       "serve shards to the coordinator listening on ADDR", {}, &serving},
  };

  cds::harness::RunOptions opts;
  cds::harness::ParallelOptions popts;
  cds::dist::DistOptions dopts;
  cds::harness::StressOptions sopts;
  cds::dist::WorkerOptions wo;
  bool sites = false, sweep = false, reports = false, dot = false, json = false;
  bool stress_mode = false;
  bool have_inject = false, have_timeout = false, have_stress_flag = false;
  std::uint64_t inject_idx = 0, mem_cap_mb = 0;
  std::string trail_out, metrics_out, trace_out;
  std::uint64_t chaos_kill = 0, chaos_coord_kill_append = 0,
                chaos_coord_kill_merge = 0, chaos_coord_trunc = 0;
  const Flag progress = {{"--progress", &opts.engine.progress_interval_seconds},
                         "SECS", "heartbeat every SECS seconds",
                         cds::support::kPositive, nullptr, "2"};
  const Flag flags[] = {
      {{"--inject", &inject_idx}, "I",
       "weaken the I-th injectable site and run once", {}, &have_inject},
      {{"--sites", &sites}, "", "list the benchmark's injectable sites"},
      {{"--sweep", &sweep}, "", "weaken each site in turn (fork-isolated)"},
      {{"--backend", enum_ref<2, backend_name>(&stress_mode)}, "",
       "explore under the model, or sample on real threads"},
      {{"--iters", &sopts.iters}, "N", "stress: iterations per unit test",
       {1}, &have_stress_flag},
      {{"--threads-mult", &sopts.threads_mult}, "R",
       "stress: concurrent iteration runners", {1, 64}, &have_stress_flag},
      {{"--explore", enum_ref<2>(&opts.engine.explore)}, "",
       "branch on scheduler choices or on reads-from classes"},
      {{"--cap", &opts.engine.max_executions}, "N", "stop after N executions"},
      {{"--stale", &opts.engine.stale_read_bound}, "N",
       "stale reads a thread may take (DFS tree bound)"},
      {{"--timeout", &opts.engine.time_budget_seconds}, "SECS",
       "wall-clock budget (per trial under --sweep)", {}, &have_timeout},
      {{"--mem-cap", &mem_cap_mb}, "MB", "memory budget"},
      {{"--seed", &opts.engine.seed}, "N", "RNG seed"},
      {{"--checkpoint", &popts.journal_path}, "FILE",
       "write-ahead shard journal"},
      {{"--resume", &popts.resume}, "",
       "replay the --checkpoint journal, recompute the rest"},
      {{"--trail-out", &trail_out}, "FILE",
       "write a .trail repro of the found violation"},
      {{"--json", &json}, "", "machine-readable results"},
      {{"--no-sleep-sets", &opts.engine.enable_sleep_sets}, "",
       "disable the sleep-set reduction", {}, nullptr, "0"},
      {{"--stop-on-violation", &opts.engine.stop_on_first_violation}, "",
       "stop at the first violation"},
      {{"--reports", &reports}, "", "print every violation report"},
      {{"--dot", &dot}, "", "print a unit test's call graph (Graphviz)"},
      {{"--jobs", &popts.jobs}, "N",
       "sharded exploration over N forked workers", {1, 256}},
      {{"--shard-depth", &popts.shard_depth}, "N",
       "prefix depth of the shard plan", {1, 16}},
      progress,
      {{"--metrics-out", &metrics_out}, "FILE",
       "JSON snapshot of the metrics registry"},
      {{"--trace-out", &trace_out}, "FILE",
       "Chrome trace-event JSON (open in Perfetto)"},
      {{"--dist-workers", &dopts.dist_workers}, "N",
       "distributed run over N forked socket workers", {1, 64}},
      {{"--coordinator", &dopts.listen}, "ADDR",
       "listen for external --worker processes on ADDR"},
      {{"--lease-secs", &dopts.lease_seconds}, "S",
       "lease on one shard assignment", cds::support::kPositive},
      {{"--max-shard-retries", &dopts.max_shard_retries}, "N",
       "retries before a shard fails for good", {0, 100}},
      // Test and CI hooks, left out of usage: SIGKILL the first forked
      // worker on its K-th assignment, or the coordinator in the journal's
      // write-ahead windows at its K-th append (see dist/chaos.h).
      {{"--chaos-kill-assignment", &chaos_kill}, "K"},
      {{"--chaos-coord-kill-append", &chaos_coord_kill_append}, "K"},
      {{"--chaos-coord-kill-merge", &chaos_coord_kill_merge}, "K"},
      {{"--chaos-coord-truncate-tail", &chaos_coord_trunc}, "K"},
  };
  const Flag worker_flags[] = {
      progress,
      {{"--connect-timeout", &wo.connect_timeout_seconds}, "S",
       "give up after S seconds without a coordinator"},
  };
  // A usage error; one from a flag's own value also prints the usage.
  auto refuse = [](const std::string& why) {
    std::fprintf(stderr, "cdsspec-run: %s\n", why.c_str());
    return kExitUsage;
  };
  auto usage_error = [&](const std::string& err) {
    if (!err.empty()) refuse(err);
    usage(commands, flags, worker_flags);
    return kExitUsage;
  };
  std::string err;
  if (argc < 2) return usage_error("");

  // Benchmark names never start with '-'; commands do.
  if (argv[1][0] == '-') {
    int i = 1;
    if (!cds::support::read_flag(argc, argv, &i, commands, &err)) {
      return usage_error(err);
    }
    if (list) {
      for (const auto& b : cds::harness::benchmarks()) {
        std::size_t n = 0;
        for (const auto& s : cds::inject::sites_for(b.name)) {
          if (s.injectable()) ++n;
        }
        std::printf("%-22s %s (%zu unit tests, %zu injectable sites)\n",
                    b.name.c_str(), b.display.c_str(), b.tests.size(), n);
      }
      return 0;
    }
    if (serving) {
      if (!cds::support::parse_flags(argc, argv, i, worker_flags, &err)) {
        return usage_error(err);
      }
      wo.progress_interval_seconds = opts.engine.progress_interval_seconds;
      return cds::dist::run_worker(worker_addr, wo) == 0 ? kExitVerified
                                                         : kExitUsage;
    }
    if (i != argc) return usage_error("--replay-trail takes one file");
    return replay_trail(trail_path);
  }

  const auto* b = cds::harness::find_benchmark(argv[1]);
  if (b == nullptr) {
    std::fprintf(stderr, "unknown benchmark '%s' (try --list)\n", argv[1]);
    return kExitUsage;
  }
  if (!cds::support::parse_flags(argc, argv, 2, flags, &err)) {
    return usage_error(err);
  }
  opts.engine.memory_budget_bytes =
      static_cast<std::size_t>(mem_cap_mb) * 1024 * 1024;
  cds::harness::SweepOptions sweep_opts;
  sweep_opts.seed = opts.engine.seed;
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

  if ((sweep || dot) && (!popts.journal_path.empty() || popts.resume ||
                         !trail_out.empty() || !metrics_out.empty() ||
                         !trace_out.empty())) {
    return refuse("--checkpoint/--resume/--trail-out/--metrics-out/"
                  "--trace-out apply to plain runs, not --sweep or --dot");
  }
  if (popts.resume && popts.journal_path.empty()) {
    return refuse("--resume requires --checkpoint FILE");
  }
  if (popts.jobs > 1 && (sweep || dot)) {
    return refuse("--jobs applies to plain runs only; --sweep/--dot stay "
                  "serial");
  }
  const bool dist_mode = dopts.dist_workers > 0 || !dopts.listen.empty();
  if (dist_mode && (popts.jobs > 1 || sweep || dot)) {
    return refuse("--dist-workers/--coordinator apply to plain runs only "
                  "and are exclusive with --jobs, --sweep and --dot");
  }
  // A journal (--checkpoint) turns a serial run into a one-job shard
  // run: the coordinator-side chaos hooks then apply to it as well.
  const bool journaled = !popts.journal_path.empty();
  if (!journaled && popts.jobs <= 1 && !dist_mode &&
      (chaos_coord_kill_append > 0 || chaos_coord_kill_merge > 0 ||
       chaos_coord_trunc > 0)) {
    return refuse("--chaos-coord-* apply to --checkpoint, --jobs and "
                  "--dist-workers runs only");
  }
  if (json && (sites || dot)) {
    return refuse("--json applies to runs, --sweep and --backend stress, "
                  "not --sites or --dot");
  }
  if (have_stress_flag && !stress_mode) {
    return refuse("--iters/--threads-mult apply to --backend stress only");
  }
  if (stress_mode && (sweep || dot || popts.jobs > 1 || dist_mode ||
                      popts.resume || journaled || !metrics_out.empty() ||
                      !trace_out.empty())) {
    return refuse("--backend stress runs plain only; it is exclusive with "
                  "--sweep, --dot, --jobs, --dist-workers/--coordinator, "
                  "--checkpoint/--resume, --metrics-out and --trace-out");
  }

  // Under --json, stdout holds the one document; status lines go to stderr.
  FILE* status = json ? stderr : stdout;

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
    // A campaign with crashed or timed-out trials has holes in its
    // coverage: inconclusive, not verified.
    int code = (sum.crashed > 0 || sum.timed_out > 0) ? kExitInconclusive
                                                      : kExitVerified;
    if (json) {
      double rate = sum.detection_rate();
      std::vector<std::string> trials;
      for (auto& o : sum.outcomes) trials.push_back(render_json(fields(o)));
      const Field head[] = {{"detection_rate", &rate}, {"exit_code", &code}};
      const JsonMember blocks[] = {
          {"summary", render_json(fields(sum))},
          {"trials", render_json_array(trials)}};
      print_json(b->name, "sweep", sweep_opts.seed, head, blocks);
    } else {
      for (const auto& o : sum.outcomes) {
        const char* how = o.status == cds::harness::TrialStatus::kCompleted
                              ? cds::harness::to_string(o.detection)
                              : cds::harness::to_string(o.status);
        std::printf("%-42s %-8s -> %s%s\n", o.site.c_str(), to_string(o.def),
                    how, o.retried ? " (retried)" : "");
      }
      std::printf(
          "detection rate: %.0f%% (%d/%d completed; %d crashed, %d timed "
          "out) seed=%llu\n",
          sum.detection_rate() * 100, sum.completed() - sum.undetected,
          sum.completed(), sum.crashed, sum.timed_out,
          static_cast<unsigned long long>(sweep_opts.seed));
    }
    return code;
  }

  std::string injected_site_name;
  if (have_inject) {
    std::uint64_t i = 0;
    for (const auto& s : cds::inject::sites_for(b->name)) {
      if (!s.injectable() || i++ != inject_idx) continue;
      std::fprintf(status, "injecting: %s (%s -> %s)\n", s.name.c_str(),
                   to_string(s.def), to_string(s.weakened()));
      cds::inject::inject(s.id);
      injected_site_name = s.name;
      break;
    }
    if (injected_site_name.empty()) {
      std::fprintf(stderr, "no injectable site #%llu (try --sites)\n",
                   static_cast<unsigned long long>(inject_idx));
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
      cds::support::merge_record(total, res.stats);
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
    cds::mc::Verdict verdict = falsified ? cds::mc::Verdict::kFalsified
                                         : cds::mc::Verdict::kInconclusive;
    if (json) {
      int code = exit_code_for(verdict);
      const Field head[] = {{"verdict", enum_ref<3>(&verdict)},
                            {"exit_code", &code}};
      const JsonMember blocks[] = {{"stats", render_json(fields(total))}};
      print_json(b->name, "stress", opts.engine.seed, head, blocks);
    } else {
      std::printf("stress: %s\n", render_fields(fields(total)).c_str());
      for (const auto& [ti, v] : found) {
        std::printf("violation in %s#%zu (iteration %llu): %s: %s\n",
                    b->name.c_str(), ti,
                    static_cast<unsigned long long>(v.iteration),
                    cds::mc::wire_name(v.kind), v.detail.c_str());
      }
      std::printf(
          "seed=%llu verdict=%s (stress samples real schedules: it can "
          "falsify, never verify)\n",
          static_cast<unsigned long long>(opts.engine.seed),
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
        tf.config = opts.engine;
        tf.config.seed = v.iter_seed;
        tf.backend = "stress";
        tf.test_name = b->name + "#" + std::to_string(ti);
        tf.kind = cds::mc::wire_name(v.kind);
        tf.detail = v.detail;
        tf.inject_site = injected_site_name;
        tf.choices = v.decisions;
        write_trail(trail_out, tf, "stress repro trail", status);
      }
    }
    cds::inject::clear_injection();
    return exit_code_for(verdict);
  }

  cds::harness::RunResult r;
  cds::harness::ParallelRunResult par;
  cds::dist::DistRunResult dist;
  const bool parallel = popts.jobs > 1;
  // A journaled serial run is a one-job shard run: one shard per unit
  // test, the same journal records as --jobs.
  const bool pooled = parallel || (journaled && !dist_mode);
  // A chaos ordinal of 0 leaves its hook off (-1).
  auto ordinal = [](std::uint64_t k) {
    return k > 0 ? static_cast<std::ptrdiff_t>(k) : std::ptrdiff_t{-1};
  };
  cds::dist::CoordinatorChaos coord_chaos;
  coord_chaos.kill_after_append = ordinal(chaos_coord_kill_append);
  coord_chaos.kill_before_merge_on = ordinal(chaos_coord_kill_merge);
  coord_chaos.truncate_tail_after = ordinal(chaos_coord_trunc);
  if (dist_mode) {
    dopts.shard_depth = popts.shard_depth;
    dopts.worker_progress_interval_seconds =
        opts.engine.progress_interval_seconds;
    dopts.journal_path = popts.journal_path;
    dopts.resume = popts.resume;
    dopts.coord_chaos = coord_chaos;
    dopts.worker_chaos.kill_on_assignment = ordinal(chaos_kill);
    dist = cds::dist::run_benchmark_distributed(*b, opts, dopts);
    if (!dist.resume_error.empty()) return refuse(dist.resume_error);
    r = std::move(dist.merged);
  } else if (pooled) {
    if (!parallel) popts.max_shards = 1;
    popts.coord_chaos = coord_chaos;
    par = cds::harness::run_benchmark_parallel(*b, opts, popts);
    if (!par.resume_error.empty()) return refuse(par.resume_error);
    r = std::move(par.merged);
  } else {
    r = cds::harness::run_benchmark(*b, opts);
  }
  // Note: an active --inject stays armed until after --trace-out below —
  // replaying a violation trail needs the same weakened memory order that
  // shaped it.
  if (json) {
    int code = exit_code_for(r.verdict);
    bool builtin = r.detected_builtin();
    bool admissibility = r.detected_admissibility();
    bool assertion = r.detected_assertion();
    const Field head[] = {{"verdict", enum_ref<3>(&r.verdict)},
                          {"exit_code", &code}};
    const Field detections[] = {{"builtin", &builtin},
                                {"admissibility", &admissibility},
                                {"assertion", &assertion}};
    std::vector<JsonMember> blocks = {
        {"stats", render_json(fields(r.mc))},
        {"spec", render_json(fields(r.spec))},
        {"detections", render_json(detections)}};
    if (pooled) blocks.push_back({"parallel", render_json(fields(par))});
    if (dist_mode) blocks.push_back({"dist", render_json(fields(dist))});
    print_json(b->name, "run", opts.engine.seed, head, blocks);
  } else {
    if (dist_mode) {
      std::printf("dist: %s\n", render_fields(fields(dist)).c_str());
    }
    if (pooled) {
      std::printf("parallel: %s\n", render_fields(fields(par)).c_str());
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
      tf.config = opts.engine;
      tf.test_name = b->name + "#" + std::to_string(pick->test_index);
      tf.kind = cds::mc::wire_name(pick->kind);
      tf.detail = pick->detail;
      tf.inject_site = injected_site_name;
      tf.choices = pick->trail;
      write_trail(trail_out, tf, "repro trail", status);
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
      std::fprintf(status, "wrote metrics: %s\n", metrics_out.c_str());
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
      std::fprintf(status,
                   "wrote chrome trace: %s (%zu events%s; open in Perfetto "
                   "or chrome://tracing)\n",
                   trace_out.c_str(), engine.trace().size(),
                   pick != nullptr ? ", violating execution" : "");
    }
  }
  cds::inject::clear_injection();
  return exit_code_for(r.verdict);
}
