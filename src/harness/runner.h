// Run harness shared by tests and benchmarks: couples an Engine with a
// SpecChecker, aggregates results, and drives the paper's injection
// experiment (Section 6.4.2) over the registered benchmark suite.
#ifndef CDS_HARNESS_RUNNER_H
#define CDS_HARNESS_RUNNER_H

#include <array>
#include <string>
#include <vector>

#include "inject/inject.h"
#include "mc/engine.h"
#include "obs/metrics.h"
#include "spec/checker.h"
#include "spec/specification.h"
#include "support/record.h"

namespace cds::harness {

struct RunOptions {
  mc::Config engine;
  spec::SpecChecker::Options checker;

  // Subtree-restriction prefix for parallel sharding (see
  // harness/parallel.h): when non-empty, the engine explores only the
  // executions extending this pinned choice prefix.
  std::vector<mc::Choice> subtree;
};

struct RunResult {
  mc::ExplorationStats mc;
  spec::SpecChecker::Stats spec;
  // Metrics registry harvested from the engine(s): counters/histograms are
  // per-execution-pure (sharded runs sum to the serial values), gauges are
  // peaks, timers are wall time. See obs/metrics.h.
  obs::Registry metrics;
  std::vector<mc::Violation> violations;
  std::vector<std::string> reports;
  // Work-stealing preemption frontier (see Engine::preempt_frontier):
  // non-empty only when mc.preempted, i.e. the run was asked to stop
  // early and the unexplored remainder of its subtree should be re-split
  // from this trail.
  std::vector<mc::Choice> frontier;
  // Weakest verdict across the aggregated explorations: falsified beats
  // inconclusive beats verified-exhaustive, so "proved" is only claimed
  // when every unit test ran its state space to exhaustion.
  mc::Verdict verdict = mc::Verdict::kVerifiedExhaustive;

  [[nodiscard]] bool detected_builtin() const;
  [[nodiscard]] bool detected_admissibility() const;
  [[nodiscard]] bool detected_assertion() const;
  [[nodiscard]] bool any_detection() const {
    return detected_builtin() || detected_admissibility() || detected_assertion();
  }
};

// Explores `test` under the model checker with specification checking.
RunResult run_with_spec(const mc::TestFn& test, const RunOptions& opts = {});

// Adds one exploration's counters to `into`: exploration and spec stats
// by their records' merge rules (mc/stats.h, spec/checker.h), metrics
// through obs::Registry::merge. Verdict, violations and reports are left
// to the caller. run_benchmark folds each unit test with it and the shard
// table each shard, so serial and sharded totals are summed alike.
void fold_counters(RunResult& into, const mc::ExplorationStats& mc,
                   const spec::SpecChecker::Stats& spec,
                   const obs::Registry& metrics);

// Weakest-verdict fold: falsified beats inconclusive beats
// verified-exhaustive.
void weaken_verdict(mc::Verdict& into, mc::Verdict v);

// ---------------------------------------------------------------------------
// Benchmark registry (the paper's Section 6 suite)
// ---------------------------------------------------------------------------

struct Benchmark {
  std::string name;     // key; also the inject-site benchmark key
  std::string display;  // paper's row label (Figure 7/8)
  const spec::Specification* spec;
  std::vector<mc::TestFn> tests;  // unit tests, all explored
  // True when the spec's correctness argument depends on calls staying
  // CONCURRENT (Figure-6-style justification); strengthening every
  // operation to seq_cst then totally orders the ordering points and
  // strips that justification, so suite-wide SC sweeps must skip the
  // benchmark. Registration is the single source of truth: the property
  // tests, the stress smoke test, and the cross-backend suite all derive
  // their benchmark lists from this registry instead of hardcoding names.
  bool spec_requires_concurrency = false;
};

void register_benchmark(Benchmark b);
[[nodiscard]] const std::vector<Benchmark>& benchmarks();
[[nodiscard]] const Benchmark* find_benchmark(const std::string& name);

// Runs every unit test of a benchmark; sums exploration stats and merges
// detections. The time budget covers the whole benchmark: each unit test
// gets what the earlier ones left. A run that must survive a crash runs
// as a journaled one-job shard run instead (harness/parallel.h), which
// reports the same counters.
RunResult run_benchmark(const Benchmark& b, const RunOptions& opts = {});

// ---------------------------------------------------------------------------
// Injection experiment (Figure 8)
// ---------------------------------------------------------------------------

enum class Detection { kNone, kBuiltin, kAdmissibility, kAssertion };

[[nodiscard]] const char* to_string(Detection d);

// What happened to a trial as a *process*: it finished and was classified,
// or its (fork-isolated) child crashed, or it exceeded the per-trial
// timeout even after the retry. Crashed/timed-out trials record an
// outcome and the campaign moves on to the remaining sites.
enum class TrialStatus { kCompleted, kCrashed, kTimedOut };

[[nodiscard]] const char* to_string(TrialStatus s);

struct InjectionOutcome {
  std::string site;  // the weakened site's name
  mc::MemoryOrder def = mc::MemoryOrder::seq_cst;  // its default order
  mc::MemoryOrder weakened = mc::MemoryOrder::seq_cst;  // the trial's order
  TrialStatus status = TrialStatus::kCompleted;
  Detection detection = Detection::kNone;
  mc::Verdict verdict = mc::Verdict::kInconclusive;
  bool retried = false;  // timed out once and re-ran at a tighter cap
  int term_signal = 0;   // signal that killed a crashed child (0 if exit code)
  double seconds = 0.0;
};

// The outcome record (support/record.h): a forked trial sends it to the
// sweep, and --sweep --json prints one per trial.
inline std::array<support::Field, 9> fields(InjectionOutcome& o) {
  return {{
      {"site", &o.site},
      {"def", support::enum_ref<5>(&o.def)},
      {"weakened", support::enum_ref<5>(&o.weakened)},
      {"status", support::enum_ref<3>(&o.status)},
      {"detection", support::enum_ref<4>(&o.detection)},
      {"verdict", support::enum_ref<3>(&o.verdict)},
      {"retried", &o.retried},
      {"term_signal", &o.term_signal},
      {"seconds", &o.seconds},
  }};
}

// Fail-safe controls for the injection campaign. Defaults keep every
// trial fork-isolated so one crashing or hanging trial cannot take the
// sweep down with it.
// Each trial runs in a forked child; a trial that times out is retried
// once at a tighter execution cap and an engine-level time budget, so the
// retry degrades instead of hanging.
struct SweepOptions {
  // Wall-clock cap per trial (0 = none).
  double trial_timeout_seconds = 120.0;
  // Root seed; per-trial engine seeds are derived from it and the site id.
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
};

struct InjectionSummary {
  int injections = 0;
  int builtin = 0;
  int admissibility = 0;
  int assertion = 0;
  int undetected = 0;  // completed trials with no detection
  int crashed = 0;
  int timed_out = 0;
  std::vector<InjectionOutcome> outcomes;

  [[nodiscard]] int completed() const {
    return injections - crashed - timed_out;
  }
  // Detection rate over trials that actually completed; crashed/timed-out
  // trials are reported separately rather than counted as undetected.
  [[nodiscard]] double detection_rate() const {
    return completed() == 0
               ? 1.0
               : static_cast<double>(completed() - undetected) / completed();
  }
};

// The campaign's counts as a record: the `summary` block of --sweep --json.
inline std::array<support::Field, 7> fields(InjectionSummary& s) {
  return {{
      {"injections", &s.injections},
      {"builtin", &s.builtin},
      {"admissibility", &s.admissibility},
      {"assertion", &s.assertion},
      {"undetected", &s.undetected},
      {"crashed", &s.crashed},
      {"timed_out", &s.timed_out},
  }};
}

// Weakens each injectable site of the benchmark in turn (one per trial,
// covering every memory-order parameter its tests exercise) and classifies
// the detection with the paper's priority: built-in, then admissibility,
// then assertion. Each trial is fork-isolated with a per-trial timeout
// (see SweepOptions); a crashing or hanging trial is recorded as that
// site's outcome and the campaign continues.
InjectionSummary run_injection_experiment(const Benchmark& b,
                                          const RunOptions& opts = {},
                                          const SweepOptions& sweep = {});

}  // namespace cds::harness

#endif  // CDS_HARNESS_RUNNER_H
