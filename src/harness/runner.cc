#include "harness/runner.h"

#include <algorithm>
#include <chrono>

#include "mc/shard.h"
#include "support/record.h"
#include "support/rng.h"

#include <sys/wait.h>

namespace cds::harness {

namespace {
std::vector<Benchmark>& registry() {
  static std::vector<Benchmark> v;
  return v;
}

bool has_kind(const std::vector<mc::Violation>& vs, mc::ViolationKind k) {
  for (const auto& v : vs) {
    if (v.kind == k) return true;
  }
  return false;
}

// Paper's classification priority (Figure 8 columns).
Detection classify(const RunResult& r) {
  if (r.detected_builtin()) return Detection::kBuiltin;
  if (r.detected_admissibility()) return Detection::kAdmissibility;
  if (r.detected_assertion()) return Detection::kAssertion;
  return Detection::kNone;
}

}  // namespace

bool RunResult::detected_builtin() const {
  return mc.builtin_violation_execs > 0 || mc.crash_execs > 0 ||
         has_kind(violations, mc::ViolationKind::kDataRace) ||
         has_kind(violations, mc::ViolationKind::kUninitializedLoad) ||
         has_kind(violations, mc::ViolationKind::kDeadlock) ||
         has_kind(violations, mc::ViolationKind::kCrash);
}

bool RunResult::detected_admissibility() const {
  return spec.inadmissible_execs > 0;
}

bool RunResult::detected_assertion() const {
  return spec.assertion_violation_execs > 0 ||
         has_kind(violations, mc::ViolationKind::kUserAssertion);
}

RunResult run_with_spec(const mc::TestFn& test, const RunOptions& opts) {
  mc::Engine engine(opts.engine);
  spec::SpecChecker checker(opts.checker);
  checker.attach(engine);
  if (!opts.subtree.empty()) engine.set_subtree(opts.subtree);
  RunResult r;
  r.mc = engine.explore(test);
  r.spec = checker.stats();
  r.metrics.merge(engine.metrics());
  r.violations = engine.violations();
  r.reports = checker.reports();
  r.frontier = engine.preempt_frontier();
  r.verdict = r.mc.verdict;
  checker.detach();
  return r;
}

void fold_counters(RunResult& into, const mc::ExplorationStats& mc,
                   const spec::SpecChecker::Stats& spec,
                   const obs::Registry& metrics) {
  mc::merge_shard_stats(into.mc, mc);
  support::merge_record(into.spec, spec);
  into.metrics.merge(metrics);
}

void weaken_verdict(mc::Verdict& into, mc::Verdict v) {
  if (v == mc::Verdict::kFalsified || into == mc::Verdict::kFalsified) {
    into = mc::Verdict::kFalsified;
  } else if (v == mc::Verdict::kInconclusive) {
    into = mc::Verdict::kInconclusive;
  }
}

void register_benchmark(Benchmark b) {
  for (const Benchmark& e : registry()) {
    if (e.name == b.name) return;  // idempotent
  }
  registry().push_back(std::move(b));
}

const std::vector<Benchmark>& benchmarks() { return registry(); }

const Benchmark* find_benchmark(const std::string& name) {
  for (const Benchmark& b : registry()) {
    if (b.name == name) return &b;
  }
  return nullptr;
}

RunResult run_benchmark(const Benchmark& b, const RunOptions& opts) {
  RunResult total;
  total.mc.seed = opts.engine.seed;
  total.mc.exhausted = true;  // weakened below if any test falls short

  // The time budget covers the whole benchmark: each test gets what the
  // previous ones left over. Once it is gone, the remaining tests run with
  // an epsilon budget so they still report (inconclusive) instead of
  // exploring unbounded.
  double remaining = opts.engine.time_budget_seconds;
  for (std::size_t i = 0; i < b.tests.size(); ++i) {
    RunOptions per_test = opts;
    per_test.engine.test_name = b.name + "#" + std::to_string(i);
    per_test.engine.test_index = static_cast<std::uint32_t>(i);
    if (opts.engine.time_budget_seconds > 0.0) {
      per_test.engine.time_budget_seconds = remaining > 0.001 ? remaining : 0.001;
    }
    RunResult r = run_with_spec(b.tests[i], per_test);
    remaining -= r.mc.seconds;
    fold_counters(total, r.mc, r.spec, r.metrics);
    weaken_verdict(total.verdict, r.verdict);
    for (auto& v : r.violations) total.violations.push_back(std::move(v));
    for (auto& s : r.reports) total.reports.push_back(std::move(s));
  }
  total.mc.verdict = total.verdict;
  return total;
}

const char* to_string(Detection d) {
  switch (d) {
    case Detection::kNone: return "undetected";
    case Detection::kBuiltin: return "built-in";
    case Detection::kAdmissibility: return "admissibility";
    case Detection::kAssertion: return "assertion";
  }
  return "?";
}

const char* to_string(TrialStatus s) {
  switch (s) {
    case TrialStatus::kCompleted: return "completed";
    case TrialStatus::kCrashed: return "crashed";
    case TrialStatus::kTimedOut: return "timed-out";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Fork-isolated trials
// ---------------------------------------------------------------------------

namespace {

// Runs one injection trial inside this process: the forked trial's body,
// and the fallback when the fork fails (a crash or hang there takes the
// whole campaign with it).
InjectionOutcome run_trial_inline(const Benchmark& b, const RunOptions& opts,
                                  const inject::Site& site) {
  InjectionOutcome out{
      .site = site.name, .def = site.def, .weakened = site.weakened()};
  inject::inject(site.id);
  RunResult r = run_benchmark(b, opts);
  inject::clear_injection();
  out.detection = classify(r);
  out.verdict = r.verdict;
  out.status = TrialStatus::kCompleted;
  out.seconds = r.mc.seconds;
  return out;
}

// Runs one trial in a fresh unit child (mc/shard.h) with a wall-clock
// timeout. The child performs the injection and the whole benchmark run
// in its own address space, so aborts, corruption, and hangs stay
// contained.
InjectionOutcome run_trial_forked(const Benchmark& b, const RunOptions& opts,
                                  const inject::Site& site, double timeout_s) {
  InjectionOutcome out{
      .site = site.name, .def = site.def, .weakened = site.weakened()};
  mc::UnitChild child;
  const mc::UnitWork work = [&](std::size_t, const std::string&,
                                const std::function<bool()>&) {
    return support::render_record(run_trial_inline(b, opts, site));
  };
  if (!child.start(work)) return run_trial_inline(b, opts, site);
  const auto t0 = std::chrono::steady_clock::now();
  child.assign(0, std::string());
  std::uint64_t idx = 0;
  std::string text, err;
  const mc::UnitChild::Read r = child.await(timeout_s, &idx, &text);
  if (r == mc::UnitChild::Read::kPending) {
    out.status = TrialStatus::kTimedOut;  // ~UnitChild kills the trial
    out.seconds = timeout_s;
    return out;
  }
  if (r == mc::UnitChild::Read::kResult &&
      support::parse_record(text, &err, out)) {
    return out;
  }
  child.finish(/*kill=*/true);  // reaped already if it died
  out.status = TrialStatus::kCrashed;
  out.term_signal =
      WIFSIGNALED(child.status()) ? WTERMSIG(child.status()) : 0;
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

}  // namespace

InjectionSummary run_injection_experiment(const Benchmark& b,
                                          const RunOptions& opts,
                                          const SweepOptions& sweep) {
  InjectionSummary sum;
  for (const inject::Site& site : inject::sites_for(b.name)) {
    if (!site.injectable()) continue;
    RunOptions trial_opts = opts;
    trial_opts.engine.seed =
        support::derive_seed(sweep.seed, static_cast<std::uint64_t>(site.id));

    InjectionOutcome out =
        run_trial_forked(b, trial_opts, site, sweep.trial_timeout_seconds);
    // One retry on timeout: tighten the execution cap and hand the engine
    // a self-enforced time budget so the retry degrades to sampling
    // (inconclusive) instead of hanging a second time.
    if (out.status == TrialStatus::kTimedOut) {
      RunOptions tighter = trial_opts;
      tighter.engine.max_executions =
          trial_opts.engine.max_executions == 0
              ? 20000
              : std::max<std::uint64_t>(1, trial_opts.engine.max_executions / 4);
      if (sweep.trial_timeout_seconds > 0.0) {
        tighter.engine.time_budget_seconds = sweep.trial_timeout_seconds * 0.5;
      }
      out = run_trial_forked(b, tighter, site, sweep.trial_timeout_seconds);
      out.retried = true;
    }

    switch (out.status) {
      case TrialStatus::kCompleted:
        switch (out.detection) {
          case Detection::kBuiltin: ++sum.builtin; break;
          case Detection::kAdmissibility: ++sum.admissibility; break;
          case Detection::kAssertion: ++sum.assertion; break;
          case Detection::kNone: ++sum.undetected; break;
        }
        break;
      case TrialStatus::kCrashed:
        ++sum.crashed;
        break;
      case TrialStatus::kTimedOut:
        ++sum.timed_out;
        break;
    }
    ++sum.injections;
    sum.outcomes.push_back(std::move(out));
  }
  // Defensive: fork isolation leaves the parent's injection state alone,
  // but the inline path must never leak an active injection.
  inject::clear_injection();
  return sum;
}

}  // namespace cds::harness
