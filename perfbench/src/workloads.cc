#include "workloads.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "ds/suite.h"
#include "fuzz/generator.h"
#include "harness/parallel.h"
#include "inputs.h"
#include "mc/shard.h"
#include "spec/checker.h"
#include "support/rng.h"

namespace perfbench {

namespace {

namespace mc = cds::mc;
namespace fuzz = cds::fuzz;
namespace harness = cds::harness;

// Safety cap per unit test: far above any exhaustive Figure 7 row, so
// hitting it means the checker changed and is reported as a wrong verdict.
constexpr std::uint64_t kSafetyCap = 2000000;
// fig7_schedule's Chase-Lev cap per unit test. Uncapped, schedule mode
// does not finish within 40 s; the known answer is "inconclusive, cap
// hit" after exactly this many executions per test.
constexpr std::uint64_t kChaseLevScheduleCap = 20000;
constexpr std::uint64_t kSmokeChaseLevScheduleCap = 2000;
// Fuzz campaign size per pass (tools/cdsspec-fuzz trials).
constexpr std::uint64_t kFuzzTrials = 400;
constexpr std::uint64_t kSmokeFuzzTrials = 16;
// Shard planning as run_benchmark_parallel does it: depth 2, jobs * 4
// units per unit test.
constexpr int kShardDepth = 2;
constexpr std::size_t kShardUnits = static_cast<std::size_t>(kJobs) * 4;

// Known answers of the two litmus shapes: the size of the behavior set
// an exhaustive exploration must find.
struct ShapeAnswer {
  const char* name;
  std::size_t behaviors;
};
constexpr ShapeAnswer kShapeAnswers[] = {
    {"mp_relacq_wide", 768},
    {"casloop_wide", 270},
};

const char* verdict_name(mc::Verdict v) {
  switch (v) {
    case mc::Verdict::kVerifiedExhaustive: return "verified-exhaustive";
    case mc::Verdict::kFalsified: return "falsified";
    case mc::Verdict::kInconclusive: return "inconclusive";
  }
  return "?";
}

// Weakest of two verdicts: falsified beats inconclusive beats verified.
void weaken(mc::Verdict& into, mc::Verdict v) {
  if (v == mc::Verdict::kFalsified || into == mc::Verdict::kFalsified) {
    into = mc::Verdict::kFalsified;
  } else if (v == mc::Verdict::kInconclusive) {
    into = mc::Verdict::kInconclusive;
  }
}

// Order-independent fingerprint of a behavior set (FNV-1a over the
// sorted strings), so two runs can compare sets through a signature.
std::uint64_t behavior_hash(const fuzz::BehaviorSet& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::string& b : s) {
    for (char c : b) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= '\n';
    h *= 1099511628211ull;
  }
  return h;
}

std::string shape_signature(bool exhausted, std::uint64_t executions,
                            const fuzz::BehaviorSet& behaviors) {
  std::ostringstream os;
  os << "exhausted=" << exhausted << " executions=" << executions
     << " behaviors=" << behaviors.size() << " set=" << std::hex
     << behavior_hash(behaviors);
  return os.str();
}

// Checks a Figure 7 row's merged outcome against its known answer.
void check_fig7(RowResult* row, mc::Verdict verdict,
                const mc::ExplorationStats& s, bool expect_cap) {
  std::ostringstream sig;
  sig << "executions=" << s.executions << " feasible=" << s.feasible
      << " rf_infeasible=" << s.rf_infeasible
      << " verdict=" << verdict_name(verdict);
  row->signature = sig.str();
  row->executions = s.executions;
  row->feasible = s.feasible;
  row->rf_infeasible = s.rf_infeasible;
  const bool ok =
      expect_cap ? verdict == mc::Verdict::kInconclusive &&
                       s.hit_execution_cap && s.violations_total == 0
                 : verdict == mc::Verdict::kVerifiedExhaustive &&
                       s.violations_total == 0 && !s.hit_execution_cap;
  if (!ok) {
    row->ok = false;
    row->problem = std::string("expected ") +
                   (expect_cap ? "inconclusive (cap hit)"
                               : "verified-exhaustive") +
                   ", got " + verdict_name(verdict) +
                   (s.hit_execution_cap ? " (cap hit)" : "") + " with " +
                   std::to_string(s.violations_total) + " violations";
  }
}

// fuzz::mc_behaviors' engine configuration (src/fuzz/oracle.cc).
mc::Config oracle_engine_config(const fuzz::OracleConfig& cfg,
                                bool sampling_only) {
  mc::Config ec;
  ec.max_executions = sampling_only ? 0 : cfg.max_executions;
  ec.max_steps = cfg.max_steps;
  ec.stale_read_bound = cfg.stale_read_bound;
  ec.collect_trace = false;
  ec.seed = cfg.seed;
  ec.sampling_only = sampling_only;
  ec.sample_executions = sampling_only ? cfg.sample_executions : 0;
  ec.explore = cfg.explore;
  ec.unsound_hook = cfg.unsound_hook;
  return ec;
}

// fuzz::mc_behaviors' listener: one behavior string per completed
// execution.
class BehaviorCollector : public mc::ExecutionListener {
 public:
  BehaviorCollector(const std::vector<std::uint64_t>* obs, int locations,
                    fuzz::BehaviorSet* out)
      : obs_(obs), locations_(locations), out_(out) {}

  bool on_execution_complete(mc::Engine& e) override {
    std::vector<std::uint64_t> finals;
    finals.reserve(static_cast<std::size_t>(locations_));
    for (int l = 0; l < locations_; ++l) {
      finals.push_back(e.location_final_value(static_cast<std::uint32_t>(l)));
    }
    out_->insert(fuzz::behavior_string(*obs_, finals));
    return true;
  }

 private:
  const std::vector<std::uint64_t>* obs_;
  int locations_;
  fuzz::BehaviorSet* out_;
};

// Serial fuzz::mc_behaviors, assembled from mc::Engine with the tracing
// listener around the behavior collector.
fuzz::McBehaviors traced_mc_behaviors(const fuzz::Program& p,
                                      const fuzz::OracleConfig& cfg,
                                      bool sampling_only, LayerTotals* t) {
  fuzz::McBehaviors out;
  std::vector<std::uint64_t> obs;
  mc::Engine engine(oracle_engine_config(cfg, sampling_only));
  BehaviorCollector collector(&obs, p.locations, &out.behaviors);
  TracingListener tracer(&collector);
  const mc::ExplorationStats s = tracer.explore(engine, p.test_fn(&obs), t);
  out.exhausted = s.exhausted;
  out.executions = s.executions;
  out.rf_classes = s.rf_classes;
  out.rf_infeasible = s.rf_infeasible;
  return out;
}

bool is_subset(const fuzz::BehaviorSet& a, const fuzz::BehaviorSet& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

// fuzz::check_program's oracle sequence (src/fuzz/oracle.cc) with one
// timed phase per oracle. *base receives the exhaustive DFS's result.
fuzz::CheckResult traced_check_program(const fuzz::Program& p,
                                       const fuzz::OracleConfig& cfg,
                                       LayerTotals* t,
                                       fuzz::McBehaviors* base) {
  fuzz::CheckResult res;
  Clock::time_point a = Clock::now();
  auto lap = [&a](double* into) {
    const Clock::time_point b = Clock::now();
    *into += seconds_between(a, b);
    a = b;
  };
  auto disagree = [&res](fuzz::OracleKind k) {
    res.disagreements.push_back(fuzz::Disagreement{k, "", {}});
  };
  auto skip = [&res] {
    res.skipped = true;
    return res;
  };

  *base = traced_mc_behaviors(p, cfg, false, t);
  lap(&t->dfs_s);
  if (!base->exhausted) return skip();
  if (p.sc_only()) {
    fuzz::BehaviorSet ref;
    const bool complete = fuzz::interleaving_behaviors(p, cfg, &ref);
    lap(&t->sc_enum_s);
    if (!complete) return skip();
    ++res.oracles_run;
    if (base->behaviors != ref) disagree(fuzz::OracleKind::kScInterleaving);
  }
  for (const fuzz::StrengthenSite& site : fuzz::strengthen_sites(p)) {
    const fuzz::McBehaviors strong =
        traced_mc_behaviors(fuzz::strengthen_at(p, site), cfg, false, t);
    lap(&t->metamorphic_s);
    if (!strong.exhausted) return skip();
    ++res.oracles_run;
    if (!is_subset(strong.behaviors, base->behaviors)) {
      disagree(fuzz::OracleKind::kMonotonicity);
    }
  }
  const fuzz::McBehaviors sampled = traced_mc_behaviors(p, cfg, true, t);
  lap(&t->sampling_s);
  ++res.oracles_run;
  if (!is_subset(sampled.behaviors, base->behaviors)) {
    disagree(fuzz::OracleKind::kSampling);
  }
  return res;
}

// Longest shard span over the sum of the spans of the unit test that
// holds the most span time (the test that decides the row's wall time).
double largest_share_of(const std::vector<harness::ShardSpan>& spans) {
  struct Acc {
    double sum = 0.0;
    double longest = 0.0;
  };
  std::vector<std::pair<std::string, Acc>> tests;
  for (const harness::ShardSpan& s : spans) {
    const std::string test = s.name.substr(0, s.name.find(" shard "));
    auto it = std::find_if(tests.begin(), tests.end(),
                           [&](const auto& e) { return e.first == test; });
    if (it == tests.end()) {
      tests.emplace_back(test, Acc{});
      it = tests.end() - 1;
    }
    it->second.sum += s.duration_seconds;
    it->second.longest = std::max(it->second.longest, s.duration_seconds);
  }
  const Acc* top = nullptr;
  for (const auto& e : tests) {
    if (top == nullptr || e.second.sum > top->sum) top = &e.second;
  }
  return top == nullptr || top->sum <= 0.0 ? 0.0 : top->longest / top->sum;
}

}  // namespace

Workload::Workload(const std::string& name, std::uint64_t seed, bool smoke)
    : name_(name), seed_(seed) {
  if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const char* w) { return name == w; }) ==
      std::end(kWorkloads)) {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (is_fuzz()) {
    fuzz_order_ = shuffled(smoke ? kSmokeFuzzTrials : kFuzzTrials, seed_);
    return;
  }
  cds::ds::register_all_benchmarks();
  const bool schedule = name_ == "fig7_schedule";
  // Smoke: drop the heavy rows, except the capped Chase-Lev row of
  // fig7_schedule (its smoke cap keeps it cheap).
  std::uint64_t index = 0;
  for (std::uint64_t r : shuffled(std::size(kFigure7Rows), seed_)) {
    const std::string key = kFigure7Rows[r];
    const bool capped = schedule && key == "chase-lev-deque";
    if (smoke && is_heavy_row(key) && !capped) continue;
    Fig7Row row;
    row.bench = harness::find_benchmark(key);
    if (row.bench == nullptr) {
      throw std::runtime_error("benchmark '" + key + "' is not registered");
    }
    row.expect_cap = capped;
    row.opts.engine.explore =
        schedule ? mc::ExploreMode::kSchedule : mc::ExploreMode::kRf;
    row.opts.engine.max_executions =
        capped ? (smoke ? kSmokeChaseLevScheduleCap : kChaseLevScheduleCap)
               : kSafetyCap;
    row.opts.engine.seed = cds::support::derive_seed(seed_, 2 * index);
    row.opts.checker.seed = cds::support::derive_seed(seed_, 2 * index + 1);
    rows_.push_back(std::move(row));
    ++index;
  }
  if (name_ == "fig7_jobs4") {
    for (const Shape& s : kShapes) {
      ShapeInput in;
      in.name = s.name;
      std::string err;
      if (!fuzz::Program::parse(s.text, &in.program, &err)) {
        throw std::runtime_error("bad litmus shape " + in.name + ": " + err);
      }
      shapes_.push_back(std::move(in));
    }
  }
}

PassResult Workload::run(bool traced) {
  PassResult pass;
  LayerTotals* t = traced ? &pass.layers : nullptr;
  if (name_ == "fig7_jobs4" && t != nullptr) t->jobs = kJobs;
  if (is_fuzz()) replicas_.clear();
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  if (is_fuzz()) {
    for (std::uint64_t trial : fuzz_order_) {
      pass.rows.push_back(run_fuzz_trial(trial, traced, t));
    }
  } else {
    for (const Fig7Row& r : rows_) {
      pass.rows.push_back(name_ == "fig7_jobs4"
                              ? run_fig7_row_parallel(r, traced, t)
                              : run_fig7_row(r, traced, t));
    }
    for (const ShapeInput& s : shapes_) {
      pass.rows.push_back(run_shape(s, traced, t));
    }
  }
  pass.verdict_s = seconds_between(t0, Clock::now());
  pass.cpu_s = cpu_seconds() - cpu0;
  // Probe timing repeats work the sharded calls already did, so it runs
  // after the pass's clock stopped.
  if (t != nullptr && name_ == "fig7_jobs4") time_shard_probes(t);
  return pass;
}

RowResult Workload::run_fig7_row(const Fig7Row& r, bool traced,
                                 LayerTotals* t) {
  RowResult row;
  row.name = r.bench->name;
  row.mode = mc::to_string(r.opts.engine.explore);
  const Clock::time_point t0 = Clock::now();
  if (!traced) {
    const harness::RunResult res = harness::run_benchmark(*r.bench, r.opts);
    row.seconds = seconds_between(t0, Clock::now());
    check_fig7(&row, res.verdict, res.mc, r.expect_cap);
    return row;
  }
  // run_benchmark's per-test loop, with the tracing listener between the
  // engine and the spec checker.
  mc::ExplorationStats total;
  mc::Verdict verdict = mc::Verdict::kVerifiedExhaustive;
  for (std::size_t i = 0; i < r.bench->tests.size(); ++i) {
    mc::Config cfg = r.opts.engine;
    cfg.test_name = r.bench->name + "#" + std::to_string(i);
    cfg.test_index = static_cast<std::uint32_t>(i);
    mc::Engine engine(cfg);
    cds::spec::SpecChecker checker(r.opts.checker);
    checker.attach(engine);
    TracingListener tracer(&checker);
    const double inner_before = t->inner_s;
    const mc::ExplorationStats s = tracer.explore(engine, r.bench->tests[i], t);
    t->spec_s += t->inner_s - inner_before;
    const cds::spec::SpecChecker::Stats& cs = checker.stats();
    t->spec_checks += cs.executions_checked;
    t->spec_histories += cs.histories_checked;
    t->spec_justifications += cs.justification_checks;
    t->spec_cap_hits += engine.metrics().counter_value("spec.cap_hits");
    checker.detach();
    mc::merge_shard_stats(total, s);
    weaken(verdict, s.verdict);
  }
  row.seconds = seconds_between(t0, Clock::now());
  check_fig7(&row, verdict, total, r.expect_cap);
  return row;
}

RowResult Workload::run_fig7_row_parallel(const Fig7Row& r, bool traced,
                                          LayerTotals* t) {
  RowResult row;
  row.name = r.bench->name;
  row.mode = std::string(mc::to_string(r.opts.engine.explore)) + "/jobs" +
             std::to_string(kJobs);
  harness::ParallelOptions par;
  par.jobs = kJobs;
  const Clock::time_point t0 = Clock::now();
  const harness::ParallelRunResult outcome =
      harness::run_benchmark_parallel(*r.bench, r.opts, par);
  row.seconds = seconds_between(t0, Clock::now());
  check_fig7(&row, outcome.merged.verdict, outcome.merged.mc, r.expect_cap);
  if (outcome.crashed_shards != 0 || !outcome.resume_error.empty()) {
    row.ok = false;
    row.problem += (row.problem.empty() ? "" : "; ") +
                   std::to_string(outcome.crashed_shards) + " crashed shards " +
                   outcome.resume_error;
  }
  if (traced) {
    row.largest_share = largest_share_of(outcome.spans);
    t->add_exploration(outcome.merged.mc, outcome.merged.metrics);
    t->worker_explore_s += outcome.merged.mc.seconds;
    t->spec_checks += outcome.merged.spec.executions_checked;
    t->spec_histories += outcome.merged.spec.histories_checked;
    t->spec_justifications += outcome.merged.spec.justification_checks;
    t->spec_cap_hits += outcome.merged.metrics.counter_value("spec.cap_hits");
    t->shard_units += outcome.shards;
    t->shard_crashed += outcome.crashed_shards;
    for (const harness::ShardSpan& s : outcome.spans) {
      t->span_sum_s += s.duration_seconds;
    }
    t->sharded_wall_s += row.seconds;
    t->largest_share = std::max(t->largest_share, row.largest_share);
  }
  return row;
}

RowResult Workload::run_shape(const ShapeInput& s, bool traced,
                              LayerTotals* t) {
  RowResult row;
  row.name = s.name;
  fuzz::OracleConfig cfg;
  cfg.jobs = kJobs;
  row.mode = std::string(mc::to_string(cfg.explore)) + "/jobs" +
             std::to_string(kJobs);
  const Clock::time_point t0 = Clock::now();
  fuzz::McBehaviors got;
  if (!traced) {
    got = fuzz::mc_behaviors(s.program, cfg);
    row.seconds = seconds_between(t0, Clock::now());
  } else {
    // mc_behaviors' sharded path, assembled from enumerate_shard_prefixes
    // and fork_map so the coordinator-side shard spans are visible.
    const mc::Config ec = oracle_engine_config(cfg, false);
    std::vector<std::uint64_t> probe_obs;
    const mc::ShardPlan plan = mc::enumerate_shard_prefixes(
        ec, s.program.test_fn(&probe_obs), kShardDepth, kShardUnits);
    auto work = [&](std::size_t i) -> std::string {
      std::vector<std::uint64_t> obs;
      fuzz::BehaviorSet shard_set;
      mc::Engine engine(ec);
      engine.set_subtree(plan.prefixes[i]);
      BehaviorCollector collector(&obs, s.program.locations, &shard_set);
      engine.set_listener(&collector);
      const mc::ExplorationStats st = engine.explore(s.program.test_fn(&obs));
      std::ostringstream os;
      os << (st.exhausted ? 1 : 0) << ' ' << st.executions << ' '
         << st.feasible << ' ' << st.rf_infeasible << ' ' << st.seconds
         << '\n';
      for (const std::string& b : shard_set) os << b << '\n';
      return os.str();
    };
    mc::ForkMapOptions fopts;
    fopts.jobs = kJobs;
    const std::vector<mc::UnitResult> results =
        mc::fork_map(plan.prefixes.size(), work, fopts);
    row.seconds = seconds_between(t0, Clock::now());
    got.exhausted = true;
    std::vector<harness::ShardSpan> spans;
    for (const mc::UnitResult& u : results) {
      std::istringstream is(u.text);
      int exhausted = 0;
      std::uint64_t execs = 0, feasible = 0, rf_inf = 0;
      double secs = 0.0;
      if (!u.ran || !(is >> exhausted >> execs >> feasible >> rf_inf >> secs)) {
        got.exhausted = false;
        ++t->shard_crashed;
        continue;
      }
      got.exhausted = got.exhausted && exhausted == 1;
      got.executions += execs;
      got.rf_infeasible += rf_inf;
      t->executions += execs;
      t->feasible += feasible;
      t->rf_infeasible += rf_inf;
      t->worker_explore_s += secs;
      std::string line;
      std::getline(is, line);
      while (std::getline(is, line)) {
        if (!line.empty()) got.behaviors.insert(line);
      }
      harness::ShardSpan span;
      span.name = s.name + "#0 shard";
      span.duration_seconds = u.done_seconds - u.assigned_seconds;
      t->span_sum_s += span.duration_seconds;
      spans.push_back(std::move(span));
    }
    row.largest_share = largest_share_of(spans);
    t->largest_share = std::max(t->largest_share, row.largest_share);
    t->shard_units += results.size();
    t->sharded_wall_s += row.seconds;
  }
  row.executions = got.executions;
  row.rf_infeasible = got.rf_infeasible;
  row.signature = shape_signature(got.exhausted, got.executions, got.behaviors);
  std::size_t want = 0;
  for (const ShapeAnswer& a : kShapeAnswers) {
    if (s.name == a.name) want = a.behaviors;
  }
  if (!got.exhausted || got.behaviors.size() != want) {
    row.ok = false;
    row.problem = "expected an exhaustive run with " + std::to_string(want) +
                  " behaviors, got " + std::to_string(got.behaviors.size()) +
                  (got.exhausted ? "" : " (not exhausted)");
  }
  return row;
}

RowResult Workload::run_fuzz_trial(std::uint64_t trial, bool traced,
                                   LayerTotals* t) {
  RowResult row;
  row.name = "trial" + std::to_string(trial);
  row.mode = "oracles";
  const std::uint64_t seed = fuzz::trial_seed(kFuzzRoot, trial);
  fuzz::OracleConfig cfg;
  cfg.seed = seed;
  const Clock::time_point t0 = Clock::now();
  const fuzz::Program p = fuzz::generate(fuzz_profile(trial), seed);
  fuzz::CheckResult res;
  if (!traced) {
    res = fuzz::check_program(p, cfg);
  } else {
    t->generate_s += seconds_between(t0, Clock::now());
    Replica replica{row.name, p, cfg, {}};
    res = traced_check_program(p, cfg, t, &replica.got);
    replicas_.push_back(std::move(replica));
    ++t->fuzz_trials;
    t->fuzz_oracle_checks += static_cast<std::uint64_t>(res.oracles_run);
    t->fuzz_skipped += res.skipped ? 1 : 0;
  }
  row.seconds = seconds_between(t0, Clock::now());
  std::ostringstream sig;
  sig << "oracles=" << res.oracles_run << " agreed=" << res.agreed()
      << " skipped=" << res.skipped;
  row.signature = sig.str();
  if (!res.agreed()) {
    row.ok = false;
    row.problem = res.skipped ? "skipped: " + res.skip_reason
                              : std::to_string(res.disagreements.size()) +
                                    " oracle disagreements";
  }
  return row;
}

void Workload::time_shard_probes(LayerTotals* t) {
  for (const Fig7Row& r : rows_) {
    for (std::size_t i = 0; i < r.bench->tests.size(); ++i) {
      mc::Config cfg = r.opts.engine;
      cfg.test_name = r.bench->name + "#" + std::to_string(i);
      cfg.test_index = static_cast<std::uint32_t>(i);
      const Clock::time_point t0 = Clock::now();
      const mc::ShardPlan plan = mc::enumerate_shard_prefixes(
          cfg, r.bench->tests[i], kShardDepth, kShardUnits);
      t->probe_s += seconds_between(t0, Clock::now());
      t->probe_executions += plan.probe_executions;
    }
  }
  for (const ShapeInput& s : shapes_) {
    const mc::Config ec = oracle_engine_config(fuzz::OracleConfig{}, false);
    std::vector<std::uint64_t> obs;
    const Clock::time_point t0 = Clock::now();
    const mc::ShardPlan plan = mc::enumerate_shard_prefixes(
        ec, s.program.test_fn(&obs), kShardDepth, kShardUnits);
    t->probe_s += seconds_between(t0, Clock::now());
    t->probe_executions += plan.probe_executions;
  }
}

std::vector<std::string> Workload::verify_replicas() {
  std::vector<std::string> diffs;
  for (const Replica& r : replicas_) {
    const fuzz::McBehaviors real = fuzz::mc_behaviors(r.program, r.cfg);
    if (real.executions != r.got.executions ||
        real.exhausted != r.got.exhausted ||
        real.behaviors != r.got.behaviors) {
      diffs.push_back(r.what + ": traced DFS " +
                      shape_signature(r.got.exhausted, r.got.executions,
                                      r.got.behaviors) +
                      ", fuzz::mc_behaviors " +
                      shape_signature(real.exhausted, real.executions,
                                      real.behaviors));
    }
  }
  return diffs;
}

}  // namespace perfbench
