// Parallel sharded exploration: the merged result of a --jobs N run must
// be bit-identical (executions, prunes, spec counters, verdict) to the
// serial run on exhaustive workloads, also when idle workers split a
// running shard's frontier (work stealing), and a worker killed mid-shard
// must be contained as that shard's outcome without taking the run down.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "dist/journal.h"
#include "ds/suite.h"
#include "fuzz/oracle.h"
#include "fuzz/program.h"
#include "harness/parallel.h"
#include "harness/runner.h"
#include "harness/shard_result.h"
#include "inject/inject.h"
#include "mc/atomic.h"
#include "mc/shard.h"
#include "mc/trace.h"
#include "mc/var.h"

namespace cds {
namespace {

void expect_merged_equals_serial(const harness::RunResult& serial,
                                 const harness::RunResult& merged) {
  EXPECT_EQ(merged.mc.executions, serial.mc.executions);
  EXPECT_EQ(merged.mc.feasible, serial.mc.feasible);
  EXPECT_EQ(merged.mc.pruned_livelock, serial.mc.pruned_livelock);
  EXPECT_EQ(merged.mc.pruned_bound, serial.mc.pruned_bound);
  EXPECT_EQ(merged.mc.pruned_redundant, serial.mc.pruned_redundant);
  EXPECT_EQ(merged.mc.engine_fatal_execs, serial.mc.engine_fatal_execs);
  EXPECT_EQ(merged.mc.violations_total, serial.mc.violations_total);
  EXPECT_EQ(merged.mc.max_trail_depth, serial.mc.max_trail_depth);
  EXPECT_EQ(merged.mc.exhausted, serial.mc.exhausted);
  EXPECT_EQ(merged.verdict, serial.verdict);
  EXPECT_EQ(merged.spec.executions_checked, serial.spec.executions_checked);
  EXPECT_EQ(merged.spec.histories_checked, serial.spec.histories_checked);
  EXPECT_EQ(merged.spec.justification_checks,
            serial.spec.justification_checks);
  EXPECT_EQ(merged.spec.inadmissible_execs, serial.spec.inadmissible_execs);
  EXPECT_EQ(merged.spec.assertion_violation_execs,
            serial.spec.assertion_violation_execs);
  EXPECT_EQ(merged.detected_builtin(), serial.detected_builtin());
  EXPECT_EQ(merged.detected_admissibility(),
            serial.detected_admissibility());
  EXPECT_EQ(merged.detected_assertion(), serial.detected_assertion());
}

TEST(ParallelHarness, MergedStatsMatchSerialOnCleanBenchmarks) {
  ds::register_all_benchmarks();
  for (const char* name : {"ticket-lock", "peterson-lock"}) {
    const auto* b = harness::find_benchmark(name);
    ASSERT_NE(b, nullptr) << name;
    harness::RunOptions opts;
    harness::RunResult serial = harness::run_benchmark(*b, opts);
    harness::ParallelOptions par;
    par.jobs = 4;
    harness::ParallelRunResult pr =
        harness::run_benchmark_parallel(*b, opts, par);
    SCOPED_TRACE(name);
    EXPECT_GT(pr.shards, 1u) << "sharding should split the DFS tree";
    EXPECT_EQ(pr.crashed_shards, 0u);
    expect_merged_equals_serial(serial, pr.merged);
    EXPECT_EQ(pr.merged.verdict, mc::Verdict::kVerifiedExhaustive);
  }
}

TEST(ParallelHarness, MergedStatsMatchSerialOnFalsifiedBenchmark) {
  // Weaken the first injectable ticket-lock site: both the serial and the
  // sharded run must falsify with the same violation totals.
  ds::register_all_benchmarks();
  const auto* b = harness::find_benchmark("ticket-lock");
  ASSERT_NE(b, nullptr);
  bool injected = false;
  for (const auto& s : inject::sites_for(b->name)) {
    if (!s.injectable()) continue;
    inject::inject(s.id);
    injected = true;
    break;
  }
  ASSERT_TRUE(injected);
  harness::RunOptions opts;
  harness::RunResult serial = harness::run_benchmark(*b, opts);
  harness::ParallelOptions par;
  par.jobs = 4;
  harness::ParallelRunResult pr =
      harness::run_benchmark_parallel(*b, opts, par);
  inject::clear_injection();
  expect_merged_equals_serial(serial, pr.merged);
  EXPECT_EQ(pr.merged.verdict, mc::Verdict::kFalsified);
  ASSERT_FALSE(pr.merged.violations.empty());
  ASSERT_FALSE(serial.violations.empty());
  // Shards merge in DFS order, so the surfaced first witness is the
  // serial run's first violation (same kind on the same unit test).
  EXPECT_EQ(pr.merged.violations.front().kind, serial.violations.front().kind);
  EXPECT_EQ(pr.merged.violations.front().test_index,
            serial.violations.front().test_index);
}

// Every shard's checker keeps its own first max_reports reports; the
// merge keeps each unit test's first max_reports in DFS order, as the one
// checker of a serial run does. Only the execution numbers in the traces
// may differ: a shard counts from its own first execution.
TEST(ParallelHarness, ReportsAreCappedPerUnitTestAsInSerial) {
  ds::register_all_benchmarks();
  const auto* b = harness::find_benchmark("ticket-lock");
  ASSERT_NE(b, nullptr);
  for (const auto& s : inject::sites_for(b->name)) {
    if (s.injectable()) {
      inject::inject(s.id);
      break;
    }
  }
  auto without_execution_numbers = [](const std::vector<std::string>& reps) {
    std::vector<std::string> out;
    for (std::string r : reps) {
      const std::size_t at = r.find("execution #");
      if (at != std::string::npos) {
        const std::size_t end = r.find(' ', at + 11);
        r.erase(at + 11, end - (at + 11));
      }
      out.push_back(std::move(r));
    }
    return out;
  };
  harness::RunOptions opts;
  const harness::RunResult serial = harness::run_benchmark(*b, opts);
  std::vector<harness::RunResult> sharded;
  for (int jobs : {2, 4}) {
    harness::ParallelOptions par;
    par.jobs = jobs;
    sharded.push_back(harness::run_benchmark_parallel(*b, opts, par).merged);
  }
  inject::clear_injection();
  ASSERT_EQ(serial.verdict, mc::Verdict::kFalsified);
  ASSERT_GT(serial.reports.size(), opts.checker.max_reports);
  for (const harness::RunResult& merged : sharded) {
    EXPECT_EQ(without_execution_numbers(merged.reports),
              without_execution_numbers(serial.reports));
  }
}

TEST(ParallelHarness, FuzzOracleShardedBehaviorsMatchSerial) {
  for (const char* name : {"mp_relacq", "casloop_mixed", "iriw_sc"}) {
    std::string path = std::string(CDS_CORPUS_DIR) + "/" + name + ".litmus";
    std::ifstream f(path);
    ASSERT_TRUE(f.is_open()) << path;
    std::ostringstream buf;
    buf << f.rdbuf();
    fuzz::Program p;
    std::string err;
    ASSERT_TRUE(fuzz::Program::parse(buf.str(), &p, &err)) << path << ": "
                                                           << err;
    fuzz::OracleConfig serial_cfg;
    fuzz::McBehaviors serial = fuzz::mc_behaviors(p, serial_cfg);
    fuzz::OracleConfig par_cfg;
    par_cfg.jobs = 4;
    fuzz::McBehaviors sharded = fuzz::mc_behaviors(p, par_cfg);
    SCOPED_TRACE(name);
    EXPECT_EQ(sharded.behaviors, serial.behaviors);
    EXPECT_EQ(sharded.exhausted, serial.exhausted);
    EXPECT_EQ(sharded.executions, serial.executions);
  }
}

#if defined(__unix__) || defined(__APPLE__)

TEST(ParallelSlow, SigkilledWorkerIsContainedAsCrashedShard) {
  // A worker SIGKILLed while holding a shard must become that shard's
  // verdict: the run completes, the shard is recorded crashed, and the
  // merged verdict degrades to inconclusive (its subtree went unexplored).
  harness::Benchmark victim;
  victim.name = "parallel-sigkill";
  victim.display = "Parallel containment (synthetic)";
  victim.spec = nullptr;
  victim.tests.push_back([](mc::Exec& x) {
    auto* a = x.make<mc::Atomic<int>>(0, "a");
    auto* c = x.make<mc::Atomic<int>>(0, "b");
    int t1 = x.spawn([a, c] {
      a->store(1, mc::MemoryOrder::relaxed);
      (void)c->load(mc::MemoryOrder::relaxed);
    });
    int t2 = x.spawn([a, c] {
      c->store(1, mc::MemoryOrder::relaxed);
      (void)a->load(mc::MemoryOrder::relaxed);
    });
    x.join(t1);
    x.join(t2);
  });

  harness::RunOptions opts;
  harness::ParallelOptions par;
  par.jobs = 2;
  par.shard_depth = 3;
  par.sigkill_shard = 0;
  harness::ParallelRunResult pr =
      harness::run_benchmark_parallel(victim, opts, par);
  EXPECT_GE(pr.shards, 2u);
  EXPECT_EQ(pr.crashed_shards, 1u);
  EXPECT_EQ(pr.merged.verdict, mc::Verdict::kInconclusive);
  EXPECT_FALSE(pr.merged.mc.exhausted);
  // The surviving workers still covered every other shard.
  EXPECT_GT(pr.merged.mc.executions, 0u);
}

#endif  // fork-capable platforms


// ---------------------------------------------------------------------------
// Work stealing: idle workers split the frontier of the longest-running
// shard. Whatever the split, the merge must equal the serial run.
// ---------------------------------------------------------------------------

void expect_bit_identical(const harness::RunResult& serial,
                          const harness::RunResult& merged) {
  expect_merged_equals_serial(serial, merged);
  EXPECT_EQ(merged.mc.rf_classes, serial.mc.rf_classes);
  EXPECT_EQ(merged.mc.rf_infeasible, serial.mc.rf_infeasible);
  const auto& sc = serial.metrics.counters();
  const auto& pc = merged.metrics.counters();
  ASSERT_EQ(pc.size(), sc.size());
  for (const auto& [name, c] : sc) {
    auto it = pc.find(name);
    ASSERT_NE(it, pc.end()) << name;
    EXPECT_EQ(it->second.value, c.value) << name;
  }
  const auto& sh = serial.metrics.histograms();
  const auto& ph = merged.metrics.histograms();
  ASSERT_EQ(ph.size(), sh.size());
  for (const auto& [name, h] : sh) {
    auto it = ph.find(name);
    ASSERT_NE(it, ph.end()) << name;
    EXPECT_EQ(it->second.samples, h.samples) << name;
    EXPECT_EQ(it->second.buckets, h.buckets) << name;
  }
}

void expect_same_records(const harness::RunResult& serial,
                         const harness::RunResult& merged) {
  ASSERT_EQ(merged.violations.size(), serial.violations.size());
  for (std::size_t i = 0; i < serial.violations.size(); ++i) {
    const mc::Violation& s = serial.violations[i];
    const mc::Violation& m = merged.violations[i];
    SCOPED_TRACE("violation " + std::to_string(i));
    EXPECT_EQ(m.kind, s.kind);
    EXPECT_EQ(m.test_index, s.test_index);
    EXPECT_EQ(m.detail, s.detail);
    EXPECT_EQ(mc::render_choices(m.trail), mc::render_choices(s.trail));
  }
  EXPECT_EQ(merged.reports, serial.reports);
}

// The unit test of `b` numbered `i` alone, so a test can plan it as one
// shard and know which result comes first.
harness::Benchmark single_test(const harness::Benchmark& b, std::size_t i) {
  harness::Benchmark one = b;
  one.name = b.name + "-test" + std::to_string(i);
  one.tests = {b.tests[i]};
  return one;
}

struct StealCase {
  const char* bench;
  mc::ExploreMode mode;
};

class ParallelStealSlow : public testing::TestWithParam<StealCase> {};

TEST_P(ParallelStealSlow, StealsAndMergesBitIdenticalToSerial) {
  ds::register_all_benchmarks();
  const auto* b = harness::find_benchmark(GetParam().bench);
  ASSERT_NE(b, nullptr);
  harness::RunOptions opts;
  opts.engine.explore = GetParam().mode;
  // Schedule-mode Chase-Lev takes 2.7M executions at the default bound.
  if (GetParam().mode == mc::ExploreMode::kSchedule &&
      b->name == "chase-lev-deque") {
    opts.engine.stale_read_bound = 0;
  }
  harness::RunResult serial = harness::run_benchmark(*b, opts);
  ASSERT_EQ(serial.verdict, mc::Verdict::kVerifiedExhaustive);
  harness::ParallelOptions par;
  par.jobs = 4;
  harness::ParallelRunResult pr = harness::run_benchmark_parallel(*b, opts, par);
  EXPECT_EQ(pr.crashed_shards, 0u);
  EXPECT_GT(pr.steals, 0u) << "one shard dominates: idle workers must steal";
  EXPECT_GT(pr.minted, 0u);
  EXPECT_GT(pr.shards, pr.minted) << "minted shards add to the plan";
  expect_bit_identical(serial, pr.merged);
}

INSTANTIATE_TEST_SUITE_P(
    DominantShards, ParallelStealSlow,
    testing::Values(StealCase{"chase-lev-deque", mc::ExploreMode::kRf},
                    StealCase{"chase-lev-deque", mc::ExploreMode::kSchedule},
                    StealCase{"mcs-lock", mc::ExploreMode::kRf},
                    StealCase{"mcs-lock", mc::ExploreMode::kSchedule}),
    [](const testing::TestParamInfo<StealCase>& info) {
      std::string n = std::string(info.param.bench) + "_" +
                      mc::to_string(info.param.mode);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

// A relaxed-publication bug (the flag store should be release) that DFS
// reaches only after a clean subtree of ~24k executions: the racing
// reader runs only when t2 wins the race for `first`, the second
// alternative of the first schedule choice. Planned as one shard, the run
// is preempted long before that, so the first violation lies in a minted
// sub-shard.
harness::Benchmark late_bug_bench() {
  harness::Benchmark b;
  b.name = "steal-late-bug";
  b.display = "Late relaxed-publication bug (synthetic)";
  b.spec = nullptr;
  b.tests.push_back([](mc::Exec& x) {
    auto* first = x.make<mc::Atomic<int>>(0, "first");
    auto* pad = x.make<mc::Atomic<int>>(0, "pad");
    auto* flag = x.make<mc::Atomic<int>>(0, "flag");
    auto* data = x.make<mc::Var<int>>(0, "data");
    auto racer = [first, pad](int id) {
      int expected = 0;
      (void)first->compare_exchange_strong(expected, id,
                                           mc::MemoryOrder::acq_rel,
                                           mc::MemoryOrder::relaxed);
      for (int k = 0; k < 8; ++k) pad->fetch_add(1, mc::MemoryOrder::relaxed);
    };
    int t1 = x.spawn([racer] { racer(1); });
    int t2 = x.spawn([racer] { racer(2); });
    x.join(t1);
    x.join(t2);
    if (first->load(mc::MemoryOrder::relaxed) != 2) return;
    int w = x.spawn([flag, data] {
      data->write(1);
      flag->store(1, mc::MemoryOrder::relaxed);
    });
    int r = x.spawn([flag, data] {
      if (flag->load(mc::MemoryOrder::acquire) == 1) (void)data->read();
    });
    x.join(w);
    x.join(r);
  });
  return b;
}

TEST(ParallelStealRecords, FirstViolationInAMintedSubShardMatchesSerial) {
  harness::Benchmark b = late_bug_bench();
  harness::RunOptions opts;
  harness::RunResult serial = harness::run_benchmark(b, opts);
  ASSERT_EQ(serial.verdict, mc::Verdict::kFalsified);
  ASSERT_FALSE(serial.violations.empty());
  ASSERT_GT(serial.violations.front().execution_index, 10000u)
      << "the bug must sit behind a large clean subtree";
  harness::ParallelOptions par;
  par.jobs = 4;
  par.max_shards = 1;
  harness::ParallelRunResult pr = harness::run_benchmark_parallel(b, opts, par);
  EXPECT_GT(pr.steals, 0u);
  EXPECT_EQ(pr.merged.verdict, mc::Verdict::kFalsified);
  expect_merged_equals_serial(serial, pr.merged);
  expect_same_records(serial, pr.merged);
  // A shard counts its executions from its own first one: found where
  // serial DFS found it, the index would match.
  ASSERT_FALSE(pr.merged.violations.empty());
  EXPECT_LT(pr.merged.violations.front().execution_index,
            serial.violations.front().execution_index)
      << "the first violation must come from a minted sub-shard";
}

#if defined(__unix__) || defined(__APPLE__)

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + name + "." + std::to_string(getpid());
}

// Kills the run inside the journal's write-ahead window right after the
// first result record — with one planned shard and two workers, that is
// the preempted root shard — and returns whether the journal then holds
// a preempted result.
bool kill_after_first_preempted_result(const harness::Benchmark& b,
                                       const harness::RunOptions& opts,
                                       const harness::ParallelOptions& par) {
  pid_t pid = fork();
  if (pid == 0) {
    harness::ParallelOptions chaos = par;
    chaos.coord_chaos.kill_before_merge_on = 1;
    (void)harness::run_benchmark_parallel(b, opts, chaos);
    _exit(3);
  }
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFSIGNALED(status) ||
      WTERMSIG(status) != SIGKILL) {
    return false;
  }
  dist::JournalReplay rep;
  std::string err;
  if (!dist::load_journal(par.journal_path, &rep, &err)) return false;
  for (const dist::JournalRecord& r : rep.records) {
    harness::ShardResult sr;
    if (r.kind == dist::JournalRecord::Kind::kResult &&
        harness::parse_shard_result(r.payload, &sr, &err) &&
        sr.stats.preempted) {
      return true;
    }
  }
  return false;
}

// fork_map's stealing form on its own: a unit appended after the fork
// reaches its worker with its payload, and a stop request names the unit
// it targets, so the worker's next unit never sees it.
TEST(ForkMap, StopRequestsNameTheUnitTheyTarget) {
  mc::UnitQueue units;
  units.push("spin");
  mc::ForkMapOptions fm;
  fm.jobs = 2;
  fm.preemptible = [](std::size_t u) { return u == 0; };
  fm.on_result = [&](std::size_t u, mc::UnitResult& r) {
    if (u == 0 && r.text == "stopped") {
      units.push("late-1");
      units.push("late-2");
    }
  };
  const auto work = [](std::size_t, const std::string& payload,
                       const std::function<bool()>& stop) -> std::string {
    const auto t0 = std::chrono::steady_clock::now();
    auto ms = [&] {
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
          .count();
    };
    if (payload == "spin") {
      while (!stop()) {
        if (ms() > 5000) return "never stopped";
      }
      return "stopped";
    }
    // Both late units run at once, so one lands on the worker whose word
    // still names unit 0.
    while (ms() < 20) {
      if (stop()) return payload + " stopped";
    }
    return payload + " ran";
  };
  const std::vector<mc::UnitResult> out = mc::fork_map(units, work, fm);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].text, "stopped");
  EXPECT_EQ(out[1].text, "late-1 ran");
  EXPECT_EQ(out[2].text, "late-2 ran");
  EXPECT_NE(out[1].worker, out[2].worker);
}

TEST(ParallelStealSlow, KilledWithAPreemptedResultResumesBitIdentical) {
  ds::register_all_benchmarks();
  const auto* cl = harness::find_benchmark("chase-lev-deque");
  ASSERT_NE(cl, nullptr);
  const harness::Benchmark b = single_test(*cl, 0);
  harness::RunOptions opts;
  opts.engine.explore = mc::ExploreMode::kRf;
  harness::RunResult serial = harness::run_benchmark(b, opts);
  const std::string path = tmp_path("steal-kill.journal");
  std::remove(path.c_str());
  harness::ParallelOptions par;
  par.jobs = 2;
  par.max_shards = 1;
  par.journal_path = path;
  ASSERT_TRUE(kill_after_first_preempted_result(b, opts, par));

  par.resume = true;
  harness::ParallelRunResult r = harness::run_benchmark_parallel(b, opts, par);
  ASSERT_TRUE(r.resume_error.empty()) << r.resume_error;
  EXPECT_TRUE(r.resumed);
  EXPECT_EQ(r.epoch, 2u);
  EXPECT_EQ(r.replayed_shards, 1u) << "the preempted root comes back";
  EXPECT_GT(r.minted, 0u) << "replay re-mints the root's sub-shards";
  expect_bit_identical(serial, r.merged);
  std::remove(path.c_str());
}

TEST(ParallelStealPolicy, OneJobNeverSteals) {
  ds::register_all_benchmarks();
  const auto* cl = harness::find_benchmark("chase-lev-deque");
  ASSERT_NE(cl, nullptr);
  const harness::Benchmark b = single_test(*cl, 1);
  harness::RunOptions opts;
  opts.engine.explore = mc::ExploreMode::kRf;
  harness::RunResult serial = harness::run_benchmark(b, opts);
  harness::ParallelOptions par;
  par.jobs = 1;
  par.max_shards = 4;
  harness::ParallelRunResult pr = harness::run_benchmark_parallel(b, opts, par);
  EXPECT_EQ(pr.steals, 0u);
  EXPECT_EQ(pr.minted, 0u);
  expect_bit_identical(serial, pr.merged);
}

// A time budget applies per planned shard, and a sub-shard would run
// under a fresh one: a time-budgeted run keeps its static plan and ends
// within about ceil(shards / jobs) budgets.
TEST(ParallelStealPolicy, TimeBudgetedRunsNeverSplitAShard) {
  ds::register_all_benchmarks();
  const auto* cl = harness::find_benchmark("chase-lev-deque");
  ASSERT_NE(cl, nullptr);
  harness::ParallelOptions par;
  par.jobs = 4;
  harness::RunOptions timed;
  timed.engine.time_budget_seconds = 0.1;
  const auto t0 = std::chrono::steady_clock::now();
  const harness::ParallelRunResult pr =
      harness::run_benchmark_parallel(*cl, timed, par);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_EQ(pr.merged.verdict, mc::Verdict::kInconclusive);
  EXPECT_TRUE(pr.merged.mc.hit_time_budget);
  EXPECT_EQ(pr.steals, 0u);
  EXPECT_EQ(pr.minted, 0u);
  const double rounds = std::ceil(static_cast<double>(pr.shards) / par.jobs);
  EXPECT_LT(wall, rounds * timed.engine.time_budget_seconds + 2.0)
      << pr.shards << " shards";
}

// An execution cap stays exact under stealing. Chase-Lev's first unit
// test has one planned shard of 43,594 rf executions: capped at 20,000 it
// is split, its pieces reach the cap, and it re-runs whole, merging
// exactly as the unsplit --jobs 1 run of the same plan. A cap it never
// reaches leaves the split run equal to the serial one.
TEST(ParallelStealSlow, CappedRunsMergeAsIfNeverSplit) {
  ds::register_all_benchmarks();
  const auto* cl = harness::find_benchmark("chase-lev-deque");
  ASSERT_NE(cl, nullptr);
  const harness::Benchmark b = single_test(*cl, 0);
  harness::RunOptions generous;
  generous.engine.explore = mc::ExploreMode::kRf;
  generous.engine.max_executions = 1000000;
  const harness::RunResult serial = harness::run_benchmark(b, generous);
  ASSERT_TRUE(serial.mc.exhausted);
  // A cap the largest of the four planned shards reaches, taken from the
  // uncapped size so it keeps biting whatever the tree's size.
  harness::RunOptions capped = generous;
  capped.engine.max_executions = serial.mc.executions / 8;
  harness::ParallelOptions one;
  one.jobs = 1;
  one.max_shards = 4;
  const harness::ParallelRunResult unsplit =
      harness::run_benchmark_parallel(b, capped, one);
  ASSERT_EQ(unsplit.steals, 0u);
  ASSERT_TRUE(unsplit.merged.mc.hit_execution_cap);
  harness::ParallelOptions four = one;
  four.jobs = 4;
  const harness::ParallelRunResult split =
      harness::run_benchmark_parallel(b, capped, four);
  EXPECT_GT(split.steals, 0u);
  EXPECT_GT(split.minted, 0u);
  EXPECT_EQ(split.crashed_shards, 0u);
  expect_bit_identical(unsplit.merged, split.merged);
  expect_same_records(unsplit.merged, split.merged);

  const harness::ParallelRunResult stolen =
      harness::run_benchmark_parallel(b, generous, four);
  EXPECT_GT(stolen.steals, 0u);
  expect_bit_identical(serial, stolen.merged);
}

#endif  // fork-capable platforms

}  // namespace
}  // namespace cds
