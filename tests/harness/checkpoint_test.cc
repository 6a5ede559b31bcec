// Serial `--checkpoint`: a journaled one-job shard run (one planned shard
// per unit test, harness/parallel.h). SIGKILLed at any journal append and
// resumed with the same flags, it must report exactly what run_benchmark
// reports — counters, verdict, violations with their trails, reports — in
// both explore modes and across unit tests. A preempted shard's minted
// remainder must rebuild sleep-set state at every split point, a resume
// under different flags is refused naming the flag, and a journaled
// result that no longer parses is recomputed.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
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
#include "dist/shard_table.h"
#include "ds/suite.h"
#include "harness/parallel.h"
#include "harness/runner.h"
#include "harness/shard_result.h"
#include "inject/inject.h"
#include "mc/atomic.h"
#include "mc/trace.h"
#include "mc/var.h"

namespace cds {
namespace {

// Three-thread relaxed message-passing cycle: enough schedule and
// reads-from branching for a few hundred executions, all feasible, with
// sleep-set pruning.
void cyclic_body(mc::Exec& x) {
  auto* a = x.make<mc::Atomic<int>>(0, "a");
  auto* b = x.make<mc::Atomic<int>>(0, "b");
  auto* c = x.make<mc::Atomic<int>>(0, "c");
  mc::Atomic<int>* v[3] = {a, b, c};
  int tids[3];
  for (int i = 0; i < 3; ++i) {
    tids[i] = x.spawn([v, i] {
      v[i]->store(1, mc::MemoryOrder::relaxed);
      (void)v[(i + 1) % 3]->load(mc::MemoryOrder::relaxed);
      v[i]->store(2, mc::MemoryOrder::relaxed);
      (void)v[(i + 2) % 3]->load(mc::MemoryOrder::relaxed);
    });
  }
  for (int tid : tids) x.join(tid);
}

void tiny_body(mc::Exec& x) {
  auto* a = x.make<mc::Atomic<int>>(0, "a");
  int t = x.spawn([a] { a->store(1, mc::MemoryOrder::relaxed); });
  (void)a->load(mc::MemoryOrder::relaxed);
  x.join(t);
}

// A relaxed publication: the reader can see the flag yet race on `data`.
void racy_body(mc::Exec& x) {
  auto* flag = x.make<mc::Atomic<int>>(0, "flag");
  auto* data = x.make<mc::Var<int>>(0, "data");
  int w = x.spawn([flag, data] {
    data->write(1);
    flag->store(1, mc::MemoryOrder::relaxed);
  });
  int r = x.spawn([flag, data] {
    if (flag->load(mc::MemoryOrder::relaxed) == 1) (void)data->read();
  });
  x.join(w);
  x.join(r);
}

harness::Benchmark make_bench(const char* name,
                              std::vector<mc::TestFn> tests) {
  harness::Benchmark b;
  b.name = name;
  b.display = name;
  b.spec = nullptr;
  b.tests = std::move(tests);
  return b;
}

// What `cdsspec-run --checkpoint FILE` runs.
harness::ParallelOptions serial_journal(const std::string& path) {
  harness::ParallelOptions par;
  par.jobs = 1;
  par.max_shards = 1;
  par.journal_path = path;
  return par;
}

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + name + "." + std::to_string(getpid());
}

void expect_same_run(const harness::RunResult& want,
                     const harness::RunResult& got) {
  const mc::ExplorationStats& a = want.mc;
  const mc::ExplorationStats& b = got.mc;
  EXPECT_EQ(b.executions, a.executions);
  EXPECT_EQ(b.feasible, a.feasible);
  EXPECT_EQ(b.pruned_bound, a.pruned_bound);
  EXPECT_EQ(b.pruned_livelock, a.pruned_livelock);
  EXPECT_EQ(b.pruned_redundant, a.pruned_redundant);
  EXPECT_EQ(b.builtin_violation_execs, a.builtin_violation_execs);
  EXPECT_EQ(b.engine_fatal_execs, a.engine_fatal_execs);
  EXPECT_EQ(b.crash_execs, a.crash_execs);
  EXPECT_EQ(b.violations_total, a.violations_total);
  EXPECT_EQ(b.sampled, a.sampled);
  EXPECT_EQ(b.rf_classes, a.rf_classes);
  EXPECT_EQ(b.rf_infeasible, a.rf_infeasible);
  EXPECT_EQ(b.max_trail_depth, a.max_trail_depth);
  EXPECT_EQ(b.hit_execution_cap, a.hit_execution_cap);
  EXPECT_EQ(b.stopped_early, a.stopped_early);
  EXPECT_EQ(b.exhausted, a.exhausted);
  EXPECT_EQ(got.verdict, want.verdict);
  EXPECT_EQ(b.verdict, a.verdict);
  EXPECT_EQ(got.spec.executions_checked, want.spec.executions_checked);
  EXPECT_EQ(got.spec.inadmissible_execs, want.spec.inadmissible_execs);
  EXPECT_EQ(got.spec.assertion_violation_execs,
            want.spec.assertion_violation_execs);
  EXPECT_EQ(got.spec.histories_checked, want.spec.histories_checked);
  EXPECT_EQ(got.spec.justification_checks, want.spec.justification_checks);
  EXPECT_EQ(got.reports.size(), want.reports.size());
  ASSERT_EQ(got.violations.size(), want.violations.size());
  for (std::size_t i = 0; i < want.violations.size(); ++i) {
    const mc::Violation& v = want.violations[i];
    const mc::Violation& w = got.violations[i];
    EXPECT_EQ(w.kind, v.kind) << i;
    EXPECT_EQ(w.detail, v.detail) << i;
    EXPECT_EQ(w.test_index, v.test_index) << i;
    EXPECT_EQ(mc::render_choices(w.trail), mc::render_choices(v.trail)) << i;
  }
  // Counters and histograms are per-execution-pure; gauges and timers are
  // wall-clock facts.
  const auto& wc = want.metrics.counters();
  const auto& gc = got.metrics.counters();
  ASSERT_EQ(gc.size(), wc.size());
  for (auto it = wc.begin(), jt = gc.begin(); it != wc.end(); ++it, ++jt) {
    EXPECT_EQ(jt->first, it->first);
    EXPECT_EQ(jt->second.value, it->second.value) << it->first;
  }
}

#if defined(__unix__) || defined(__APPLE__)

// Runs a serial journaled run in a forked child that the journal's chaos
// hook SIGKILLs right after its `append`-th append (the run header is the
// first), and reports whether it died that way.
bool killed_after_append(const harness::Benchmark& b,
                         const harness::RunOptions& opts,
                         const std::string& path, std::ptrdiff_t append) {
  std::remove(path.c_str());
  pid_t pid = fork();
  if (pid == 0) {
    harness::ParallelOptions chaos = serial_journal(path);
    chaos.coord_chaos.kill_after_append = append;
    (void)harness::run_benchmark_parallel(b, opts, chaos);
    _exit(3);
  }
  int status = 0;
  return pid > 0 && waitpid(pid, &status, 0) == pid && WIFSIGNALED(status) &&
         WTERMSIG(status) == SIGKILL;
}

// The kill/resume scenario every explore mode and benchmark shape goes
// through: the resumed run equals run_benchmark bit for bit, and resuming
// the finished journal again replays it without recomputing anything.
void expect_kill_and_resume_equals_serial(const harness::Benchmark& b,
                                          const harness::RunOptions& opts,
                                          const std::string& path) {
  const harness::RunResult serial = harness::run_benchmark(b, opts);
  ASSERT_TRUE(killed_after_append(b, opts, path, 2));

  harness::ParallelOptions resume = serial_journal(path);
  resume.resume = true;
  const harness::ParallelRunResult r =
      harness::run_benchmark_parallel(b, opts, resume);
  ASSERT_TRUE(r.resume_error.empty()) << r.resume_error;
  EXPECT_TRUE(r.resumed);
  EXPECT_EQ(r.epoch, 2u);
  EXPECT_GE(r.replayed_shards, 1u) << "the journaled result is not re-run";
  EXPECT_EQ(r.crashed_shards, 0u);
  expect_same_run(serial, r.merged);

  const harness::ParallelRunResult again =
      harness::run_benchmark_parallel(b, opts, resume);
  ASSERT_TRUE(again.resume_error.empty()) << again.resume_error;
  EXPECT_EQ(again.replayed_shards, again.shards)
      << "the journal is kept after the verdict and replays whole";
  expect_same_run(serial, again.merged);
  std::remove(path.c_str());
}

TEST(Checkpoint, DfsResumeConvergesToUninterruptedStats) {
  const harness::Benchmark b =
      make_bench("cp-dfs", {tiny_body, cyclic_body, tiny_body});
  harness::RunOptions opts;
  expect_kill_and_resume_equals_serial(b, opts, tmp_path("cp-dfs.journal"));
}

TEST(Checkpoint, RfDfsResumeConvergesToUninterruptedStats) {
  const harness::Benchmark b = make_bench("cp-rf", {tiny_body, cyclic_body});
  harness::RunOptions opts;
  opts.engine.explore = mc::ExploreMode::kRf;
  const std::string path = tmp_path("cp-rf.journal");
  expect_kill_and_resume_equals_serial(b, opts, path);

  // An rf journal resumed under schedule mode covers another tree.
  ASSERT_TRUE(killed_after_append(b, opts, path, 2));
  harness::RunOptions sched = opts;
  sched.engine.explore = mc::ExploreMode::kSchedule;
  harness::ParallelOptions resume = serial_journal(path);
  resume.resume = true;
  const harness::ParallelRunResult r =
      harness::run_benchmark_parallel(b, sched, resume);
  EXPECT_NE(r.resume_error.find("explore=rf"), std::string::npos)
      << r.resume_error;
  EXPECT_EQ(r.merged.mc.executions, 0u) << "nothing may run";
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumedViolationsKeepTheirTrails) {
  // What --trail-out writes after a resume: the first violation, with the
  // trail an uninterrupted run records.
  const harness::Benchmark b =
      make_bench("cp-trails", {tiny_body, racy_body, racy_body});
  harness::RunOptions opts;
  const harness::RunResult serial = harness::run_benchmark(b, opts);
  ASSERT_EQ(serial.verdict, mc::Verdict::kFalsified);
  ASSERT_FALSE(serial.violations.empty());
  ASSERT_FALSE(serial.violations.front().trail.empty());
  const std::string path = tmp_path("cp-trails.journal");
  // Kill once test 1's result is journaled: its violations come back from
  // the journal, test 2's are recomputed.
  ASSERT_TRUE(killed_after_append(b, opts, path, 3));
  harness::ParallelOptions resume = serial_journal(path);
  resume.resume = true;
  const harness::ParallelRunResult r =
      harness::run_benchmark_parallel(b, opts, resume);
  ASSERT_TRUE(r.resume_error.empty()) << r.resume_error;
  EXPECT_EQ(r.replayed_shards, 2u);
  expect_same_run(serial, r.merged);
  std::remove(path.c_str());
}

// A unit test that outlives the preemption interval is split while it
// runs: the kill lands after its partial result is journaled, and the
// resumed run re-mints the remainder. "Slow" routes it to the slow label.
TEST(CheckpointSlow, KillAndResumeConvergesToBaseline) {
  ds::register_all_benchmarks();
  const harness::Benchmark* b = harness::find_benchmark("chase-lev-deque");
  ASSERT_NE(b, nullptr);
  ASSERT_GE(b->tests.size(), 2u);
  // Both schedule-mode unit tests take seconds at stale-read bound 0.
  harness::RunOptions opts;
  opts.engine.stale_read_bound = 0;
  const std::string path = tmp_path("cp-kill-resume.journal");
  const harness::RunResult serial = harness::run_benchmark(*b, opts);
  ASSERT_EQ(serial.verdict, mc::Verdict::kVerifiedExhaustive);
  ASSERT_TRUE(killed_after_append(*b, opts, path, 2));

  dist::JournalReplay rep;
  std::string err;
  ASSERT_TRUE(dist::load_journal(path, &rep, &err)) << err;
  ASSERT_EQ(rep.records.size(), 2u);
  harness::ShardResult first;
  ASSERT_TRUE(harness::parse_shard_result(rep.records[1].payload, &first, &err))
      << err;
  EXPECT_TRUE(first.stats.preempted) << "killed mid-unit, not between units";

  harness::ParallelOptions resume = serial_journal(path);
  resume.resume = true;
  const harness::ParallelRunResult r =
      harness::run_benchmark_parallel(*b, opts, resume);
  ASSERT_TRUE(r.resume_error.empty()) << r.resume_error;
  EXPECT_EQ(r.replayed_shards, 1u);
  EXPECT_GT(r.minted, 0u) << "replay re-mints the partial's remainder";
  expect_same_run(serial, r.merged);
  std::remove(path.c_str());
}

// Budgets keep run_benchmark's meaning: the time budget covers the whole
// benchmark, each unit test getting what the earlier ones left, and a
// resumed run counts the replayed results' seconds as already spent.
// Under per-shard budgets each of Chase-Lev's three unit tests would take
// the whole budget.
TEST(CheckpointSlow, TimeBudgetCoversTheWholeBenchmark) {
  ds::register_all_benchmarks();
  const harness::Benchmark* b = harness::find_benchmark("chase-lev-deque");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->tests.size(), 3u);
  harness::RunOptions timed;
  timed.engine.time_budget_seconds = 2.0;
  const std::string path = tmp_path("cp-timed.journal");
  std::remove(path.c_str());
  auto wall_of = [](const auto& run) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  harness::ParallelRunResult fresh;
  const double fresh_wall = wall_of([&] {
    fresh = harness::run_benchmark_parallel(*b, timed, serial_journal(path));
  });
  EXPECT_TRUE(fresh.merged.mc.hit_time_budget);
  EXPECT_EQ(fresh.minted, 0u) << "a budgeted run never splits";
  EXPECT_LT(fresh_wall, 3.5);

  // Test 0 spends most of the budget (its DFS share plus its sampling);
  // killed once its result is journaled, the resumed run has only the
  // rest left for tests 1 and 2.
  ASSERT_TRUE(killed_after_append(*b, timed, path, 2));
  harness::ParallelOptions resume = serial_journal(path);
  resume.resume = true;
  harness::ParallelRunResult r;
  const double resumed_wall = wall_of(
      [&] { r = harness::run_benchmark_parallel(*b, timed, resume); });
  ASSERT_TRUE(r.resume_error.empty()) << r.resume_error;
  EXPECT_EQ(r.replayed_shards, 1u);
  EXPECT_TRUE(r.merged.mc.hit_time_budget);
  EXPECT_LT(resumed_wall, 1.0);
  EXPECT_LT(r.merged.mc.seconds, 3.0);
  std::remove(path.c_str());
}

// Sampling is not durable mid-walk: a unit killed while sampling is
// recomputed on resume from the same derived seed, so the resumed run
// draws the random walks the uninterrupted one drew.
int g_kill_at_execution = 0;
int g_executions = 0;

void sampled_body(mc::Exec& x) {
  if (g_kill_at_execution != 0 && ++g_executions == g_kill_at_execution) {
    raise(SIGKILL);
  }
  cyclic_body(x);
}

TEST(Checkpoint, SamplingResumeRestoresRngStream) {
  const harness::Benchmark b =
      make_bench("cp-sampling", {tiny_body, sampled_body});
  harness::RunOptions opts;
  opts.engine.sampling_only = true;
  opts.engine.sample_executions = 120;
  const std::string path = tmp_path("cp-sampling.journal");
  std::remove(path.c_str());
  const harness::ParallelRunResult base =
      harness::run_benchmark_parallel(b, opts, serial_journal(path));
  ASSERT_EQ(base.merged.mc.sampled, 240u);

  std::remove(path.c_str());
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    g_kill_at_execution = 60;  // mid-walk in the second unit test
    (void)harness::run_benchmark_parallel(b, opts, serial_journal(path));
    _exit(3);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) << status;

  harness::ParallelOptions resume = serial_journal(path);
  resume.resume = true;
  const harness::ParallelRunResult r =
      harness::run_benchmark_parallel(b, opts, resume);
  ASSERT_TRUE(r.resume_error.empty()) << r.resume_error;
  EXPECT_EQ(r.replayed_shards, 1u) << "only the first unit was journaled";
  expect_same_run(base.merged, r.merged);
  std::remove(path.c_str());
}

// A capped run ends inconclusive and keeps its journal: resumed with the
// same flags it replays to the same result without recomputing; under a
// different cap the resume is refused (rerun without --resume instead).
TEST(Checkpoint, InconclusiveRunKeepsItsCheckpointForResume) {
  const harness::Benchmark b =
      make_bench("cp-inconclusive", {cyclic_body, tiny_body});
  harness::RunOptions opts;
  const harness::RunResult full = harness::run_benchmark(b, opts);
  ASSERT_GE(full.mc.executions, 60u);
  harness::RunOptions capped = opts;
  capped.engine.max_executions = full.mc.executions / 2;
  const harness::RunResult serial = harness::run_benchmark(b, capped);
  ASSERT_EQ(serial.verdict, mc::Verdict::kInconclusive);

  const std::string path = tmp_path("cp-inconclusive.journal");
  std::remove(path.c_str());
  const harness::ParallelRunResult cut =
      harness::run_benchmark_parallel(b, capped, serial_journal(path));
  EXPECT_EQ(cut.minted, 0u) << "a capped one-job run never splits";
  expect_same_run(serial, cut.merged);
  ASSERT_TRUE(std::ifstream(path).good());

  harness::ParallelOptions resume = serial_journal(path);
  resume.resume = true;
  const harness::ParallelRunResult again =
      harness::run_benchmark_parallel(b, capped, resume);
  ASSERT_TRUE(again.resume_error.empty()) << again.resume_error;
  EXPECT_EQ(again.replayed_shards, again.shards) << "nothing recomputed";
  expect_same_run(serial, again.merged);

  const harness::ParallelRunResult bigger =
      harness::run_benchmark_parallel(b, opts, resume);
  EXPECT_NE(bigger.resume_error.find("cap="), std::string::npos)
      << bigger.resume_error;
  std::remove(path.c_str());
}

#endif  // fork-capable platforms

// The journal pins every flag that shapes the tree or cuts results short:
// a resume under any other value is refused, and the refusal names the
// field that differs.
TEST(Checkpoint, FingerprintMismatchNamesTheFlag) {
  ds::register_all_benchmarks();  // registers the injection sites
  ASSERT_FALSE(inject::all_sites().empty());
  const harness::Benchmark b = make_bench("cp-fingerprint", {cyclic_body});
  harness::RunOptions opts;
  opts.engine.max_executions = 20000;
  struct Change {
    const char* field;
    void (*apply)(mc::Config&);
  };
  const Change changes[] = {
      {"cap=", [](mc::Config& c) { c.max_executions = 10000; }},
      {"timeout=", [](mc::Config& c) { c.time_budget_seconds = 30.0; }},
      {"mem_cap=", [](mc::Config& c) { c.memory_budget_bytes = 1 << 30; }},
      {"stop_on_violation=",
       [](mc::Config& c) { c.stop_on_first_violation = true; }},
      {"seed=", [](mc::Config& c) { c.seed = 7; }},
      {"stale=", [](mc::Config& c) { c.stale_read_bound = 2; }},
      {"explore=", [](mc::Config& c) { c.explore = mc::ExploreMode::kRf; }},
  };
  for (int jobs : {1, 2}) {
    const std::string path = tmp_path("cp-fingerprint.journal");
    std::remove(path.c_str());
    harness::ParallelOptions par = serial_journal(path);
    par.jobs = jobs;
    const harness::ParallelRunResult first =
        harness::run_benchmark_parallel(b, opts, par);
    ASSERT_TRUE(first.resume_error.empty()) << first.resume_error;
    par.resume = true;
    for (const Change& ch : changes) {
      harness::RunOptions other = opts;
      ch.apply(other.engine);
      const harness::ParallelRunResult r =
          harness::run_benchmark_parallel(b, other, par);
      EXPECT_NE(r.resume_error.find(std::string("(") + ch.field),
                std::string::npos)
          << "jobs=" << jobs << ": " << r.resume_error;
      EXPECT_EQ(r.merged.mc.executions, 0u) << ch.field;
    }
    // The active injection site is part of the record: a journal recorded
    // on the unweakened program does not resume under --inject.
    inject::inject(inject::all_sites().front().id);
    const harness::ParallelRunResult injected =
        harness::run_benchmark_parallel(b, opts, par);
    inject::clear_injection();
    EXPECT_NE(injected.resume_error.find("(inject= in the journal, inject="),
              std::string::npos)
        << "jobs=" << jobs << ": " << injected.resume_error;
    EXPECT_EQ(injected.merged.mc.executions, 0u);
    const harness::ParallelRunResult same =
        harness::run_benchmark_parallel(b, opts, par);
    EXPECT_TRUE(same.resume_error.empty()) << same.resume_error;
    std::remove(path.c_str());
  }
}

// Preempt the one shard of a unit test after k executions, at about a
// dozen k, and run the minted remainder each time: sleep sets are rebuilt
// from the trail in every sub-shard, so pruned_redundant and every other
// counter must equal the uninterrupted run's. "Sweep" routes it to the
// slow label.
TEST(CheckpointSweep, ResumeAtEveryDepthRebuildsSleepSetState) {
  const harness::Benchmark b = make_bench("cp-sleep", {cyclic_body});
  harness::RunOptions opts;
  const harness::RunResult base = harness::run_benchmark(b, opts);
  ASSERT_TRUE(base.mc.exhausted);
  ASSERT_GT(base.mc.pruned_redundant, 0u)
      << "body must exercise sleep-set pruning for the audit to have teeth";

  const std::uint64_t stride =
      std::max<std::uint64_t>(1, base.mc.executions / 12);
  for (std::uint64_t k = 1; k < base.mc.executions; k += stride) {
    dist::ShardTable table(b, opts, /*shard_depth=*/2, /*max_shards=*/1);
    ASSERT_EQ(table.planned(), 1u);
    std::uint64_t seen = 0;
    const std::string partial = harness::run_shard_unit(
        b, opts, table.unit(0), [&seen, k] { return ++seen >= k; });
    harness::ShardResult sr;
    std::string err;
    ASSERT_TRUE(table.parse(0, partial, &sr, &err)) << err;
    ASSERT_TRUE(sr.stats.preempted) << "k=" << k;
    EXPECT_EQ(sr.stats.executions, k);
    table.accept(0, 0, partial, std::move(sr));
    for (std::size_t s = 1; s < table.size(); ++s) {
      const std::string text = harness::run_shard_unit(b, opts, table.unit(s));
      harness::ShardResult rest;
      ASSERT_TRUE(table.parse(s, text, &rest, &err)) << err;
      ASSERT_FALSE(rest.stats.preempted);
      table.accept(s, 0, text, std::move(rest));
    }
    ASSERT_TRUE(table.all_resolved());
    const harness::RunResult merged = table.finish();
    EXPECT_EQ(merged.mc.pruned_redundant, base.mc.pruned_redundant)
        << "k=" << k << ": sleep-set pruning diverged after the split";
    SCOPED_TRACE("k=" + std::to_string(k));
    expect_same_run(base, merged);
  }
}

#if defined(__unix__) || defined(__APPLE__)

// A journal written by an older build holds results in a wire version
// today's parser rejects, under a valid CRC. Resume must recompute those
// shards — not merge them (silently wrong) nor count them crashed
// (verdict destroyed) — and merge bit-identically.
TEST(JournalRegression, StaleWireVersionResultIsRecomputed) {
  const harness::Benchmark b =
      make_bench("journal-stale-wire", {cyclic_body, tiny_body});
  harness::RunOptions opts;
  const std::string path = tmp_path("journal-stale-wire.journal");
  std::remove(path.c_str());
  // Several planned shards per unit test, run in order (one job never
  // steals), so every result record is a whole shard's.
  harness::ParallelOptions par = serial_journal(path);
  par.max_shards = 4;
  const harness::ParallelRunResult first =
      harness::run_benchmark_parallel(b, opts, par);
  ASSERT_EQ(first.merged.verdict, mc::Verdict::kVerifiedExhaustive);
  ASSERT_GT(first.shards, 2u);
  ASSERT_EQ(first.minted, 0u);

  // Rewrite the first result record with a previous-version payload.
  std::ifstream in(path);
  std::ostringstream rewritten;
  std::string line;
  bool replaced = false;
  while (std::getline(in, line)) {
    dist::JournalRecord rec;
    std::string err;
    if (!replaced && dist::parse_journal_record(line, &rec, &err) &&
        rec.kind == dist::JournalRecord::Kind::kResult) {
      rec.payload = "shard-result v3\nstats executions=10 exhausted=1\nend\n";
      rewritten << dist::render_journal_record(rec);
      replaced = true;
      continue;
    }
    rewritten << line << '\n';
  }
  in.close();
  ASSERT_TRUE(replaced);
  std::ofstream(path, std::ios::trunc) << rewritten.str();

  par.resume = true;
  const harness::ParallelRunResult second =
      harness::run_benchmark_parallel(b, opts, par);
  ASSERT_TRUE(second.resume_error.empty()) << second.resume_error;
  EXPECT_EQ(second.replayed_shards, first.shards - 1);
  EXPECT_EQ(second.crashed_shards, 0u);
  expect_same_run(first.merged, second.merged);
  std::remove(path.c_str());
}

#endif  // fork-capable platforms

}  // namespace
}  // namespace cds
