// The shard table both executors share: results may arrive in any order
// and a preempted result mints sub-shards at the end of the table, yet
// the merge must list violations in serial DFS order under the per-test
// record cap, and a replayed journal must re-mint the same sub-shards.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "dist/shard_table.h"
#include "harness/runner.h"
#include "harness/shard_result.h"
#include "mc/atomic.h"
#include "mc/trace.h"

namespace cds {
namespace {

using mc::Choice;

// Three threads racing stores: enough schedule choices for a plan of
// several shards one level deep.
harness::Benchmark race_bench() {
  harness::Benchmark b;
  b.name = "shard-table-race";
  b.display = b.name;
  b.spec = nullptr;
  b.tests.push_back([](mc::Exec& x) {
    auto* a = x.make<mc::Atomic<int>>(0, "a");
    int t[3];
    for (int i = 0; i < 3; ++i) {
      t[i] = x.spawn([a, i] { a->store(i, mc::MemoryOrder::relaxed); });
    }
    for (int tid : t) x.join(tid);
  });
  return b;
}

harness::ShardResult result_with(std::vector<std::string> details) {
  harness::ShardResult sr;
  sr.stats.exhausted = true;
  sr.stats.executions = details.size() + 1;
  sr.stats.violations_total = details.size();
  for (std::string& d : details) {
    mc::Violation v{};
    v.kind = mc::ViolationKind::kSpecAssertion;
    v.detail = std::move(d);
    sr.violations.push_back(std::move(v));
  }
  return sr;
}

// A result for `prefix` preempted right after the first execution below
// it, whose trail continues with one more choice of three alternatives:
// the table mints the two right siblings, prefix+[1/3] and prefix+[2/3].
harness::ShardResult preempted_at(const std::vector<Choice>& prefix,
                                  std::vector<std::string> details) {
  harness::ShardResult sr = result_with(std::move(details));
  sr.stats.exhausted = false;
  sr.stats.preempted = true;
  sr.frontier = prefix;
  sr.frontier.push_back(Choice{mc::ChoiceKind::kSchedule, 0, 3});
  return sr;
}

std::vector<std::string> details_of(const harness::RunResult& r) {
  std::vector<std::string> out;
  for (const mc::Violation& v : r.violations) out.push_back(v.detail);
  return out;
}

TEST(ShardTable, MergesInDfsOrderWhateverTheArrivalOrder) {
  const harness::Benchmark b = race_bench();
  harness::RunOptions opts;
  opts.engine.max_recorded_violations = 5;
  dist::ShardTable t(b, opts, /*shard_depth=*/1, /*max_shards=*/8);
  ASSERT_GE(t.planned(), 2u);
  const std::size_t last = t.planned() - 1;
  for (std::size_t s = 1; s < last; ++s) t.accept(s, 0, "", result_with({}));
  // The last planned shard finishes first; shard 0 is then split twice,
  // and its sub-shards report in reverse.
  t.accept(last, 0, "", result_with({"last-a", "last-b"}));
  ASSERT_EQ(t.accept(0, 0, "", preempted_at(t.unit(0).prefix,
                                            {"zero"})),
            2u);
  const std::size_t sub1 = t.planned(), sub2 = t.planned() + 1;
  ASSERT_EQ(t.accept(sub1, 0, "",
                     preempted_at(t.unit(sub1).prefix, {"sub1"})),
            2u);
  t.accept(sub2, 0, "", result_with({"sub2"}));
  t.accept(sub1 + 3, 0, "", result_with({"sub1.2"}));
  t.accept(sub1 + 2, 0, "", result_with({"sub1.1"}));
  ASSERT_EQ(t.stats().minted, 4u);
  ASSERT_TRUE(t.all_resolved());
  const harness::RunResult r = t.finish();
  // DFS order: shard 0's partial, then its first sub-shard's partial and
  // that one's sub-shards, then its second sub-shard, then the last
  // planned shard — cut at the record cap of 5.
  EXPECT_EQ(details_of(r), (std::vector<std::string>{"zero", "sub1", "sub1.1",
                                                     "sub1.2", "sub2"}));
  EXPECT_EQ(r.verdict, mc::Verdict::kFalsified);
  EXPECT_TRUE(r.mc.exhausted) << "preempted partials must not poison it";
  EXPECT_EQ(r.mc.violations_total, 7u);
}

TEST(ShardTable, ResumeReMintsTheJournaledSplitAtTheSameIndices) {
  const harness::Benchmark b = race_bench();
  harness::RunOptions opts;
  const std::string path = testing::TempDir() + "shard-table.journal";
  std::remove(path.c_str());
  std::string err;
  std::vector<std::vector<Choice>> prefixes;
  {
    dist::ShardTable t(b, opts, 1, 8);
    ASSERT_TRUE(t.open_journal(path, false, {}, &err)) << err;
    const harness::ShardResult sr = preempted_at(t.unit(0).prefix, {});
    harness::RunResult as_run;
    as_run.mc = sr.stats;
    as_run.frontier = sr.frontier;
    const std::string text = harness::render_shard_result(as_run);
    harness::ShardResult parsed;
    ASSERT_TRUE(t.parse(0, text, &parsed, &err)) << err;
    ASSERT_EQ(t.accept(0, 0, text, parsed), 2u);
    for (std::size_t i = 0; i < t.size(); ++i) {
      prefixes.push_back(t.unit(i).prefix);
    }
  }
  dist::ShardTable again(b, opts, 1, 8);
  ASSERT_TRUE(again.open_journal(path, true, {}, &err)) << err;
  EXPECT_TRUE(again.stats().resumed);
  EXPECT_EQ(again.stats().replayed_shards, 1u);
  ASSERT_EQ(again.size(), prefixes.size());
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    EXPECT_EQ(mc::render_choices(again.unit(i).prefix),
              mc::render_choices(prefixes[i]))
        << i;
  }
  EXPECT_FALSE(again.pending(0)) << "the replayed root is done";
  EXPECT_TRUE(again.pending(again.planned())) << "its sub-shards wait";
  std::remove(path.c_str());
}

TEST(ShardTable, RequeueReturnsOnlyARunningShardToPending) {
  const harness::Benchmark b = race_bench();
  harness::RunOptions opts;
  dist::ShardTable t(b, opts, 1, 8);
  ASSERT_GE(t.planned(), 2u);
  EXPECT_TRUE(t.any_pending());
  t.mark_running(0);
  EXPECT_TRUE(t.running(0));
  t.requeue(0);
  EXPECT_TRUE(t.pending(0));
  t.accept(1, 0, "", result_with({}));
  t.requeue(1);
  EXPECT_FALSE(t.pending(1)) << "a done shard stays done";
  for (std::size_t s = 0; s < t.size(); ++s) {
    if (t.pending(s)) t.fail(s, 0, "test", /*journaled=*/false);
  }
  EXPECT_FALSE(t.any_pending());
  EXPECT_TRUE(t.all_resolved());
  EXPECT_EQ(t.stats().crashed_shards, t.planned() - 1);
}

TEST(ShardTable, OnlyBudgetsThatCutPiecesShortDisableSplitting) {
  const harness::Benchmark b = race_bench();
  harness::RunOptions opts;
  EXPECT_TRUE(dist::ShardTable(b, opts, 1, 8).splittable());
  harness::RunOptions capped = opts;
  capped.engine.max_executions = 100;
  EXPECT_TRUE(dist::ShardTable(b, capped, 1, 8).splittable())
      << "a cap is kept exact by whole re-runs";
  harness::RunOptions timed = opts;
  timed.engine.time_budget_seconds = 1.0;
  EXPECT_FALSE(dist::ShardTable(b, timed, 1, 8).splittable());
  harness::RunOptions mem = opts;
  mem.engine.memory_budget_bytes = 1 << 20;
  EXPECT_FALSE(dist::ShardTable(b, mem, 1, 8).splittable());
  harness::RunOptions watched = opts;
  watched.engine.watchdog_no_progress_execs = 1000;
  EXPECT_FALSE(dist::ShardTable(b, watched, 1, 8).splittable());
  harness::RunOptions first = opts;
  first.engine.stop_on_first_violation = true;
  EXPECT_FALSE(dist::ShardTable(b, first, 1, 8).splittable());
}

harness::ShardResult with_executions(harness::ShardResult sr,
                                     std::uint64_t executions) {
  sr.stats.executions = executions;
  return sr;
}

// Under a cap of 10, planned shard 0 is split after 4 executions and its
// two pieces take 3 each: together they reach the cap, where the
// undisturbed shard would have stopped. The pieces are dropped and shard
// 0 re-runs whole; only the re-run counts.
TEST(ShardTable, ASplitShardReachingTheCapReRunsWhole) {
  const harness::Benchmark b = race_bench();
  harness::RunOptions opts;
  opts.engine.max_executions = 10;
  dist::ShardTable t(b, opts, 1, 8);
  ASSERT_GE(t.planned(), 2u);
  ASSERT_EQ(t.accept(0, 0, "",
                     with_executions(preempted_at(t.unit(0).prefix, {"zero"}),
                                     4)),
            2u);
  const std::size_t sub1 = t.planned(), sub2 = sub1 + 1;
  EXPECT_EQ(t.accept(sub1, 0, "", with_executions(result_with({"sub1"}), 3)),
            0u);
  EXPECT_EQ(t.accept(sub2, 0, "", with_executions(result_with({}), 3)), 1u)
      << "the pieces reach the cap: a whole re-run is appended";
  const std::size_t redo = sub2 + 1;
  ASSERT_EQ(t.size(), redo + 1);
  EXPECT_TRUE(t.pending(redo));
  EXPECT_FALSE(t.splittable(redo)) << "a whole re-run is never split";
  EXPECT_EQ(mc::render_choices(t.unit(redo).prefix),
            mc::render_choices(t.unit(0).prefix));
  EXPECT_EQ(t.accept(sub1, 0, "", result_with({"late"})), 0u)
      << "a dropped piece's result is ignored";

  harness::ShardResult whole = with_executions(result_with({"whole"}), 10);
  whole.stats.exhausted = false;
  whole.stats.hit_execution_cap = true;
  t.accept(redo, 0, "", whole);
  std::uint64_t others = 0;
  for (std::size_t s = 1; s < t.planned(); ++s) {
    t.accept(s, 0, "", with_executions(result_with({}), 2));
    others += 2;
  }
  ASSERT_TRUE(t.all_resolved());
  EXPECT_EQ(t.stats().crashed_shards, 0u);
  const harness::RunResult r = t.finish();
  EXPECT_EQ(details_of(r), std::vector<std::string>{"whole"});
  EXPECT_EQ(r.mc.executions, 10 + others);
  EXPECT_TRUE(r.mc.hit_execution_cap);
  EXPECT_FALSE(r.mc.exhausted);
  EXPECT_EQ(r.verdict, mc::Verdict::kFalsified);
}

// Rendered as a worker would send it, so the journal can replay it.
std::string render(const harness::ShardResult& sr) {
  harness::RunResult as_run;
  as_run.mc = sr.stats;
  as_run.frontier = sr.frontier;
  return harness::render_shard_result(as_run);
}

TEST(ShardTable, ResumeReplaysAWholeReRunAtTheSameIndex) {
  const harness::Benchmark b = race_bench();
  harness::RunOptions opts;
  opts.engine.max_executions = 10;
  const std::string path = testing::TempDir() + "shard-table-whole.journal";
  std::remove(path.c_str());
  std::string err;
  std::size_t size = 0;
  {
    dist::ShardTable t(b, opts, 1, 8);
    ASSERT_TRUE(t.open_journal(path, false, {}, &err)) << err;
    auto feed = [&](std::size_t sidx, const harness::ShardResult& sr) {
      const std::string text = render(sr);
      harness::ShardResult parsed;
      ASSERT_TRUE(t.parse(sidx, text, &parsed, &err)) << err;
      t.accept(sidx, 0, text, parsed);
    };
    feed(0, with_executions(preempted_at(t.unit(0).prefix, {}), 4));
    feed(t.planned(), with_executions(result_with({}), 6));
    size = t.size();
    ASSERT_EQ(size, t.planned() + 3) << "two pieces and a whole re-run";
  }
  dist::ShardTable again(b, opts, 1, 8);
  ASSERT_TRUE(again.open_journal(path, true, {}, &err)) << err;
  ASSERT_EQ(again.size(), size);
  EXPECT_FALSE(again.pending(0));
  EXPECT_FALSE(again.pending(again.planned() + 1)) << "dropped, not rerun";
  EXPECT_TRUE(again.pending(size - 1));
  EXPECT_FALSE(again.splittable(size - 1));
  std::remove(path.c_str());
}

TEST(ShardTable, ASplitShardBelowTheCapMergesItsPieces) {
  const harness::Benchmark b = race_bench();
  harness::RunOptions opts;
  opts.engine.max_executions = 10;
  dist::ShardTable t(b, opts, 1, 8);
  ASSERT_EQ(t.accept(0, 0, "",
                     with_executions(preempted_at(t.unit(0).prefix, {"zero"}),
                                     4)),
            2u);
  const std::size_t sub1 = t.planned(), sub2 = sub1 + 1;
  t.accept(sub2, 0, "", with_executions(result_with({"sub2"}), 3));
  t.accept(sub1, 0, "", with_executions(result_with({"sub1"}), 2));
  for (std::size_t s = 1; s < t.planned(); ++s) {
    t.accept(s, 0, "", with_executions(result_with({}), 1));
  }
  ASSERT_TRUE(t.all_resolved());
  const harness::RunResult r = t.finish();
  EXPECT_EQ(details_of(r),
            (std::vector<std::string>{"zero", "sub1", "sub2"}));
  EXPECT_EQ(r.mc.executions, 9 + (t.planned() - 1));
  EXPECT_TRUE(r.mc.exhausted);
  EXPECT_FALSE(r.mc.hit_execution_cap);
}

}  // namespace
}  // namespace cds
