// Shard-result wire (v5): render/parse round trip including the rf-mode
// class counters, strict rejection of stale wire versions, and the
// merge-by-summation property the --jobs/--dist mergers rely on for
// bit-identical class counts.
#include <gtest/gtest.h>

#include <string>

#include "ds/suite.h"
#include "harness/runner.h"
#include "harness/shard_result.h"

namespace cds {
namespace {

harness::RunResult full_result() {
  harness::RunResult r;
  r.mc.executions = 120;
  r.mc.feasible = 100;
  r.mc.pruned_bound = 5;
  r.mc.pruned_livelock = 3;
  r.mc.pruned_redundant = 12;
  r.mc.builtin_violation_execs = 1;
  r.mc.violations_total = 2;
  r.mc.rf_classes = 41;
  r.mc.rf_infeasible = 59;
  r.mc.sampled = 7;
  r.mc.max_trail_depth = 18;
  r.mc.exhausted = true;
  r.mc.verdict = mc::Verdict::kFalsified;
  r.spec.executions_checked = 100;
  r.spec.histories_checked = 400;
  r.spec.justification_checks = 80;
  r.violations.push_back(mc::Violation{
      mc::ViolationKind::kSpecAssertion, "postcondition of deq()=1 failed",
      17, {mc::Choice{mc::ChoiceKind::kReadsFrom, 1, 3}}, 0});
  r.reports.push_back("spec 'MSQueue': 1 violation\nsecond line");
  return r;
}

TEST(ShardResult, RoundTripCarriesRfCounters) {
  harness::RunResult r = full_result();
  std::string wire = harness::render_shard_result(r);
  EXPECT_EQ(wire.rfind("shard-result v5", 0), 0u) << wire;
  harness::ShardResult back;
  std::string err;
  ASSERT_TRUE(harness::parse_shard_result(wire, &back, &err)) << err;
  EXPECT_EQ(back.stats.executions, r.mc.executions);
  EXPECT_EQ(back.stats.rf_classes, 41u);
  EXPECT_EQ(back.stats.rf_infeasible, 59u);
  EXPECT_EQ(back.stats.verdict, mc::Verdict::kFalsified);
  ASSERT_EQ(back.violations.size(), 1u);
  EXPECT_EQ(back.violations[0].detail, r.violations[0].detail);
  ASSERT_EQ(back.reports.size(), 1u);
  EXPECT_EQ(back.reports[0], r.reports[0]);
}

TEST(ShardResult, StaleWireVersionsAreRejected) {
  // A journaled result left by an older build must read as corrupt, not
  // merge with the rf counters silently missing.
  std::string wire = harness::render_shard_result(full_result());
  for (const char* old : {"shard-result v1", "shard-result v2",
                          "shard-result v3", "shard-result v4"}) {
    std::string stale = wire;
    stale.replace(0, 15, old);
    harness::ShardResult back;
    std::string err;
    EXPECT_FALSE(harness::parse_shard_result(stale, &back, &err)) << old;
    EXPECT_NE(err.find("stale wire version"), std::string::npos) << err;
  }
}

TEST(ShardResult, MissingRfKeyIsRejected) {
  std::string wire = harness::render_shard_result(full_result());
  std::size_t at = wire.find(" rf_classes=41");
  ASSERT_NE(at, std::string::npos);
  wire.erase(at, 14);
  harness::ShardResult back;
  std::string err;
  EXPECT_FALSE(harness::parse_shard_result(wire, &back, &err));
  EXPECT_NE(err.find("missing keys"), std::string::npos) << err;
}

TEST(ShardResult, MergeSumsRfCountersExactly) {
  mc::ExplorationStats total;
  total.exhausted = true;
  std::uint64_t want_classes = 0, want_infeasible = 0;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    mc::ExplorationStats shard;
    shard.executions = 10 * i;
    shard.rf_classes = 3 * i;
    shard.rf_infeasible = 7 * i;
    shard.exhausted = true;
    want_classes += shard.rf_classes;
    want_infeasible += shard.rf_infeasible;
    mc::merge_shard_stats(total, shard);
  }
  EXPECT_EQ(total.rf_classes, want_classes);
  EXPECT_EQ(total.rf_infeasible, want_infeasible);
  EXPECT_TRUE(total.exhausted);
}

// A unit whose only execution makes no choice (ms-queue test 3, one
// thread) asked to stop after it: the engine reports the unit exhausted,
// and its result survives the render/parse round trip. It used to report
// preempted with an empty frontier, which the strict parser rejects, so a
// --jobs run counted a crashed shard and an inconclusive row.
TEST(ShardResult, StopRequestAfterLastExecutionRoundTrips) {
  ds::register_all_benchmarks();
  const harness::Benchmark* b = harness::find_benchmark("ms-queue");
  ASSERT_NE(b, nullptr);
  ASSERT_GT(b->tests.size(), 3u);
  harness::RunOptions opts;
  opts.engine.stop_request = [] { return true; };
  const harness::RunResult r = harness::run_with_spec(b->tests[3], opts);
  EXPECT_EQ(r.mc.executions, 1u);
  EXPECT_FALSE(r.mc.preempted);
  EXPECT_TRUE(r.mc.exhausted);

  harness::ShardResult sr;
  std::string why;
  ASSERT_TRUE(harness::parse_shard_result(harness::render_shard_result(r),
                                          &sr, &why))
      << why;
  EXPECT_FALSE(sr.stats.preempted);
  EXPECT_TRUE(sr.stats.exhausted);
  EXPECT_TRUE(sr.frontier.empty());
  EXPECT_EQ(sr.stats.verdict, mc::Verdict::kVerifiedExhaustive);
}

}  // namespace
}  // namespace cds
