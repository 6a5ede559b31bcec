// Distributed exploration: the merged result of a --dist-workers N run
// must be bit-identical (executions, prunes, spec counters, verdict) to
// the serial run, and it must stay bit-identical under every protocol
// fault injection — a killed worker, a muted heartbeat, a truncated or
// bit-flipped result payload, a worker dying mid-result-write — at the
// cost of retries and lease expirations only, never coverage.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dist/chaos.h"
#include "dist/coordinator.h"
#include "ds/suite.h"
#include "fuzz/program.h"
#include "harness/runner.h"
#include "inject/inject.h"
#include "mc/atomic.h"

namespace cds {
namespace {

void expect_dist_equals_serial(const harness::RunResult& serial,
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

// Wraps a litmus program as a synthetic registry-independent Benchmark so
// the distributed path can run the exact BENCH_parallel.json shapes.
// `obs` must outlive the benchmark (the test fn records into it; forked
// workers inherit the whole object in memory).
harness::Benchmark make_litmus_benchmark(const char* name, const char* text,
                                         fuzz::Program* p,
                                         std::vector<std::uint64_t>* obs) {
  std::string err;
  EXPECT_TRUE(fuzz::Program::parse(text, p, &err)) << name << ": " << err;
  harness::Benchmark b;
  b.name = name;
  b.display = name;
  b.spec = nullptr;
  b.tests.push_back(p->test_fn(obs));
  return b;
}

// The two BENCH_parallel.json shapes (bench/parallel_scaling.cpp): wide
// enough that the DFS tree dwarfs the protocol overhead.
constexpr const char* kMpRelacqWide =
    "litmus v1\n"
    "locations 3\n"
    "t0 store x 1 relaxed\n"
    "t0 store y 1 release\n"
    "t1 load y acquire\n"
    "t1 load x relaxed\n"
    "t2 store z 1 release\n"
    "t2 load y acquire\n"
    "t2 store x 3 relaxed\n"
    "t3 load z acquire\n"
    "t3 store x 2 relaxed\n"
    "t3 load y relaxed\n"
    "t3 store z 2 relaxed\n";

constexpr const char* kCasloopWide =
    "litmus v1\n"
    "locations 2\n"
    "t0 cas x 0 1 acq_rel relaxed\n"
    "t0 store y 1 release\n"
    "t1 cas x 0 2 seq_cst acquire\n"
    "t1 load y acquire\n"
    "t2 rmw x 1 acq_rel\n"
    "t2 load y acquire\n"
    "t3 cas y 1 2 acq_rel relaxed\n"
    "t3 load x acquire\n"
    "t3 store y 3 relaxed\n";

// A heavier 4-thread shape (~38k executions, sub-second serial) whose
// shards comfortably outlive the short leases the fault tests use.
constexpr const char* kLongShard =
    "litmus v1\n"
    "locations 3\n"
    "t0 store x 1 relaxed\n"
    "t0 store y 1 release\n"
    "t0 load z acquire\n"
    "t1 load y acquire\n"
    "t1 load x relaxed\n"
    "t1 store z 1 release\n"
    "t2 store z 2 release\n"
    "t2 load y acquire\n"
    "t2 store x 3 relaxed\n"
    "t3 load z acquire\n"
    "t3 store x 2 relaxed\n"
    "t3 load y relaxed\n";

TEST(DistHarness, MergedStatsMatchSerialOnCleanBenchmarks) {
  ds::register_all_benchmarks();
  const auto* b = harness::find_benchmark("ticket-lock");
  ASSERT_NE(b, nullptr);
  harness::RunOptions opts;
  harness::RunResult serial = harness::run_benchmark(*b, opts);
  dist::DistOptions d;
  d.dist_workers = 2;
  dist::DistRunResult r = dist::run_benchmark_distributed(*b, opts, d);
  EXPECT_GT(r.shards, 1u) << "sharding should split the DFS tree";
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.failed_shards, 0u);
  EXPECT_FALSE(r.fell_back_local);
  EXPECT_GE(r.workers_connected, 1u);
  expect_dist_equals_serial(serial, r.merged);
  EXPECT_EQ(r.merged.verdict, mc::Verdict::kVerifiedExhaustive);
}

TEST(DistHarness, RfModeMergesBitIdenticalToSerialRf) {
  // The explore mode rides the assignment: a worker that fell back to
  // schedule mode on an rf plan merged 19,037 executions here instead of
  // serial rf's, which are fewer since store-driven revisits.
  ds::register_all_benchmarks();
  const auto* b = harness::find_benchmark("mcs-lock");
  ASSERT_NE(b, nullptr);
  harness::RunOptions opts;
  opts.engine.explore = mc::ExploreMode::kRf;
  harness::RunResult serial = harness::run_benchmark(*b, opts);
  dist::DistOptions d;
  d.dist_workers = 4;
  dist::DistRunResult r = dist::run_benchmark_distributed(*b, opts, d);
  EXPECT_EQ(r.failed_shards, 0u);
  EXPECT_FALSE(r.fell_back_local);
  expect_dist_equals_serial(serial, r.merged);
  EXPECT_EQ(r.merged.mc.rf_classes, serial.mc.rf_classes);
  EXPECT_EQ(r.merged.mc.rf_infeasible, serial.mc.rf_infeasible);
  EXPECT_EQ(r.merged.metrics.counter_value("engine.rf_revisits"),
            serial.metrics.counter_value("engine.rf_revisits"));
  EXPECT_GT(serial.metrics.counter_value("engine.rf_revisits"), 0u);
}

TEST(DistHarness, FalsifiedMatchesSerialWithFirstWitness) {
  // Weaken the first injectable ticket-lock site: serial and distributed
  // runs must falsify with the same violation totals and first witness.
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
  dist::DistOptions d;
  d.dist_workers = 2;
  dist::DistRunResult r = dist::run_benchmark_distributed(*b, opts, d);
  inject::clear_injection();
  expect_dist_equals_serial(serial, r.merged);
  EXPECT_EQ(r.merged.verdict, mc::Verdict::kFalsified);
  ASSERT_FALSE(r.merged.violations.empty());
  ASSERT_FALSE(serial.violations.empty());
  EXPECT_EQ(r.merged.violations.front().kind, serial.violations.front().kind);
  EXPECT_EQ(r.merged.violations.front().test_index,
            serial.violations.front().test_index);
}

TEST(DistHarness, BenchShapesBitIdenticalToSerial) {
  // The acceptance shapes from BENCH_parallel.json, distributed across
  // four workers.
  struct Case {
    const char* name;
    const char* text;
  } cases[] = {{"mp_relacq_wide", kMpRelacqWide},
               {"casloop_wide", kCasloopWide}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    fuzz::Program p;
    std::vector<std::uint64_t> obs;
    harness::Benchmark b = make_litmus_benchmark(c.name, c.text, &p, &obs);
    harness::RunOptions opts;
    harness::RunResult serial = harness::run_benchmark(b, opts);
    ASSERT_TRUE(serial.mc.exhausted);
    dist::DistOptions d;
    d.dist_workers = 4;
    dist::DistRunResult r = dist::run_benchmark_distributed(b, opts, d);
    EXPECT_GT(r.shards, 1u);
    EXPECT_EQ(r.failed_shards, 0u);
    EXPECT_FALSE(r.fell_back_local);
    expect_dist_equals_serial(serial, r.merged);
  }
}

TEST(DistHarness, KilledWorkerShardIsRetriedAndMergedExactlyOnce) {
  // Satellite: retry bookkeeping. Attempt 1 dies (worker SIGKILLed the
  // moment the assignment arrives), attempt 2 succeeds elsewhere; the
  // shard's counters must enter the merge exactly once.
  ds::register_all_benchmarks();
  const auto* b = harness::find_benchmark("ticket-lock");
  ASSERT_NE(b, nullptr);
  harness::RunOptions opts;
  harness::RunResult serial = harness::run_benchmark(*b, opts);
  dist::DistOptions d;
  d.dist_workers = 2;
  d.worker_chaos.kill_on_assignment = 1;  // first forked worker only
  dist::DistRunResult r = dist::run_benchmark_distributed(*b, opts, d);
  EXPECT_GE(r.retries, 1u) << "the killed attempt must be rescheduled";
  EXPECT_EQ(r.failed_shards, 0u);
  expect_dist_equals_serial(serial, r.merged);
  EXPECT_EQ(r.merged.verdict, mc::Verdict::kVerifiedExhaustive);
}

TEST(DistHarness, TruncatedResultIsRejectedAndRetried) {
  ds::register_all_benchmarks();
  const auto* b = harness::find_benchmark("ticket-lock");
  ASSERT_NE(b, nullptr);
  harness::RunOptions opts;
  harness::RunResult serial = harness::run_benchmark(*b, opts);
  dist::DistOptions d;
  d.dist_workers = 2;
  d.worker_chaos.truncate_result_on = 1;
  dist::DistRunResult r = dist::run_benchmark_distributed(*b, opts, d);
  EXPECT_GE(r.corrupt_results, 1u);
  EXPECT_GE(r.retries, 1u);
  EXPECT_EQ(r.failed_shards, 0u);
  expect_dist_equals_serial(serial, r.merged);
}

TEST(DistHarness, CorruptResultIsRejectedAndRetried) {
  ds::register_all_benchmarks();
  const auto* b = harness::find_benchmark("ticket-lock");
  ASSERT_NE(b, nullptr);
  harness::RunOptions opts;
  harness::RunResult serial = harness::run_benchmark(*b, opts);
  dist::DistOptions d;
  d.dist_workers = 2;
  d.worker_chaos.corrupt_result_on = 1;
  dist::DistRunResult r = dist::run_benchmark_distributed(*b, opts, d);
  EXPECT_GE(r.corrupt_results, 1u);
  EXPECT_GE(r.retries, 1u);
  EXPECT_EQ(r.failed_shards, 0u);
  expect_dist_equals_serial(serial, r.merged);
}

TEST(DistHarness, WorkerDyingMidResultWriteIsContained) {
  // Torn frame + connection EOF: the coordinator must fail the attempt
  // without applying any partial state, then retry.
  ds::register_all_benchmarks();
  const auto* b = harness::find_benchmark("ticket-lock");
  ASSERT_NE(b, nullptr);
  harness::RunOptions opts;
  harness::RunResult serial = harness::run_benchmark(*b, opts);
  dist::DistOptions d;
  d.dist_workers = 2;
  d.worker_chaos.die_mid_result_on = 1;
  dist::DistRunResult r = dist::run_benchmark_distributed(*b, opts, d);
  EXPECT_GE(r.retries, 1u);
  EXPECT_EQ(r.failed_shards, 0u);
  expect_dist_equals_serial(serial, r.merged);
}

TEST(DistHarness, MutedHeartbeatsExpireTheLeaseAndDropTheStaleResult) {
  // A live worker that stops heartbeating: its lease expires mid-shard,
  // the shard is retried elsewhere, and the quiet worker's eventual
  // (out-of-lease) result is dropped as stale, not double-merged.
  fuzz::Program p;
  std::vector<std::uint64_t> obs;
  harness::Benchmark b =
      make_litmus_benchmark("long-shard", kLongShard, &p, &obs);
  harness::RunOptions opts;
  harness::RunResult serial = harness::run_benchmark(b, opts);
  ASSERT_TRUE(serial.mc.exhausted);
  dist::DistOptions d;
  d.dist_workers = 2;
  d.lease_seconds = 0.1;  // far shorter than a shard of this shape
  d.max_shard_retries = 10;
  d.max_shards = 2;
  d.shard_depth = 1;
  d.enable_steal = false;  // isolate the lease machinery
  d.worker_chaos.mute_heartbeats_on = 1;
  dist::DistRunResult r = dist::run_benchmark_distributed(b, opts, d);
  EXPECT_GE(r.leases_expired, 1u);
  EXPECT_GE(r.retries, 1u);
  EXPECT_GE(r.stale_results, 1u);
  EXPECT_EQ(r.failed_shards, 0u);
  expect_dist_equals_serial(serial, r.merged);
}

TEST(DistHarness, FallsBackToLocalForkPoolWhenNoWorkerConnects) {
  ds::register_all_benchmarks();
  const auto* b = harness::find_benchmark("ticket-lock");
  ASSERT_NE(b, nullptr);
  harness::RunOptions opts;
  harness::RunResult serial = harness::run_benchmark(*b, opts);
  dist::DistOptions d;
  d.dist_workers = 0;  // nobody will ever dial in
  d.connect_deadline_seconds = 0.2;
  d.fallback_jobs = 2;
  dist::DistRunResult r = dist::run_benchmark_distributed(*b, opts, d);
  EXPECT_TRUE(r.fell_back_local);
  EXPECT_EQ(r.connections_total, 0u);
  expect_dist_equals_serial(serial, r.merged);
  EXPECT_EQ(r.merged.verdict, mc::Verdict::kVerifiedExhaustive);
}

}  // namespace
}  // namespace cds
