// Harness tests: benchmark registry, result aggregation, and the
// injection-experiment classification (Figure 8 machinery).
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>

#include "ds/suite.h"
#include "ds/ticket_lock.h"
#include "harness/runner.h"
#include "mc/atomic.h"

namespace cds {
namespace {

TEST(Harness, RegistryIsIdempotentAndSearchable) {
  ds::register_all_benchmarks();
  std::size_t n = harness::benchmarks().size();
  ds::register_all_benchmarks();  // no duplicates
  EXPECT_EQ(harness::benchmarks().size(), n);
  EXPECT_GE(n, 13u) << "10 paper rows + 3 expressiveness extras";
  EXPECT_NE(harness::find_benchmark("ms-queue"), nullptr);
  EXPECT_EQ(harness::find_benchmark("no-such-benchmark"), nullptr);
}

TEST(Harness, PaperRowsAllRegistered) {
  ds::register_all_benchmarks();
  for (const char* name :
       {"chase-lev-deque", "spsc-queue", "rcu", "lockfree-hashtable",
        "mcs-lock", "mpmc-queue", "ms-queue", "linux-rwlock", "seqlock",
        "ticket-lock"}) {
    const auto* b = harness::find_benchmark(name);
    ASSERT_NE(b, nullptr) << name;
    EXPECT_FALSE(b->tests.empty()) << name;
    EXPECT_NE(b->spec, nullptr) << name;
  }
}

TEST(Harness, RunBenchmarkAggregatesAcrossTests) {
  ds::register_all_benchmarks();
  const auto* b = harness::find_benchmark("ticket-lock");
  ASSERT_NE(b, nullptr);
  harness::RunResult total = harness::run_benchmark(*b);
  std::uint64_t sum = 0;
  for (const auto& t : b->tests) {
    sum += harness::run_with_spec(t).mc.executions;
  }
  EXPECT_EQ(total.mc.executions, sum);
  EXPECT_EQ(total.mc.violations_total, 0u);
}

TEST(Harness, InjectionExperimentClassifiesTicketLock) {
  ds::register_all_benchmarks();
  const auto* b = harness::find_benchmark("ticket-lock");
  ASSERT_NE(b, nullptr);
  harness::RunOptions opts;
  opts.engine.stop_on_first_violation = true;
  auto sum = harness::run_injection_experiment(*b, opts);
  EXPECT_EQ(sum.injections, 2);
  EXPECT_EQ(sum.undetected, 0);
  EXPECT_EQ(sum.assertion, 2) << "both weakenings break lock() ordering";
  EXPECT_DOUBLE_EQ(sum.detection_rate(), 1.0);
  EXPECT_EQ(inject::active_injection(), -1) << "injection cleared after runs";
}

TEST(Harness, DetectionNames) {
  EXPECT_STREQ(harness::to_string(harness::Detection::kNone), "undetected");
  EXPECT_STREQ(harness::to_string(harness::Detection::kBuiltin), "built-in");
  EXPECT_STREQ(harness::to_string(harness::Detection::kAdmissibility),
               "admissibility");
  EXPECT_STREQ(harness::to_string(harness::Detection::kAssertion), "assertion");
}

#if defined(__unix__) || defined(__APPLE__)

// A deliberately hostile synthetic benchmark for the sweep fail-safes:
// one site kills the trial process outright (SIGKILL is uncatchable, so
// the engine's signal containment cannot intervene — this exercises the
// fork-isolation backstop), one hangs it (a non-parking native loop the
// engine cannot preempt), one behaves, and one aborts *inside the test
// body*, which the containment layer turns into a classified kCrash
// detection instead of a dead child. Registered at static-init time like
// real benchmark sites.
const inject::SiteId kCrashSite =
    inject::register_site("sweep-survival", "crash.store",
                          mc::MemoryOrder::seq_cst, inject::OpKind::kStore);
const inject::SiteId kHangSite =
    inject::register_site("sweep-survival", "hang.store",
                          mc::MemoryOrder::seq_cst, inject::OpKind::kStore);
const inject::SiteId kOkSite =
    inject::register_site("sweep-survival", "ok.store",
                          mc::MemoryOrder::seq_cst, inject::OpKind::kStore);
const inject::SiteId kAbortSite =
    inject::register_site("sweep-survival", "abort.store",
                          mc::MemoryOrder::seq_cst, inject::OpKind::kStore);

TEST(Harness, SweepSurvivesCrashingAndHangingTrials) {
  harness::Benchmark hostile;
  hostile.name = "sweep-survival";
  hostile.display = "Sweep survival (synthetic)";
  hostile.spec = nullptr;
  hostile.tests.push_back([](mc::Exec& x) {
    if (inject::active_injection() == kCrashSite) raise(SIGKILL);
    if (inject::active_injection() == kAbortSite) std::abort();
    if (inject::active_injection() == kHangSite) {
      volatile int spin = 1;
      while (spin != 0) {
      }
    }
    auto* a = x.make<mc::Atomic<int>>(0, "a");
    a->store(1, inject::order(kOkSite));
  });

  harness::RunOptions opts;
  harness::SweepOptions sweep;
  sweep.trial_timeout_seconds = 1.0;
  auto sum = harness::run_injection_experiment(hostile, opts, sweep);

  // The campaign survives every hostile trial: the raw kill and the hang
  // are recorded as process-level outcomes, the contained abort and the
  // well-behaved site classify normally.
  EXPECT_EQ(sum.injections, 4);
  EXPECT_EQ(sum.crashed, 1);
  EXPECT_EQ(sum.timed_out, 1);
  EXPECT_EQ(sum.completed(), 2);
  EXPECT_EQ(sum.undetected, 1);  // the ok site has no spec to violate
  ASSERT_EQ(sum.outcomes.size(), 4u);
  EXPECT_EQ(sum.outcomes[0].status, harness::TrialStatus::kCrashed);
  EXPECT_EQ(sum.outcomes[0].term_signal, SIGKILL);
  EXPECT_EQ(sum.outcomes[1].status, harness::TrialStatus::kTimedOut);
  EXPECT_TRUE(sum.outcomes[1].retried) << "one retry at a tighter cap";
  EXPECT_EQ(sum.outcomes[2].status, harness::TrialStatus::kCompleted);
  EXPECT_EQ(sum.outcomes[2].detection, harness::Detection::kNone);
  // The in-body abort is contained: the trial *completes* with the crash
  // classified as a built-in detection, rather than killing the child.
  EXPECT_EQ(sum.outcomes[3].status, harness::TrialStatus::kCompleted);
  EXPECT_EQ(sum.outcomes[3].detection, harness::Detection::kBuiltin);
  EXPECT_EQ(sum.outcomes[3].verdict, mc::Verdict::kFalsified);
  EXPECT_EQ(inject::active_injection(), -1);
}

#endif  // fork-capable platforms

TEST(Harness, DetectionFlagsReflectViolationKinds) {
  harness::RunResult r;
  EXPECT_FALSE(r.any_detection());
  r.violations.push_back(
      mc::Violation{mc::ViolationKind::kDataRace, "x", 0});
  EXPECT_TRUE(r.detected_builtin());
  EXPECT_FALSE(r.detected_assertion());
  r.spec.assertion_violation_execs = 1;
  EXPECT_TRUE(r.detected_assertion());
  r.spec.inadmissible_execs = 2;
  EXPECT_TRUE(r.detected_admissibility());
}

}  // namespace
}  // namespace cds
