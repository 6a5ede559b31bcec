// Signal-to-verdict containment: a fatal signal in the test body becomes a
// Violation{kCrash} carrying its trail and a kFalsified verdict — never a
// dead checker process. Includes the fiber stack guard-page diagnosis and
// the crash-repro replay loop.
#include <gtest/gtest.h>

#include <pthread.h>

#include <csignal>
#include <cstdlib>
#include <string>

#include "harness/runner.h"
#include "mc/atomic.h"
#include "mc/engine.h"

namespace cds {
namespace {

void expect_single_crash(const mc::ExplorationStats& stats,
                         const mc::Engine& e, const char* signal_name) {
  EXPECT_EQ(stats.crash_execs, 1u);
  EXPECT_TRUE(stats.stopped_early)
      << "an in-process crash always ends the exploration";
  EXPECT_EQ(stats.verdict, mc::Verdict::kFalsified);
  ASSERT_EQ(e.violations().size(), 1u);
  EXPECT_EQ(e.violations()[0].kind, mc::ViolationKind::kCrash);
  EXPECT_NE(e.violations()[0].detail.find(signal_name), std::string::npos)
      << e.violations()[0].detail;
  EXPECT_NE(e.violations()[0].detail.find("modeled thread"), std::string::npos)
      << e.violations()[0].detail;
}

TEST(Crash, SigsegvIsContainedAsViolation) {
  mc::Engine e;
  mc::ExplorationStats stats = e.explore([](mc::Exec& x) {
    auto* a = x.make<mc::Atomic<int>>(0, "a");
    a->store(1, mc::MemoryOrder::relaxed);
    raise(SIGSEGV);
  });
  expect_single_crash(stats, e, "SIGSEGV");
}

TEST(Crash, ContainedCrashLeavesTheCallersSignalMask) {
  // The kernel blocks SIGSEGV while its handler runs and the containment
  // window does not save the mask per step, so the crash path must put
  // back exactly the mask explore() started with: SIGSEGV unblocked again,
  // the caller's own blocked SIGUSR1 kept.
  sigset_t usr1;
  sigemptyset(&usr1);
  sigaddset(&usr1, SIGUSR1);
  sigset_t original;
  ASSERT_EQ(pthread_sigmask(SIG_BLOCK, &usr1, &original), 0);
  sigset_t before;
  ASSERT_EQ(pthread_sigmask(SIG_SETMASK, nullptr, &before), 0);
  mc::Engine e;
  mc::ExplorationStats stats = e.explore([](mc::Exec& x) {
    (void)x;
    raise(SIGSEGV);
  });
  sigset_t after;
  ASSERT_EQ(pthread_sigmask(SIG_SETMASK, nullptr, &after), 0);
  ASSERT_EQ(pthread_sigmask(SIG_SETMASK, &original, nullptr), 0);
  expect_single_crash(stats, e, "SIGSEGV");
  EXPECT_EQ(sigismember(&after, SIGUSR1), 1);
  EXPECT_EQ(sigismember(&after, SIGSEGV), 0);
  for (int sig = 1; sig <= SIGRTMAX; ++sig) {
    EXPECT_EQ(sigismember(&before, sig), sigismember(&after, sig))
        << "signal " << sig;
  }
}

TEST(Crash, SigfpeIsContainedAsViolation) {
  mc::Engine e;
  mc::ExplorationStats stats = e.explore([](mc::Exec& x) {
    (void)x;
    raise(SIGFPE);
  });
  expect_single_crash(stats, e, "SIGFPE");
}

TEST(Crash, AbortIsContainedAsViolation) {
  mc::Engine e;
  mc::ExplorationStats stats = e.explore([](mc::Exec& x) {
    int t = x.spawn([] { std::abort(); });
    x.join(t);
  });
  expect_single_crash(stats, e, "SIGABRT");
}

TEST(Crash, ContainmentIsReentrantAcrossExplorations) {
  // Handlers install per explore() and restore on exit; crashing, clean,
  // and crashing-again explorations must not interfere with each other.
  for (int round = 0; round < 2; ++round) {
    mc::Engine crasher;
    mc::ExplorationStats stats = crasher.explore([](mc::Exec& x) {
      (void)x;
      raise(SIGSEGV);
    });
    expect_single_crash(stats, crasher, "SIGSEGV");

    mc::Engine clean;
    mc::ExplorationStats ok = clean.explore([](mc::Exec& x) {
      auto* a = x.make<mc::Atomic<int>>(0, "a");
      int t = x.spawn([a] { a->store(1, mc::MemoryOrder::relaxed); });
      (void)a->load(mc::MemoryOrder::relaxed);
      x.join(t);
    });
    EXPECT_EQ(ok.crash_execs, 0u);
    EXPECT_EQ(ok.verdict, mc::Verdict::kVerifiedExhaustive);
  }
}

// A crash that depends on an observed value: only the execution where the
// load reads the spawned thread's store crashes, so the violation's trail
// pins one specific schedule + reads-from choice sequence.
void choice_dependent_crash(mc::Exec& x) {
  auto* f = x.make<mc::Atomic<int>>(0, "f");
  int t = x.spawn([f] { f->store(1, mc::MemoryOrder::relaxed); });
  if (f->load(mc::MemoryOrder::relaxed) == 1) raise(SIGSEGV);
  x.join(t);
}

TEST(Crash, CrashTrailReplaysToTheSameCrash) {
  mc::Engine e;
  mc::ExplorationStats stats = e.explore(choice_dependent_crash);
  EXPECT_EQ(stats.verdict, mc::Verdict::kFalsified);
  ASSERT_EQ(e.violations().size(), 1u);
  const mc::Violation& v = e.violations()[0];
  ASSERT_EQ(v.kind, mc::ViolationKind::kCrash);
  ASSERT_FALSE(v.trail.empty()) << "crash violations carry their trail";

  // Strict replay on a fresh engine: the recorded choices deterministically
  // drive the execution back into the same contained crash.
  mc::Engine replayer;
  std::string divergence;
  ASSERT_TRUE(
      replayer.replay(v.trail, choice_dependent_crash, true, &divergence))
      << divergence;
  ASSERT_EQ(replayer.violations().size(), 1u);
  EXPECT_EQ(replayer.violations()[0].kind, mc::ViolationKind::kCrash);
  EXPECT_NE(replayer.violations()[0].detail.find("SIGSEGV"),
            std::string::npos);
}

TEST(Crash, StrictReplayOfNonCrashingTrailReportsDivergence) {
  // The same trail against a body that no longer crashes (the "fixed build"
  // scenario): strict replay must say so instead of silently passing.
  mc::Engine e;
  (void)e.explore(choice_dependent_crash);
  ASSERT_EQ(e.violations().size(), 1u);
  std::vector<mc::Choice> trail = e.violations()[0].trail;

  mc::Engine replayer;
  std::string divergence;
  bool ok = replayer.replay(
      trail,
      [](mc::Exec& x) {
        auto* f = x.make<mc::Atomic<int>>(0, "f");
        int t = x.spawn([f] { f->store(1, mc::MemoryOrder::relaxed); });
        (void)f->load(mc::MemoryOrder::relaxed);  // crash removed
        x.join(t);
      },
      true, &divergence);
  EXPECT_TRUE(replayer.violations().empty());
  if (!ok) {
    EXPECT_FALSE(divergence.empty());
  }
}

TEST(Crash, VerdictIsFalsifiedThroughTheHarness) {
  harness::RunResult res = harness::run_with_spec(choice_dependent_crash);
  EXPECT_EQ(res.verdict, mc::Verdict::kFalsified);
  EXPECT_EQ(res.mc.crash_execs, 1u);
  ASSERT_FALSE(res.violations.empty());
  EXPECT_EQ(res.violations[0].kind, mc::ViolationKind::kCrash);
}

// ASan's fake-stack frames for address-taken locals live on the heap, so
// the recursion below would not walk into the fiber's mmap'd guard page;
// the diagnosis is exercised in the plain and UBSan builds instead.
#if defined(__SANITIZE_ADDRESS__)
#define CDS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CDS_ASAN 1
#endif
#endif

#if defined(__linux__) && !defined(CDS_ASAN)

// Deliberately non-tail-recursive stack eater: each frame pins a buffer so
// the compiler cannot collapse the recursion.
int eat_stack(volatile char* sink, int depth) {
  volatile char buf[512];
  buf[0] = static_cast<char>(depth);
  *sink = buf[0];
  if (depth > 1000000) return depth;
  return eat_stack(sink, depth + 1) + (buf[0] != 0 ? 1 : 0);
}

TEST(Crash, FiberStackOverflowHitsGuardPageAndIsDiagnosed) {
  mc::Engine e;
  mc::ExplorationStats stats = e.explore([](mc::Exec& x) {
    volatile char sink = 0;
    int t = x.spawn([&sink] { (void)eat_stack(&sink, 0); });
    x.join(t);
  });
  EXPECT_EQ(stats.crash_execs, 1u);
  EXPECT_EQ(stats.verdict, mc::Verdict::kFalsified);
  ASSERT_EQ(e.violations().size(), 1u);
  const std::string& d = e.violations()[0].detail;
  EXPECT_NE(d.find("SIGSEGV"), std::string::npos) << d;
  EXPECT_NE(d.find("stack overflow"), std::string::npos)
      << "guard-page fault not attributed to the overflowing fiber: " << d;
}

// Fiber stacks outlive their Engine in a per-thread cache: the next
// Engine's fibers run on the same mappings, and their guard pages still
// turn an overflow into a diagnosed violation.
TEST(Crash, StackOverflowDiagnosedOnReusedStacks) {
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("engine " + std::to_string(round));
    mc::Engine e;
    mc::ExplorationStats stats = e.explore([](mc::Exec& x) {
      volatile char sink = 0;
      int t = x.spawn([&sink] { (void)eat_stack(&sink, 0); });
      x.join(t);
    });
    EXPECT_EQ(stats.crash_execs, 1u);
    ASSERT_EQ(e.violations().size(), 1u);
    const std::string& d = e.violations()[0].detail;
    EXPECT_NE(d.find("stack overflow of T1"), std::string::npos) << d;
  }
}

#endif  // __linux__ && !CDS_ASAN

}  // namespace
}  // namespace cds
