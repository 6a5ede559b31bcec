// Allocation guard: once an Engine has explored a tree, exploring it again
// makes no heap allocation between executions, and the fuzzer's behavior
// collector allocates only for a behavior it has not seen before.
//
// This file is its own test executable because it replaces the global
// operator new/delete with counting versions. The counts hold under
// ASan/UBSan as well: their runtimes allocate outside operator new.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "ds/suite.h"
#include "fuzz/oracle.h"
#include "fuzz/program.h"
#include "harness/runner.h"
#include "mc/engine.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

// Not inlined: GCC would otherwise pair an inlined free() with the
// operator new call it can see and warn about mismatched functions.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace cds {
namespace {

using mc::Config;
using mc::Engine;
using mc::ExploreMode;

// Counts allocations between completed executions (the engine path: the
// scheduler, the memory model and the test body) apart from those inside
// the wrapped listener, if any.
class AllocProbe : public mc::ExecutionListener {
 public:
  explicit AllocProbe(mc::ExecutionListener* inner = nullptr) : inner_(inner) {}

  void on_execution_begin(Engine& e) override {
    if (inner_ != nullptr) inner_->on_execution_begin(e);
  }

  bool on_execution_complete(Engine& e) override {
    const std::uint64_t before = allocations();
    if (completions_ > 0) engine_allocs_ += before - last_;
    const bool keep_going =
        inner_ == nullptr || inner_->on_execution_complete(e);
    const std::uint64_t inner = allocations() - before;
    // The record itself must not allocate: keep the first kCalls only.
    if (completions_ < kCalls) inner_allocs_[completions_] = inner;
    ++completions_;
    last_ = allocations();
    return keep_going;
  }

  // Restarts the tally for the next explore().
  void rearm() {
    completions_ = 0;
    engine_allocs_ = 0;
  }

  static constexpr std::size_t kCalls = 4096;
  std::size_t completions() const { return completions_; }
  // Engine-path allocations from the first completed execution to the
  // last one.
  std::uint64_t engine_allocs() const { return engine_allocs_; }
  std::uint64_t inner_allocs(std::size_t call) const {
    return inner_allocs_[call];
  }

 private:
  mc::ExecutionListener* inner_;
  std::size_t completions_ = 0;
  std::uint64_t engine_allocs_ = 0;
  std::uint64_t last_ = 0;
  std::uint64_t inner_allocs_[kCalls] = {};
};

// Message passing with a CAS and an RMW: release sequences, stale reads,
// failed-CAS reads and fences all take part.
constexpr const char* kLitmus =
    "litmus v1\n"
    "locations 3\n"
    "t0 store x 1 relaxed\n"
    "t0 fence release\n"
    "t0 store y 1 relaxed\n"
    "t1 rmw y 1 acq_rel\n"
    "t1 load x acquire\n"
    "t2 cas y 1 2 release relaxed\n"
    "t2 load z acquire\n"
    "t2 store z 3 seq_cst\n";

fuzz::Program litmus() {
  fuzz::Program p;
  std::string err;
  EXPECT_TRUE(fuzz::Program::parse(kLitmus, &p, &err)) << err;
  return p;
}

Config litmus_config(ExploreMode mode, bool sampling) {
  Config c;
  c.explore = mode;
  c.collect_trace = false;
  c.stale_read_bound = 64;
  c.sampling_only = sampling;
  c.sample_executions = sampling ? 512 : 0;
  c.seed = 7;
  return c;
}

// Explores the litmus program twice on one engine through the fuzzer's
// collector: the first pass warms the engine and fills the set, the second
// must allocate nothing between executions or in the collector.
void check_litmus(ExploreMode mode, bool sampling) {
  const fuzz::Program p = litmus();
  std::vector<std::uint64_t> obs;
  fuzz::BehaviorSet set;
  fuzz::BehaviorCollector collector(&obs, p.locations, &set);
  AllocProbe probe(&collector);
  Engine engine(litmus_config(mode, sampling));
  engine.set_listener(&probe);
  const mc::TestFn test = p.test_fn(&obs);

  (void)engine.explore(test);
  ASSERT_GT(probe.completions(), 16u);
  ASSERT_GT(set.size(), 1u);
  const std::size_t behaviors = set.size();

  probe.rearm();
  (void)engine.explore(test);
  ASSERT_GT(probe.completions(), 16u);
  EXPECT_EQ(probe.engine_allocs(), 0u);
  const std::size_t calls = std::min(probe.completions(), AllocProbe::kCalls);
  for (std::size_t i = 0; i < calls; ++i) {
    EXPECT_EQ(probe.inner_allocs(i), 0u) << "collector call " << i;
  }
  EXPECT_EQ(set.size(), behaviors);
}

TEST(AllocGuard, LitmusDfsScheduleMode) {
  check_litmus(ExploreMode::kSchedule, false);
}

TEST(AllocGuard, LitmusDfsRfMode) {
  check_litmus(ExploreMode::kRf, false);
}

TEST(AllocGuard, LitmusSampling) {
  check_litmus(ExploreMode::kSchedule, true);
}

// On a fresh set, a collector call allocates exactly when it adds a
// behavior; repeats of a known behavior cost nothing.
TEST(AllocGuard, CollectorAllocatesOnlyForNewBehaviors) {
  const fuzz::Program p = litmus();
  std::vector<std::uint64_t> obs;
  fuzz::BehaviorSet set;
  fuzz::BehaviorCollector collector(&obs, p.locations, &set);

  // Counts the set's growth per collector call.
  class Growth : public mc::ExecutionListener {
   public:
    Growth(fuzz::BehaviorCollector* c, const fuzz::BehaviorSet* s)
        : c_(c), s_(s) {}
    bool on_execution_complete(Engine& e) override {
      const std::size_t before = s_->size();
      const bool r = c_->on_execution_complete(e);
      if (calls_ < AllocProbe::kCalls) grew_[calls_] = s_->size() > before;
      ++calls_;
      return r;
    }
    bool grew(std::size_t i) const { return grew_[i]; }

   private:
    fuzz::BehaviorCollector* c_;
    const fuzz::BehaviorSet* s_;
    std::size_t calls_ = 0;
    bool grew_[AllocProbe::kCalls] = {};
  };
  Growth growth(&collector, &set);
  AllocProbe probe(&growth);
  Engine engine(litmus_config(ExploreMode::kSchedule, false));
  engine.set_listener(&probe);
  (void)engine.explore(p.test_fn(&obs));

  const std::size_t calls = std::min(probe.completions(), AllocProbe::kCalls);
  ASSERT_GT(calls, set.size());  // some behaviors repeat
  std::size_t new_calls = 0;
  for (std::size_t i = 0; i < calls; ++i) {
    if (growth.grew(i)) {
      ++new_calls;
      EXPECT_GT(probe.inner_allocs(i), 0u) << "call " << i;
    } else {
      EXPECT_EQ(probe.inner_allocs(i), 0u) << "call " << i;
    }
  }
  EXPECT_EQ(new_calls, set.size());
}

// A data-structure unit test on the engine alone (no spec checker), in
// both exploration modes: a second explore on a warm engine allocates
// nothing between executions.
void check_ds(const char* bench, ExploreMode mode) {
  ds::register_all_benchmarks();
  const harness::Benchmark* b = harness::find_benchmark(bench);
  ASSERT_NE(b, nullptr) << bench;
  Config c;
  c.explore = mode;
  c.max_executions = 2000;
  AllocProbe probe;
  Engine engine(c);
  engine.set_listener(&probe);
  (void)engine.explore(b->tests[0]);
  ASSERT_GT(probe.completions(), 16u);
  probe.rearm();
  (void)engine.explore(b->tests[0]);
  ASSERT_GT(probe.completions(), 16u);
  EXPECT_EQ(probe.engine_allocs(), 0u) << bench;
}

TEST(AllocGuard, DsTestScheduleMode) {
  check_ds("ms-queue", ExploreMode::kSchedule);
}

TEST(AllocGuard, DsTestRfMode) {
  check_ds("ms-queue", ExploreMode::kRf);
}

// The same warm engine, counted over the whole second explore() call:
// its entry and exit (phase timers, stats) allocate nothing either.
void check_whole_explore(ExploreMode mode) {
  ds::register_all_benchmarks();
  const harness::Benchmark* b = harness::find_benchmark("ms-queue");
  ASSERT_NE(b, nullptr);
  Config c;
  c.explore = mode;
  c.max_executions = 2000;
  Engine engine(c);
  ASSERT_GT(engine.explore(b->tests[0]).executions, 16u);
  const std::uint64_t before = allocations();
  const mc::ExplorationStats again = engine.explore(b->tests[0]);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(again.executions, 16u);
}

TEST(AllocGuard, WholeDfsExploreScheduleMode) {
  check_whole_explore(ExploreMode::kSchedule);
}

TEST(AllocGuard, WholeDfsExploreRfMode) {
  check_whole_explore(ExploreMode::kRf);
}

}  // namespace
}  // namespace cds
