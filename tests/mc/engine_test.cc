// Engine-level unit tests: RMW variants, exchange, CAS edge cases, traces,
// violation accounting, exploration caps, mutex blocking, and the
// determinism/reduction invariants the trail relies on.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "mc/atomic.h"
#include "mc/engine.h"
#include "mc/shard.h"
#include "mc/sync.h"
#include "mc/var.h"

namespace cds::mc {
namespace {

TEST(Engine, CurrentIsNullOutsideExploration) {
  EXPECT_EQ(Engine::current(), nullptr);
  Engine e;
  e.explore([&](Exec&) { EXPECT_EQ(Engine::current(), &e); });
  EXPECT_EQ(Engine::current(), nullptr);
}

TEST(Engine, FetchOpsComputeCorrectly) {
  Engine e;
  e.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(6, "a");
    EXPECT_EQ(a->fetch_add(3, MemoryOrder::relaxed), 6);
    EXPECT_EQ(a->fetch_sub(2, MemoryOrder::relaxed), 9);
    EXPECT_EQ(a->fetch_or(0x10, MemoryOrder::relaxed), 7);
    EXPECT_EQ(a->fetch_and(0x13, MemoryOrder::relaxed), 0x17);
    EXPECT_EQ(a->load(MemoryOrder::relaxed), 0x13);
  });
}

TEST(Engine, FetchXorAndDefaultOrders) {
  Engine e;
  e.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(0b1100, "a");
    EXPECT_EQ(a->fetch_xor(0b1010, MemoryOrder::acq_rel), 0b1100);
    EXPECT_EQ(a->load(), 0b0110);  // default seq_cst, like std::atomic
    a->store(7);                   // default seq_cst
    EXPECT_EQ(a->load(MemoryOrder::relaxed), 7);
  });
}

TEST(Engine, ExchangeReturnsOldValue) {
  Engine e;
  e.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(5, "a");
    EXPECT_EQ(a->exchange(8, MemoryOrder::acq_rel), 5);
    EXPECT_EQ(a->load(MemoryOrder::relaxed), 8);
  });
}

TEST(Engine, CasUpdatesExpectedOnFailure) {
  Engine e;
  e.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(5, "a");
    int expected = 3;
    EXPECT_FALSE(a->compare_exchange_strong(expected, 9, MemoryOrder::seq_cst,
                                            MemoryOrder::seq_cst));
    EXPECT_EQ(expected, 5);
    EXPECT_TRUE(a->compare_exchange_strong(expected, 9, MemoryOrder::seq_cst,
                                           MemoryOrder::seq_cst));
    EXPECT_EQ(a->load(MemoryOrder::relaxed), 9);
  });
}

TEST(Engine, PointerAtomics) {
  Engine e;
  e.explore([](Exec& x) {
    auto* n1 = x.make<int>(1);
    auto* n2 = x.make<int>(2);
    auto* p = x.make<Atomic<int*>>(n1, "p");
    int* expected = n1;
    EXPECT_TRUE(p->compare_exchange_strong(expected, n2, MemoryOrder::acq_rel,
                                           MemoryOrder::relaxed));
    EXPECT_EQ(p->load(MemoryOrder::relaxed), n2);
  });
}

TEST(Engine, TraceRecordsEvents) {
  Engine e;
  e.set_listener(nullptr);
  struct L : ExecutionListener {
    std::string trace;
    bool on_execution_complete(Engine& eng) override {
      trace = eng.format_trace();
      return true;
    }
  } l;
  e.set_listener(&l);
  e.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(0, "counter");
    a->store(5, MemoryOrder::release);
    (void)a->load(MemoryOrder::acquire);
  });
  EXPECT_NE(l.trace.find("store counter = 5 [release]"), std::string::npos);
  EXPECT_NE(l.trace.find("load counter = 5 [acquire]"), std::string::npos);
}

TEST(Engine, MaxExecutionsCapIsHonored) {
  Config cfg;
  cfg.max_executions = 3;
  Engine e(cfg);
  auto stats = e.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(0, "a");
    int t1 = x.spawn([a] { a->store(1, MemoryOrder::relaxed); });
    int t2 = x.spawn([a] { (void)a->load(MemoryOrder::relaxed); });
    x.join(t1);
    x.join(t2);
  });
  EXPECT_EQ(stats.executions, 3u);
  EXPECT_TRUE(stats.hit_execution_cap);
}

TEST(Engine, StopOnFirstViolation) {
  Config cfg;
  cfg.stop_on_first_violation = true;
  Engine e(cfg);
  auto stats = e.explore([](Exec& x) {
    auto* d = x.make<Var<int>>(0, "d");
    int t1 = x.spawn([d] { d->write(1); });
    int t2 = x.spawn([d] { d->write(2); });
    x.join(t1);
    x.join(t2);
  });
  EXPECT_TRUE(stats.stopped_early);
  EXPECT_GE(stats.violations_total, 1u);
}

TEST(Engine, ViolationRecordCapRespected) {
  Config cfg;
  cfg.max_recorded_violations = 2;
  Engine e(cfg);
  auto stats = e.explore([](Exec& x) {
    auto* d = x.make<Var<int>>(0, "d");
    int t1 = x.spawn([d] { d->write(1); });
    int t2 = x.spawn([d] { d->write(2); });
    x.join(t1);
    x.join(t2);
  });
  EXPECT_LE(e.violations().size(), 2u);
  EXPECT_GE(stats.violations_total, e.violations().size());
}

TEST(Engine, ReadReadIsNotARace) {
  Engine e;
  auto stats = e.explore([](Exec& x) {
    auto* d = x.make<Var<int>>(7, "d");
    int t1 = x.spawn([d] { (void)d->read(); });
    int t2 = x.spawn([d] { (void)d->read(); });
    x.join(t1);
    x.join(t2);
  });
  EXPECT_EQ(stats.violations_total, 0u);
}

TEST(Engine, WriteAfterJoinedReadIsNotARace) {
  Engine e;
  auto stats = e.explore([](Exec& x) {
    auto* d = x.make<Var<int>>(0, "d");
    int t1 = x.spawn([d] { (void)d->read(); });
    x.join(t1);
    d->write(1);  // ordered after the read via join
  });
  EXPECT_EQ(stats.violations_total, 0u);
}

TEST(Engine, ConcurrentReadWriteIsARace) {
  Engine e;
  auto stats = e.explore([](Exec& x) {
    auto* d = x.make<Var<int>>(0, "d");
    int t1 = x.spawn([d] { (void)d->read(); });
    int t2 = x.spawn([d] { d->write(1); });
    x.join(t1);
    x.join(t2);
  });
  EXPECT_GT(stats.violations_total, 0u);
}

TEST(Engine, MutexBlocksUntilUnlocked) {
  // With the mutex held for the child's whole life, the parent can only
  // lock after joining; the protected counter ends at 2 in all executions.
  Engine e;
  std::set<int> finals;
  struct L : ExecutionListener {
    int* r;
    std::set<int>* v;
    bool on_execution_complete(Engine&) override {
      v->insert(*r);
      return true;
    }
  } l;
  int r = -1;
  l.r = &r;
  l.v = &finals;
  e.set_listener(&l);
  e.explore([&](Exec& x) {
    auto* m = x.make<Mutex>("m");
    auto* v = x.make<Var<int>>(0, "v");
    int t1 = x.spawn([m, v] {
      LockGuard g(*m);
      v->write(v->read() + 1);
    });
    int t2 = x.spawn([m, v] {
      LockGuard g(*m);
      v->write(v->read() + 1);
    });
    x.join(t1);
    x.join(t2);
    r = v->read();
  });
  EXPECT_EQ(finals, std::set<int>{2});
}

TEST(Engine, ExplorationDeterministicAcrossRuns) {
  auto body = [](Exec& x) {
    auto* a = x.make<Atomic<int>>(0, "a");
    auto* b = x.make<Atomic<int>>(0, "b");
    int t1 = x.spawn([a, b] {
      a->store(1, MemoryOrder::release);
      (void)b->load(MemoryOrder::acquire);
    });
    int t2 = x.spawn([a, b] {
      b->store(1, MemoryOrder::release);
      (void)a->load(MemoryOrder::acquire);
    });
    x.join(t1);
    x.join(t2);
  };
  Engine e1, e2;
  auto s1 = e1.explore(body);
  auto s2 = e2.explore(body);
  EXPECT_EQ(s1.executions, s2.executions);
  EXPECT_EQ(s1.feasible, s2.feasible);
  EXPECT_EQ(s1.pruned_redundant, s2.pruned_redundant);
}

TEST(Engine, SleepSetsPruneRedundantInterleavings) {
  // Independent stores on different locations: the sleep set should prune
  // at least one of the two schedule orders' continuations.
  Engine e;
  auto stats = e.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(0, "a");
    auto* b = x.make<Atomic<int>>(0, "b");
    int t1 = x.spawn([a] { a->store(1, MemoryOrder::relaxed); });
    int t2 = x.spawn([b] { b->store(1, MemoryOrder::relaxed); });
    x.join(t1);
    x.join(t2);
  });
  EXPECT_GT(stats.pruned_redundant, 0u);
  EXPECT_EQ(stats.feasible, 1u)
      << "the two independent stores have exactly one behavior";
}

TEST(Engine, SleepSetsOrderSameLocationSeqCstLoads) {
  // Each seq_cst load raises its location's SC read floor, so two seq_cst
  // loads of one location do not commute. The outcome a=1, bx=1, by=0
  // needs b's y-load before a's, after both of w's stores: with the two
  // loads treated as independent, that order sat in a's sleep set and was
  // pruned. Loads of different locations (b's x-load vs a's y-load) stay
  // independent.
  struct Out {
    int a = -1, bx = -1, by = -1;
  };
  auto body = [](Out* o) {
    return [o](Exec& x) {
      auto* fx = x.make<Atomic<int>>(0, "x");
      auto* fy = x.make<Atomic<int>>(0, "y");
      int w = x.spawn([fx, fy] {
        fy->store(1, MemoryOrder::relaxed);
        fx->store(1, MemoryOrder::relaxed);
      });
      int a = x.spawn([o, fy] { o->a = fy->load(MemoryOrder::seq_cst); });
      int b = x.spawn([o, fx, fy] {
        o->bx = fx->load(MemoryOrder::relaxed);
        o->by = fy->load(MemoryOrder::seq_cst);
      });
      x.join(w);
      x.join(a);
      x.join(b);
    };
  };
  struct L : ExecutionListener {
    Out* o = nullptr;
    std::set<std::vector<int>> seen;
    bool on_execution_complete(Engine&) override {
      seen.insert({o->a, o->bx, o->by});
      return true;
    }
  };
  for (ExploreMode mode : {ExploreMode::kSchedule, ExploreMode::kRf}) {
    SCOPED_TRACE(to_string(mode));
    std::set<std::vector<int>> by_sleep[2];
    for (bool sleep : {false, true}) {
      Out o;
      L l;
      l.o = &o;
      Config cfg;
      cfg.explore = mode;
      cfg.enable_sleep_sets = sleep;
      Engine e(cfg);
      e.set_listener(&l);
      ASSERT_TRUE(e.explore(body(&o)).exhausted);
      by_sleep[sleep ? 1 : 0] = l.seen;
    }
    EXPECT_TRUE(by_sleep[0].count({1, 1, 0}));
    EXPECT_EQ(by_sleep[1], by_sleep[0])
        << "sleep sets must not prune the b-before-a seq_cst load order";
  }
}

TEST(Engine, UnsignedAtomicWraparound) {
  Engine e;
  e.explore([](Exec& x) {
    auto* a = x.make<Atomic<unsigned>>(0xFFFFFFFFu, "a");
    EXPECT_EQ(a->fetch_add(1u, MemoryOrder::relaxed), 0xFFFFFFFFu);
    EXPECT_EQ(a->load(MemoryOrder::relaxed), 0u);
  });
}

TEST(Engine, ReplayReproducesAViolatingExecution) {
  // Capture the trail of the first racy execution, then replay it: the
  // same violation and trace must reappear.
  Config cfg;
  cfg.stop_on_first_violation = true;
  Engine e(cfg);
  std::vector<Choice> bad_trail;
  struct L : ExecutionListener {
  } l;
  (void)l;
  auto body = [](Exec& x) {
    auto* d = x.make<Var<int>>(0, "d");
    auto* f = x.make<Atomic<int>>(0, "f");
    int t1 = x.spawn([d, f] {
      d->write(1);
      f->store(1, MemoryOrder::relaxed);
    });
    int t2 = x.spawn([d, f] {
      if (f->load(MemoryOrder::relaxed) == 1) (void)d->read();
    });
    x.join(t1);
    x.join(t2);
  };
  auto stats = e.explore(body);
  ASSERT_GT(stats.violations_total, 0u);
  bad_trail = e.current_trail();

  Engine e2;
  e2.replay(bad_trail, body);
  EXPECT_TRUE(e2.execution_has_builtin_violation());
  ASSERT_FALSE(e2.violations().empty());
  EXPECT_EQ(e2.violations()[0].kind, ViolationKind::kDataRace);
  EXPECT_FALSE(e2.format_trace().empty());
}

TEST(Engine, SleepSetAblationPreservesBehaviors) {
  // With sleep sets disabled, more executions are explored but the set of
  // observed outcomes is identical.
  auto body = [](int* r1, int* r2) {
    return [r1, r2](Exec& x) {
      auto* fx = x.make<Atomic<int>>(0, "x");
      auto* fy = x.make<Atomic<int>>(0, "y");
      int t1 = x.spawn([&, fx, fy] {
        fx->store(1, MemoryOrder::release);
        *r1 = fy->load(MemoryOrder::acquire);
      });
      int t2 = x.spawn([&, fx, fy] {
        fy->store(1, MemoryOrder::release);
        *r2 = fx->load(MemoryOrder::acquire);
      });
      x.join(t1);
      x.join(t2);
    };
  };
  struct L : ExecutionListener {
    int* r1;
    int* r2;
    std::set<std::pair<int, int>> seen;
    bool on_execution_complete(Engine&) override {
      seen.insert({*r1, *r2});
      return true;
    }
  };
  int r1 = -1, r2 = -1;
  L on, off;
  on.r1 = off.r1 = &r1;
  on.r2 = off.r2 = &r2;

  Config con;
  con.enable_sleep_sets = true;
  Engine eon(con);
  eon.set_listener(&on);
  auto son = eon.explore(body(&r1, &r2));

  Config coff;
  coff.enable_sleep_sets = false;
  Engine eoff(coff);
  eoff.set_listener(&off);
  auto soff = eoff.explore(body(&r1, &r2));

  EXPECT_EQ(on.seen, off.seen) << "reduction must preserve behaviors";
  EXPECT_LE(son.executions, soff.executions);
}

TEST(Engine, MoreThanSixtyFourRunnableThreads) {
  // Regression: the scheduler's enabled-thread scratch was a fixed
  // enabled[64] array that silently dropped runnable threads past the cap,
  // so threads 65.. were never scheduled. Spawn 70 concurrently-runnable
  // threads and require every one of them to run to completion.
  Config cfg;
  cfg.max_threads = 80;
  cfg.max_executions = 1;
  Engine e(cfg);
  static constexpr int kThreads = 70;
  auto stats = e.explore([](Exec& x) {
    std::vector<Var<int>*> slots;
    slots.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      slots.push_back(x.make<Var<int>>(0));
    }
    std::vector<int> tids;
    tids.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      Var<int>* s = slots[static_cast<std::size_t>(i)];
      tids.push_back(x.spawn([s] { s->write(1); }));
    }
    for (int tid : tids) x.join(tid);
    int ran = 0;
    for (Var<int>* s : slots) ran += s->read();
    EXPECT_EQ(ran, kThreads) << "some runnable threads were never scheduled";
  });
  EXPECT_EQ(stats.engine_fatal_execs, 0u);
  EXPECT_GE(stats.feasible, 1u);
}

TEST(Engine, ManyThreadsSpawnJoin) {
  Engine e;
  auto stats = e.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(0, "a");
    int tids[6];
    for (int& tid : tids) {
      tid = x.spawn([a] { a->fetch_add(1, MemoryOrder::relaxed); });
    }
    for (int tid : tids) x.join(tid);
    EXPECT_EQ(a->load(MemoryOrder::relaxed), 6);
  });
  EXPECT_GT(stats.feasible, 0u);
}

// A stop request preempts a subtree only while a leaf is left below the
// pinned prefix; the subtree's last leaf ends it as exhausted. A preempted
// result with nothing left used to fail its shard (an empty frontier
// beside the preempted flag) and leave the verdict inconclusive.
TEST(Engine, StopRequestOnOnlyExecutionReportsExhausted) {
  Config cfg;
  cfg.stop_request = [] { return true; };
  Engine e(cfg);
  const ExplorationStats s = e.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(0, "a");
    a->store(1, MemoryOrder::release);
    EXPECT_EQ(a->load(MemoryOrder::acquire), 1);
  });
  EXPECT_EQ(s.executions, 1u);
  EXPECT_FALSE(s.preempted);
  EXPECT_FALSE(s.stopped_early);
  EXPECT_TRUE(s.exhausted);
  EXPECT_TRUE(e.preempt_frontier().empty());
  EXPECT_EQ(s.verdict, Verdict::kVerifiedExhaustive);
}

TEST(Engine, StopRequestOnLastLeafReportsExhausted) {
  const TestFn two_leaves = [](Exec& x) {
    auto* a = x.make<Atomic<int>>(0, "a");
    const int t1 = x.spawn([a] { a->store(1, MemoryOrder::relaxed); });
    const int t2 = x.spawn([a] { a->store(2, MemoryOrder::relaxed); });
    x.join(t1);
    x.join(t2);
  };
  for (ExploreMode mode : {ExploreMode::kSchedule, ExploreMode::kRf}) {
    SCOPED_TRACE(to_string(mode));
    Config cfg;
    cfg.explore = mode;
    {
      Engine whole(cfg);
      ASSERT_EQ(whole.explore(two_leaves).executions, 2u);
    }
    cfg.stop_request = [] { return true; };
    Engine first(cfg);
    const ExplorationStats s1 = first.explore(two_leaves);
    ASSERT_TRUE(s1.preempted) << "the second leaf is left";
    EXPECT_EQ(s1.executions, 1u);
    const std::vector<std::vector<Choice>> rest =
        split_remaining_frontier(0, first.preempt_frontier());
    ASSERT_EQ(rest.size(), 1u);

    Engine last(cfg);
    last.set_subtree(rest[0]);
    const ExplorationStats s2 = last.explore(two_leaves);
    EXPECT_EQ(s2.executions, 1u);
    EXPECT_FALSE(s2.preempted);
    EXPECT_TRUE(s2.exhausted);
    EXPECT_TRUE(last.preempt_frontier().empty());
    EXPECT_EQ(s2.verdict, Verdict::kVerifiedExhaustive);
  }
}

}  // namespace
}  // namespace cds::mc
