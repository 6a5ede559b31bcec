// Store-driven reads-from revisits (mc/revisit.h): each case needs a
// revisit whose store's dependency closure carries one kind of edge
// (modification order, seq_cst order, a yield wake-up, a mutex hand-off,
// spawn and join) or that must keep or credit a yield the store ended,
// and compares the behaviour set against schedule mode. Without the edge
// or the rule, the revisit's replay stalls (an engine-fatal execution)
// or a behaviour is lost.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "mc/atomic.h"
#include "mc/engine.h"
#include "mc/sync.h"
#include "mc/trace.h"

namespace cds::mc {
namespace {

using Behaviours = std::set<std::vector<int>>;

// The test body records what it observed into `out`; every completed
// execution contributes one behaviour.
struct Collect : ExecutionListener {
  const std::vector<int>* out = nullptr;
  Behaviours seen;
  bool on_execution_complete(Engine&) override {
    seen.insert(*out);
    return true;
  }
};

struct ModeRun {
  Behaviours behaviours;
  ExplorationStats stats;
  std::uint64_t revisits = 0;
};

ModeRun run(ExploreMode mode, const std::function<TestFn(std::vector<int>*)>& make) {
  std::vector<int> out;
  Collect c;
  c.out = &out;
  Config cfg;
  cfg.explore = mode;
  Engine e(cfg);
  e.set_listener(&c);
  ModeRun r;
  r.stats = e.explore(make(&out));
  r.behaviours = c.seen;
  r.revisits = e.metrics().counter_value("engine.rf_revisits");
  return r;
}

// Both modes to exhaustion: identical behaviour sets, no execution lost to
// an engine error, and the rf run needed at least one revisit.
void expect_modes_agree(const std::function<TestFn(std::vector<int>*)>& make,
                        const Behaviours& expected) {
  ModeRun s = run(ExploreMode::kSchedule, make);
  ModeRun r = run(ExploreMode::kRf, make);
  ASSERT_TRUE(s.stats.exhausted);
  ASSERT_TRUE(r.stats.exhausted);
  EXPECT_EQ(s.behaviours, expected);
  EXPECT_EQ(r.behaviours, s.behaviours);
  EXPECT_EQ(r.stats.engine_fatal_execs, 0u);
  EXPECT_EQ(r.stats.rf_infeasible, 0u);
  EXPECT_GT(r.revisits, 0u);
  EXPECT_EQ(s.revisits, 0u);
}

TEST(RfRevisit, ClosureCarriesModificationOrder) {
  // t0: r = x; t1: x = 1; t2: x = 2 (all relaxed). r = 2 with final x = 2
  // needs a revisit from x = 2 whose closure holds x = 1 (mo is append
  // order); a closure of program order and reads-from alone deletes x = 1.
  expect_modes_agree(
      [](std::vector<int>* out) {
        return [out](Exec& x) {
          out->assign(2, -1);
          auto* v = x.make<Atomic<int>>(0, "x");
          int a = x.spawn([out, v] { (*out)[0] = v->load(MemoryOrder::relaxed); });
          int b = x.spawn([v] { v->store(1, MemoryOrder::relaxed); });
          int c = x.spawn([v] { v->store(2, MemoryOrder::relaxed); });
          x.join(a);
          x.join(b);
          x.join(c);
          (*out)[1] = v->load(MemoryOrder::relaxed);
        };
      },
      {{0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 1}, {2, 2}});
}

TEST(RfRevisit, ClosureCarriesSeqCstOrder) {
  // Seq_cst accesses raise shared SC state: a store the location's SC
  // write floor and the SC fence view, a fence the SC fence view. An SC
  // access that ran before such a step and read or saw an older value
  // could not do so after it, so it must stay before it. Each case has
  // r = (0, 1): t1 saw the older value, t3's load reads t2's last store
  // through a revisit that keeps t1's SC access.
  enum Case { kLoadThenStore, kFenceThenStore, kFenceThenFence };
  for (Case c : {kLoadThenStore, kFenceThenStore, kFenceThenFence}) {
    SCOPED_TRACE(c);
    expect_modes_agree(
        [c](std::vector<int>* out) {
          return [out, c](Exec& x) {
            out->assign(2, -1);
            auto* v = x.make<Atomic<int>>(0, "x");
            auto* y = x.make<Atomic<int>>(0, "y");
            int t1 = x.spawn([out, v, y, c] {
              if (c == kLoadThenStore) {
                (*out)[0] = v->load(MemoryOrder::seq_cst);
              } else {
                thread_fence(MemoryOrder::seq_cst);
                (*out)[0] = (c == kFenceThenStore ? v : y)->load(MemoryOrder::relaxed);
              }
            });
            int t2 = x.spawn([v, y, c] {
              if (c == kFenceThenFence) {
                y->store(1, MemoryOrder::relaxed);
                thread_fence(MemoryOrder::seq_cst);
                v->store(1, MemoryOrder::relaxed);
              } else {
                v->store(1, MemoryOrder::seq_cst);
              }
            });
            int t3 = x.spawn([out, v] { (*out)[1] = v->load(MemoryOrder::relaxed); });
            x.join(t1);
            x.join(t2);
            x.join(t3);
          };
        },
        {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  }
}

TEST(RfRevisit, ClosureCarriesYieldWakeUp) {
  // t1 yields once, so its store of x needs some other thread's store to
  // wake it: t2's store to z. The revisit from x = 1 to t3's load must
  // replay that wake-up, although t1 never reads z.
  expect_modes_agree(
      [](std::vector<int>* out) {
        return [out](Exec& x) {
          out->assign(1, -1);
          auto* v = x.make<Atomic<int>>(0, "x");
          auto* z = x.make<Atomic<int>>(0, "z");
          int t1 = x.spawn([v] {
            yield();
            v->store(1, MemoryOrder::relaxed);
          });
          int t2 = x.spawn([z] { z->store(1, MemoryOrder::relaxed); });
          int t3 = x.spawn([out, v] { (*out)[0] = v->load(MemoryOrder::relaxed); });
          x.join(t1);
          x.join(t2);
          x.join(t3);
        };
      },
      {{0}, {1}});
}

TEST(RfRevisit, RevisitKeepsTheYieldsItsStoreEnded) {
  // w reads x = 0, yields, and is woken by v's x = 1; u reads x = 1. Both
  // loads run before the store, u's first. Revisiting u's load from the
  // store must keep w's load and yield: re-run after the store, w could
  // never again be woken by it (its only waker), so r = (1, 0, *) would
  // be lost.
  expect_modes_agree(
      [](std::vector<int>* out) {
        return [out](Exec& x) {
          out->assign(3, -1);
          auto* v = x.make<Atomic<int>>(0, "x");
          int u = x.spawn([out, v] { (*out)[0] = v->load(MemoryOrder::relaxed); });
          int w = x.spawn([out, v] {
            (*out)[1] = v->load(MemoryOrder::relaxed);
            if ((*out)[1] == 0) yield();
            (*out)[2] = v->load(MemoryOrder::relaxed);
          });
          int s = x.spawn([v] { v->store(1, MemoryOrder::relaxed); });
          x.join(u);
          x.join(w);
          x.join(s);
        };
      },
      {{0, 0, 0}, {0, 0, 1}, {0, 1, 1}, {1, 0, 0}, {1, 0, 1}, {1, 1, 1}});
}

TEST(RfRevisit, RevisitKeepsAYieldAfterAWrite) {
  // As above, but w stores z between its load and its yield. Deleting that
  // store is not allowed, so revisiting u's load from v's store keeps w's
  // steps up to the yield, and the replayed store wakes w again.
  expect_modes_agree(
      [](std::vector<int>* out) {
        return [out](Exec& x) {
          out->assign(3, -1);
          auto* v = x.make<Atomic<int>>(0, "x");
          auto* z = x.make<Atomic<int>>(0, "z");
          int u = x.spawn([out, v] { (*out)[0] = v->load(MemoryOrder::relaxed); });
          int w = x.spawn([out, v, z] {
            (*out)[1] = v->load(MemoryOrder::relaxed);
            z->store(1, MemoryOrder::relaxed);
            if ((*out)[1] == 0) yield();
            (*out)[2] = v->load(MemoryOrder::relaxed);
          });
          int s = x.spawn([v] { v->store(1, MemoryOrder::relaxed); });
          x.join(u);
          x.join(w);
          x.join(s);
        };
      },
      {{0, 0, 0}, {0, 0, 1}, {0, 1, 1}, {1, 0, 0}, {1, 0, 1}, {1, 1, 1}});
}

TEST(RfRevisit, ClosureCarriesMutexHandOff) {
  // t3's load runs first. r = (1, 1) has t2 read t1's a = 1 inside the
  // mutex and t3 read t2's x = 1: a revisit from t2's store that keeps
  // t1's critical section, reached only through the hand-off from t1's
  // unlock to t2's lock.
  expect_modes_agree(
      [](std::vector<int>* out) {
        return [out](Exec& x) {
          out->assign(2, -1);
          auto* m = x.make<Mutex>("m");
          auto* a = x.make<Atomic<int>>(0, "a");
          auto* v = x.make<Atomic<int>>(0, "x");
          int t1 = x.spawn([m, a] {
            m->lock();
            a->store(1, MemoryOrder::relaxed);
            m->unlock();
          });
          int t2 = x.spawn([out, m, a, v] {
            m->lock();
            (*out)[1] = a->load(MemoryOrder::relaxed);
            v->store(1, MemoryOrder::relaxed);
            m->unlock();
          });
          int t3 = x.spawn([out, v] { (*out)[0] = v->load(MemoryOrder::relaxed); });
          x.join(t1);
          x.join(t2);
          x.join(t3);
        };
      },
      {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
}

TEST(RfRevisit, ClosureCarriesSpawnAndJoin) {
  // The reader runs first; the root then spawns a writer, joins it and
  // stores y. A revisit from y = 1 must keep the writer, reached only
  // through the spawn and join edges.
  expect_modes_agree(
      [](std::vector<int>* out) {
        return [out](Exec& x) {
          out->assign(2, -1);
          auto* v = x.make<Atomic<int>>(0, "x");
          auto* y = x.make<Atomic<int>>(0, "y");
          int r = x.spawn([out, v, y] {
            (*out)[0] = y->load(MemoryOrder::relaxed);
            (*out)[1] = v->load(MemoryOrder::relaxed);
          });
          int w = x.spawn([v] { v->store(1, MemoryOrder::relaxed); });
          x.join(w);
          y->store(1, MemoryOrder::relaxed);
          x.join(r);
        };
      },
      {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
}

TEST(RfRevisit, RevisitTrailsReplayStrictly) {
  // A revisit execution is a pure function of its trail: every trail that
  // takes a revisit (a nonzero 'V' choice) replays strictly from a cold
  // start, reaching the same behaviour, and survives the .trail codec.
  std::vector<int> out;
  auto body = [&out](Exec& x) {
    out.assign(2, -1);
    auto* v = x.make<Atomic<int>>(0, "x");
    int a = x.spawn([&out, v] { out[0] = v->load(MemoryOrder::relaxed); });
    int b = x.spawn([v] { v->store(1, MemoryOrder::relaxed); });
    int c = x.spawn([v] { v->store(2, MemoryOrder::relaxed); });
    x.join(a);
    x.join(b);
    x.join(c);
    out[1] = v->load(MemoryOrder::relaxed);
  };
  struct Trails : ExecutionListener {
    const std::vector<int>* out = nullptr;
    std::vector<std::pair<std::vector<Choice>, std::vector<int>>> seen;
    bool on_execution_complete(Engine& e) override {
      seen.emplace_back(e.current_trail(), *out);
      return true;
    }
  } trails;
  trails.out = &out;
  Config cfg;
  cfg.explore = ExploreMode::kRf;
  Engine e(cfg);
  e.set_listener(&trails);
  ASSERT_TRUE(e.explore(body).exhausted);
  int revisits = 0;
  for (const auto& [trail, behaviour] : trails.seen) {
    bool takes_revisit = false;
    for (const Choice& c : trail) {
      takes_revisit |= c.kind == ChoiceKind::kRevisit && c.chosen != 0;
    }
    if (!takes_revisit) continue;
    ++revisits;
    TrailFile tf;
    tf.test_name = "revisit";
    tf.fingerprint_from(cfg);
    tf.choices = trail;
    TrailFile back;
    std::string err;
    ASSERT_TRUE(parse_trail(render_trail(tf), &back, &err)) << err;
    ASSERT_EQ(back.choices.size(), trail.size());
    Engine fresh(cfg);
    std::string why;
    EXPECT_TRUE(fresh.replay(back.choices, body, /*strict=*/true, &why)) << why;
    EXPECT_EQ(out, behaviour);
  }
  EXPECT_GT(revisits, 0);
}

}  // namespace
}  // namespace cds::mc
