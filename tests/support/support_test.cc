// Unit tests for the support layer: clocks/views, arena, trail, RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "mc/trail.h"
#include "support/arena.h"
#include "support/rng.h"
#include "support/vector_clock.h"

namespace cds {
namespace {

using support::Timestamps;
using support::VectorClock;
using support::View;

TEST(VectorClock, DefaultIsBottom) {
  VectorClock c;
  EXPECT_EQ(c.get(0), 0u);
  EXPECT_EQ(c.get(100), 0u);
  EXPECT_TRUE(c.empty());
}

TEST(VectorClock, SetGetRaise) {
  VectorClock c;
  c.set(3, 7);
  EXPECT_EQ(c.get(3), 7u);
  c.raise(3, 5);
  EXPECT_EQ(c.get(3), 7u) << "raise never lowers";
  c.raise(3, 9);
  EXPECT_EQ(c.get(3), 9u);
  c.bump(1);
  EXPECT_EQ(c.get(1), 1u);
}

TEST(VectorClock, JoinIsPointwiseMax) {
  VectorClock a, b;
  a.set(0, 5);
  a.set(2, 1);
  b.set(0, 3);
  b.set(1, 9);
  a.join(b);
  EXPECT_EQ(a.get(0), 5u);
  EXPECT_EQ(a.get(1), 9u);
  EXPECT_EQ(a.get(2), 1u);
}

TEST(VectorClock, LeqIsPartialOrder) {
  VectorClock a, b;
  a.set(0, 1);
  b.set(0, 2);
  EXPECT_TRUE(a.leq(b));
  EXPECT_FALSE(b.leq(a));
  b.set(1, 1);
  a.set(2, 1);
  EXPECT_FALSE(a.leq(b));
  EXPECT_FALSE(b.leq(a)) << "incomparable";
  EXPECT_TRUE(a.leq(a));
}

TEST(VectorClock, JoinIsLeastUpperBound) {
  // Property over a small sweep: a <= a⊔b, b <= a⊔b, and any c above both
  // is above the join.
  for (std::uint32_t i = 0; i < 4; ++i) {
    for (std::uint32_t j = 0; j < 4; ++j) {
      VectorClock a, b;
      a.set(0, i);
      a.set(1, j);
      b.set(0, j);
      b.set(1, i);
      VectorClock ab = a;
      ab.join(b);
      EXPECT_TRUE(a.leq(ab));
      EXPECT_TRUE(b.leq(ab));
      VectorClock c;
      c.set(0, std::max(i, j));
      c.set(1, std::max(i, j));
      EXPECT_TRUE(ab.leq(c));
    }
  }
}

TEST(Timestamps, JoinCoversBothLattices) {
  Timestamps a, b;
  a.vc.set(0, 4);
  a.view.set(7, 2);
  b.vc.set(1, 3);
  b.view.set(7, 5);
  a.join(b);
  EXPECT_EQ(a.vc.get(0), 4u);
  EXPECT_EQ(a.vc.get(1), 3u);
  EXPECT_EQ(a.view.get(7), 5u);
}

// BasicClock against a std::vector model over random operation sequences
// whose indices cross the inline/heap boundary, with self-assignment and
// moves. A moved-from clock is empty.
TEST(VectorClock, MatchesVectorModelAcrossInlineBoundary) {
  using Model = std::vector<std::uint32_t>;
  const auto get = [](const Model& m, std::size_t i) {
    return i < m.size() ? m[i] : 0u;
  };
  const auto grow = [](Model& m, std::size_t n) {
    if (m.size() < n) m.resize(n, 0u);
  };
  const auto model_leq = [&](const Model& a, const Model& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] > get(b, i)) return false;
    }
    return true;
  };
  const std::size_t span = 3 * VectorClock::kInline;
  const auto expect_same = [&](const VectorClock& c, const Model& m) {
    ASSERT_EQ(c.stored_size(), m.size());
    for (std::size_t i = 0; i < span + 2; ++i) ASSERT_EQ(c.get(i), get(m, i));
    ASSERT_EQ(c.empty(), model_leq(m, Model{}));
    if (c.stored_size() > VectorClock::kInline) {
      ASSERT_GE(c.spilled_capacity(), c.stored_size());
    }
  };

  constexpr std::size_t kClocks = 4;
  support::Xorshift64 rng(2024);
  for (int round = 0; round < 40; ++round) {
    std::vector<VectorClock> c(kClocks);
    std::vector<Model> m(kClocks);
    for (int step = 0; step < 400; ++step) {
      const std::size_t a = rng.below(kClocks);
      const std::size_t b = rng.below(kClocks);
      // Indices mostly inside the inline part, sometimes past it.
      const std::size_t i =
          rng.below(4) == 0 ? rng.below(span) : rng.below(VectorClock::kInline);
      const auto v = static_cast<std::uint32_t>(rng.below(6));
      switch (rng.below(12)) {
        case 0:
          c[a].set(i, v);
          grow(m[a], i + 1);
          m[a][i] = v;
          break;
        case 1:
          c[a].raise(i, v);
          grow(m[a], i + 1);
          m[a][i] = std::max(m[a][i], v);
          break;
        case 2:
          c[a].bump(i);
          grow(m[a], i + 1);
          ++m[a][i];
          break;
        case 3:
          c[a].join(c[b]);
          grow(m[a], m[b].size());
          for (std::size_t k = 0; k < m[b].size(); ++k) {
            m[a][k] = std::max(m[a][k], m[b][k]);
          }
          break;
        case 4:
          ASSERT_EQ(c[a].leq(c[b]), model_leq(m[a], m[b]));
          ASSERT_EQ(c[a] == c[b], model_leq(m[a], m[b]) && model_leq(m[b], m[a]));
          break;
        case 5: {
          const VectorClock& src = c[b];
          c[a] = src;  // self-assignment when a == b
          m[a] = m[b];
          break;
        }
        case 6: {
          VectorClock copy(c[b]);
          expect_same(copy, m[b]);
          c[a] = std::move(copy);
          m[a] = m[b];
          expect_same(copy, Model{});
          break;
        }
        case 7: {
          VectorClock moved(std::move(c[b]));
          expect_same(moved, m[b]);
          expect_same(c[b], Model{});
          c[b] = moved;  // copy back into the moved-from clock
          break;
        }
        case 8:
          if (a != b) {
            c[a] = std::move(c[b]);
            m[a] = m[b];
            m[b].clear();
          } else {
            VectorClock& alias = c[b];
            c[a] = std::move(alias);  // self-move leaves the clock as it was
          }
          break;
        case 9:
          c[a].clear();
          m[a].clear();
          break;
        case 10:
          ASSERT_EQ(c[a].includes(i, v), get(m[a], i) >= v);
          break;
        default: {
          // A clock that spilled keeps its heap storage through clear().
          VectorClock wide;
          wide.set(span - 1, v + 1);
          const std::size_t cap = wide.spilled_capacity();
          ASSERT_GE(cap, span);
          wide.clear();
          ASSERT_EQ(wide.spilled_capacity(), cap);
          wide = c[a];
          ASSERT_EQ(wide.spilled_capacity(), cap);
          expect_same(wide, m[a]);
          break;
        }
      }
      expect_same(c[a], m[a]);
      expect_same(c[b], m[b]);
    }
  }
}

TEST(Arena, AllocatesAlignedAndDistinct) {
  support::Arena a;
  std::set<void*> seen;
  for (int i = 0; i < 100; ++i) {
    void* p = a.allocate(24, 8);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 8, 0u);
    EXPECT_TRUE(seen.insert(p).second) << "allocations must not overlap";
  }
}

TEST(Arena, ResetReusesSameAddresses) {
  // The engine relies on identical allocation sequences yielding identical
  // addresses across executions.
  support::Arena a;
  void* p1 = a.allocate(64, 8);
  void* p2 = a.allocate(128, 16);
  a.reset();
  EXPECT_EQ(a.allocate(64, 8), p1);
  EXPECT_EQ(a.allocate(128, 16), p2);
}

TEST(Arena, OversizedAllocationsWork) {
  support::Arena a;
  void* big = a.allocate(support::Arena::kBlockSize * 2, 64);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % 64, 0u);
  // And normal allocation still functions afterwards.
  EXPECT_NE(a.allocate(16, 8), nullptr);
}

TEST(Arena, MakeConstructs) {
  support::Arena a;
  struct P {
    int x, y;
  };
  P* p = a.make<P>(3, 4);
  EXPECT_EQ(p->x, 3);
  EXPECT_EQ(p->y, 4);
}

TEST(Trail, SingleChoiceNotRecorded) {
  mc::Trail t;
  t.begin_execution();
  EXPECT_EQ(t.choose(mc::ChoiceKind::kSchedule, 1), 0u);
  EXPECT_EQ(t.depth(), 0u);
}

TEST(Trail, DfsEnumeratesFullTree) {
  // A 2-level tree with branching 2 and 3: 6 leaves.
  mc::Trail t;
  std::set<std::pair<std::uint32_t, std::uint32_t>> leaves;
  do {
    t.begin_execution();
    std::uint32_t a = t.choose(mc::ChoiceKind::kSchedule, 2);
    std::uint32_t b = t.choose(mc::ChoiceKind::kReadsFrom, 3);
    leaves.insert({a, b});
  } while (t.advance());
  EXPECT_EQ(leaves.size(), 6u);
}

TEST(Trail, VariableDepthTree) {
  // Branch count depends on earlier choices (like real explorations).
  mc::Trail t;
  int leaves = 0;
  do {
    t.begin_execution();
    std::uint32_t a = t.choose(mc::ChoiceKind::kSchedule, 2);
    if (a == 0) {
      (void)t.choose(mc::ChoiceKind::kReadsFrom, 4);
    }
    ++leaves;
  } while (t.advance());
  EXPECT_EQ(leaves, 5) << "4 leaves under a=0 plus 1 leaf under a=1";
}

TEST(Trail, RestoreReplaysCapturedPath) {
  mc::Trail t;
  t.begin_execution();
  (void)t.choose(mc::ChoiceKind::kSchedule, 3);
  ASSERT_TRUE(t.advance());  // move to alternative 1
  t.begin_execution();
  EXPECT_EQ(t.choose(mc::ChoiceKind::kSchedule, 3), 1u);
  auto saved = t.raw();

  mc::Trail t2;
  t2.restore(saved);
  t2.begin_execution();
  EXPECT_EQ(t2.choose(mc::ChoiceKind::kSchedule, 3), 1u);
}

TEST(Rng, DeterministicAndBounded) {
  support::Xorshift64 a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    std::uint64_t x = a.below(7);
    EXPECT_EQ(x, b.below(7));
    EXPECT_LT(x, 7u);
  }
}

TEST(Rng, ZeroSeedDoesNotDegenerate) {
  support::Xorshift64 r(0);
  std::set<std::uint64_t> vals;
  for (int i = 0; i < 10; ++i) vals.insert(r.next());
  EXPECT_GT(vals.size(), 5u);
}

TEST(Rng, BelowIsUnbiasedForLargeRanges) {
  // n = 3 * 2^62 is the worst case for the old modulo reduction: 2^64 mod n
  // is 2^62, so the residues below 2^62 were hit from two input ranges and
  // landed with probability 1/2 instead of 1/3. Rejection sampling must put
  // each third of [0, n) back at ~1/3.
  const std::uint64_t n = 3ull << 62;
  const std::uint64_t third = 1ull << 62;
  support::Xorshift64 r(12345);
  const int draws = 100000;
  int buckets[3] = {0, 0, 0};
  for (int i = 0; i < draws; ++i) {
    std::uint64_t x = r.below(n);
    ASSERT_LT(x, n);
    ++buckets[x / third];
  }
  for (int b = 0; b < 3; ++b) {
    double frac = static_cast<double>(buckets[b]) / draws;
    EXPECT_NEAR(frac, 1.0 / 3.0, 0.02) << "bucket " << b;
  }
}

TEST(Rng, BelowSmallRangesStayUniformish) {
  support::Xorshift64 r(7);
  int counts[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 50000; ++i) ++counts[r.below(5)];
  for (int b = 0; b < 5; ++b) {
    double frac = counts[b] / 50000.0;
    EXPECT_NEAR(frac, 0.2, 0.02) << "bucket " << b;
  }
}

}  // namespace
}  // namespace cds
