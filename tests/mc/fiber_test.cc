// Direct tests of the cooperative fiber substrate.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <memory>
#include <vector>

#include "fiber/fiber.h"

namespace cds::fiber {
namespace {

TEST(Fiber, PingPong) {
  Fiber sched;
  sched.init_native();
  auto f = std::make_unique<Fiber>();
  std::vector<int> log;
  f->reset([&] {
    log.push_back(1);
    sched.switch_to(*f);
    log.push_back(3);
    f->mark_finished();
    sched.switch_to(*f);
  });
  f->switch_to(sched);
  log.push_back(2);
  f->switch_to(sched);
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(f->finished());
}

TEST(Fiber, ResetReusesStack) {
  Fiber sched;
  sched.init_native();
  auto f = std::make_unique<Fiber>();
  int runs = 0;
  for (int i = 0; i < 3; ++i) {
    f->reset([&] {
      ++runs;
      f->mark_finished();
      sched.switch_to(*f);
    });
    EXPECT_TRUE(f->armed());
    EXPECT_FALSE(f->finished());
    f->switch_to(sched);
    EXPECT_TRUE(f->finished());
  }
  EXPECT_EQ(runs, 3);
}

// A destroyed fiber hands its stack mapping, guard included, to a
// per-thread cache that serves the next fiber: stack_contains and
// guard_contains hold on the reused stack as they did on the first.
TEST(Fiber, ReusedStackKeepsItsBoundsAndGuard) {
  Fiber sched;
  sched.init_native();
  // Take whatever the cache holds first, so the stack `first` leaves
  // behind is the one `second` gets.
  std::vector<std::unique_ptr<Fiber>> held;
  for (int i = 0; i < 32; ++i) {
    held.push_back(std::make_unique<Fiber>());
    held.back()->reset([] {});
  }
  std::uintptr_t local = 0;
  auto run = [&](Fiber* f) {
    f->reset([&, f] {
      volatile char c = 0;
      local = reinterpret_cast<std::uintptr_t>(&c);
      f->mark_finished();
      sched.switch_to(*f);
    });
    f->switch_to(sched);
  };
  const auto at = [](std::uintptr_t a) {
    return reinterpret_cast<const void*>(a);
  };

  auto first = std::make_unique<Fiber>();
  run(first.get());
  const std::uintptr_t first_local = local;
  ASSERT_TRUE(first->stack_contains(at(first_local)));
  // The stack's lowest byte, found page by page from the local; the guard
  // sits right below it.
  const std::uintptr_t page = 4096;
  std::uintptr_t low = first_local & ~(page - 1);
  while (first->stack_contains(at(low - page))) low -= page;
  ASSERT_FALSE(first->stack_contains(at(low - 1)));
  ASSERT_TRUE(first->guard_contains(at(low - 1)));
  ASSERT_FALSE(first->guard_contains(at(low)));
  first.reset();

  auto second = std::make_unique<Fiber>();
  run(second.get());
  EXPECT_TRUE(second->stack_contains(at(first_local)))
      << "the destroyed fiber's stack was not reused";
  EXPECT_TRUE(second->stack_contains(at(local)));
  EXPECT_TRUE(second->stack_contains(at(low)));
  EXPECT_FALSE(second->stack_contains(at(low - 1)));
  EXPECT_TRUE(second->guard_contains(at(low - 1)));
  EXPECT_TRUE(second->guard_contains(at(low - Fiber::kGuardSize)));
  EXPECT_FALSE(second->guard_contains(at(low)));
}

TEST(Fiber, ManyFibersRoundRobin) {
  Fiber sched;
  sched.init_native();
  constexpr int kN = 8;
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<int> order;
  for (int i = 0; i < kN; ++i) fibers.push_back(std::make_unique<Fiber>());
  for (int i = 0; i < kN; ++i) {
    Fiber* self = fibers[static_cast<std::size_t>(i)].get();
    self->reset([&, i, self] {
      order.push_back(i);
      sched.switch_to(*self);  // yield once
      order.push_back(i + 100);
      self->mark_finished();
      sched.switch_to(*self);
    });
  }
  for (auto& f : fibers) f->switch_to(sched);  // first leg
  for (auto& f : fibers) f->switch_to(sched);  // second leg
  ASSERT_EQ(order.size(), 2u * kN);
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(order[static_cast<std::size_t>(kN + i)], i + 100);
  }
}

TEST(Fiber, DeepStackUse) {
  // Fibers must tolerate a reasonable amount of stack (recursion depth).
  Fiber sched;
  sched.init_native();
  auto f = std::make_unique<Fiber>();
  long sum = 0;
  struct Rec {
    static long go(int n) {
      char pad[512];
      pad[0] = static_cast<char>(n);
      if (n == 0) return pad[0];
      return pad[0] + go(n - 1);
    }
  };
  f->reset([&] {
    sum = Rec::go(100);
    f->mark_finished();
    sched.switch_to(*f);
  });
  f->switch_to(sched);
  EXPECT_EQ(sum, 5050);
}

// A fallthrough handler lets an entry wrapper that returns (instead of
// switching out) be recovered rather than aborting the process.
Fiber* g_fallthrough_sched = nullptr;
int g_fallthrough_hits = 0;

TEST(Fiber, FallthroughHandlerRecovers) {
  Fiber sched;
  sched.init_native();
  auto f = std::make_unique<Fiber>();
  g_fallthrough_sched = &sched;
  g_fallthrough_hits = 0;
  Fiber::set_fallthrough_handler([](Fiber& offender) {
    ++g_fallthrough_hits;
    offender.mark_finished();
    g_fallthrough_sched->switch_to(offender);  // must not return
  });
  f->reset([] { /* returns without mark_finished + switch */ });
  f->switch_to(sched);
  EXPECT_EQ(g_fallthrough_hits, 1);
  EXPECT_TRUE(f->finished());
  Fiber::set_fallthrough_handler(nullptr);  // Engine reinstalls its own
}

// The switch keeps floating-point control state per fiber: a rounding
// mode set inside a fiber survives its switches and never leaks into the
// scheduler's native context. The division checks MXCSR
// (SSE arithmetic); fegetround() reads the x87 control word.
TEST(Fiber, RoundingModeStaysWithTheFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  Fiber sched;
  sched.init_native();
  auto f = std::make_unique<Fiber>();
  volatile double one = 1.0;
  volatile double three = 3.0;
  const double nearest = one / three;
  std::vector<int> modes;
  std::vector<double> thirds;
  f->reset([&] {
    std::fesetround(FE_UPWARD);
    for (int i = 0; i < 3; ++i) {
      modes.push_back(std::fegetround());
      thirds.push_back(one / three);
      sched.switch_to(*f);
    }
    f->mark_finished();
    sched.switch_to(*f);
  });
  while (!f->finished()) {
    f->switch_to(sched);
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(one / three, nearest);
  }
  EXPECT_EQ(modes, (std::vector<int>{FE_UPWARD, FE_UPWARD, FE_UPWARD}));
  ASSERT_EQ(thirds.size(), 3u);
  for (double t : thirds) EXPECT_GT(t, nearest);
}

// Low four address bits of an alignas(16) local. The address goes through
// a volatile so the compiler cannot fold the answer from the declaration:
// a misaligned stack shows up as a nonzero result.
[[gnu::noinline]] unsigned aligned_local_misalignment() {
  alignas(16) unsigned char buf[16] = {};
  volatile std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(buf);
  return static_cast<unsigned>(addr & 15u) + buf[0];
}

TEST(Fiber, StackKeepsAbiAlignmentOnEntryAndResume) {
  Fiber sched;
  sched.init_native();
  auto f = std::make_unique<Fiber>();
  std::vector<unsigned> seen;
  f->reset([&] {
    seen.push_back(aligned_local_misalignment());  // first entry
    sched.switch_to(*f);
    seen.push_back(aligned_local_misalignment());  // after a resume
    f->mark_finished();
    sched.switch_to(*f);
  });
  f->switch_to(sched);
  EXPECT_EQ(aligned_local_misalignment(), 0u);
  f->switch_to(sched);
  EXPECT_EQ(aligned_local_misalignment(), 0u);
  EXPECT_EQ(seen, (std::vector<unsigned>{0u, 0u}));
}

// More live values than there are callee-saved registers, on both sides of
// every switch: integers held in registers and spilled doubles must all
// come back intact.
TEST(Fiber, LiveLocalsSurviveRoundTrips) {
  constexpr int kRounds = 1000;
  Fiber sched;
  sched.init_native();
  auto f = std::make_unique<Fiber>();
  long fiber_ints = 0;
  double fiber_doubles = 0.0;
  f->reset([&] {
    long a = 1, b = 2, c = 3, d = 4, e = 5, g = 6, h = 7, k = 8;
    double x = 0.5, y = 1.5, z = 2.5, w = 3.5;
    for (long i = 0; i < kRounds; ++i) {
      a += i; b += 2 * i; c ^= i; d += a; e -= i; g += b; h += 3; k += c;
      x += 0.25; y -= 0.0625; z += x; w -= 0.5;
      sched.switch_to(*f);
    }
    fiber_ints = a + b + c + d + e + g + h + k;
    fiber_doubles = x + y + z + w;
    f->mark_finished();
    sched.switch_to(*f);
  });
  long p = 11, q = 12, r = 13, s = 14, t = 15, u = 16, v = 17;
  double m = 0.125, n = 2.0, o = 8.0;
  int switches = 0;
  while (!f->finished()) {
    p += 1; q += p; r ^= q; s += 2; t -= 1; u += s; v += r;
    m += 0.125; n += 0.5; o -= 0.125;
    f->switch_to(sched);
    ++switches;
  }
  ASSERT_EQ(switches, kRounds + 1);

  // The same arithmetic with no switches in between.
  long a = 1, b = 2, c = 3, d = 4, e = 5, g = 6, h = 7, k = 8;
  double x = 0.5, y = 1.5, z = 2.5, w = 3.5;
  for (long i = 0; i < kRounds; ++i) {
    a += i; b += 2 * i; c ^= i; d += a; e -= i; g += b; h += 3; k += c;
    x += 0.25; y -= 0.0625; z += x; w -= 0.5;
  }
  EXPECT_EQ(fiber_ints, a + b + c + d + e + g + h + k);
  EXPECT_EQ(fiber_doubles, x + y + z + w);
  long p2 = 11, q2 = 12, r2 = 13, s2 = 14, t2 = 15, u2 = 16, v2 = 17;
  double m2 = 0.125, n2 = 2.0, o2 = 8.0;
  for (int i = 0; i < switches; ++i) {
    p2 += 1; q2 += p2; r2 ^= q2; s2 += 2; t2 -= 1; u2 += s2; v2 += r2;
    m2 += 0.125; n2 += 0.5; o2 -= 0.125;
  }
  EXPECT_EQ(p + q + r + s + t + u + v, p2 + q2 + r2 + s2 + t2 + u2 + v2);
  EXPECT_EQ(m + n + o, m2 + n2 + o2);
}

}  // namespace
}  // namespace cds::fiber
