// Regression tests for a fail-loud path in the exploration engine: a
// choice fan-out that does not fit the trail's uint16 Choice encoding must
// fail the offending execution as an engine-fatal diagnostic. Release
// builds used to truncate the count silently (the check was assert-only)
// and then explore the wrong tree.
#include <gtest/gtest.h>

#include "mc/atomic.h"
#include "mc/engine.h"
#include "mc/trail.h"

namespace cds::mc {
namespace {

TEST(TrailOverflow, HugeReadsFromFanoutFailsExecutionNotProcess) {
  Config cfg;
  cfg.max_steps = 200'000;
  cfg.max_executions = 1;
  cfg.sample_executions = 0;
  cfg.collect_trace = false;
  Engine e(cfg);
  auto stats = e.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(0, "a");
    // Reader spawned before the stores: its coherence floor for `a` is 0,
    // so by the time it runs (root blocks on the join) its load faces
    // 66001 reads-from candidates -- past the uint16 Choice::num range.
    int t = x.spawn([a] { (void)a->load(MemoryOrder::relaxed); });
    for (int i = 0; i < 66'000; ++i) a->store(i, MemoryOrder::relaxed);
    x.join(t);
  });
  EXPECT_GT(stats.engine_fatal_execs, 0u);
  EXPECT_EQ(stats.violations_total, 0u);  // diagnostic, not a violation
  EXPECT_EQ(stats.verdict, Verdict::kInconclusive);

  // The overflow was contained to that execution: the process is alive
  // and a fresh exploration still proves a clean body.
  Engine e2;
  auto ok = e2.explore([](Exec& x) {
    auto* a = x.make<Atomic<int>>(0, "a");
    a->store(1, MemoryOrder::relaxed);
  });
  EXPECT_EQ(ok.verdict, Verdict::kVerifiedExhaustive);
}

TEST(TrailOverflow, BareTrailWithoutHandlerAborts) {
  // Without an overflow handler the trail itself refuses to truncate.
  EXPECT_DEATH(
      {
        Trail t;
        (void)t.choose(ChoiceKind::kReadsFrom, 0x10000);
      },
      "outside the recordable range");
}

}  // namespace
}  // namespace cds::mc
