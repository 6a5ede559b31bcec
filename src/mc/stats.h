// Exploration statistics, shared by the engine, the shard-result wire
// format, and the harness (lives outside engine.h so the wire format can
// carry it without pulling in the whole engine).
#ifndef CDS_MC_STATS_H
#define CDS_MC_STATS_H

#include <cstdint>

#include "mc/violation.h"

namespace cds::mc {

struct ExplorationStats {
  std::uint64_t executions = 0;        // total explored (DFS + sampled)
  std::uint64_t feasible = 0;          // completed (checkable) executions
  std::uint64_t pruned_bound = 0;      // hit the step bound or a budget
  std::uint64_t pruned_livelock = 0;   // only yielded spinners remained
  std::uint64_t pruned_redundant = 0;  // sleep-set: prefix covered elsewhere
  std::uint64_t builtin_violation_execs = 0;
  std::uint64_t engine_fatal_execs = 0;  // discarded: internal checker error
  std::uint64_t crash_execs = 0;  // test body crashed; contained (kCrash)
  std::uint64_t violations_total = 0;  // built-in + spec-layer reports
  // --- reads-from equivalence mode (Config::ExploreMode::kRf) ----------
  // Both stay 0 under schedule mode. Like every other counter they are
  // schedule-independent per subtree, so sharded merges stay bit-identical
  // to serial runs.
  std::uint64_t rf_classes = 0;     // feasible rf-class representatives
  // Always 0 since store-driven revisits replaced the blind wait; kept
  // because reports and result formats carry it.
  std::uint64_t rf_infeasible = 0;
  bool hit_execution_cap = false;
  bool stopped_early = false;
  double seconds = 0.0;

  // --- budgets, degradation, and the verdict ---------------------------
  std::uint64_t sampled = 0;        // executions from the random-walk phase
  std::uint64_t max_trail_depth = 0;  // deepest choice sequence (coverage)
  std::uint64_t seed = 0;           // RNG seed (reproduces sampled runs)
  bool hit_time_budget = false;
  bool hit_memory_budget = false;
  bool watchdog_fired = false;      // no-progress DFS detected
  bool exhausted = false;           // DFS enumerated the whole bounded tree
  // The exploration stopped because Config::stop_request tripped (work
  // stealing): counters cover a prefix of the subtree, and the engine's
  // preempt_frontier() names the last explored execution so a coordinator
  // can re-split the remainder. Deliberately NOT merged by
  // merge_shard_stats — a preempted shard plus its re-split sub-shards
  // jointly cover the subtree, so the merger clears the flag (and the
  // stopped_early it implies) before folding the partial result in.
  bool preempted = false;
  Verdict verdict = Verdict::kInconclusive;
};

// Folds one shard's stats into an aggregate. Disjoint subtree shards
// partition the executions of a serial run, so counters sum exactly
// (merged counts from an exhaustive sharded run are bit-identical to the
// serial run's); budget/stop flags are sticky ORs, exhaustion is an AND
// (every shard must finish its subtree), and depth is a max. `seconds`
// sums shard CPU time, so it exceeds wall time when shards ran
// concurrently. The verdict is NOT merged here — it needs run-level
// context (crashed workers, falsifying shard priority); see the parallel
// driver.
inline void merge_shard_stats(ExplorationStats& into,
                              const ExplorationStats& shard) {
  into.executions += shard.executions;
  into.feasible += shard.feasible;
  into.pruned_bound += shard.pruned_bound;
  into.pruned_livelock += shard.pruned_livelock;
  into.pruned_redundant += shard.pruned_redundant;
  into.builtin_violation_execs += shard.builtin_violation_execs;
  into.engine_fatal_execs += shard.engine_fatal_execs;
  into.crash_execs += shard.crash_execs;
  into.violations_total += shard.violations_total;
  into.rf_classes += shard.rf_classes;
  into.rf_infeasible += shard.rf_infeasible;
  into.hit_execution_cap = into.hit_execution_cap || shard.hit_execution_cap;
  into.stopped_early = into.stopped_early || shard.stopped_early;
  into.seconds += shard.seconds;
  into.sampled += shard.sampled;
  if (shard.max_trail_depth > into.max_trail_depth) {
    into.max_trail_depth = shard.max_trail_depth;
  }
  into.hit_time_budget = into.hit_time_budget || shard.hit_time_budget;
  into.hit_memory_budget = into.hit_memory_budget || shard.hit_memory_budget;
  into.watchdog_fired = into.watchdog_fired || shard.watchdog_fired;
  into.exhausted = into.exhausted && shard.exhausted;
}

}  // namespace cds::mc

#endif  // CDS_MC_STATS_H
