// Exploration statistics, shared by the engine, the shard-result wire
// format, and the harness (lives outside engine.h so the wire format can
// carry it without pulling in the whole engine).
#ifndef CDS_MC_STATS_H
#define CDS_MC_STATS_H

#include <array>
#include <cstdint>

#include "mc/violation.h"
#include "support/record.h"

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

// The counter record (support/record.h): the 22 fields a shard result
// carries and the `stats` block of a --json document holds, each keyed by
// its member's name and with its merge rule. Disjoint subtree shards
// partition the executions of a serial run, so counters sum exactly
// (merged counts from an exhaustive sharded run are bit-identical to the
// serial run's);
// budget/stop flags are sticky ORs, exhaustion is an AND (every shard must
// finish its subtree), and depth is a max. `seconds` sums shard CPU time,
// so it exceeds wall time when shards ran concurrently. Neither
// `preempted` nor the verdict is merged: the verdict needs run-level
// context (crashed workers, falsifying shard priority); see the parallel
// driver.
inline std::array<support::Field, 22> fields(ExplorationStats& s) {
  using support::Merge;
  return {{
      {"executions", &s.executions, Merge::kSum},
      {"feasible", &s.feasible, Merge::kSum},
      {"pruned_bound", &s.pruned_bound, Merge::kSum},
      {"pruned_livelock", &s.pruned_livelock, Merge::kSum},
      {"pruned_redundant", &s.pruned_redundant, Merge::kSum},
      {"builtin_violation_execs", &s.builtin_violation_execs, Merge::kSum},
      {"engine_fatal_execs", &s.engine_fatal_execs, Merge::kSum},
      {"crash_execs", &s.crash_execs, Merge::kSum},
      {"violations_total", &s.violations_total, Merge::kSum},
      {"sampled", &s.sampled, Merge::kSum},
      {"rf_classes", &s.rf_classes, Merge::kSum},
      {"rf_infeasible", &s.rf_infeasible, Merge::kSum},
      {"max_trail_depth", &s.max_trail_depth, Merge::kMax},
      {"seconds", &s.seconds, Merge::kSum},
      {"hit_execution_cap", &s.hit_execution_cap, Merge::kOr},
      {"stopped_early", &s.stopped_early, Merge::kOr},
      {"hit_time_budget", &s.hit_time_budget, Merge::kOr},
      {"hit_memory_budget", &s.hit_memory_budget, Merge::kOr},
      {"watchdog_fired", &s.watchdog_fired, Merge::kOr},
      {"exhausted", &s.exhausted, Merge::kAnd},
      {"preempted", &s.preempted},
      {"verdict", support::enum_ref<3>(&s.verdict)},
  }};
}

// Folds one shard's stats into an aggregate by the record's merge rules.
inline void merge_shard_stats(ExplorationStats& into,
                              const ExplorationStats& shard) {
  support::merge_record(into, shard);
}

}  // namespace cds::mc

#endif  // CDS_MC_STATS_H
