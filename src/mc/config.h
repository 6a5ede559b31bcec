// Exploration configuration.
#ifndef CDS_MC_CONFIG_H
#define CDS_MC_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace cds::mc {

// Deliberately unsound engine variants, reachable only through the
// test-only Config hook below. The fuzzer's differential oracles
// (src/fuzz/oracle.h) must catch each of them; they exist so the
// self-validation layer can prove it would notice a real soundness
// regression of the same shape.
enum class UnsoundHook : std::uint8_t {
  kNone = 0,
  // seq_cst loads ignore the per-location SC floors, admitting stale
  // reads the SC total order forbids (an over-approximation: extra
  // behaviors appear in the seq_cst-only fragment).
  kScLoadIgnoresFloor,
  // Sleeping threads are never woken by conflicting operations, so the
  // sleep-set reduction prunes subtrees it has no sibling coverage for
  // (an under-approximation: DFS misses behaviors sampling can reach).
  kSleepSetNeverWakes,
};

// What the DFS branches on (see --explore).
enum class ExploreMode : std::uint8_t {
  // Branch on every scheduler choice point (plus reads-from picks):
  // CDSChecker-style enumeration with sleep-set reduction.
  kSchedule = 0,
  // Reads-from equivalence (Tunç et al.): non-seq_cst atomic loads never
  // branch the scheduler. They execute greedily at their earliest
  // placement and branch only on the messages that exist; a message
  // written later reaches them through a store-driven revisit (TruSt's
  // backward revisit, mc/revisit.h), a kRevisit choice at the store. Each
  // completed execution is the representative of one rf equivalence
  // class; every execution ends as a representative or an ordinary prune
  // (ExplorationStats::rf_infeasible stays 0). Behavior sets and verdicts
  // are identical to kSchedule's; only the number of explored executions
  // shrinks.
  kRf,
};

[[nodiscard]] inline const char* to_string(ExploreMode m) {
  return m == ExploreMode::kRf ? "rf" : "schedule";
}

struct Config {
  // Hard cap on modeled threads per execution (including the test's root
  // thread).
  int max_threads = 32;

  // How many times per execution a single thread may choose to read a
  // message older than the newest eligible one. This is the operational
  // analogue of CDSChecker's memory-liveness fairness bound: it keeps
  // spin loops that keep re-reading stale values from making the DFS tree
  // infinite while preserving bounded-staleness behaviors.
  std::uint32_t stale_read_bound = 3;

  // Per-execution bound on visible operations; executions that exceed it
  // are counted as explored but infeasible (pruned).
  std::uint64_t max_steps = 20000;

  // Stop exploring after this many executions (0 = exhaustive).
  std::uint64_t max_executions = 0;

  // Keep at most this many violation records per exploration.
  std::uint32_t max_recorded_violations = 16;

  // Stop the whole exploration at the first violation (built-in or
  // spec-level) instead of continuing to enumerate.
  bool stop_on_first_violation = false;

  // Record a compact per-execution event trace (used in diagnostics).
  bool collect_trace = true;

  // Sleep-set partial-order reduction (sound; prunes redundant
  // interleavings). Disable only for ablation measurements.
  bool enable_sleep_sets = true;

  // Equivalence relation the DFS enumerates representatives of. Part of
  // the config fingerprint: trails and shard journals recorded in one
  // mode never resume or replay under the other. Under
  // strengthen_to_sc every load is seq_cst, so kRf degenerates to
  // kSchedule (no load is ever deferred).
  ExploreMode explore = ExploreMode::kSchedule;

  // The paper's Section 2 "Strengthen the Atomics" alternative: coerce
  // every atomic operation to seq_cst. Under this mode the relaxed
  // behaviors disappear (and classic linearizability applies), at the
  // modeled cost the paper's developers avoid paying.
  bool strengthen_to_sc = false;

  // ---- resource budgets & fail-safe degradation -------------------------
  // Exhaustive DFS under C/C++11 is unbounded in the worst case; budgets
  // turn "runs forever" into "returns an inconclusive verdict with
  // coverage numbers".

  // Wall-clock budget for the whole exploration (0 = unlimited). Checked
  // between executions and every few hundred steps inside one, so a
  // single long execution cannot overshoot by much.
  double time_budget_seconds = 0.0;

  // Memory budget in bytes (0 = unlimited) over the engine's per-execution
  // arena, location histories, and trace buffer. Exceeding it ends the
  // current execution and (like the time budget) degrades to sampling.
  std::size_t memory_budget_bytes = 0;

  // Exploration-level watchdog: if this many consecutive executions finish
  // without a single feasible (checkable) one — the DFS is grinding through
  // pruned/livelocked subtrees only — treat the budget as exhausted.
  // Disabled by default so unbudgeted exhaustive runs stay bit-identical;
  // the CLI arms it whenever a budget flag is passed.
  std::uint64_t watchdog_no_progress_execs = 0;

  // When a budget (time, memory, watchdog) is exhausted, fall back from
  // exhaustive DFS to seeded random-walk sampling instead of stopping
  // cold: up to this many sampled executions, still subject to the final
  // wall-clock deadline. 0 disables degradation.
  std::uint64_t sample_executions = 2048;

  // Fraction of the time budget reserved for the DFS phase when
  // degradation is enabled; the remainder funds the sampling phase.
  double dfs_budget_fraction = 0.8;

  // Seed for the sampling phase's RNG (and anything else the engine
  // randomizes). Echoed in ExplorationStats so degraded runs are
  // reproducible.
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;

  // Cooperative preemption hook (work stealing): polled between DFS
  // executions while the subtree has a leaf left. When it returns true the
  // engine stops after the execution it just tallied, marks the run
  // preempted (stats.preempted), and records the last explored
  // execution's trail as the preempt frontier — the unexplored remainder
  // of the subtree is exactly the right-sibling subtrees of that trail
  // (see mc::split_remaining_frontier), so a coordinator can hand the
  // rest out as fresh shards. The subtree's last leaf always ends the run
  // as exhausted. Null = never preempt (the default; the hot path is one
  // null check).
  std::function<bool()> stop_request;

  // ---- observability ----------------------------------------------------

  // Emit a one-line progress heartbeat to stderr at most every this many
  // seconds while explore() runs (0 = off, the default: the disabled hot
  // path is a single null-pointer branch). Parallel workers inherit the
  // interval, so `--jobs` runs beat per worker.
  double progress_interval_seconds = 0.0;

  // Label prefixed to heartbeat lines; falls back to test_name when empty
  // (the parallel harness stamps "name#test shard i/N" per shard).
  std::string progress_label;

  // ---- persistence & containment ----------------------------------------

  // Identity stamped into .trail repros, e.g. "msqueue#2" (benchmark name
  // '#' unit-test index). Replay rejects trails whose identity does not
  // match the current run.
  std::string test_name;
  std::uint32_t test_index = 0;

  // Signal-to-verdict containment: catch SIGSEGV/SIGBUS/SIGFPE/SIGABRT
  // raised while a modeled-thread fiber runs (i.e. inside the test body),
  // convert the crash into a Violation{kCrash} carrying the current trail,
  // and end the exploration with Verdict::kFalsified instead of letting
  // the signal kill the checker process. Disable only to debug the
  // containment layer itself with a native debugger.
  bool contain_crashes = true;

  // ---- self-validation hooks (src/fuzz, tools/cdsspec-fuzz) -------------

  // Skip the DFS phase entirely and draw `sample_executions` seeded
  // random-walk executions. The fuzzer's DFS-vs-sampling oracle runs the
  // same program both ways and requires every sampled behavior to appear
  // in the exhaustive set.
  bool sampling_only = false;

  // Test-only soundness sabotage; see UnsoundHook. Never set outside the
  // self-validation tests.
  UnsoundHook unsound_hook = UnsoundHook::kNone;
};

}  // namespace cds::mc

#endif  // CDS_MC_CONFIG_H
