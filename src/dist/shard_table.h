// Shard table: the one record of a sharded run's work units, shared by the
// local fork pool (--jobs, harness/parallel.h) and the socket coordinator
// (--dist-workers, dist/coordinator.h), whose local fallback runs on the
// same fork pool.
//
// The table plans each unit test's static shards (the initial queue), owns
// the write-ahead journal and its replay (dist/journal.h), and applies
// results. A preempted result — a shard stopped early so idle workers can
// take over its remainder — mints sub-shards covering the unexplored
// right-sibling subtrees of its frontier (mc::split_remaining_frontier),
// appended at the end of the table. Minting is a pure function of the
// result, so journal replay re-mints the same sub-shards at the same
// indices.
//
// Counters fold into the merged result as results arrive; only
// violations and spec reports are kept per shard, and finish() assembles
// them in serial DFS order (mc::prefix_dfs_less). Partial result plus
// sub-shards cover exactly the executions of the undisturbed shard, so
// the merged result is bit-identical to a serial run's however the work
// was split and in whatever order it finished.
//
// Budgets apply per shard. Time and memory budgets, the no-progress
// watchdog and stop-at-first-violation would let every piece of a split
// shard run on its own, so such runs never split (splittable()). An
// execution cap is kept exact instead: the counters of a split planned
// shard's pieces are held apart until the end, and if together they reach
// the cap — the undisturbed shard would have stopped there, part-way
// through some piece — the pieces are dropped and the planned shard is
// re-run whole, never to be split again.
#ifndef CDS_DIST_SHARD_TABLE_H
#define CDS_DIST_SHARD_TABLE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dist/chaos.h"
#include "dist/journal.h"
#include "harness/runner.h"
#include "harness/shard_result.h"
#include "support/record.h"

namespace cds::dist {

// What a sharded run reports about its shards, read off the table by both
// executors. The `parallel` and `dist` blocks of --json, their text lines
// and their gauges all render this record (support/record.h), so each fact
// has one name under --jobs and --dist-workers alike.
struct ShardRunStats {
  std::uint64_t shards = 0;          // planned + minted work units
  std::uint64_t minted = 0;          // split from frontiers, or capped re-runs
  // Shards whose subtree went unexplored: a fork-pool worker died or sent
  // a corrupt result, or a socket shard spent its retries.
  std::uint64_t crashed_shards = 0;
  std::uint64_t steals = 0;  // preempted results accepted
  std::uint64_t probe_executions = 0;
  std::uint64_t epoch = 0;            // this incarnation (0 = no journal)
  bool resumed = false;               // a prior journal was replayed
  std::uint64_t replayed_shards = 0;  // shards satisfied from the journal
  std::uint64_t journal_quarantined_bytes = 0;  // torn-tail bytes set aside
};

inline std::array<support::Field, 9> fields(ShardRunStats& s) {
  return {{
      {"shards", &s.shards},
      {"minted", &s.minted},
      {"crashed_shards", &s.crashed_shards},
      {"steals", &s.steals},
      {"probe_executions", &s.probe_executions},
      {"epoch", &s.epoch},
      {"resumed", &s.resumed},
      {"replayed_shards", &s.replayed_shards},
      {"journal_quarantined_bytes", &s.journal_quarantined_bytes},
  }};
}

class ShardTable {
 public:
  // Plans every unit test of `b`: subtree prefixes to `shard_depth` choice
  // levels, at most `max_shards` per test (mc::enumerate_shard_prefixes).
  ShardTable(const harness::Benchmark& b, const harness::RunOptions& opts,
             int shard_depth, std::size_t max_shards);

  // Shards are numbered in the order they entered the table: the planned
  // ones first (indices below planned()), then the minted ones.
  [[nodiscard]] std::size_t size() const { return shards_.size(); }
  [[nodiscard]] std::size_t planned() const { return planned_; }
  [[nodiscard]] const harness::ShardUnit& unit(std::size_t sidx) const {
    return shards_[sidx].unit;
  }
  // The run's shard facts so far.
  [[nodiscard]] ShardRunStats stats() const;

  // ---- Shard states ----
  // pending -> running (an executor took it) -> done (accept) or failed
  // (fail); requeue() returns a running shard whose attempt was lost to
  // pending. A shard may also go from pending straight to done or failed,
  // and any shard to dropped when its planned shard is re-run whole (a
  // dropped shard's result is ignored).
  [[nodiscard]] bool pending(std::size_t sidx) const {
    return shards_[sidx].state == State::kPending;
  }
  [[nodiscard]] bool running(std::size_t sidx) const {
    return shards_[sidx].state == State::kRunning;
  }
  [[nodiscard]] bool any_pending() const;
  void mark_running(std::size_t sidx) { shards_[sidx].state = State::kRunning; }
  void requeue(std::size_t sidx);
  [[nodiscard]] bool all_resolved() const;

  // Whether this run's shards may be preempted so idle workers split
  // their remainder: not under a time or memory budget, the watchdog or
  // stop-at-first-violation (see the file comment).
  [[nodiscard]] bool splittable() const;
  // Whether shard `sidx` may be: the run's shards may, and `sidx` is not
  // a whole re-run of a capped planned shard.
  [[nodiscard]] bool splittable(std::size_t sidx) const {
    return splittable() && !shards_[sidx].whole;
  }

  // ---- Durability ----
  // Opens the write-ahead journal at `path`. With `resume`, an existing
  // journal is replayed first: journaled results are applied (re-minting
  // their sub-shards), journaled failures stay failed, and in-flight
  // shards stay pending. Returns false with *resume_error set when the
  // journal records a different benchmark, config or shard plan; nothing
  // may run then. A journal that cannot be written only costs durability.
  bool open_journal(const std::string& path, bool resume,
                    const CoordinatorChaos& chaos, std::string* resume_error);
  // Non-fatal append: a failing disk degrades the run to non-durable.
  void journal(const JournalRecord& r);
  // Whether results are still being journaled.
  [[nodiscard]] bool journaling() const {
    return journal_.is_open() && !journal_broken_;
  }

  // ---- Results ----
  // Strict parse of shard `sidx`'s result text, plus the check that a
  // preempted result's frontier extends the shard's own prefix.
  bool parse(std::size_t sidx, const std::string& text,
             harness::ShardResult* sr, std::string* why) const;
  // A parsed result for `sidx` arrived under `attempt` (0 = fork pool):
  // the raw text is journaled write-ahead, then applied. Returns how many
  // shards it appended: the sub-shards minted from a preempted result, or
  // a whole re-run when a split planned shard reached the execution cap.
  // A dropped shard's result is neither journaled nor applied; an applied
  // preempted one counts as a steal.
  std::size_t accept(std::size_t sidx, std::uint64_t attempt,
                     const std::string& text, harness::ShardResult sr);
  // `sidx`'s subtree will not be covered. With `journaled`, the failure is
  // a final outcome a resumed run keeps; without, it recomputes.
  void fail(std::size_t sidx, std::uint64_t attempt, const std::string& why,
            bool journaled);

  // Wall time of the results folded so far, replayed ones included.
  [[nodiscard]] double seconds() const { return total_.mc.seconds; }

  // The merged result: folded counters, per-test verdicts, and violations
  // and reports in serial DFS order under the per-test caps
  // (max_recorded_violations, the checker's max_reports). Ends the
  // journal with its done record. Call once, after the run; a shard still
  // pending or running counts as unexplored.
  harness::RunResult finish();

 private:
  enum class State { kPending, kRunning, kDone, kFailed, kDropped };
  struct Shard {
    State state = State::kPending;
    harness::ShardUnit unit;
    std::size_t root = 0;  // the planned shard this one descends from
    bool whole = false;    // a capped planned shard's unsplittable re-run
    // A done shard's records, kept for the DFS-ordered merge.
    std::vector<mc::Violation> violations;
    std::vector<std::string> reports;
  };

  std::size_t apply(std::size_t sidx, harness::ShardResult sr);
  // Adds a shard's outcome to its unit test's.
  void fold_test(std::size_t test, const mc::ExplorationStats& mc);

  const harness::Benchmark& b_;
  const harness::RunOptions& opts_;
  std::vector<Shard> shards_;
  std::size_t planned_ = 0;
  // Probe executions, steals and the journal's facts; stats() adds the
  // shard counts.
  ShardRunStats stats_;
  // Folded counters, and per unit test whether every result so far
  // exhausted its subtree, any falsified, and how many engine fatals.
  harness::RunResult total_;
  struct TestFold {
    bool exhausted = true;
    bool falsified = false;
    std::uint64_t fatals = 0;
  };
  std::vector<TestFold> tests_;
  // Under an execution cap: the counters of each split planned shard's
  // pieces, by planned index, folded into total_ only by finish().
  std::map<std::size_t, harness::RunResult> held_;

  JournalWriter journal_;
  bool journal_broken_ = false;
};

}  // namespace cds::dist

#endif  // CDS_DIST_SHARD_TABLE_H
