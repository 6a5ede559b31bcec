// Parallel benchmark driver: shards each unit test's DFS tree into
// disjoint subtree prefixes (mc/shard.h), runs the shards on one pool of
// forked worker processes per benchmark, and merges per-shard results
// into one RunResult with a deterministic verdict:
//
//   - falsified   if any shard falsified; shards merge in DFS order, so
//                 the surfaced witness is the serial run's first violation;
//   - verified-exhaustive only if EVERY shard exhausted its subtree, no
//                 shard hit an internal engine error, and no worker died;
//   - inconclusive otherwise (including any crashed worker: its shard's
//                 subtree was not covered).
//
// The static plan (--shard-depth levels, at most jobs * 4 shards per unit
// test) is only the initial queue. When a worker is idle and nothing is
// queued, the shard assigned longest ago is asked to stop; its partial
// result and the sub-shards split from its remaining DFS frontier are
// queued, journaled and merged exactly as the socket coordinator does,
// through the same shard table (dist/shard_table.h). Runs under a time
// or memory budget never split a shard; under an execution cap a split
// shard whose pieces reach the cap re-runs whole (see the table).
//
// A one-job pool runs its shards in order in this process. It is what a
// serial `--checkpoint FILE` run is: one planned shard per unit test
// (max_shards 1), with the write-ahead journal as its only durable
// record. The time budget then covers the whole benchmark, as in
// run_benchmark, and a shard that runs long is preempted after a fixed
// interval (mc/shard.cc) so the journal holds its partial result and the
// table mints its remainder. It never splits under a budget, the
// watchdog, stop-at-first-violation or an execution cap; its durable unit
// is then the unit test. Without a journal it never splits at all.
//
// A worker-process death (crash, OOM-kill, SIGKILL) is contained as that
// shard's outcome — the shard is recorded crashed, never retried, and the
// remaining workers keep draining the queue.
//
// For exhaustive runs the merged execution counters are bit-identical to a
// serial (--jobs 1) run: disjoint prefixes partition the execution tree
// and per-execution state (sleep sets, stale-read budgets) is a pure
// function of the trail, so each worker enumerates exactly the executions
// serial DFS visits under its prefix.
#ifndef CDS_HARNESS_PARALLEL_H
#define CDS_HARNESS_PARALLEL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/chaos.h"
#include "dist/shard_table.h"
#include "harness/runner.h"
#include "support/record.h"

namespace cds::harness {

struct ParallelOptions {
  int jobs = 1;
  // Prefix-enumeration depth of the initial queue: shards are subtrees
  // rooted at most this many choice points below the root.
  int shard_depth = 2;
  // Cap on planned shards per unit test; 0 = jobs * 4.
  std::size_t max_shards = 0;
  // Test hook: SIGKILL the worker assigned planned shard number
  // `sigkill_shard` of the first unit test that has it pending (use
  // single-test benchmarks in containment tests).
  std::ptrdiff_t sigkill_shard = -1;
  // Write-ahead shard-outcome journal (dist/journal.h — same file format
  // the distributed coordinator writes). Every shard outcome is durable
  // before the merge consumes it; empty = no durability.
  std::string journal_path;
  // Replay an existing journal before running: shards it records are
  // satisfied from their journaled results (preempted ones re-mint their
  // sub-shards), only the rest recompute. A journal recorded under a
  // different benchmark/config/shard plan sets
  // ParallelRunResult::resume_error instead of merging incompatible
  // state. With no journal on disk, --resume degrades to a fresh run.
  bool resume = false;
  // Coordinator-side fault injection (journal-append crash windows).
  dist::CoordinatorChaos coord_chaos;
};

// Parent-side timing of one shard's stay on a worker, for the Chrome-trace
// export (--trace-out): observability only, never merged into the
// deterministic counters.
struct ShardSpan {
  std::string name;  // "bench#test shard u/N", plus " split <i>" if minted
  int worker = -1;
  double start_seconds = 0.0;     // since the benchmark's pool started
  double duration_seconds = 0.0;  // assignment-to-result wall time
};

// The shard table's facts (dist::ShardRunStats) plus the pool's own.
struct ParallelRunResult : dist::ShardRunStats {
  RunResult merged;
  int jobs = 1;
  std::vector<ShardSpan> spans;
  // Non-empty: resume was rejected (journal recorded under a different
  // benchmark, config fingerprint, or shard plan); nothing was run.
  std::string resume_error;
};

// The `parallel` record: jobs, then the shard facts. --json, the
// `parallel:` text line and the parallel.* gauges render it.
inline std::vector<support::Field> fields(ParallelRunResult& r) {
  std::vector<support::Field> f = {{"jobs", &r.jobs}};
  const auto shard = fields(static_cast<dist::ShardRunStats&>(r));
  f.insert(f.end(), shard.begin(), shard.end());
  return f;
}

// Parallel analog of run_benchmark(). A run checkpoints through the
// write-ahead journal (`ParallelOptions::journal_path`/`resume`),
// replaying completed shards to a bit-identical verdict and counter set.
// With more than one job the engine budgets, if any, apply per planned
// shard rather than across the whole benchmark: a time-cut run takes at
// most about ceil(shards / jobs) budgets of wall time, and a capped run
// merges the counters of the unsplit plan. A one-job run keeps
// run_benchmark's budgets (see above).
ParallelRunResult run_benchmark_parallel(const Benchmark& b,
                                         const RunOptions& opts,
                                         const ParallelOptions& par);

// Runs every pending shard of `table` on one pool of `par.jobs` forked
// workers that steal as described above, feeding each result into the
// table as it arrives (journaled first when the table journals). Uses
// `par`'s jobs and kill hook, and appends each shard's span to *spans.
// run_benchmark_parallel and the socket coordinator's local fallback both
// run shards this way.
void run_on_fork_pool(dist::ShardTable& table, const Benchmark& b,
                      const RunOptions& opts, const ParallelOptions& par,
                      std::vector<ShardSpan>* spans);

}  // namespace cds::harness

#endif  // CDS_HARNESS_PARALLEL_H
