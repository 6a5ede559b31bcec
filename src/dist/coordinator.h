// Distributed coordinator: owns the shard queue for one benchmark and
// hands shards out to socket-connected workers under wall-clock leases.
//
// Elasticity and fault model:
//   - every assignment is a fresh *attempt id*; results and failures are
//     keyed by attempt, so a result from a revoked attempt (a worker that
//     went quiet past its lease and reported late) is dropped as stale
//     instead of double-merged — a shard's counters enter the merge
//     exactly once no matter how many attempts it took;
//   - a worker that disconnects, crashes, or misses heartbeats past the
//     lease has its attempt revoked and the shard retried with
//     exponential backoff + deterministic jitter, up to max_shard_retries;
//     after that the shard is recorded as a contained permanent failure
//     (verdict degrades to inconclusive, the run completes);
//   - the first assignment waits (at most the connect deadline) until as
//     many workers have greeted as were forked, and idle workers take
//     shards in fork order, external ones last: the first forked worker
//     gets the first shard whatever order the workers connected in;
//   - when a worker is idle and the queue is dry, the coordinator asks
//     the worker of the oldest running shard to preempt it under the fork
//     pool's steal rule (mc::StealRule: once the shard has run 2 ms, one
//     request at a time; never under a time or memory budget, see
//     ShardTable::splittable);
//     the preempted partial result plus the sub-shards split from its
//     frontier (mc::split_remaining_frontier) cover exactly the executions
//     the undisturbed shard would have explored, keeping merged counters
//     bit-identical to a serial run;
//   - if no worker ever connects within the deadline — or every worker is
//     gone and none returns — the remaining shards gracefully degrade to
//     the stealing fork pool --jobs uses (harness::run_on_fork_pool), so
//     `--dist-workers` never strands a run.
//
// Shards, the journal and the merge live in the shard table both
// schedulers share (dist/shard_table.h), and every shard runs in a unit
// child (mc/shard.h): a worker's long-lived one, or a fork-pool worker.
//
// All dist bookkeeping (retries, leases, steals, reconnects) is exported
// as dist.* gauges, never counters: the deterministic counter set must
// stay bit-identical to --jobs 1 under every failure injection.
#ifndef CDS_DIST_COORDINATOR_H
#define CDS_DIST_COORDINATOR_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/chaos.h"
#include "dist/shard_table.h"
#include "dist/worker.h"
#include "harness/runner.h"
#include "support/record.h"

namespace cds::dist {

struct DistOptions {
  // Address to listen on ("host:port" or "unix:PATH"). Empty = an
  // automatic per-process Unix socket under /tmp, removed on completion.
  std::string listen;
  // Local worker processes to fork and point at the listen address
  // (localhost convenience mode; 0 = external workers only).
  int dist_workers = 0;
  // Lease duration per assignment. Heartbeats renew it; an attempt whose
  // lease lapses is revoked and retried. Workers are told to heartbeat at
  // a third of this.
  double lease_seconds = 5.0;
  // Retries after the first attempt before a shard is recorded as a
  // permanent (contained) failure. 0 = single attempt.
  int max_shard_retries = 3;
  // Fall back to the local fork pool when no worker has connected this
  // long after startup, or when all workers are gone this long.
  double connect_deadline_seconds = 5.0;
  bool enable_steal = true;
  // Shard planning, mirroring ParallelOptions.
  int shard_depth = 2;
  std::size_t max_shards = 0;  // 0 = max(dist_workers, 1) * 4
  // Fork-pool width for the local fallback. 0 = max(dist_workers, 1).
  int fallback_jobs = 0;
  // Fault injection applied to the FIRST forked local worker, the one
  // that takes the first assignment (chaos tests / the CI chaos step).
  // External workers configure their own.
  ChaosOptions worker_chaos;
  // Coordinator-side fault injection (journal-append crash windows).
  CoordinatorChaos coord_chaos;
  // Write-ahead shard-outcome journal (see dist/journal.h). Empty = no
  // durability: a coordinator crash discards all progress. The file is
  // kept on completion (it is the run's audit log and CI artifact).
  std::string journal_path;
  // Replay an existing journal before starting: completed shards are
  // satisfied from their journaled results, in-flight ones re-enqueued,
  // and this incarnation runs under a bumped epoch. A journal recorded
  // under a different benchmark/config/shard plan sets
  // DistRunResult::resume_error instead of merging incompatible state.
  bool resume = false;
  // Benchmark resolver inherited by forked local workers; defaults to the
  // benchmark under test plus the global registry.
  BenchmarkResolver resolve;
  // Forwarded to workers' shard children as the progress interval.
  double worker_progress_interval_seconds = 0.0;
};

// The shard table's facts (ShardRunStats) plus the socket scheduler's own.
struct DistRunResult : ShardRunStats {
  harness::RunResult merged;
  std::string listen;  // resolved address actually listened on
  std::uint64_t workers_connected_peak = 0;  // peak concurrent workers
  std::uint64_t connections_total = 0;  // hellos accepted (incl. reconnects)
  std::uint64_t retries = 0;          // attempts rescheduled (any cause)
  std::uint64_t leases_expired = 0;   // revocations by lease timeout
  std::uint64_t stale_results = 0;    // revoked-attempt reports dropped
  std::uint64_t corrupt_results = 0;  // unparseable result payloads
  std::uint64_t fenced_results = 0;   // out-of-epoch reports dropped
  bool fell_back_local = false;
  // Non-empty: --resume was rejected (journal recorded under a different
  // benchmark, config fingerprint, or shard plan); nothing was run.
  std::string resume_error;
};

// The `dist` record: the shard facts, then the socket-only ones. --json,
// the `dist:` text line and the dist.* gauges render it.
inline std::vector<support::Field> fields(DistRunResult& r) {
  const auto shard = fields(static_cast<ShardRunStats&>(r));
  std::vector<support::Field> f(shard.begin(), shard.end());
  f.insert(f.end(), {
                        {"listen", &r.listen},
                        {"workers_connected_peak", &r.workers_connected_peak},
                        {"connections_total", &r.connections_total},
                        {"retries", &r.retries},
                        {"leases_expired", &r.leases_expired},
                        {"stale_results", &r.stale_results},
                        {"corrupt_results", &r.corrupt_results},
                        {"fenced_results", &r.fenced_results},
                        {"fell_back_local", &r.fell_back_local},
                    });
  return f;
}

// Distributed analog of run_benchmark_parallel: plans shards exactly the
// same way, distributes them to workers, and merges to the same
// deterministic RunResult. With `journal_path` set, every shard outcome
// is journaled write-ahead of the merge, and `resume` continues an
// interrupted run to a bit-identical verdict and counter set.
DistRunResult run_benchmark_distributed(const harness::Benchmark& b,
                                        const harness::RunOptions& opts,
                                        const DistOptions& d);

}  // namespace cds::dist

#endif  // CDS_DIST_COORDINATOR_H
