// Distributed worker: connects to a coordinator, receives shard
// assignments, and runs them in one long-lived shard child (mc::UnitChild,
// the unit child fork_map's workers run in too), so a crashing test body
// (or a SIGKILL chaos injection) never takes the protocol loop down with
// it. The child is forked before the first dial.
//
// Per assignment the parent:
//   - answers `failed` if this build cannot run it (benchmark, test
//     index, injection site), and otherwise hands it to the child, which
//     arms the injection and runs harness::run_shard_unit;
//   - heartbeats the coordinator at the interval the welcome line named,
//     renewing the shard's lease while the child computes;
//   - turns the coordinator's `steal` line into a store to the child's
//     stop word, and answers `quit` by killing the child and exiting;
//   - reports a dead child with its wait status as an explicit `failed`
//     line, so the coordinator retries at once instead of waiting out the
//     lease, and forks a new child for the next assignment.
//
// If the coordinator connection drops mid-run the worker kills the child
// computing the lost assignment and re-dials (fresh hello) until the
// connect timeout elapses: the old assignment's lease expires
// coordinator-side and is retried, possibly on this same reconnected
// worker. The child dies with the worker.
#ifndef CDS_DIST_WORKER_H
#define CDS_DIST_WORKER_H

#include <functional>
#include <string>

#include "dist/chaos.h"
#include "harness/runner.h"

namespace cds::dist {

using BenchmarkResolver =
    std::function<const harness::Benchmark*(const std::string&)>;

struct WorkerOptions {
  // How long to keep re-dialing the coordinator (initial connect and
  // reconnects after a drop) before giving up.
  double connect_timeout_seconds = 10.0;
  // Worker-local progress heartbeat interval for the shards it runs
  // (coordinator config does not carry observability knobs).
  double progress_interval_seconds = 0.0;
  // Maps the assignment's benchmark key to a Benchmark. Defaults to the
  // registry (harness::find_benchmark); tests and the --dist-workers
  // convenience mode inject resolvers for unregistered benchmarks (forked
  // workers inherit them in memory).
  BenchmarkResolver resolve;
  // Protocol fault injection (tests / the CI chaos step).
  ChaosOptions chaos;
};

// Runs the worker loop until the coordinator says quit (returns 0) or the
// connection cannot be (re-)established / the protocol is violated
// (returns 1). `addr` uses the same syntax as parse_address.
int run_worker(const std::string& addr, const WorkerOptions& opts = {});

}  // namespace cds::dist

#endif  // CDS_DIST_WORKER_H
