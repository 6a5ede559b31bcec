// Parallel sharding substrate: splits a DFS exploration into disjoint
// subtrees by enumerating trail prefixes, runs units of work in forked
// unit children, and fans units out to a pool of them, splitting a
// running unit's remaining frontier when a worker would otherwise sit
// idle.
//
// Because every execution is a deterministic function of its choice
// sequence (mc/trail.h), the subtrees rooted at the children of any choice
// point partition the executions below it. enumerate_shard_prefixes probes
// the tree breadth-first — one throwaway execution per interior prefix —
// to materialize that partition up to a configurable depth; a worker
// exploring prefix P with Engine::set_subtree(P) then enumerates exactly
// the executions a serial DFS would have visited under P, so merged shard
// counters are bit-identical to a serial run's (see mc/stats.h
// merge_shard_stats).
#ifndef CDS_MC_SHARD_H
#define CDS_MC_SHARD_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mc/config.h"
#include "mc/engine.h"
#include "mc/trail.h"

namespace cds::mc {

struct ShardPlan {
  // Disjoint subtree roots in DFS order; together they cover the whole
  // tree. A prefix equal to a complete execution's trail is a leaf unit
  // (the worker runs exactly one execution).
  std::vector<std::vector<Choice>> prefixes;
  // Executions spent probing (discarded; workers re-explore them).
  std::uint64_t probe_executions = 0;
};

// Enumerates up to ~`max_units` disjoint subtree prefixes by expanding
// branch points breadth-first to at most `depth` choice levels. The probe
// runs single executions under `cfg` with budgets stripped;
// `cfg`'s tree-shaping knobs (max_steps, stale_read_bound, sleep sets,
// strengthen_to_sc) are honored since they define the tree being split.
// Always returns at least one prefix (the empty prefix = the whole tree).
ShardPlan enumerate_shard_prefixes(const Config& cfg, const TestFn& test,
                                   int depth, std::size_t max_units);

// Decomposes the unexplored remainder of a preempted shard into disjoint
// subtree prefixes. `frontier` is the trail of the last execution the
// shard explored (Engine::preempt_frontier) and `pinned` the length of
// its own prefix: the remainder is exactly the right-sibling subtrees of
// the frontier at every level >= pinned, i.e. prefixes
//   frontier[0..i) + Choice{kind_i, a, num_i}   for a in (chosen_i, num_i)
// The returned prefixes are in serial DFS order (deepest level first,
// alternatives ascending), and together with the executions the shard
// already counted they partition the shard's subtree — so merging the
// partial result and the sub-shards' results reproduces the undisturbed
// shard bit-identically. Returns empty when the frontier was the
// subtree's last execution (nothing remained).
std::vector<std::vector<Choice>> split_remaining_frontier(
    std::size_t pinned, const std::vector<Choice>& frontier);

// DFS order over subtree prefixes of one choice tree: lexicographic on
// the chosen alternatives, with a proper prefix ordering before its
// extensions (its subtree's first execution precedes them). The merge
// layers sort dynamically created shards with this so violations and
// record caps behave exactly as in a serial DFS.
bool prefix_dfs_less(const std::vector<Choice>& a,
                     const std::vector<Choice>& b);

// ---------------------------------------------------------------------------
// The unit child and the steal rule
// ---------------------------------------------------------------------------

// Work of one unit inside a unit child: `payload` is the bytes the unit
// was handed with, and `stop()` turns true once the parent asks this unit
// to stop early (work stealing). Polling `stop` reads one word of shared
// memory; it makes no syscall.
using UnitWork = std::function<std::string(
    std::size_t i, const std::string& payload,
    const std::function<bool()>& stop)>;

// fork(2) for a child that must not outlive this process: the child gets
// SIGKILL when its parent dies (PR_SET_PDEATHSIG), and exits at once if
// the parent died before that was armed. Returns what fork returns.
int fork_tied_to_parent();

// One forked process that runs units of work one at a time: every forked
// unit of work runs in one (fork_map's workers, a socket worker's shard
// child, each `--sweep` trial), so a crash in the work kills only it.
// The parent writes "u <idx> <len>\n<payload>" frames down one pipe and
// the child answers each with "r <idx> <len>\n<text>" on another; EOF or
// a malformed frame ends it. stop(idx) stores idx + 1 in a
// MAP_SHARED word that the child compares with its own unit between
// executions, so a request naming a finished unit never reaches the
// next. The child first closes the descriptors it must not hold
// (siblings' pipe ends, a socket), and it dies with its parent
// (PR_SET_PDEATHSIG): an orphaned unit never computes a result nobody
// reads.
class UnitChild {
 public:
  UnitChild() = default;
  UnitChild(const UnitChild&) = delete;
  UnitChild& operator=(const UnitChild&) = delete;
  ~UnitChild() { finish(/*kill=*/true); }

  // Forks the child, which closes `inherited` and serves units with
  // `work`, raising SIGKILL instead of running unit `sigkill_on_unit` (a
  // crash-containment test hook). False when pipe, mmap or fork fails.
  bool start(const UnitWork& work, const std::vector<int>& inherited = {},
             std::ptrdiff_t sigkill_on_unit = -1);
  [[nodiscard]] bool running() const { return pid_ > 0; }
  // The parent's pipe ends; result_fd() turns readable when a result
  // arrives or the child dies.
  [[nodiscard]] int work_fd() const { return work_fd_; }
  [[nodiscard]] int result_fd() const { return result_fd_; }

  // A failed write means the child is dying; read() reports its death.
  void assign(std::uint64_t idx, const std::string& payload);
  void stop(std::uint64_t idx);

  enum class Read { kPending, kResult, kDied };
  // Consumes what result_fd() holds. kResult: *idx and *text hold a
  // finished unit. kDied: EOF or a corrupt frame; the child is killed and
  // reaped, and status() holds its wait status.
  Read read(std::uint64_t* idx, std::string* text);
  // read() until it has news or `timeout_seconds` pass (0 = no limit);
  // kPending means the time ran out.
  Read await(double timeout_seconds, std::uint64_t* idx, std::string* text);
  // Closes a running child's work pipe, which ends it once its unit is
  // done, or with `kill` kills it; then reaps it.
  void finish(bool kill = false);
  [[nodiscard]] int status() const { return status_; }

 private:
  int pid_ = -1;
  int work_fd_ = -1;
  int result_fd_ = -1;
  std::atomic<std::uint64_t>* word_ = nullptr;  // in a MAP_SHARED page
  std::string buf_;
  int status_ = 0;
};

// A unit on a worker, as the steal rule sees it.
struct RunningUnit {
  std::uint64_t id = 0;  // the scheduler's name for it
  double started = 0.0;  // when it was handed out, in seconds
  bool splittable = false;
};

// A younger unit may be about to finish, and splitting it would trade one
// result for many.
inline constexpr double kStealAfterSeconds = 0.002;

// The steal rule of fork_map and the socket coordinator: when a worker is
// idle and nothing is queued, ask the oldest running splittable unit to
// stop once it has run kStealAfterSeconds, with one request outstanding
// (until its unit stops running) and each unit asked at most once.
class StealRule {
 public:
  // `idle`: a worker is idle and nothing is queued. Returns the position
  // in `running` of the unit to ask now, or running.size(); while the
  // oldest splittable unit is too young, lowers *wake to its coming of
  // age (the clock of `now` and `started`).
  std::size_t pick(bool idle, const std::vector<RunningUnit>& running,
                   double now, double* wake);

 private:
  std::optional<std::uint64_t> asked_;
};

// ---------------------------------------------------------------------------
// fork_map: run work units across forked workers
// ---------------------------------------------------------------------------

struct UnitResult {
  // False = the worker process died (crashed/killed) while this unit was
  // assigned to it; `text` is empty and the unit was not retried, so a
  // crash deterministically becomes that shard's outcome.
  bool ran = false;
  std::string text;
  // Parent-side timing (seconds since fork_map entry) and the worker slot
  // that computed the unit: observability only — never part of the
  // deterministic merged result.
  double assigned_seconds = 0.0;
  double done_seconds = 0.0;
  int worker = -1;
};

// The units of one fork_map call. Units may be appended while it runs —
// from ForkMapOptions::on_result — and each carries its payload to
// whichever worker runs it: a unit created after the fork exists only in
// the parent's memory.
class UnitQueue {
 public:
  UnitQueue() = default;
  // `n` units with empty payloads.
  explicit UnitQueue(std::size_t n) : payloads_(n) {}
  // Appends a unit; returns its index.
  std::size_t push(std::string payload) {
    payloads_.push_back(std::move(payload));
    return payloads_.size() - 1;
  }
  [[nodiscard]] std::size_t size() const { return payloads_.size(); }
  // The payload of unit `i`; fork_map releases it once the unit is sent.
  [[nodiscard]] std::string& payload(std::size_t i) { return payloads_[i]; }

 private:
  std::vector<std::string> payloads_;
};

struct ForkMapOptions {
  int jobs = 1;
  // Test hook: the worker assigned this unit raises SIGKILL instead of
  // running it, exercising the parent's worker-crash containment.
  std::ptrdiff_t sigkill_on_unit = -1;
  // Invoked in the parent the moment a unit reaches its final state —
  // computed by a worker, run inline, or crashed (`ran == false`). Callers
  // journal outcomes here write-ahead of their merge, may move the text
  // out (the returned vector then holds it empty), and may append units to
  // the queue.
  std::function<void(std::size_t, UnitResult&)> on_result;
  // Work stealing: the units for which this returns true are splittable
  // under StealRule (their `stop()` turns true when asked). A sequential
  // pool (jobs <= 1) instead asks each unit for which this returns true
  // to stop once it has run about a second, so a caller that journals
  // results saves the progress of long units. Null = never.
  std::function<bool(std::size_t)> preemptible;
};

// Runs `work(i)` for every i in [0, n) and returns results indexed by
// unit. With jobs > 1 on POSIX, starts `jobs` unit children and feeds
// them units dynamically; a worker death marks its in-flight unit crashed
// and the remaining workers carry on. Falls back to sequential in-process
// execution when jobs <= 1, fork is unavailable, or worker setup fails. `work` must be safe to run in a
// forked child (no reliance on threads, which fork does not carry over).
std::vector<UnitResult> fork_map(
    std::size_t n, const std::function<std::string(std::size_t)>& work,
    const ForkMapOptions& opts);

// The same pool over a growable queue: runs every unit of `units`,
// including those on_result appends, forking the workers once; it returns
// when the queue is drained and no unit is running. Sequential runs
// (jobs <= 1) preempt only on the interval described at `preemptible`.
std::vector<UnitResult> fork_map(UnitQueue& units, const UnitWork& work,
                                 const ForkMapOptions& opts);

}  // namespace cds::mc

#endif  // CDS_MC_SHARD_H
