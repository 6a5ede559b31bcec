// Shard-result wire format and the shared per-shard run entry point.
//
// One unit test's one shard, as produced by a worker (a fork_map child, a
// distributed worker, or the sequential fallback). Line oriented;
// multi-line payloads (violation details, spec reports) are escaped onto
// single lines (support/record.h) so the whole message parses
// line-by-line:
//
//   shard-result v7
//   stats executions=.. feasible=.. ... preempted=0|1 verdict=<name>
//   spec checked=.. inadmissible=.. ... r_cycle=0|1
//   violations <n>
//   v kind=<wire-kind> execution=<i> test=<t> choices=<n> detail=<text>
//   S 1/2                                  # nchoices trail lines
//   ...
//   reports <n>
//   rep <escaped report>
//   metrics <n>
//   m <obs wire line>                      # see obs::Registry::render_wire
//   frontier <n>
//   S 1/2                                  # n trail lines (see below)
//   end
//
// v2 added the metrics section; v3 adds `preempted` and the `frontier`
// section. A preempted shard (the engine's stop-request hook tripped —
// work stealing) reports the trail of the last execution it explored as
// its frontier; the coordinator decomposes the unexplored right-sibling
// subtrees of that trail into fresh sub-shards (mc::split_remaining_
// frontier), so the partial result plus the sub-shards' results cover
// exactly the executions the undisturbed shard would have explored.
// Complete shards always carry `preempted=0` and an empty frontier.
// v4 adds the rf-mode class counters (rf_classes, rf_infeasible) to the
// stats line; they merge by summation, so a --jobs/--dist-workers run
// reports class counts bit-identical to a serial run. v5: violation
// trails and the frontier may hold kRevisit choices ('V'), which replaced
// rf mode's wait alternative, so an older rf result indexes another tree.
// v6: the stats and spec lines are the counter records of mc/stats.h and
// spec/checker.h, and violation lines records too (support/record.h);
// `seconds` is an exact double in place of whole microseconds and the
// verdict is named. v7: both records key every field by its member's name
// (`max_trail_depth=`, not `max_depth=`), as the --json output does.
//
// Parsing is strict-versioned: a stale v1-v6 result (say, in a journal
// written by an older build) is treated as corrupt (shard recomputed or
// crashed) rather than silently merged with missing sections.
#ifndef CDS_HARNESS_SHARD_RESULT_H
#define CDS_HARNESS_SHARD_RESULT_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "mc/stats.h"
#include "mc/trail.h"
#include "obs/metrics.h"
#include "spec/checker.h"
#include "support/record.h"

namespace cds::harness {

struct ShardResult {
  mc::ExplorationStats stats;
  spec::SpecChecker::Stats spec;
  obs::Registry metrics;
  std::vector<mc::Violation> violations;
  std::vector<std::string> reports;
  // Preemption (work stealing): the trail of the shard's last explored
  // execution, set only when stats.preempted. The shard's own prefix is a
  // prefix of this trail.
  std::vector<mc::Choice> frontier;
};

// Splits on '\n'; shared with the dist protocol parser.
std::vector<std::string> split_lines(const std::string& text);

std::string render_shard_result(const RunResult& r);

// Strict parse; on failure *err carries a "line N: ..." diagnostic and
// *out is untouched (no partially applied sections).
bool parse_shard_result(const std::string& text, ShardResult* out,
                        std::string* err);

// ---------------------------------------------------------------------------
// Shared shard execution
// ---------------------------------------------------------------------------

// Everything a worker needs to run one shard. The seed and sampling
// budget are pre-derived by the planner (coordinator) rather than inside
// the worker, so a shard retried on a different worker — or a sub-shard
// minted by work stealing — reproduces the exact same exploration.
struct ShardUnit {
  std::size_t test_index = 0;
  std::vector<mc::Choice> prefix;
  // Cosmetic shard label numbers ("shard i/N" in progress heartbeats).
  std::size_t ordinal = 0;
  std::size_t total = 1;
  std::uint64_t engine_seed = 0;
  std::uint64_t sample_executions = 0;
};

// The unit line's record (support/record.h); the prefix follows it as a
// trail section.
inline std::array<support::Field, 5> fields(ShardUnit& u) {
  return {{
      {"test", &u.test_index},
      {"ordinal", &u.ordinal},
      {"total", &u.total},
      {"seed", &u.engine_seed},
      {"samples", &u.sample_executions},
  }};
}

// A ShardUnit as text — the fork pool's unit payload and the block the
// shard-assign wire carries:
//   unit test=<i> ordinal=<k> total=<n> seed=<s> samples=<m>
//   prefix <n>
//   S 1/2                                  # n trail lines
std::string render_shard_unit(const ShardUnit& u);
// Strict parse starting at lines[*i]; advances *i past the block. On
// failure *why names the problem and *out is untouched.
bool parse_shard_unit(const std::vector<std::string>& lines, std::size_t* i,
                      ShardUnit* out, std::string* why);

// Derives a ShardUnit from the base options the way the parallel planner
// does: per-shard seed, sample budget divided across shards.
ShardUnit make_shard_unit(const RunOptions& base, std::size_t test_index,
                          std::vector<mc::Choice> prefix, std::size_t ordinal,
                          std::size_t total);

// One shard, end to end, inside a worker process (or inline in the
// sequential fallback): run the unit test's subtree with spec checking
// and serialize the result. `stop_request`, when non-null, is polled
// between executions; if it returns true the shard preempts, reporting
// its partial counters and its frontier for re-splitting.
std::string run_shard_unit(const Benchmark& b, const RunOptions& base,
                           const ShardUnit& u,
                           const std::function<bool()>& stop_request = nullptr);

}  // namespace cds::harness

#endif  // CDS_HARNESS_SHARD_RESULT_H
