#include "harness/parallel.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "dist/shard_table.h"
#include "harness/shard_result.h"
#include "mc/shard.h"

namespace cds::harness {

void run_on_fork_pool(dist::ShardTable& table, const Benchmark& b,
                      const RunOptions& opts, const ParallelOptions& par,
                      std::vector<ShardSpan>* spans) {
  const std::size_t planned = table.planned();

  // One pool unit per shard; a minted shard exists only in this process,
  // so every unit carries its ShardUnit as the payload.
  mc::UnitQueue units;
  std::vector<std::size_t> shard_of;  // pool unit -> table index
  auto enqueue = [&](std::size_t sidx) {
    shard_of.push_back(sidx);
    units.push(render_shard_unit(table.unit(sidx)));
  };
  for (std::size_t sidx = 0; sidx < table.size(); ++sidx) {
    if (table.pending(sidx)) enqueue(sidx);
  }

  mc::ForkMapOptions fm;
  fm.jobs = std::max(1, par.jobs);
  for (std::size_t u = 0; u < shard_of.size() && par.sigkill_shard >= 0; ++u) {
    const std::size_t sidx = shard_of[u];
    if (sidx < planned && table.unit(sidx).ordinal ==
                              static_cast<std::size_t>(par.sigkill_shard)) {
      fm.sigkill_on_unit = static_cast<std::ptrdiff_t>(u);
      break;
    }
  }
  // A run under a time or memory budget never splits (see
  // ShardTable::splittable): without a predicate the pool never asks a
  // unit to stop. A one-job pool runs its units in order and splits only
  // to journal its progress (see run_benchmark_parallel), never under a
  // cap, whose split pieces would re-run whole.
  const bool serial = fm.jobs <= 1;
  if (table.splittable() &&
      (!serial ||
       (table.journaling() && opts.engine.max_executions == 0))) {
    fm.preemptible = [&](std::size_t u) {
      return table.splittable(shard_of[u]);
    };
  }
  fm.on_result = [&](std::size_t u, mc::UnitResult& ur) {
    const std::size_t sidx = shard_of[u];
    if (!table.pending(sidx)) return;  // dropped for a whole re-run
    const ShardUnit& unit = table.unit(sidx);
    if (ur.ran && ur.done_seconds > ur.assigned_seconds) {
      ShardSpan span;
      span.name = b.name + "#" + std::to_string(unit.test_index) + " shard " +
                  std::to_string(unit.ordinal + 1) + "/" +
                  std::to_string(unit.total);
      if (sidx >= planned) span.name += " split " + std::to_string(sidx);
      span.worker = ur.worker;
      span.start_seconds = ur.assigned_seconds;
      span.duration_seconds = ur.done_seconds - ur.assigned_seconds;
      spans->push_back(std::move(span));
    }
    if (!ur.ran) {
      // The crashed worker's shard is final, for a resumed run too.
      table.fail(sidx, 0, "fork-pool worker died", /*journaled=*/true);
      return;
    }
    ShardResult sr;
    std::string why;
    if (!table.parse(sidx, ur.text, &sr, &why)) {
      // Not journaled: a resumed run recomputes the shard.
      std::fprintf(stderr,
                   "cds::harness: shard %zu of test %zu returned a corrupt "
                   "result (%s); treating as crashed\n",
                   unit.ordinal, unit.test_index, why.c_str());
      table.fail(sidx, 0, why, /*journaled=*/false);
      return;
    }
    const std::size_t first = table.size();
    const std::size_t appended = table.accept(sidx, 0, ur.text, std::move(sr));
    std::string().swap(ur.text);  // folded; the merge needs no copy
    if (appended == 0) return;
    for (std::size_t k = 0; k < appended; ++k) enqueue(first + k);
    // A whole re-run drops its planned shard's queued pieces: an empty
    // payload makes the worker skip them.
    for (std::size_t q = 0; q < shard_of.size(); ++q) {
      if (!table.pending(shard_of[q])) std::string().swap(units.payload(q));
    }
  };

  const auto work = [&](std::size_t, const std::string& payload,
                        const std::function<bool()>& stop) {
    ShardUnit unit;
    std::size_t at = 0;
    std::string why;
    // An unreadable unit answers with no result: the shard then counts as
    // crashed instead of exploring some other subtree.
    if (!parse_shard_unit(split_lines(payload), &at, &unit, &why)) {
      return std::string();
    }
    if (!serial || opts.engine.time_budget_seconds <= 0.0) {
      return run_shard_unit(b, opts, unit, stop);
    }
    // Run in order, in this process: the time budget covers the whole
    // benchmark as in run_benchmark, each unit getting what the results
    // so far (replayed ones included) left over.
    RunOptions left = opts;
    left.engine.time_budget_seconds =
        std::max(0.001, opts.engine.time_budget_seconds - table.seconds());
    return run_shard_unit(b, left, unit, stop);
  };
  (void)mc::fork_map(units, work, fm);
}

ParallelRunResult run_benchmark_parallel(const Benchmark& b,
                                         const RunOptions& opts,
                                         const ParallelOptions& par) {
  ParallelRunResult pr;
  pr.jobs = std::max(1, par.jobs);
  const std::size_t max_shards =
      par.max_shards != 0 ? par.max_shards
                          : static_cast<std::size_t>(pr.jobs) * 4;
  dist::ShardTable table(b, opts, par.shard_depth, max_shards);
  // A refused resume runs nothing: every shard counts as unexplored.
  if (par.journal_path.empty() ||
      table.open_journal(par.journal_path, par.resume, par.coord_chaos,
                         &pr.resume_error)) {
    run_on_fork_pool(table, b, opts, par, &pr.spans);
  }
  static_cast<dist::ShardRunStats&>(pr) = table.stats();
  pr.merged = table.finish();

  // Pool facts: wall-clock and topology, so they live in gauges/timers,
  // never in the bit-identical counter set.
  obs::Registry& M = pr.merged.metrics;
  M.add_record("parallel.", fields(pr));
  // Per-worker busy time and unit counts, plus the aggregate wait from the
  // pool's start to each assignment.
  std::map<int, std::pair<double, std::uint64_t>> worker_busy;  // w -> {s, n}
  double queue_wait_seconds = 0.0;
  for (const ShardSpan& s : pr.spans) {
    auto& [busy, units] = worker_busy[s.worker];
    busy += s.duration_seconds;
    ++units;
    queue_wait_seconds += s.start_seconds;
  }
  if (queue_wait_seconds > 0.0) {
    M.timer("parallel.shard_queue_wait")
        .add_ns(static_cast<std::uint64_t>(queue_wait_seconds * 1e9));
  }
  for (const auto& [w, bu] : worker_busy) {
    const std::string prefix = "parallel.worker" + std::to_string(w);
    M.gauge(prefix + ".units").set(bu.second);
    M.timer(prefix + ".busy")
        .add_ns(static_cast<std::uint64_t>(bu.first * 1e9));
  }
  return pr;
}

}  // namespace cds::harness
