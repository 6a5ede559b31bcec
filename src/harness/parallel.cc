#include "harness/parallel.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "dist/shard_table.h"
#include "harness/shard_result.h"
#include "mc/shard.h"
#include "support/io.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#include <sys/types.h>
#endif

namespace cds::harness {

namespace {

bool ensure_dir(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  if (mkdir(path.c_str(), 0777) == 0 || errno == EEXIST) return true;
  return false;
#else
  (void)path;
  return false;
#endif
}

// A spooled result is reused only if it parses as a complete result;
// anything else — torn, bit-rotted, an older wire version — is set aside
// as "<path>.quarantined" and the shard recomputes.
bool reuse_spooled(const dist::ShardTable& table, std::size_t sidx,
                   const std::string& path, std::string* text,
                   ShardResult* sr) {
  std::string err;
  bool quarantined = false;
  if (!support::read_spool_file(path, text, &err, &quarantined)) {
    if (quarantined) {
      std::fprintf(stderr, "cds::harness: corrupt spool entry %s\n",
                   err.c_str());
    }
    return false;
  }
  std::string why;
  if (!table.parse(sidx, *text, sr, &why) || sr->stats.preempted) {
    if (why.empty()) why = "preempted partial result in spool";
    std::fprintf(stderr,
                 "cds::harness: rejecting spool entry %s (%s); quarantined\n",
                 path.c_str(), why.c_str());
    (void)std::rename(path.c_str(), (path + ".quarantined").c_str());
    return false;
  }
  return true;
}

}  // namespace

void run_on_fork_pool(dist::ShardTable& table, const Benchmark& b,
                      const RunOptions& opts, const ParallelOptions& par,
                      ParallelRunResult* pr) {
  const std::size_t planned = table.planned();

  // Spool keys of this incarnation's pending planned shards. The numbering
  // shifts as resumed runs shrink the pending list, so each journal epoch
  // gets its own subdirectory and stale keys cannot mismatch.
  std::vector<std::string> spool_path(planned);
  if (!par.spool_dir.empty()) {
    if (!ensure_dir(par.spool_dir)) {
      std::fprintf(stderr,
                   "cds::harness: cannot create spool dir '%s'; spooling off\n",
                   par.spool_dir.c_str());
    } else {
      std::vector<std::size_t> next_key(b.tests.size(), 0);
      for (std::size_t sidx = 0; sidx < planned; ++sidx) {
        if (!table.pending(sidx)) continue;
        const std::size_t test = table.unit(sidx).test_index;
        std::string dir = par.spool_dir + "/t" + std::to_string(test);
        if (table.epoch() != 0) dir += ".e" + std::to_string(table.epoch());
        if (!ensure_dir(dir)) continue;
        spool_path[sidx] =
            dir + "/unit-" + std::to_string(next_key[test]++) + ".result";
      }
    }
  }
  auto spooled = [&](std::size_t sidx) {
    return sidx < planned && !spool_path[sidx].empty();
  };

  // One pool unit per shard; a minted shard exists only in this process,
  // so every unit carries its ShardUnit as the payload.
  mc::UnitQueue units;
  std::vector<std::size_t> shard_of;  // pool unit -> table index
  auto enqueue = [&](std::size_t sidx) {
    shard_of.push_back(sidx);
    units.push(render_shard_unit(table.unit(sidx)));
  };
  for (std::size_t sidx = 0; sidx < table.size(); ++sidx) {
    if (!table.pending(sidx)) continue;
    std::string text;
    ShardResult sr;
    if (spooled(sidx) &&
        reuse_spooled(table, sidx, spool_path[sidx], &text, &sr)) {
      table.accept(sidx, 0, text, std::move(sr));
      ++pr->spooled_shards;
      continue;
    }
    enqueue(sidx);
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
  // unit to stop.
  if (table.splittable()) {
    fm.preemptible = [&](std::size_t u) {
      const std::size_t sidx = shard_of[u];
      return !spooled(sidx) && table.splittable(sidx);
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
      pr->spans.push_back(std::move(span));
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
    if (sr.stats.preempted) ++pr->steals;
    if (spooled(sidx)) {
      std::string err;
      if (!support::write_spool_file(spool_path[sidx], ur.text, &err)) {
        std::fprintf(stderr, "cds::harness: spool write failed: %s\n",
                     err.c_str());
      }
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
    return run_shard_unit(b, opts, unit, stop);
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
  pr.probe_executions = table.probe_executions();
  if (!par.journal_path.empty() &&
      !table.open_journal(par.journal_path, par.resume, par.coord_chaos,
                          &pr.resume_error)) {
    pr.shards = table.planned();
    pr.merged.verdict = mc::Verdict::kInconclusive;
    pr.merged.mc.verdict = pr.merged.verdict;
    return pr;
  }
  pr.epoch = table.epoch();
  pr.resumed = table.resumed();
  pr.replayed_shards = table.replayed();
  pr.journal_quarantined_bytes = table.quarantined_bytes();

  run_on_fork_pool(table, b, opts, par, &pr);
  pr.shards = table.size();
  pr.minted = table.minted();
  pr.crashed_shards = table.failed();
  pr.merged = table.finish();

  // Pool facts: wall-clock and topology, so they live in gauges/timers,
  // never in the bit-identical counter set.
  obs::Registry& M = pr.merged.metrics;
  M.gauge("parallel.jobs").set(static_cast<std::uint64_t>(pr.jobs));
  M.gauge("parallel.shards").set(pr.shards);
  M.gauge("parallel.crashed_shards").set(pr.crashed_shards);
  M.gauge("parallel.spooled_shards").set(pr.spooled_shards);
  M.gauge("parallel.probe_executions").set(pr.probe_executions);
  M.gauge("parallel.steals").set(pr.steals);
  M.gauge("parallel.minted").set(pr.minted);
  M.gauge("parallel.epoch").set(pr.epoch);
  M.gauge("parallel.resumed").set(pr.resumed ? 1 : 0);
  M.gauge("parallel.replayed_shards").set(pr.replayed_shards);
  M.gauge("parallel.journal_quarantined_bytes")
      .set(pr.journal_quarantined_bytes);
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
