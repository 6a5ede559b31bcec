#include "dist/shard_table.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "inject/inject.h"
#include "mc/shard.h"
#include "mc/trace.h"
#include "support/record.h"
#include "support/rng.h"

namespace cds::dist {

ShardTable::ShardTable(const harness::Benchmark& b,
                       const harness::RunOptions& opts, int shard_depth,
                       std::size_t max_shards)
    : b_(b), opts_(opts), tests_(b.tests.size()) {
  total_.mc.seed = opts.engine.seed;
  total_.mc.exhausted = true;
  for (std::size_t i = 0; i < b.tests.size(); ++i) {
    mc::Config pcfg = opts.engine;
    pcfg.test_name = b.name + "#" + std::to_string(i);
    pcfg.test_index = static_cast<std::uint32_t>(i);
    mc::ShardPlan plan = mc::enumerate_shard_prefixes(pcfg, b.tests[i],
                                                      shard_depth, max_shards);
    stats_.probe_executions += plan.probe_executions;
    const std::size_t count = plan.prefixes.size();
    for (std::size_t u = 0; u < count; ++u) {
      Shard s;
      s.unit = harness::make_shard_unit(opts, i, std::move(plan.prefixes[u]),
                                        u, count);
      s.root = shards_.size();
      shards_.push_back(std::move(s));
    }
  }
  planned_ = shards_.size();
}

bool ShardTable::any_pending() const {
  return std::any_of(shards_.begin(), shards_.end(), [](const Shard& s) {
    return s.state == State::kPending;
  });
}

void ShardTable::requeue(std::size_t sidx) {
  if (shards_[sidx].state == State::kRunning) {
    shards_[sidx].state = State::kPending;
  }
}

bool ShardTable::all_resolved() const {
  return std::all_of(shards_.begin(), shards_.end(), [](const Shard& s) {
    return s.state != State::kPending && s.state != State::kRunning;
  });
}

ShardRunStats ShardTable::stats() const {
  ShardRunStats s = stats_;
  s.shards = shards_.size();
  s.minted = shards_.size() - planned_;
  s.crashed_shards = static_cast<std::uint64_t>(
      std::count_if(shards_.begin(), shards_.end(), [](const Shard& sh) {
        return sh.state == State::kFailed;
      }));
  return s;
}

bool ShardTable::splittable() const {
  const mc::Config& e = opts_.engine;
  return e.time_budget_seconds <= 0.0 && e.memory_budget_bytes == 0 &&
         e.watchdog_no_progress_execs == 0 && !e.stop_on_first_violation;
}

bool ShardTable::open_journal(const std::string& path, bool resume,
                              const CoordinatorChaos& chaos,
                              std::string* resume_error) {
  // Hash the planned units, not the minted ones: this is the identity a
  // later resume re-plans and compares before it trusts any record.
  std::vector<harness::ShardUnit> planned;
  planned.reserve(planned_);
  for (std::size_t i = 0; i < planned_; ++i) planned.push_back(shards_[i].unit);
  const std::uint32_t plan_hash = journal_plan_hash(planned);
  const std::string config =
      support::render_record(opts_.engine, inject::active_site_name());
  const std::string checker = support::render_record(opts_.checker);
  stats_.epoch = 1;
  if (resume) {
    JournalReplay rep;
    std::string jerr;
    if (!load_journal(path, &rep, &jerr)) {
      std::fprintf(stderr, "cds::dist: %s; starting fresh\n", jerr.c_str());
    }
    stats_.journal_quarantined_bytes = rep.quarantined_bytes;
    if (!rep.quarantine_note.empty()) {
      std::fprintf(stderr, "cds::dist: %s\n", rep.quarantine_note.c_str());
    }
    const auto hdr =
        std::find_if(rep.records.begin(), rep.records.end(),
                     [](const JournalRecord& r) {
                       return r.kind == JournalRecord::Kind::kRun;
                     });
    // A resume against a missing or headerless journal starts fresh —
    // convenient for "always pass --resume" retry loops.
    if (hdr != rep.records.end()) {
      const auto [was, now] = support::difference(
          hdr->config + " " + hdr->checker, config + " " + checker);
      std::string differs;
      if (hdr->bench != b_.name) {
        differs = "benchmark ('" + hdr->bench + "')";
      } else if (!was.empty() || !now.empty()) {
        differs =
            "config (" + was + " in the journal, " + now + " in this run)";
      } else if (hdr->plan_hash != plan_hash || hdr->shards != planned_) {
        differs = "shard plan";
      }
      if (!differs.empty()) {
        *resume_error = "journal '" + path + "' records a different " +
                        differs + "; refusing to merge incompatible shards " +
                        "(delete the journal or rerun with the original " +
                        "parameters)";
        return false;
      }
      stats_.resumed = true;
      stats_.epoch = rep.last_epoch + 1;
      // Lease and mint records are informational: an in-flight shard stays
      // pending, and a journaled preempted result re-mints by itself.
      for (const JournalRecord& r : rep.records) {
        const auto sidx = static_cast<std::size_t>(r.shard);
        if (r.kind == JournalRecord::Kind::kResult) {
          if (sidx >= shards_.size()) {
            std::fprintf(stderr,
                         "cds::dist: journaled result for unknown shard %zu; "
                         "ignored\n",
                         sidx);
            continue;
          }
          if (shards_[sidx].state != State::kPending) continue;
          harness::ShardResult sr;
          std::string why;
          if (!parse(sidx, r.payload, &sr, &why)) {
            std::fprintf(stderr,
                         "cds::dist: journaled result for shard %zu does not "
                         "parse (%s); recomputing\n",
                         sidx, why.c_str());
            continue;
          }
          apply(sidx, std::move(sr));
          ++stats_.replayed_shards;
        } else if (r.kind == JournalRecord::Kind::kFailed &&
                   sidx < shards_.size() &&
                   shards_[sidx].state == State::kPending) {
          // The crashed incarnation recorded this as the shard's final
          // outcome (retry budget spent, or its fork-pool worker died).
          shards_[sidx].state = State::kFailed;
        }
      }
    }
  }
  std::string jerr;
  if (!journal_.open(path, /*truncate=*/!stats_.resumed, &jerr)) {
    std::fprintf(stderr, "cds::dist: %s; continuing without durability\n",
                 jerr.c_str());
    return true;
  }
  journal_.set_chaos(chaos);
  JournalRecord run;
  run.kind = JournalRecord::Kind::kRun;
  run.epoch = stats_.epoch;
  run.shards = planned_;
  run.plan_hash = plan_hash;
  run.bench = b_.name;
  run.config = config;
  run.checker = checker;
  if (!journal_.append(run, &jerr)) {
    std::fprintf(stderr, "cds::dist: %s; continuing without durability\n",
                 jerr.c_str());
    journal_.close_file();
  }
  return true;
}

void ShardTable::journal(const JournalRecord& r) {
  if (!journal_.is_open() || journal_broken_) return;
  std::string jerr;
  if (!journal_.append(r, &jerr)) {
    journal_broken_ = true;
    std::fprintf(stderr,
                 "cds::dist: journal append failed (%s); continuing without "
                 "durability\n",
                 jerr.c_str());
  }
}

bool ShardTable::parse(std::size_t sidx, const std::string& text,
                       harness::ShardResult* sr, std::string* why) const {
  if (!harness::parse_shard_result(text, sr, why)) return false;
  if (sr->stats.preempted &&
      sr->frontier.size() < shards_[sidx].unit.prefix.size()) {
    *why = "frontier shorter than the shard's own prefix";
    return false;
  }
  return true;
}

std::size_t ShardTable::accept(std::size_t sidx, std::uint64_t attempt,
                               const std::string& text,
                               harness::ShardResult sr) {
  if (shards_[sidx].state == State::kDropped) return 0;
  // WAL: the raw (pre-normalization) text is durable before any merge
  // state changes. A crash from here on replays this record and re-derives
  // the exact same minted sub-shards and merge input.
  JournalRecord rec;
  rec.kind = JournalRecord::Kind::kResult;
  rec.shard = sidx;
  rec.attempt = attempt;
  rec.payload = text;
  journal(rec);
  if (sr.stats.preempted) ++stats_.steals;
  const std::size_t minted = apply(sidx, std::move(sr));
  if (minted > 0) {
    // Informational (replay re-mints from the result record itself); lets
    // offline audits cross-check the mint count.
    JournalRecord m;
    m.kind = JournalRecord::Kind::kMint;
    m.shard = sidx;
    m.count = minted;
    journal(m);
  }
  return minted;
}

void ShardTable::fail(std::size_t sidx, std::uint64_t attempt,
                      const std::string& why, bool journaled) {
  if (shards_[sidx].state == State::kDropped) return;
  if (journaled) {
    JournalRecord rec;
    rec.kind = JournalRecord::Kind::kFailed;
    rec.shard = sidx;
    rec.attempt = attempt;
    rec.payload = why;
    journal(rec);
  }
  shards_[sidx].state = State::kFailed;
}

void ShardTable::fold_test(std::size_t test, const mc::ExplorationStats& mc) {
  TestFold& t = tests_[test];
  t.exhausted = t.exhausted && mc.exhausted;
  t.falsified = t.falsified || mc.violations_total > 0;
  t.fatals += mc.engine_fatal_execs;
}

std::size_t ShardTable::apply(std::size_t sidx, harness::ShardResult sr) {
  const std::size_t root = shards_[sidx].root;
  const std::uint64_t cap = opts_.engine.max_executions;
  std::size_t appended = 0;
  if (sr.stats.preempted) {
    // Copy the parent's unit first: push_back may reallocate shards_.
    const harness::ShardUnit parent = shards_[sidx].unit;
    std::vector<std::vector<mc::Choice>> subs =
        mc::split_remaining_frontier(parent.prefix.size(), sr.frontier);
    for (std::size_t k = 0; k < subs.size(); ++k) {
      Shard ns;
      ns.unit = parent;
      ns.unit.prefix = std::move(subs[k]);
      // Fresh derived seed per sub-shard; the sampling budget stays the
      // parent's (already divided) share — sub-shards jointly re-cover the
      // parent's unexplored remainder, not a new tranche.
      ns.unit.engine_seed = support::derive_seed(
          parent.engine_seed, 1000 + static_cast<std::uint64_t>(k));
      ns.root = root;
      shards_.push_back(std::move(ns));
    }
    appended = subs.size();
    // The partial result's counters are exact for the executions it
    // explored; the remainder is now the sub-shards' job. The engine
    // reports exhausted=false on preemption, which must not poison the
    // test-level AND.
    sr.stats.preempted = false;
    sr.stats.stopped_early = false;
    sr.stats.exhausted = true;
    if (cap != 0 && held_.count(root) == 0) held_[root].mc.exhausted = true;
  }
  Shard& sh = shards_[sidx];
  sh.state = State::kDone;
  sh.violations = std::move(sr.violations);
  sh.reports = std::move(sr.reports);
  const auto held = sh.whole ? held_.end() : held_.find(root);
  if (held == held_.end()) {
    harness::fold_counters(total_, sr.stats, sr.spec, sr.metrics);
    fold_test(sh.unit.test_index, sr.stats);
    return appended;
  }
  harness::RunResult& h = held->second;
  harness::fold_counters(h, sr.stats, sr.spec, sr.metrics);
  if (!h.mc.hit_execution_cap && h.mc.executions < cap) return appended;
  // The pieces reach the cap. The undisturbed planned shard stops at its
  // cap-th execution (reporting the cap hit even if that one was its
  // last), part-way through some piece, so drop the pieces and re-run it
  // whole.
  held_.erase(held);
  Shard redo;
  redo.unit = shards_[root].unit;
  redo.root = root;
  redo.whole = true;
  for (Shard& s : shards_) {
    if (s.root != root) continue;
    s.state = State::kDropped;
    s.violations.clear();
    s.reports.clear();
  }
  shards_.push_back(std::move(redo));
  return appended + 1;
}

harness::RunResult ShardTable::finish() {
  for (const auto& [root, h] : held_) {
    harness::fold_counters(total_, h.mc, h.spec, h.metrics);
    fold_test(shards_[root].unit.test_index, h.mc);
  }
  held_.clear();
  harness::RunResult total = std::move(total_);
  for (std::size_t i = 0; i < tests_.size(); ++i) {
    // Serial DFS order: a preempted parent's prefix is a proper prefix of
    // its sub-shards' and sorts first, so the first violations and reports
    // and the caps on both come out exactly as in an undisturbed serial
    // run, where one engine and one checker see the whole unit test.
    std::vector<std::size_t> order;
    for (std::size_t sidx = 0; sidx < shards_.size(); ++sidx) {
      if (shards_[sidx].unit.test_index == i) order.push_back(sidx);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                       return mc::prefix_dfs_less(shards_[x].unit.prefix,
                                                  shards_[y].unit.prefix);
                     });
    std::uint64_t unfinished = 0;
    std::uint64_t recorded = 0;
    std::uint64_t reported = 0;
    for (std::size_t sidx : order) {
      Shard& s = shards_[sidx];
      if (s.state == State::kDropped) continue;
      if (s.state != State::kDone) {
        ++unfinished;
        continue;
      }
      for (mc::Violation& v : s.violations) {
        if (opts_.engine.max_recorded_violations != 0 &&
            recorded >= opts_.engine.max_recorded_violations) {
          break;
        }
        total.violations.push_back(std::move(v));
        ++recorded;
      }
      for (std::string& rep : s.reports) {
        if (reported >= opts_.checker.max_reports) break;
        total.reports.push_back(std::move(rep));
        ++reported;
      }
    }
    const TestFold& t = tests_[i];
    const bool exhausted = t.exhausted && unfinished == 0;
    const mc::Verdict tv =
        t.falsified ? mc::Verdict::kFalsified
                    : (exhausted && t.fatals == 0
                           ? mc::Verdict::kVerifiedExhaustive
                           : mc::Verdict::kInconclusive);
    harness::weaken_verdict(total.verdict, tv);
    total.mc.exhausted = total.mc.exhausted && exhausted;
  }
  total.mc.verdict = total.verdict;
  JournalRecord done;
  done.kind = JournalRecord::Kind::kDone;
  done.verdict = static_cast<std::uint64_t>(total.verdict);
  journal(done);
  return total;
}

}  // namespace cds::dist
