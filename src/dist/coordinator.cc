#include "dist/coordinator.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dist/journal.h"
#include "dist/net.h"
#include "dist/protocol.h"
#include "harness/shard_result.h"
#include "mc/shard.h"
#include "support/io.h"
#include "support/rng.h"

#if defined(__unix__) || defined(__APPLE__)
#define CDS_DIST_COORD_POSIX 1
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace cds::dist {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One schedulable unit of work. Retries reuse the same Shard (same unit,
// same seed — bit-identical re-exploration); work stealing appends fresh
// Shards minted from a preempted shard's frontier.
struct Shard {
  enum class State { kPending, kRunning, kDone, kFailed };
  State state = State::kPending;
  std::size_t test_index = 0;
  harness::ShardUnit unit;
  int attempts = 0;           // assignments handed out so far
  double next_eligible = 0.0; // backoff gate for the next assignment
  double assigned_at = 0.0;   // of the current attempt (steal-age)
  int last_fd = -1;           // connection of the latest attempt
  bool stolen = false;        // one preemption request per attempt
  harness::ShardResult result;  // valid when kDone
};

struct Conn {
  int fd = -1;
  FrameBuffer buf;
  bool greeted = false;        // hello seen, welcome sent
  std::uint64_t attempt = 0;   // attempt this worker believes it holds
  bool reading_payload = false;
  std::uint64_t payload_attempt = 0;
  std::uint64_t payload_len = 0;
  bool dead = false;
};

struct Attempt {
  std::size_t shard = 0;
  int fd = -1;
  double lease_expiry = 0.0;
};

// Strict parse plus the sanity check that ties a preempted result's
// frontier back to the shard's own prefix. Shared by the live accept
// path and journal replay, so both trust exactly the same payloads.
bool parse_shard_payload(const Shard& s, const std::string& text,
                         harness::ShardResult* sr, std::string* why) {
  if (!harness::parse_shard_result(text, sr, why)) return false;
  if (sr->stats.preempted && sr->frontier.size() < s.unit.prefix.size()) {
    *why = "frontier shorter than the shard's own prefix";
    return false;
  }
  return true;
}

// Applies a validated result to the shard table: a preempted (stolen)
// shard mints sub-shards covering the unexplored remainder of its
// subtree, then the (normalized) partial result is stored. Pure given
// (shards, sidx, sr) — split_remaining_frontier and derive_seed are
// deterministic — so journal replay re-mints the exact sub-shard
// sequence the crashed incarnation minted. Returns the minted count.
std::size_t apply_shard_result(std::vector<Shard>& shards, std::size_t sidx,
                               harness::ShardResult sr, DistRunResult& dr) {
  std::size_t minted = 0;
  if (sr.stats.preempted) {
    // Copy the parent's fields first: each push_back below may
    // reallocate `shards`, invalidating references into it.
    const std::size_t parent_test = shards[sidx].test_index;
    const harness::ShardUnit parent_unit = shards[sidx].unit;
    std::vector<std::vector<mc::Choice>> subs =
        mc::split_remaining_frontier(parent_unit.prefix.size(), sr.frontier);
    for (std::size_t k = 0; k < subs.size(); ++k) {
      Shard ns;
      ns.test_index = parent_test;
      ns.unit = parent_unit;
      ns.unit.prefix = std::move(subs[k]);
      // Fresh derived seed per sub-shard; the sampling budget stays the
      // parent's (already divided) share — sub-shards jointly re-cover
      // the parent's unexplored remainder, not a new tranche.
      ns.unit.engine_seed = support::derive_seed(
          parent_unit.engine_seed, 1000 + static_cast<std::uint64_t>(k));
      shards.push_back(std::move(ns));
      ++dr.steal_subshards;
      ++dr.shards;
    }
    minted = subs.size();
    // The partial result's counters are exact for the executions it
    // explored; coverage of the remainder is now the sub-shards' job.
    // The engine conservatively reports exhausted=false on preemption,
    // which must not poison the test-level AND.
    sr.stats.preempted = false;
    sr.stats.stopped_early = false;
    sr.stats.exhausted = true;
  }
  Shard& sh = shards[sidx];
  sh.result = std::move(sr);
  sh.state = Shard::State::kDone;
  return minted;
}

// Replays a loaded journal against a freshly planned shard table (the
// header has already been validated against this plan). Completed
// shards are satisfied from their journaled payloads; minting replays
// implicitly because apply_shard_result is deterministic. Lease records
// are informational — an in-flight shard simply stays kPending and is
// re-enqueued under the new epoch.
void replay_journal(const JournalReplay& rep, std::vector<Shard>& shards,
                    DistRunResult& dr) {
  for (const JournalRecord& r : rep.records) {
    switch (r.kind) {
      case JournalRecord::Kind::kRun:
      case JournalRecord::Kind::kLease:
      case JournalRecord::Kind::kMint:
      case JournalRecord::Kind::kDone:
        break;
      case JournalRecord::Kind::kResult: {
        const auto sidx = static_cast<std::size_t>(r.shard);
        if (sidx >= shards.size()) {
          std::fprintf(stderr,
                       "cds::dist: journaled result for unknown shard %zu; "
                       "ignored\n",
                       sidx);
          break;
        }
        if (shards[sidx].state == Shard::State::kDone) break;
        harness::ShardResult sr;
        std::string why;
        if (!parse_shard_payload(shards[sidx], r.payload, &sr, &why)) {
          std::fprintf(stderr,
                       "cds::dist: journaled result for shard %zu does not "
                       "parse (%s); recomputing\n",
                       sidx, why.c_str());
          break;
        }
        apply_shard_result(shards, sidx, std::move(sr), dr);
        ++dr.replayed_shards;
        break;
      }
      case JournalRecord::Kind::kFailed: {
        // A journaled permanent failure is a completed outcome: the
        // crashed incarnation already spent the retry budget.
        const auto sidx = static_cast<std::size_t>(r.shard);
        if (sidx >= shards.size()) break;
        Shard& s = shards[sidx];
        if (s.state == Shard::State::kDone ||
            s.state == Shard::State::kFailed) {
          break;
        }
        s.state = Shard::State::kFailed;
        ++dr.failed_shards;
        break;
      }
    }
  }
}

struct Coordinator {
  const harness::Benchmark& b;
  const harness::RunOptions& opts;
  const DistOptions& d;
  DistRunResult& dr;
  std::vector<Shard>& shards;

  std::vector<Conn> conns;
  std::map<std::uint64_t, Attempt> live;  // attempt id -> lease
  std::uint64_t attempt_counter = 0;
  std::uint64_t current_workers = 0;
  double last_worker_seen = 0.0;
  // Write-ahead journal (null/closed = no durability) and this
  // incarnation's epoch. Attempt ids embed the epoch in their high 32
  // bits so a resumed coordinator's fresh ids can never collide with
  // ids a surviving worker still holds from the crashed incarnation.
  JournalWriter* journal = nullptr;
  std::uint64_t epoch = 0;
  bool journal_broken = false;

  // Journal appends are write-ahead but non-fatal: if the disk fails
  // mid-run the coordinator degrades to non-durable and keeps going.
  void jappend(const JournalRecord& r) {
    if (journal == nullptr || !journal->is_open() || journal_broken) return;
    std::string jerr;
    if (!journal->append(r, &jerr)) {
      journal_broken = true;
      std::fprintf(stderr,
                   "cds::dist: journal append failed (%s); continuing "
                   "without durability\n",
                   jerr.c_str());
    }
  }

  [[nodiscard]] bool all_resolved() const {
    for (const Shard& s : shards) {
      if (s.state != Shard::State::kDone && s.state != Shard::State::kFailed) {
        return false;
      }
    }
    return true;
  }

  double backoff_for(const Shard& s, std::uint64_t attempt_id) const {
    double base = d.retry_backoff_seconds;
    for (int i = 1; i < s.attempts; ++i) base *= 2.0;
    support::Xorshift64 rng(support::derive_seed(
        opts.engine.seed, attempt_id ^ static_cast<std::uint64_t>(s.attempts)));
    const double jitter =
        static_cast<double>(rng.next() >> 11) * 0x1.0p-53;  // [0, 1)
    return base * (1.0 + jitter);
  }

  // The current attempt is gone (failure report, connection loss, lease
  // expiry, corrupt result): back the shard off for a retry, or record it
  // as a contained permanent failure once the retry budget is spent.
  void schedule_retry(std::size_t sidx, std::uint64_t attempt_id,
                      const char* why) {
    Shard& s = shards[sidx];
    if (s.state != Shard::State::kRunning) return;
    if (s.attempts >= d.max_shard_retries + 1) {
      s.state = Shard::State::kFailed;
      ++dr.failed_shards;
      record_permanent_failure(sidx, attempt_id, why);
      std::fprintf(stderr,
                   "cds::dist: shard %zu (test %zu) failed permanently "
                   "after %d attempts (last: %s)\n",
                   sidx, s.test_index, s.attempts, why);
      return;
    }
    s.state = Shard::State::kPending;
    s.next_eligible = now_seconds() + backoff_for(s, attempt_id);
    ++dr.retries;
  }

  void record_permanent_failure(std::size_t sidx, std::uint64_t attempt_id,
                                const char* why) {
    JournalRecord rec;
    rec.kind = JournalRecord::Kind::kFailed;
    rec.shard = sidx;
    rec.attempt = attempt_id;
    rec.payload = why;
    jappend(rec);
  }

  void drop_conn(Conn& c, const char* why) {
    if (c.dead) return;
    c.dead = true;
    if (c.greeted && current_workers > 0) --current_workers;
    last_worker_seen = now_seconds();
    auto it = live.find(c.attempt);
    if (c.attempt != 0 && it != live.end() && it->second.fd == c.fd) {
      const std::size_t sidx = it->second.shard;
      const std::uint64_t id = c.attempt;
      live.erase(it);
      schedule_retry(sidx, id, why);
    }
    close(c.fd);
    c.fd = -1;
  }

  bool send_to(Conn& c, const std::string& bytes, const char* what) {
    if (support::write_full(c.fd, bytes)) return true;
    std::fprintf(stderr, "cds::dist: send of %s failed (%s); dropping worker\n",
                 what, std::strerror(errno));
    drop_conn(c, "send failed");
    return false;
  }

  // A complete, in-lease result arrived for `sidx`: parse strictly,
  // journal the raw payload write-ahead, then apply (for a preempted
  // shard, minting sub-shards covering the unexplored remainder).
  void accept_result(std::size_t sidx, std::uint64_t attempt_id,
                     const std::string& text) {
    harness::ShardResult sr;
    std::string err;
    if (!parse_shard_payload(shards[sidx], text, &sr, &err)) {
      ++dr.corrupt_results;
      std::fprintf(stderr,
                   "cds::dist: shard %zu returned a corrupt result (%s); "
                   "retrying\n",
                   sidx, err.c_str());
      schedule_retry(sidx, attempt_id, "corrupt result");
      return;
    }
    // WAL: the raw (pre-normalization) payload is durable before any
    // merge state changes. A crash from here on replays this record and
    // re-derives the exact same minted sub-shards and merge input.
    JournalRecord rec;
    rec.kind = JournalRecord::Kind::kResult;
    rec.shard = sidx;
    rec.attempt = attempt_id;
    rec.payload = text;
    jappend(rec);
    const std::size_t minted = apply_shard_result(shards, sidx, std::move(sr),
                                                  dr);
    if (minted > 0) {
      // Informational (replay re-mints from the result record itself);
      // lets offline audits cross-check the mint count.
      JournalRecord m;
      m.kind = JournalRecord::Kind::kMint;
      m.shard = sidx;
      m.count = minted;
      jappend(m);
    }
  }

  // An attempt id minted by a previous coordinator incarnation carries
  // that incarnation's epoch in its high bits; count such reports as
  // fenced (the restart-safety property at work) rather than stale.
  void count_dropped(std::uint64_t attempt_id) {
    if (epoch != 0 && (attempt_id >> 32) != epoch) {
      ++dr.fenced_results;
    } else {
      ++dr.stale_results;
    }
  }

  void handle_payload(Conn& c, const std::string& text) {
    auto it = live.find(c.payload_attempt);
    if (it != live.end() && it->second.fd == c.fd) {
      const std::size_t sidx = it->second.shard;
      live.erase(it);
      if (c.attempt == c.payload_attempt) c.attempt = 0;
      accept_result(sidx, c.payload_attempt, text);
    } else {
      count_dropped(c.payload_attempt);
      if (c.attempt == c.payload_attempt) c.attempt = 0;
    }
  }

  void handle_line(Conn& c, const std::string& line) {
    ControlLine msg;
    std::string err;
    if (!parse_control_line(line, &msg, &err)) {
      std::fprintf(stderr, "cds::dist: protocol error from worker (%s); "
                   "dropping connection\n",
                   err.c_str());
      drop_conn(c, "protocol error");
      return;
    }
    switch (msg.kind) {
      case ControlLine::Kind::kHello: {
        if (c.greeted) break;  // duplicate hello: harmless
        const std::uint64_t hb_us = static_cast<std::uint64_t>(
            std::max(0.001, d.lease_seconds / 3.0) * 1e6);
        if (!send_to(c, render_welcome(hb_us, epoch), "welcome")) return;
        c.greeted = true;
        ++dr.connections_total;
        ++current_workers;
        last_worker_seen = now_seconds();
        dr.workers_connected = std::max(dr.workers_connected, current_workers);
        break;
      }
      case ControlLine::Kind::kHeartbeat:
        // Lease renewal happens generically on any traffic from the
        // attempt's owner (see on_readable); a heartbeat for a revoked
        // attempt is simply ignored — its result will be dropped stale.
        break;
      case ControlLine::Kind::kResult:
        if (msg.payload_len > FrameBuffer::kMaxPayload) {
          drop_conn(c, "oversized result payload");
          return;
        }
        c.reading_payload = true;
        c.payload_attempt = msg.shard_id;
        c.payload_len = msg.payload_len;
        break;
      case ControlLine::Kind::kFailed: {
        auto it = live.find(msg.shard_id);
        if (it != live.end() && it->second.fd == c.fd) {
          const std::size_t sidx = it->second.shard;
          live.erase(it);
          schedule_retry(sidx, msg.shard_id, msg.reason.c_str());
        } else {
          count_dropped(msg.shard_id);
        }
        if (c.attempt == msg.shard_id) c.attempt = 0;
        break;
      }
      default:
        // welcome/assign/steal/quit are coordinator->worker verbs.
        drop_conn(c, "unexpected verb from worker");
        return;
    }
  }

  void on_readable(Conn& c) {
    char tmp[65536];
    long got = support::read_some(c.fd, tmp, sizeof tmp);
    if (got <= 0) {
      drop_conn(c, "connection lost");
      return;
    }
    c.buf.append(tmp, static_cast<std::size_t>(got));
    // Any traffic from the owner of a live attempt renews its lease —
    // heartbeats, but also a large result payload trickling in.
    auto it = live.find(c.attempt);
    if (c.attempt != 0 && it != live.end() && it->second.fd == c.fd) {
      it->second.lease_expiry = now_seconds() + d.lease_seconds;
    }
    std::string line;
    while (!c.dead) {
      if (c.reading_payload) {
        std::string payload;
        if (!c.buf.take(static_cast<std::size_t>(c.payload_len), &payload)) {
          break;  // wait for more bytes
        }
        c.reading_payload = false;
        handle_payload(c, payload);
        continue;
      }
      if (!c.buf.next_line(&line)) break;
      handle_line(c, line);
    }
    if (!c.dead && c.buf.overflowed()) drop_conn(c, "oversized frame");
  }

  void sweep_leases() {
    const double now = now_seconds();
    for (auto it = live.begin(); it != live.end();) {
      if (now > it->second.lease_expiry) {
        ++dr.leases_expired;
        const std::size_t sidx = it->second.shard;
        const std::uint64_t id = it->first;
        it = live.erase(it);
        // The worker's conn keeps its (now revoked) attempt id: it stays
        // out of the idle pool until its late report arrives and is
        // dropped as stale.
        schedule_retry(sidx, id, "lease expired");
      } else {
        ++it;
      }
    }
  }

  [[nodiscard]] bool other_worker_idle(const Conn& c) const {
    for (const Conn& o : conns) {
      if (&o != &c && !o.dead && o.greeted && o.attempt == 0) return true;
    }
    return false;
  }

  void assign_ready() {
    const double now = now_seconds();
    for (Conn& c : conns) {
      if (c.dead || !c.greeted || c.attempt != 0) continue;
      // First ready pending shard in queue order: planned shards are in
      // test-then-DFS order and stolen sub-shards append after their
      // parent, which keeps assignment close to serial DFS order. A
      // retried shard skips the worker that lost its last attempt while
      // another worker is idle: a worker that keeps losing it (a muted
      // one, say) would otherwise spend the shard's whole retry budget.
      const bool other_idle = other_worker_idle(c);
      std::size_t pick = shards.size();
      for (std::size_t sidx = 0; sidx < shards.size(); ++sidx) {
        const Shard& s = shards[sidx];
        if (s.state != Shard::State::kPending || s.next_eligible > now) {
          continue;
        }
        if (other_idle && s.last_fd == c.fd) continue;
        pick = sidx;
        break;
      }
      if (pick == shards.size()) continue;
      Shard& s = shards[pick];
      Assignment asg;
      // High 32 bits: this incarnation's epoch. The counter restarts at
      // zero after a crash, so without the epoch a resumed run would
      // re-mint ids that fenced-off workers still hold.
      asg.shard_id = (epoch << 32) | ++attempt_counter;
      asg.bench = b.name;
      asg.unit = s.unit;
      asg.engine = opts.engine;
      asg.checker = opts.checker;
      const std::string payload = render_assignment(asg);
      s.state = Shard::State::kRunning;
      ++s.attempts;
      s.assigned_at = now;
      s.last_fd = c.fd;
      s.stolen = false;
      live[asg.shard_id] = Attempt{pick, c.fd, now + d.lease_seconds};
      c.attempt = asg.shard_id;
      // Journaled before the assignment leaves: a resumed coordinator
      // sees which shards were in flight (they re-enqueue as pending).
      JournalRecord lease;
      lease.kind = JournalRecord::Kind::kLease;
      lease.shard = pick;
      lease.attempt = asg.shard_id;
      jappend(lease);
      if (!send_to(c, render_assign_header(asg.shard_id, payload.size()) +
                          payload,
                   "assignment")) {
        continue;  // drop_conn already revoked + rescheduled
      }
    }
  }

  void maybe_steal() {
    if (!d.enable_steal) return;
    bool idle = false;
    for (const Conn& c : conns) {
      if (!c.dead && c.greeted && c.attempt == 0) idle = true;
    }
    if (!idle) return;
    for (const Shard& s : shards) {
      if (s.state == Shard::State::kPending) return;  // queue not dry
    }
    const double now = now_seconds();
    const double steal_after =
        d.steal_after_seconds > 0 ? d.steal_after_seconds
                                  : d.lease_seconds / 2.0;
    std::uint64_t victim = 0;
    double oldest = now;
    for (const auto& [id, at] : live) {
      const Shard& s = shards[at.shard];
      if (s.state != Shard::State::kRunning || s.stolen) continue;
      if (now - s.assigned_at < steal_after) continue;
      if (s.assigned_at < oldest) {
        oldest = s.assigned_at;
        victim = id;
      }
    }
    if (victim == 0) return;
    const Attempt at = live[victim];
    for (Conn& c : conns) {
      if (!c.dead && c.fd == at.fd) {
        if (send_to(c, render_steal(victim), "steal")) {
          shards[at.shard].stolen = true;
          ++dr.steals;
        }
        return;
      }
    }
  }
};

void merge_shards(const harness::Benchmark& b, const harness::RunOptions& opts,
                  std::vector<Shard>& shards, DistRunResult& dr) {
  harness::RunResult& total = dr.merged;
  total.mc.seed = opts.engine.seed;
  total.mc.exhausted = true;
  for (std::size_t i = 0; i < b.tests.size(); ++i) {
    // Merge in serial DFS order: stolen sub-shards were appended out of
    // order, so sort this test's shards by subtree-prefix DFS order. A
    // preempted parent's prefix is a proper prefix of its sub-shards' and
    // therefore sorts first — violations and the record cap behave exactly
    // as in an undisturbed serial run.
    std::vector<std::size_t> order;
    for (std::size_t sidx = 0; sidx < shards.size(); ++sidx) {
      if (shards[sidx].test_index == i) order.push_back(sidx);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                       return mc::prefix_dfs_less(shards[x].unit.prefix,
                                                  shards[y].unit.prefix);
                     });
    bool test_exhausted = true;
    bool test_falsified = false;
    std::uint64_t test_fatals = 0;
    std::uint64_t failed_here = 0;
    std::uint64_t recorded_here = 0;
    for (std::size_t sidx : order) {
      Shard& s = shards[sidx];
      if (s.state != Shard::State::kDone) {
        ++failed_here;
        test_exhausted = false;
        continue;
      }
      harness::ShardResult& sr = s.result;
      mc::merge_shard_stats(total.mc, sr.stats);
      test_exhausted = test_exhausted && sr.stats.exhausted;
      test_falsified = test_falsified || sr.stats.violations_total > 0;
      test_fatals += sr.stats.engine_fatal_execs;
      total.spec.executions_checked += sr.spec.executions_checked;
      total.spec.inadmissible_execs += sr.spec.inadmissible_execs;
      total.spec.assertion_violation_execs +=
          sr.spec.assertion_violation_execs;
      total.spec.histories_checked += sr.spec.histories_checked;
      total.spec.justification_checks += sr.spec.justification_checks;
      total.spec.history_cap_hit |= sr.spec.history_cap_hit;
      total.spec.r_cycle_seen |= sr.spec.r_cycle_seen;
      total.metrics.merge(sr.metrics);
      for (mc::Violation& v : sr.violations) {
        if (opts.engine.max_recorded_violations != 0 &&
            recorded_here >= opts.engine.max_recorded_violations) {
          break;
        }
        total.violations.push_back(std::move(v));
        ++recorded_here;
      }
      for (std::string& rep : sr.reports) {
        total.reports.push_back(std::move(rep));
      }
    }
    mc::Verdict tv =
        test_falsified
            ? mc::Verdict::kFalsified
            : (test_exhausted && test_fatals == 0 && failed_here == 0
                   ? mc::Verdict::kVerifiedExhaustive
                   : mc::Verdict::kInconclusive);
    harness::weaken_verdict(total.verdict, tv);
    total.mc.exhausted = total.mc.exhausted && test_exhausted;
  }
  total.mc.verdict = total.verdict;
}

// Runs every still-unresolved shard on the local fork pool (the graceful
// degradation path, and the whole path on platforms without sockets).
// With an open journal, every unit outcome is journaled the moment the
// pool reports it — write-ahead of this function's own bookkeeping — so
// a crash mid-fallback resumes without redoing finished shards.
void run_remaining_locally(const harness::Benchmark& b,
                           const harness::RunOptions& opts,
                           const DistOptions& d, std::vector<Shard>& shards,
                           DistRunResult& dr, JournalWriter* journal) {
  std::vector<std::size_t> remaining;
  for (std::size_t sidx = 0; sidx < shards.size(); ++sidx) {
    Shard::State st = shards[sidx].state;
    if (st == Shard::State::kPending || st == Shard::State::kRunning) {
      remaining.push_back(sidx);
    }
  }
  if (remaining.empty()) return;
  dr.fell_back_local = true;
  mc::ForkMapOptions fm;
  fm.jobs = d.fallback_jobs > 0 ? d.fallback_jobs : std::max(1, d.dist_workers);
  if (journal != nullptr && journal->is_open()) {
    fm.on_result = [&](std::size_t u, const mc::UnitResult& ur) {
      JournalRecord rec;
      rec.shard = remaining[u];
      rec.attempt = 0;  // fork-pool units run under no lease
      if (ur.ran) {
        // Journal only payloads replay will trust; a corrupt one is
        // recomputed on resume, same as it is recomputed below.
        harness::ShardResult sr;
        std::string why;
        if (!parse_shard_payload(shards[remaining[u]], ur.text, &sr, &why) ||
            sr.stats.preempted) {
          return;
        }
        rec.kind = JournalRecord::Kind::kResult;
        rec.payload = ur.text;
      } else {
        rec.kind = JournalRecord::Kind::kFailed;
        rec.payload = "local fork-pool worker died";
      }
      std::string jerr;
      if (!journal->append(rec, &jerr)) {
        std::fprintf(stderr,
                     "cds::dist: journal append failed (%s); continuing "
                     "without durability\n",
                     jerr.c_str());
      }
    };
  }
  std::vector<mc::UnitResult> results = mc::fork_map(
      remaining.size(),
      [&](std::size_t u) {
        return harness::run_shard_unit(b, opts, shards[remaining[u]].unit);
      },
      fm);
  for (std::size_t u = 0; u < remaining.size(); ++u) {
    Shard& s = shards[remaining[u]];
    harness::ShardResult sr;
    std::string err;
    if (!results[u].ran) {
      s.state = Shard::State::kFailed;
      ++dr.failed_shards;
      continue;
    }
    // No stop_request in the fallback pool: a preempted result here is as
    // impossible as in the parallel path, so treat it as corrupt.
    if (!harness::parse_shard_result(results[u].text, &sr, &err) ||
        sr.stats.preempted) {
      std::fprintf(stderr,
                   "cds::dist: local fallback shard %zu returned a corrupt "
                   "result (%s)\n",
                   remaining[u], err.c_str());
      ++dr.corrupt_results;
      s.state = Shard::State::kFailed;
      ++dr.failed_shards;
      continue;
    }
    s.result = std::move(sr);
    s.state = Shard::State::kDone;
  }
}

}  // namespace

DistRunResult run_benchmark_distributed(const harness::Benchmark& b,
                                        const harness::RunOptions& opts,
                                        const DistOptions& d) {
  DistRunResult dr;
  support::SigpipeIgnoreScope sigpipe_guard;

  // Plan shards exactly as the parallel path does: same prefixes, same
  // derived seeds, same sampling split — a distributed run explores the
  // same partition of the same trees.
  std::vector<Shard> shards;
  const std::size_t max_shards =
      d.max_shards != 0
          ? d.max_shards
          : static_cast<std::size_t>(std::max(1, d.dist_workers)) * 4;
  for (std::size_t i = 0; i < b.tests.size(); ++i) {
    mc::Config pcfg = opts.engine;
    pcfg.test_name = b.name + "#" + std::to_string(i);
    pcfg.test_index = static_cast<std::uint32_t>(i);
    mc::ShardPlan plan = mc::enumerate_shard_prefixes(
        pcfg, b.tests[i], d.shard_depth, max_shards);
    dr.probe_executions += plan.probe_executions;
    const std::size_t shard_count = plan.prefixes.size();
    for (std::size_t u = 0; u < shard_count; ++u) {
      Shard s;
      s.test_index = i;
      s.unit = harness::make_shard_unit(opts, i, std::move(plan.prefixes[u]),
                                        u, shard_count);
      shards.push_back(std::move(s));
    }
  }
  dr.shards = shards.size();

  // ---- Durability: journal replay (--resume) and the write-ahead log ----
  JournalWriter journal;
  std::uint64_t epoch = 0;
  if (!d.journal_path.empty()) {
    // Hash the freshly planned units BEFORE replay mints sub-shards:
    // this is the identity a later resume re-derives and compares.
    std::vector<harness::ShardUnit> planned;
    planned.reserve(shards.size());
    for (const Shard& s : shards) planned.push_back(s.unit);
    const std::uint32_t plan_hash = journal_plan_hash(planned);
    const std::uint32_t fp = journal_config_fingerprint(opts.engine);
    epoch = 1;
    if (d.resume) {
      JournalReplay rep;
      std::string jerr;
      if (!load_journal(d.journal_path, &rep, &jerr)) {
        std::fprintf(stderr, "cds::dist: %s; starting fresh\n", jerr.c_str());
      }
      dr.journal_quarantined_bytes = rep.quarantined_bytes;
      if (!rep.quarantine_note.empty()) {
        std::fprintf(stderr, "cds::dist: %s\n", rep.quarantine_note.c_str());
      }
      const JournalRecord* hdr = nullptr;
      for (const JournalRecord& r : rep.records) {
        if (r.kind == JournalRecord::Kind::kRun) {
          hdr = &r;
          break;
        }
      }
      if (hdr != nullptr) {
        if (hdr->bench != b.name || hdr->fingerprint != fp ||
            hdr->plan_hash != plan_hash || hdr->shards != planned.size()) {
          dr.resume_error =
              "journal '" + d.journal_path + "' records a different " +
              (hdr->bench != b.name
                   ? "benchmark ('" + hdr->bench + "')"
                   : hdr->fingerprint != fp ? std::string("config fingerprint")
                                            : std::string("shard plan")) +
              "; refusing to merge incompatible shards (delete the journal "
              "or rerun with the original parameters)";
          dr.merged.verdict = mc::Verdict::kInconclusive;
          dr.merged.mc.verdict = dr.merged.verdict;
          return dr;
        }
        dr.resumed = true;
        epoch = rep.last_epoch + 1;
        replay_journal(rep, shards, dr);
      }
      // A resume against a missing or headerless journal starts fresh —
      // convenient for "always pass --resume" retry loops.
    }
    std::string jerr;
    if (!journal.open(d.journal_path, /*truncate=*/!dr.resumed, &jerr)) {
      std::fprintf(stderr,
                   "cds::dist: %s; continuing without durability\n",
                   jerr.c_str());
    } else {
      journal.set_chaos(d.coord_chaos);
      JournalRecord run;
      run.kind = JournalRecord::Kind::kRun;
      run.epoch = epoch;
      run.shards = planned.size();
      run.plan_hash = plan_hash;
      run.fingerprint = fp;
      run.bench = b.name;
      if (!journal.append(run, &jerr)) {
        std::fprintf(stderr,
                     "cds::dist: %s; continuing without durability\n",
                     jerr.c_str());
        journal.close_file();
      }
    }
  }
  dr.epoch = epoch;

  // After replay everything may already be resolved; don't spin up
  // sockets and workers just to have the main loop exit instantly.
  bool need_work = false;
  for (const Shard& s : shards) {
    if (s.state == Shard::State::kPending ||
        s.state == Shard::State::kRunning) {
      need_work = true;
    }
  }

#ifdef CDS_DIST_COORD_POSIX
  std::string listen_spec = d.listen;
  bool auto_socket = false;
  if (listen_spec.empty()) {
    listen_spec =
        "unix:/tmp/cdsspec-dist-" + std::to_string(getpid()) + ".sock";
    auto_socket = true;
  }
  Address addr;
  std::string err;
  int listen_fd = -1;
  if (need_work &&
      (!parse_address(listen_spec, &addr, &err) ||
       (listen_fd = listen_on(addr, &err)) < 0)) {
    std::fprintf(stderr,
                 "cds::dist: cannot listen on '%s' (%s); running locally\n",
                 listen_spec.c_str(), err.c_str());
  }
  dr.listen_address = listen_spec;

  std::vector<pid_t> worker_pids;
  if (listen_fd >= 0) {
    BenchmarkResolver resolver = d.resolve;
    if (!resolver) {
      const harness::Benchmark* bp = &b;
      resolver = [bp](const std::string& name) -> const harness::Benchmark* {
        if (name == bp->name) return bp;
        return harness::find_benchmark(name);
      };
    }
    for (int w = 0; w < d.dist_workers; ++w) {
      pid_t pid = fork();
      if (pid < 0) {
        std::fprintf(stderr, "cds::dist: fork of worker %d failed: %s\n", w,
                     std::strerror(errno));
        break;
      }
      if (pid == 0) {
        close(listen_fd);
        WorkerOptions wo;
        wo.connect_timeout_seconds =
            std::max(10.0, d.connect_deadline_seconds * 2.0);
        wo.progress_interval_seconds = d.worker_progress_interval_seconds;
        wo.resolve = resolver;
        if (w == 0) wo.chaos = d.worker_chaos;
        _exit(run_worker(listen_spec, wo));
      }
      worker_pids.push_back(pid);
    }

    Coordinator co{b, opts, d, dr, shards, {}, {}, 0, 0, now_seconds()};
    co.journal = &journal;
    co.epoch = epoch;
    const double start = now_seconds();
    while (!co.all_resolved()) {
      // Graceful degradation: nobody ever connected, or everybody left
      // and stayed away. Revoke what's in flight and finish locally.
      const double now = now_seconds();
      const bool nobody_ever = dr.connections_total == 0 &&
                               now - start > d.connect_deadline_seconds;
      const bool all_gone =
          dr.connections_total > 0 && co.current_workers == 0 &&
          now - co.last_worker_seen > d.connect_deadline_seconds;
      if (nobody_ever || all_gone) {
        std::fprintf(stderr,
                     "cds::dist: %s; falling back to the local fork pool\n",
                     nobody_ever ? "no worker connected within the deadline"
                                 : "all workers gone");
        for (auto& [id, at] : co.live) {
          shards[at.shard].state = Shard::State::kPending;
        }
        co.live.clear();
        break;
      }

      std::vector<pollfd> pfds;
      pfds.push_back(pollfd{listen_fd, POLLIN, 0});
      std::vector<std::size_t> pfd_conn;  // pfds[k+1] -> conns index
      for (std::size_t ci = 0; ci < co.conns.size(); ++ci) {
        if (co.conns[ci].dead) continue;
        pfds.push_back(pollfd{co.conns[ci].fd, POLLIN, 0});
        pfd_conn.push_back(ci);
      }
      // Sleep in poll(2) until the earliest timer the loop acts on, not
      // a fixed tick: socket traffic wakes poll by itself, so the only
      // deadlines are lease expiries, retry-backoff gates, the
      // steal-age threshold, and the graceful-degradation deadline.
      // Capped at 1s so clock surprises can't park the loop for long.
      double wake = now + 1.0;
      const auto consider = [&wake](double t) { wake = std::min(wake, t); };
      if (dr.connections_total == 0) {
        consider(start + d.connect_deadline_seconds);
      }
      if (dr.connections_total > 0 && co.current_workers == 0) {
        consider(co.last_worker_seen + d.connect_deadline_seconds);
      }
      for (const auto& [id, at] : co.live) consider(at.lease_expiry);
      // Only future backoff gates need a timer: an already-eligible
      // pending shard is assigned the moment a worker turns idle, and
      // workers turn idle via socket traffic or a lease expiry — both
      // of which wake poll on their own.
      for (const Shard& s : shards) {
        if (s.state == Shard::State::kPending && s.next_eligible > now) {
          consider(s.next_eligible);
        }
      }
      if (d.enable_steal) {
        const double steal_after = d.steal_after_seconds > 0
                                       ? d.steal_after_seconds
                                       : d.lease_seconds / 2.0;
        for (const auto& [id, at] : co.live) {
          const Shard& s = shards[at.shard];
          if (s.state == Shard::State::kRunning && !s.stolen) {
            consider(s.assigned_at + steal_after);
          }
        }
      }
      const int timeout_ms = std::clamp(
          static_cast<int>((wake - now) * 1000.0) + 1, 1, 1000);
      int rc = poll(pfds.data(), pfds.size(), timeout_ms);
      if (rc < 0 && errno != EINTR) break;

      if (rc > 0 && (pfds[0].revents & POLLIN) != 0) {
        int fd = accept_conn(listen_fd);
        if (fd >= 0) {
          Conn c;
          c.fd = fd;
          co.conns.push_back(std::move(c));
        }
      }
      for (std::size_t k = 0; k < pfd_conn.size(); ++k) {
        if ((pfds[k + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        Conn& c = co.conns[pfd_conn[k]];
        if (!c.dead) co.on_readable(c);
      }
      co.conns.erase(std::remove_if(co.conns.begin(), co.conns.end(),
                                    [](const Conn& c) { return c.dead; }),
                     co.conns.end());

      co.sweep_leases();
      co.assign_ready();
      co.maybe_steal();
    }

    for (Conn& c : co.conns) {
      if (c.dead) continue;
      (void)support::write_full(c.fd, render_quit());
      close(c.fd);
    }
    close(listen_fd);
    if (auto_socket) unlink(addr.path.c_str());

    // Reap forked workers: quit/EOF ends them promptly; SIGKILL the rest
    // (hung, or parked in a reconnect dial loop) after a short grace.
    for (int pass = 0; pass < 2; ++pass) {
      for (pid_t& pid : worker_pids) {
        if (pid <= 0) continue;
        for (int spin = 0; spin < 50; ++spin) {
          int status = 0;
          pid_t got = waitpid(pid, &status, WNOHANG);
          if (got == pid || (got < 0 && errno == ECHILD)) {
            pid = -1;
            break;
          }
          if (pass == 0) break;  // first pass: one WNOHANG probe only
          usleep(20 * 1000);
        }
        if (pass == 1 && pid > 0) {
          kill(pid, SIGKILL);
          int status = 0;
          waitpid(pid, &status, 0);
          pid = -1;
        }
      }
    }
  }
#else
  (void)need_work;
  dr.listen_address = d.listen;
#endif

  // Anything unresolved (no sockets on this platform, listen failure,
  // fallback trigger) finishes on the local fork pool.
  run_remaining_locally(b, opts, d, shards, dr, &journal);
  merge_shards(b, opts, shards, dr);
  if (journal.is_open()) {
    JournalRecord done;
    done.kind = JournalRecord::Kind::kDone;
    done.verdict = static_cast<std::uint64_t>(dr.merged.verdict);
    std::string jerr;
    if (!journal.append(done, &jerr)) {
      std::fprintf(stderr, "cds::dist: %s\n", jerr.c_str());
    }
  }

  obs::Registry& M = dr.merged.metrics;
  M.gauge("dist.workers_requested")
      .set(static_cast<std::uint64_t>(std::max(0, d.dist_workers)));
  M.gauge("dist.workers_connected_peak").set(dr.workers_connected);
  M.gauge("dist.connections_total").set(dr.connections_total);
  M.gauge("dist.shards").set(dr.shards);
  M.gauge("dist.probe_executions").set(dr.probe_executions);
  M.gauge("dist.retries").set(dr.retries);
  M.gauge("dist.leases_expired").set(dr.leases_expired);
  M.gauge("dist.steals").set(dr.steals);
  M.gauge("dist.steal_subshards").set(dr.steal_subshards);
  M.gauge("dist.failed_shards").set(dr.failed_shards);
  M.gauge("dist.stale_results").set(dr.stale_results);
  M.gauge("dist.corrupt_results").set(dr.corrupt_results);
  M.gauge("dist.fell_back_local").set(dr.fell_back_local ? 1 : 0);
  M.gauge("dist.epoch").set(dr.epoch);
  M.gauge("dist.resumed").set(dr.resumed ? 1 : 0);
  M.gauge("dist.replayed_shards").set(dr.replayed_shards);
  M.gauge("dist.fenced_results").set(dr.fenced_results);
  M.gauge("dist.journal_quarantined_bytes").set(dr.journal_quarantined_bytes);
  return dr;
}

}  // namespace cds::dist
