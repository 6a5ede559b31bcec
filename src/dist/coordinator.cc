#include "dist/coordinator.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dist/net.h"
#include "dist/protocol.h"
#include "dist/shard_table.h"
#include "harness/parallel.h"
#include "harness/shard_result.h"
#include "inject/inject.h"
#include "mc/shard.h"
#include "support/io.h"
#include "support/rng.h"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace cds::dist {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Conn {
  int fd = -1;
  FrameBuffer buf;
  bool greeted = false;        // hello seen, welcome sent
  std::size_t rank = 0;  // fork index of a local worker; external ones last
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

// Socket scheduling of one shard, indexed like the shard table. Retries
// reuse the same shard (same unit, same seed — bit-identical
// re-exploration).
struct Slot {
  int attempts = 0;            // assignments handed out so far
  double next_eligible = 0.0;  // backoff gate for the next assignment
  double assigned_at = 0.0;    // of the current attempt (steal age)
  int last_fd = -1;            // connection of the latest attempt
};

struct Coordinator {
  const harness::Benchmark& b;
  const harness::RunOptions& opts;
  const DistOptions& d;
  DistRunResult& dr;
  ShardTable& table;
  std::vector<Slot> slots;  // grows as the table mints sub-shards

  std::vector<Conn> conns;
  std::vector<pid_t> local;  // forked local workers, in fork order
  std::map<std::uint64_t, Attempt> live;  // attempt id -> lease
  std::uint64_t attempt_counter = 0;
  std::uint64_t current_workers = 0;
  double last_worker_seen = 0.0;
  // This incarnation's journal epoch. Attempt ids embed it in their high
  // 32 bits so a resumed coordinator's fresh ids can never collide with
  // ids a surviving worker still holds from the crashed incarnation.
  std::uint64_t epoch = 0;
  mc::StealRule steal{};

  // The retry backoff: 50 ms doubled per attempt, plus deterministic
  // jitter derived from the engine seed and attempt id.
  double backoff_for(const Slot& s, std::uint64_t attempt_id) const {
    double base = 0.05;
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
    if (!table.running(sidx)) return;
    Slot& s = slots[sidx];
    if (s.attempts >= d.max_shard_retries + 1) {
      table.fail(sidx, attempt_id, why, /*journaled=*/true);
      std::fprintf(stderr,
                   "cds::dist: shard %zu (test %zu) failed permanently "
                   "after %d attempts (last: %s)\n",
                   sidx, table.unit(sidx).test_index, s.attempts, why);
      return;
    }
    table.requeue(sidx);
    s.next_eligible = now_seconds() + backoff_for(s, attempt_id);
    ++dr.retries;
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

  // A complete, in-lease result arrived for `sidx`: parse strictly, then
  // hand it to the table (journal write-ahead, apply, mint sub-shards for
  // a preempted shard).
  void accept_result(std::size_t sidx, std::uint64_t attempt_id,
                     const std::string& text) {
    harness::ShardResult sr;
    std::string err;
    if (!table.parse(sidx, text, &sr, &err)) {
      ++dr.corrupt_results;
      std::fprintf(stderr,
                   "cds::dist: shard %zu returned a corrupt result (%s); "
                   "retrying\n",
                   sidx, err.c_str());
      schedule_retry(sidx, attempt_id, "corrupt result");
      return;
    }
    table.accept(sidx, attempt_id, text, std::move(sr));
    slots.resize(table.size());
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
        c.rank = static_cast<std::size_t>(
            std::find(local.begin(), local.end(),
                      static_cast<pid_t>(msg.pid)) -
            local.begin());
        ++dr.connections_total;
        ++current_workers;
        last_worker_seen = now_seconds();
        dr.workers_connected_peak =
            std::max(dr.workers_connected_peak, current_workers);
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

  // Whether the first assignment still waits for the forked local workers
  // to greet (see the file comment).
  [[nodiscard]] bool holding(double start) const {
    return attempt_counter == 0 && current_workers < local.size() &&
           now_seconds() - start <= d.connect_deadline_seconds;
  }

  // Hands ready shards to idle workers in `conns` order: local workers in
  // fork order, then external ones (the main loop keeps conns sorted).
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
      std::size_t pick = table.size();
      for (std::size_t sidx = 0; sidx < table.size(); ++sidx) {
        const Slot& s = slots[sidx];
        if (!table.pending(sidx) || s.next_eligible > now) continue;
        if (other_idle && s.last_fd == c.fd) continue;
        pick = sidx;
        break;
      }
      if (pick == table.size()) continue;
      Slot& s = slots[pick];
      Assignment asg;
      // High 32 bits: this incarnation's epoch. The counter restarts at
      // zero after a crash, so without the epoch a resumed run would
      // re-mint ids that fenced-off workers still hold.
      asg.shard_id = (epoch << 32) | ++attempt_counter;
      asg.bench = b.name;
      asg.unit = table.unit(pick);
      asg.engine = opts.engine;
      asg.inject_site = inject::active_site_name();
      asg.checker = opts.checker;
      const std::string payload = render_assignment(asg);
      table.mark_running(pick);
      ++s.attempts;
      s.assigned_at = now;
      s.last_fd = c.fd;
      live[asg.shard_id] = Attempt{pick, c.fd, now + d.lease_seconds};
      c.attempt = asg.shard_id;
      // Journaled before the assignment leaves: a resumed coordinator
      // sees which shards were in flight (they re-enqueue as pending).
      JournalRecord lease;
      lease.kind = JournalRecord::Kind::kLease;
      lease.shard = pick;
      lease.attempt = asg.shard_id;
      table.journal(lease);
      if (!send_to(c, render_assign_header(asg.shard_id, payload.size()) +
                          payload,
                   "assignment")) {
        continue;  // drop_conn already revoked + rescheduled
      }
    }
  }

  // Work stealing under the fork pool's rule (mc::StealRule). Returns the
  // time the rule next needs a look, if it waits for a shard to age.
  double maybe_steal() {
    double wake = std::numeric_limits<double>::infinity();
    if (!d.enable_steal) return wake;
    bool idle = false;
    for (const Conn& c : conns) {
      if (!c.dead && c.greeted && c.attempt == 0) idle = true;
    }
    std::vector<mc::RunningUnit> running;
    for (const auto& [id, at] : live) {
      running.push_back(mc::RunningUnit{
          id, slots[at.shard].assigned_at,
          table.running(at.shard) && table.splittable(at.shard)});
    }
    const std::size_t v = steal.pick(idle && !table.any_pending(), running,
                                     now_seconds(), &wake);
    if (v == running.size()) return wake;
    const Attempt& at = live[running[v].id];
    for (Conn& c : conns) {
      if (!c.dead && c.fd == at.fd) {
        (void)send_to(c, render_steal(running[v].id), "steal");
        break;
      }
    }
    return wake;
  }
};

// Runs every still-unresolved shard on the local fork pool (the graceful
// degradation path): the same stealing pool --jobs uses, feeding the same
// table.
void run_remaining_locally(const harness::Benchmark& b,
                           const harness::RunOptions& opts,
                           const DistOptions& d, ShardTable& table,
                           DistRunResult& dr) {
  for (std::size_t sidx = 0; sidx < table.size(); ++sidx) table.requeue(sidx);
  if (table.all_resolved()) return;
  dr.fell_back_local = true;
  harness::ParallelOptions local;
  local.jobs = d.fallback_jobs > 0 ? d.fallback_jobs : std::max(1, d.dist_workers);
  std::vector<harness::ShardSpan> spans;
  harness::run_on_fork_pool(table, b, opts, local, &spans);
}

}  // namespace

DistRunResult run_benchmark_distributed(const harness::Benchmark& b,
                                        const harness::RunOptions& opts,
                                        const DistOptions& d) {
  DistRunResult dr;
  support::SigpipeIgnoreScope sigpipe_guard;

  // The same table the parallel path plans: same prefixes, same derived
  // seeds, same sampling split — a distributed run explores the same
  // partition of the same trees.
  const std::size_t max_shards =
      d.max_shards != 0
          ? d.max_shards
          : static_cast<std::size_t>(std::max(1, d.dist_workers)) * 4;
  ShardTable table(b, opts, d.shard_depth, max_shards);
  if (!d.journal_path.empty() &&
      !table.open_journal(d.journal_path, d.resume, d.coord_chaos,
                          &dr.resume_error)) {
    static_cast<ShardRunStats&>(dr) = table.stats();
    dr.merged.verdict = mc::Verdict::kInconclusive;
    dr.merged.mc.verdict = dr.merged.verdict;
    return dr;
  }

  // After replay everything may already be resolved; don't spin up
  // sockets and workers just to have the main loop exit instantly.
  const bool need_work = !table.all_resolved();

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
  dr.listen = listen_spec;

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
      // A worker dies with its coordinator: after a crash it must not
      // re-dial an address no resumed run listens on.
      const pid_t pid = mc::fork_tied_to_parent();
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

    Coordinator co{b, opts, d, dr, table, std::vector<Slot>(table.size()),
                   {}, worker_pids, {}, 0, 0, now_seconds()};
    co.epoch = table.stats().epoch;
    const double start = now_seconds();
    double steal_wake = std::numeric_limits<double>::infinity();
    while (!table.all_resolved()) {
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
        for (auto& [id, at] : co.live) table.requeue(at.shard);
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
      // steal rule's age threshold, and the graceful-degradation deadline.
      // Capped at 1s so clock surprises can't park the loop for long.
      double wake = now + 1.0;
      const auto consider = [&wake](double t) { wake = std::min(wake, t); };
      if (dr.connections_total == 0 || co.holding(start)) {
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
      for (std::size_t sidx = 0; sidx < table.size(); ++sidx) {
        if (table.pending(sidx) && co.slots[sidx].next_eligible > now) {
          consider(co.slots[sidx].next_eligible);
        }
      }
      consider(steal_wake);
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
      std::stable_sort(co.conns.begin(), co.conns.end(),
                       [](const Conn& x, const Conn& y) {
                         return x.rank < y.rank;
                       });

      co.sweep_leases();
      if (!co.holding(start)) co.assign_ready();
      steal_wake = co.maybe_steal();
    }

    for (Conn& c : co.conns) {
      if (c.dead) continue;
      (void)support::write_full(c.fd, render_quit());
      close(c.fd);
    }
    close(listen_fd);
    if (auto_socket) unlink(addr.path.c_str());

    // Reap forked workers: quit/EOF ends them promptly; SIGKILL the rest
    // (hung, or parked in a reconnect dial loop) after a one-second grace.
    // The probe interval starts at 0.1 ms and doubles up to 10 ms, so a
    // worker that exits at once is reaped at once.
    const double grace_end = now_seconds() + 1.0;
    for (double step = 1e-4;; step = std::min(step * 2.0, 1e-2)) {
      bool left = false;
      for (pid_t& pid : worker_pids) {
        if (pid <= 0) continue;
        int status = 0;
        const pid_t got = waitpid(pid, &status, WNOHANG);
        if (got == pid || (got < 0 && errno == ECHILD)) {
          pid = -1;
        } else {
          left = true;
        }
      }
      if (!left || now_seconds() >= grace_end) break;
      usleep(static_cast<useconds_t>(step * 1e6));
    }
    for (pid_t pid : worker_pids) {
      if (pid <= 0) continue;
      kill(pid, SIGKILL);
      int status = 0;
      waitpid(pid, &status, 0);
    }
  }

  // Anything unresolved (listen failure, fallback trigger) finishes on
  // the local fork pool.
  run_remaining_locally(b, opts, d, table, dr);
  static_cast<ShardRunStats&>(dr) = table.stats();
  dr.merged = table.finish();
  dr.merged.metrics.add_record("dist.", fields(dr));
  return dr;
}

}  // namespace cds::dist
