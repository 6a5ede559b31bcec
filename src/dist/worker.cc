#include "dist/worker.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include <algorithm>

#include "dist/net.h"
#include "dist/protocol.h"
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

// Re-dials with capped exponential backoff plus jitter (seeded by pid),
// so a fleet of workers orphaned by a coordinator crash spreads its
// reconnect attempts out while the coordinator restarts with --resume,
// instead of hammering the address in lockstep every 100ms.
int dial_until(const Address& a, double timeout_seconds) {
  const double deadline = now_seconds() + timeout_seconds;
  support::Xorshift64 rng(support::derive_seed(
      static_cast<std::uint64_t>(getpid()), 0x6a09e667f3bcc908ull));
  double backoff = 0.05;
  for (;;) {
    std::string err;
    int fd = connect_to(a, &err);
    if (fd >= 0) return fd;
    const double now = now_seconds();
    if (now >= deadline) {
      std::fprintf(stderr, "cds::dist::worker: %s (gave up after %.1fs)\n",
                   err.c_str(), timeout_seconds);
      return -1;
    }
    const double unit = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    double wait = backoff * (0.5 + unit);  // [0.5, 1.5) x backoff
    wait = std::min(wait, deadline - now);
    usleep(static_cast<unsigned>(wait * 1e6) + 1);
    backoff = std::min(backoff * 2.0, 2.0);
  }
}

// What ended one assignment's conversation.
enum class Outcome { kDone, kQuit, kConnLost };

struct WorkerState {
  int fd = -1;
  FrameBuffer buf;
  double hb_interval = 1.0;  // from welcome; refreshed per connection
  std::uint64_t epoch = 0;   // coordinator incarnation, from welcome
  std::uint64_t assignments = 0;  // across reconnects (chaos ordinals)
  // The long-lived shard child; restarted after it dies.
  mc::UnitChild child;
};

// Flips the version line so the coordinator's strict parser rejects the
// payload deterministically (random flips could mutate a digit into
// another digit and merge wrong counters instead of failing).
void corrupt_payload(std::string* text) {
  for (std::size_t i = 0; i < text->size() && i < 16; ++i) {
    (*text)[i] = static_cast<char>((*text)[i] ^ 0x5A);
  }
}

bool send_result(WorkerState& ws, const WorkerOptions& opts, std::uint64_t id,
                 std::string text) {
  const bool truncate =
      opts.chaos.truncate_result_on ==
      static_cast<std::ptrdiff_t>(ws.assignments);
  const bool corrupt = opts.chaos.corrupt_result_on ==
                       static_cast<std::ptrdiff_t>(ws.assignments);
  const bool die_mid = opts.chaos.die_mid_result_on ==
                       static_cast<std::ptrdiff_t>(ws.assignments);
  if (truncate) text.resize(text.size() / 2);
  if (corrupt) corrupt_payload(&text);
  if (die_mid) {
    const std::string hdr = render_result_header(id, text.size());
    (void)support::write_full(ws.fd, hdr);
    (void)support::write_full(ws.fd, text.data(), text.size() / 2);
    raise(SIGKILL);
  }
  return support::write_full(ws.fd, render_result_header(id, text.size())) &&
         support::write_full(ws.fd, text);
}

// The benchmark `a` names, with its injection armed in this process; null
// with *why set when this build cannot explore it faithfully.
const harness::Benchmark* arm(const Assignment& a,
                              const BenchmarkResolver& resolve,
                              std::string* why) {
  const harness::Benchmark* b = resolve(a.bench);
  if (b == nullptr) {
    *why = "unknown benchmark '" + a.bench + "'";
  } else if (a.unit.test_index >= b->tests.size()) {
    *why = "test index out of range for '" + a.bench + "'";
  } else if (!inject::activate_site(a.bench, a.inject_site)) {
    *why = "no injection site '" + a.inject_site + "' for '" + a.bench +
           "' in this build";
  } else {
    return b;
  }
  return nullptr;
}

// Runs one assignment on the shard child while keeping the coordinator
// conversation alive (heartbeats out, steal/quit in).
Outcome run_assignment(WorkerState& ws, const WorkerOptions& opts,
                       const BenchmarkResolver& resolve,
                       const mc::UnitWork& work, const Assignment& a,
                       const std::string& payload) {
  std::string why;
  if (arm(a, resolve, &why) == nullptr) {
    return support::write_full(ws.fd, render_failed(a.shard_id, why))
               ? Outcome::kDone
               : Outcome::kConnLost;
  }
  if (!ws.child.running() && !ws.child.start(work, {ws.fd})) {
    return support::write_full(ws.fd, render_failed(a.shard_id, "fork failed"))
               ? Outcome::kDone
               : Outcome::kConnLost;
  }
  ws.child.assign(a.shard_id, payload);

  const bool mute_hb =
      opts.chaos.mute_heartbeats_on >= 0 &&
      static_cast<std::uint64_t>(opts.chaos.mute_heartbeats_on) <=
          ws.assignments;
  // A muted worker holds its result until its lease has surely expired:
  // two leases, i.e. six heartbeat intervals (the coordinator heartbeats
  // at a third of the lease), after the assignment arrived.
  const double hold_until = now_seconds() + 6.0 * ws.hb_interval;
  double next_hb = now_seconds() + ws.hb_interval;
  Outcome out = Outcome::kDone;
  bool done = false;
  bool computing = true;  // the child still holds the unit
  while (!done) {
    // Act on the control lines buffered so far, before the first poll too:
    // a steal or quit can arrive in the same read as its assignment.
    std::string line;
    while (ws.buf.next_line(&line)) {
      ControlLine c;
      std::string err;
      if (!parse_control_line(line, &c, &err)) {
        std::fprintf(stderr, "cds::dist::worker: dropping garbage: %s\n",
                     err.c_str());
        continue;
      }
      if (c.kind == ControlLine::Kind::kQuit) {
        out = Outcome::kQuit;
        done = true;
        break;
      }
      if (c.kind == ControlLine::Kind::kSteal && c.shard_id == a.shard_id) {
        ws.child.stop(a.shard_id);
      }
      // Anything else mid-assignment (another assign, a stray welcome)
      // is a coordinator bug; ignore rather than desync.
    }
    if (done) break;

    pollfd pfds[2];
    pfds[0] = {ws.fd, POLLIN, 0};
    pfds[1] = {ws.child.result_fd(), POLLIN, 0};
    const double wait = next_hb - now_seconds();
    int rc = poll(pfds, 2, wait <= 0 ? 0 : static_cast<int>(wait * 1000) + 1);
    if (rc < 0 && errno != EINTR) {
      out = Outcome::kConnLost;
      break;
    }
    if (now_seconds() >= next_hb) {
      next_hb = now_seconds() + ws.hb_interval;
      if (!mute_hb &&
          !support::write_full(ws.fd, render_heartbeat(a.shard_id))) {
        out = Outcome::kConnLost;
        break;
      }
    }
    if (rc <= 0) continue;

    if (pfds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
      char tmp[4096];
      long got = support::read_some(ws.fd, tmp, sizeof tmp);
      if (got <= 0) {
        out = Outcome::kConnLost;
        break;
      }
      ws.buf.append(tmp, static_cast<std::size_t>(got));
      if (ws.buf.overflowed()) {
        out = Outcome::kConnLost;
        break;
      }
    }

    if ((pfds[1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    std::uint64_t idx = 0;
    std::string text;
    const mc::UnitChild::Read r = ws.child.read(&idx, &text);
    if (r == mc::UnitChild::Read::kPending) continue;
    done = true;
    computing = false;
    if (r == mc::UnitChild::Read::kResult && idx == a.shard_id &&
        !text.empty()) {
      const double hold = hold_until - now_seconds();
      if (mute_hb && hold > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(hold));
      }
      if (!send_result(ws, opts, a.shard_id, std::move(text))) {
        out = Outcome::kConnLost;
      }
      continue;
    }
    // The child died, or answered with no result or for another unit; a
    // new child serves the next assignment. Its wait status says how.
    if (r == mc::UnitChild::Read::kResult) ws.child.finish(/*kill=*/true);
    const int st = ws.child.status();
    why = WIFSIGNALED(st)
              ? "shard child killed by signal " + std::to_string(WTERMSIG(st))
              : "shard child exited " + std::to_string(WEXITSTATUS(st)) +
                    " with no result";
    if (!support::write_full(ws.fd, render_failed(a.shard_id, why))) {
      out = Outcome::kConnLost;
    }
  }

  // Quit or a lost connection mid-unit: nobody will read its result.
  if (computing) ws.child.finish(/*kill=*/true);
  return out;
}

}  // namespace

int run_worker(const std::string& addr, const WorkerOptions& opts) {
  Address a;
  std::string err;
  if (!parse_address(addr, &a, &err)) {
    std::fprintf(stderr, "cds::dist::worker: %s\n", err.c_str());
    return 1;
  }
  support::SigpipeIgnoreScope sigpipe_guard;
  const BenchmarkResolver resolve =
      opts.resolve ? opts.resolve : [](const std::string& name) {
        return harness::find_benchmark(name);
      };

  // The shard child's side: arm the assignment's benchmark and injection
  // in the child, run the shard, answer with its result. A payload it
  // cannot run ends the child, which the parent reports as failed.
  const mc::UnitWork work = [&](std::size_t, const std::string& payload,
                                const std::function<bool()>& stop) {
    Assignment asg;
    std::string why;
    const harness::Benchmark* b =
        parse_assignment(payload, &asg, &why) ? arm(asg, resolve, &why)
                                              : nullptr;
    if (b == nullptr) _exit(1);
    harness::RunOptions base;
    base.engine = asg.engine;
    base.checker = asg.checker;
    base.engine.progress_interval_seconds = opts.progress_interval_seconds;
    return harness::run_shard_unit(*b, base, asg.unit, stop);
  };

  WorkerState ws;
  // Forked before the first dial, the child holds no socket.
  (void)ws.child.start(work);
  for (;;) {  // one iteration per (re)connection
    ws.fd = dial_until(a, opts.connect_timeout_seconds);
    if (ws.fd < 0) return 1;
    ws.buf = FrameBuffer{};
    if (!support::write_full(ws.fd,
                             render_hello(static_cast<std::uint64_t>(getpid())))) {
      close(ws.fd);
      continue;
    }

    bool reconnect = false;
    while (!reconnect) {
      // A timeout just loops: an idle worker has nothing to say.
      const int ready = wait_readable(ws.fd, 1.0);
      if (ready < 0) {
        reconnect = true;
        break;
      }
      if (ready == 0) continue;
      char tmp[4096];
      long got = support::read_some(ws.fd, tmp, sizeof tmp);
      if (got <= 0) {
        reconnect = true;
        break;
      }
      ws.buf.append(tmp, static_cast<std::size_t>(got));

      std::string line;
      while (!reconnect && ws.buf.next_line(&line)) {
        ControlLine c;
        if (!parse_control_line(line, &c, &err)) {
          std::fprintf(stderr, "cds::dist::worker: dropping garbage: %s\n",
                       err.c_str());
          continue;
        }
        switch (c.kind) {
          case ControlLine::Kind::kWelcome:
            if (c.heartbeat_us > 0) {
              ws.hb_interval = static_cast<double>(c.heartbeat_us) / 1e6;
            }
            if (ws.epoch != 0 && c.epoch != ws.epoch) {
              std::fprintf(stderr,
                           "cds::dist::worker: coordinator epoch %llu -> "
                           "%llu (restarted); prior results will be fenced\n",
                           static_cast<unsigned long long>(ws.epoch),
                           static_cast<unsigned long long>(c.epoch));
            }
            ws.epoch = c.epoch;
            break;
          case ControlLine::Kind::kQuit:
            close(ws.fd);
            return 0;
          case ControlLine::Kind::kAssign: {
            if (c.payload_len > FrameBuffer::kMaxPayload) {
              std::fprintf(stderr,
                           "cds::dist::worker: oversized assignment "
                           "(%llu bytes); disconnecting\n",
                           static_cast<unsigned long long>(c.payload_len));
              reconnect = true;
              break;
            }
            // Block until the whole payload arrived (the coordinator sends
            // header+payload back to back).
            std::string payload;
            while (!ws.buf.take(static_cast<std::size_t>(c.payload_len),
                                &payload)) {
              long more = support::read_some(ws.fd, tmp, sizeof tmp);
              if (more <= 0) {
                reconnect = true;
                break;
              }
              ws.buf.append(tmp, static_cast<std::size_t>(more));
            }
            if (reconnect) break;
            ++ws.assignments;
            if (opts.chaos.kill_on_assignment ==
                static_cast<std::ptrdiff_t>(ws.assignments)) {
              raise(SIGKILL);
            }
            Assignment asg;
            if (!parse_assignment(payload, &asg, &err)) {
              std::fprintf(stderr,
                           "cds::dist::worker: bad assignment (%s)\n",
                           err.c_str());
              if (!support::write_full(
                      ws.fd, render_failed(c.shard_id,
                                           "unparseable assignment: " + err))) {
                reconnect = true;
              }
              break;
            }
            switch (run_assignment(ws, opts, resolve, work, asg, payload)) {
              case Outcome::kDone:
                break;
              case Outcome::kQuit:
                close(ws.fd);
                return 0;
              case Outcome::kConnLost:
                reconnect = true;
                break;
            }
            break;
          }
          default:
            // steal/hb/result/failed/hello make no sense coordinator->
            // worker while idle; drop them.
            break;
        }
      }
      if (ws.buf.overflowed()) reconnect = true;
    }
    close(ws.fd);
    ws.fd = -1;
    // Loop back into dial_until: the coordinator may still be alive (a
    // transient drop) — if it is not, the dial deadline ends the worker.
  }
}

}  // namespace cds::dist
