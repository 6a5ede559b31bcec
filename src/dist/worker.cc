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
#include "support/io.h"
#include "support/rng.h"

#if defined(__unix__) || defined(__APPLE__)
#define CDS_DIST_WORKER_POSIX 1
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace cds::dist {

#ifdef CDS_DIST_WORKER_POSIX

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

// Runs one assignment to completion while keeping the coordinator
// conversation alive (heartbeats out, steal/quit in).
Outcome run_assignment(WorkerState& ws, const WorkerOptions& opts,
                       const BenchmarkResolver& resolve, const Assignment& a) {
  const harness::Benchmark* b = resolve(a.bench);
  std::string why;
  if (b == nullptr) {
    why = "unknown benchmark '" + a.bench + "'";
  } else if (a.unit.test_index >= b->tests.size()) {
    why = "test index out of range for '" + a.bench + "'";
  } else if (!inject::activate_site(a.bench, a.inject_site)) {
    // The shard child inherits exactly the assignment's injection, or
    // none; a site this build lacks cannot be explored faithfully.
    why = "no injection site '" + a.inject_site + "' for '" + a.bench +
          "' in this build";
  }
  if (!why.empty()) {
    return support::write_full(ws.fd, render_failed(a.shard_id, why))
               ? Outcome::kDone
               : Outcome::kConnLost;
  }

  int stop_pipe[2], res_pipe[2];
  if (pipe(stop_pipe) != 0) {
    return support::write_full(ws.fd, render_failed(a.shard_id, "pipe failed"))
               ? Outcome::kDone
               : Outcome::kConnLost;
  }
  if (pipe(res_pipe) != 0) {
    close(stop_pipe[0]);
    close(stop_pipe[1]);
    return support::write_full(ws.fd, render_failed(a.shard_id, "pipe failed"))
               ? Outcome::kDone
               : Outcome::kConnLost;
  }

  pid_t child = fork();
  if (child < 0) {
    close(stop_pipe[0]);
    close(stop_pipe[1]);
    close(res_pipe[0]);
    close(res_pipe[1]);
    return support::write_full(ws.fd, render_failed(a.shard_id, "fork failed"))
               ? Outcome::kDone
               : Outcome::kConnLost;
  }
  if (child == 0) {
    // Shard child: no coordinator socket, a stop pipe in, a result pipe
    // out. A crash in the test body kills only this process.
    close(ws.fd);
    close(stop_pipe[1]);
    close(res_pipe[0]);
    const int stop_fd = stop_pipe[0];
    harness::RunOptions base;
    base.engine = a.engine;
    base.checker = a.checker;
    base.engine.progress_interval_seconds = opts.progress_interval_seconds;
    auto stop_request = [stop_fd]() {
      pollfd p{};
      p.fd = stop_fd;
      p.events = POLLIN;
      // Preempt on a steal byte — or on parent death (HUP): an orphaned
      // shard should wind down, not burn CPU for a result nobody reads.
      return poll(&p, 1, 0) > 0 &&
             (p.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    };
    const std::string text =
        harness::run_shard_unit(*b, base, a.unit, stop_request);
    (void)support::write_full(res_pipe[1], text);
    _exit(0);
  }

  close(stop_pipe[0]);
  close(res_pipe[1]);
  const int stop_w = stop_pipe[1];
  const int res_r = res_pipe[0];
  std::string result_text;
  bool child_eof = false;
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

  while (!done) {
    pollfd pfds[2];
    pfds[0] = {ws.fd, POLLIN, 0};
    pfds[1] = {res_r, POLLIN, 0};
    const double wait = next_hb - now_seconds();
    int rc = poll(pfds, child_eof ? 1 : 2,
                  wait <= 0 ? 0 : static_cast<int>(wait * 1000) + 1);
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
          (void)support::write_full(stop_w, "s", 1);
        }
        // Anything else mid-assignment (another assign, a stray welcome)
        // is a coordinator bug; ignore rather than desync.
      }
      if (ws.buf.overflowed()) {
        out = Outcome::kConnLost;
        break;
      }
      if (done) break;
    }

    if (!child_eof && (pfds[1].revents & (POLLIN | POLLHUP | POLLERR))) {
      char tmp[65536];
      long got = support::read_some(res_r, tmp, sizeof tmp);
      if (got > 0) {
        result_text.append(tmp, static_cast<std::size_t>(got));
      } else {
        child_eof = true;
        int status = 0;
        waitpid(child, &status, 0);
        child = -1;
        bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                  !result_text.empty();
        if (ok) {
          const double hold = hold_until - now_seconds();
          if (mute_hb && hold > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(hold));
          }
          if (!send_result(ws, opts, a.shard_id, std::move(result_text))) {
            out = Outcome::kConnLost;
          }
        } else {
          std::string why = "shard child ";
          if (WIFSIGNALED(status)) {
            why += "killed by signal " + std::to_string(WTERMSIG(status));
          } else {
            why += "exited " + std::to_string(WEXITSTATUS(status));
            if (result_text.empty()) why += " with no result";
          }
          if (!support::write_full(ws.fd, render_failed(a.shard_id, why))) {
            out = Outcome::kConnLost;
          }
        }
        done = true;
      }
    }
  }

  if (child > 0) {
    kill(child, SIGKILL);
    int status = 0;
    waitpid(child, &status, 0);
  }
  close(stop_w);
  close(res_r);
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

  WorkerState ws;
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
      if (wait_readable(ws.fd, 1.0) < 0) {
        reconnect = true;
        break;
      }
      char tmp[4096];
      // Only read when data is actually buffered; wait_readable timing out
      // just loops (an idle worker has nothing to say).
      pollfd probe{ws.fd, POLLIN, 0};
      if (poll(&probe, 1, 0) <= 0) continue;
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
            switch (run_assignment(ws, opts, resolve, asg)) {
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

#else  // !CDS_DIST_WORKER_POSIX

int run_worker(const std::string&, const WorkerOptions&) {
  std::fprintf(stderr,
               "cds::dist::worker: unsupported on this platform (no fork)\n");
  return 1;
}

#endif

}  // namespace cds::dist
