#include "mc/shard.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "support/io.h"

#if defined(__unix__) || defined(__APPLE__)
#define CDS_MC_SHARD_HAS_FORK 1
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace cds::mc {

ShardPlan enumerate_shard_prefixes(const Config& cfg, const TestFn& test,
                                   int depth, std::size_t max_units) {
  ShardPlan plan;
  if (max_units == 0) max_units = 1;

  // Probe config: one execution per probe, no degradation, no budgets —
  // only the tree-shaping knobs survive.
  Config pcfg = cfg;
  pcfg.max_executions = 1;
  pcfg.sample_executions = 0;
  pcfg.sampling_only = false;
  pcfg.time_budget_seconds = 0.0;
  pcfg.memory_budget_bytes = 0;
  pcfg.watchdog_no_progress_execs = 0;
  pcfg.stop_on_first_violation = false;
  Engine probe(pcfg);

  struct Node {
    std::vector<Choice> prefix;
    bool leaf = false;  // probe ended exactly at |prefix|: one execution
  };
  std::vector<Node> units(1);

  for (int level = 0; level < depth && units.size() < max_units; ++level) {
    std::vector<Node> next;
    next.reserve(units.size());
    bool expanded = false;
    for (Node& u : units) {
      if (u.leaf || next.size() >= max_units) {
        next.push_back(std::move(u));
        continue;
      }
      probe.set_subtree(u.prefix);
      (void)probe.explore(test);
      ++plan.probe_executions;
      std::vector<Choice> t = probe.current_trail();
      if (t.size() <= u.prefix.size()) {
        // The prefix already covers a whole execution — a leaf unit.
        u.leaf = true;
        next.push_back(std::move(u));
        continue;
      }
      // Split at the first choice point below the prefix: one child per
      // alternative, in DFS order.
      const Choice& branch = t[u.prefix.size()];
      expanded = true;
      for (std::uint16_t a = 0; a < branch.num; ++a) {
        Node child;
        child.prefix = u.prefix;
        child.prefix.push_back(Choice{branch.kind, a, branch.num});
        next.push_back(std::move(child));
      }
    }
    units = std::move(next);
    if (!expanded) break;
  }

  plan.prefixes.reserve(units.size());
  for (Node& u : units) plan.prefixes.push_back(std::move(u.prefix));
  return plan;
}

std::vector<std::vector<Choice>> split_remaining_frontier(
    std::size_t pinned, const std::vector<Choice>& frontier) {
  std::vector<std::vector<Choice>> out;
  if (pinned > frontier.size()) return out;
  // Deepest level first: the right-siblings of the frontier's last choice
  // are the executions a serial DFS would visit next (advance() flips the
  // deepest non-exhausted choice point).
  for (std::size_t i = frontier.size(); i-- > pinned;) {
    const Choice& c = frontier[i];
    for (std::uint32_t a = c.chosen + 1u; a < c.num; ++a) {
      std::vector<Choice> p(frontier.begin(),
                            frontier.begin() + static_cast<std::ptrdiff_t>(i));
      p.push_back(Choice{c.kind, static_cast<std::uint16_t>(a), c.num});
      out.push_back(std::move(p));
    }
  }
  return out;
}

bool prefix_dfs_less(const std::vector<Choice>& a,
                     const std::vector<Choice>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].chosen != b[i].chosen) return a[i].chosen < b[i].chosen;
  }
  return a.size() < b.size();
}

// ---------------------------------------------------------------------------
// fork_map
// ---------------------------------------------------------------------------

namespace {

// A sequential pool with a preemption predicate (a journaled one-job run)
// asks each preemptible unit to stop once it has run this long, so the
// caller journals its partial result and queues its remainder. Each stop
// costs one journal record per minted unit, so the interval is wall time,
// not an execution count.
constexpr double kInlineStopAfterSeconds = 1.0;

#ifdef CDS_MC_SHARD_HAS_FORK

// Steal only from a unit that has run this long: a younger one may be
// about to finish, and splitting it would trade one result for many.
constexpr double kStealAfterSeconds = 0.002;

// One preempt word per worker, a cache line apart, in a MAP_SHARED
// mapping the workers inherit: the parent stores `unit + 1` to ask that
// unit to stop, and the worker compares it with its own unit between
// executions.
constexpr std::size_t kStopWordStride = 64;

std::atomic<std::uint64_t>* stop_word(void* words, std::size_t w) {
  return reinterpret_cast<std::atomic<std::uint64_t>*>(
      static_cast<char*>(words) + w * kStopWordStride);
}

// Worker loop: read "u <idx> <len>\n<len payload bytes>" assignments off
// `in`, answer each with an "r <idx> <len>\n<len result bytes>" frame on
// `out`; "q\n" (or EOF, or any malformed input) ends the process. Never
// returns.
[[noreturn]] void worker_loop(int in, int out, const UnitWork& work,
                              std::ptrdiff_t sigkill_on_unit,
                              const std::atomic<std::uint64_t>* word) {
  std::string line, payload;
  for (;;) {
    line.clear();
    char c;
    for (;;) {
      long k = support::read_some(in, &c, 1);
      if (k <= 0) _exit(0);
      if (c == '\n') break;
      line.push_back(c);
    }
    if (line == "q") _exit(0);
    unsigned long long idx = 0, len = 0;
    char extra = 0;
    if (std::sscanf(line.c_str(), "u %llu %llu%c", &idx, &len, &extra) != 2) {
      _exit(1);
    }
    payload.resize(len);
    if (len > 0 && !support::read_full(in, payload.data(), len)) _exit(1);
    if (static_cast<std::ptrdiff_t>(idx) == sigkill_on_unit) {
      raise(SIGKILL);  // test hook: die holding the assignment
    }
    const std::uint64_t me = idx + 1;
    const std::function<bool()> stop = [word, me] {
      return word->load(std::memory_order_relaxed) == me;
    };
    std::string text = work(idx, payload, stop);
    std::string hdr = "r " + std::to_string(idx) + " " +
                      std::to_string(text.size()) + "\n";
    if (!support::write_full(out, hdr) || !support::write_full(out, text)) {
      _exit(0);
    }
  }
}

#endif  // CDS_MC_SHARD_HAS_FORK

}  // namespace

std::vector<UnitResult> fork_map(
    std::size_t n, const std::function<std::string(std::size_t)>& work,
    const ForkMapOptions& opts) {
  UnitQueue units(n);
  return fork_map(
      units,
      [&work](std::size_t i, const std::string&, const std::function<bool()>&) {
        return work(i);
      },
      opts);
}

std::vector<UnitResult> fork_map(UnitQueue& units, const UnitWork& work,
                                 const ForkMapOptions& opts) {
  std::vector<UnitResult> out;
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  // Units [0, next) have been handed out; the rest are queued. Units are
  // handed out in index order and never retried.
  std::size_t next = 0;
  auto finish = [&](std::size_t i) {
    if (opts.on_result) opts.on_result(i, out[i]);
  };

  // The whole map — worker pipes and the sequential fallback — runs with
  // SIGPIPE ignored, so a worker dying at any point in the conversation
  // surfaces as EPIPE on the write that raced it.
  support::SigpipeIgnoreScope sigpipe_guard;

  // Sequential fallback; also sweeps up units left unassigned if every
  // worker dies, including units on_result appends meanwhile. Only a
  // one-job pool preempts here.
  auto run_inline = [&]() {
    const std::function<bool()> never = [] { return false; };
    for (; next < units.size(); ++next) {
      out.resize(units.size());
      UnitResult& r = out[next];
      const double start = elapsed();
      r.assigned_seconds = start;
      r.worker = 0;
      const bool preempt =
          opts.jobs <= 1 && opts.preemptible && opts.preemptible(next);
      const std::function<bool()> due = [&elapsed, start] {
        return elapsed() - start >= kInlineStopAfterSeconds;
      };
      r.text = work(next, units.payload(next), preempt ? due : never);
      r.done_seconds = elapsed();
      r.ran = true;
      std::string().swap(units.payload(next));
      finish(next);
    }
    out.resize(units.size());
  };

#ifndef CDS_MC_SHARD_HAS_FORK
  run_inline();
  return out;
#else
  // A stealing pool forks even for one unit: the idle workers split it.
  const bool steal = static_cast<bool>(opts.preemptible);
  if (opts.jobs <= 1 || units.size() <= (steal ? 0u : 1u)) {
    run_inline();
    return out;
  }

  struct Worker {
    pid_t pid = -1;
    int work_fd = -1;    // parent writes assignments
    int result_fd = -1;  // parent reads result frames
    std::ptrdiff_t assigned = -1;
    std::string buf;
    bool alive = false;
  };
  // A stealing pool keeps every worker: units appear as running ones split.
  const std::size_t want =
      steal ? static_cast<std::size_t>(opts.jobs)
            : std::min(static_cast<std::size_t>(opts.jobs), units.size());
  const std::size_t words_bytes = want * kStopWordStride;
  void* words = mmap(nullptr, words_bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (words == MAP_FAILED) {
    run_inline();
    return out;
  }
  for (std::size_t w = 0; w < want; ++w) {
    new (stop_word(words, w)) std::atomic<std::uint64_t>(0);
  }

  std::vector<Worker> ws;
  for (std::size_t w = 0; w < want; ++w) {
    int wfd[2], rfd[2];
    if (pipe(wfd) != 0) break;
    if (pipe(rfd) != 0) {
      close(wfd[0]);
      close(wfd[1]);
      break;
    }
    pid_t pid = fork();
    if (pid < 0) {
      close(wfd[0]);
      close(wfd[1]);
      close(rfd[0]);
      close(rfd[1]);
      break;
    }
    if (pid == 0) {
      close(wfd[1]);
      close(rfd[0]);
      for (const Worker& o : ws) {  // siblings' ends are not ours to hold
        close(o.work_fd);
        close(o.result_fd);
      }
      worker_loop(wfd[0], rfd[1], work, opts.sigkill_on_unit,
                  stop_word(words, w));
    }
    close(wfd[0]);
    close(rfd[1]);
    Worker wk;
    wk.pid = pid;
    wk.work_fd = wfd[1];
    wk.result_fd = rfd[0];
    wk.alive = true;
    ws.push_back(wk);
  }

  if (ws.empty()) {
    munmap(words, words_bytes);
    run_inline();
    return out;
  }

  auto assign = [&](Worker& w) {
    if (next >= units.size()) return;
    const std::size_t u = next++;
    out.resize(units.size());
    w.assigned = static_cast<std::ptrdiff_t>(u);
    out[u].assigned_seconds = elapsed();
    out[u].worker = static_cast<int>(&w - ws.data());
    std::string& payload = units.payload(u);
    // If a write fails the worker is dying; its EOF below records the
    // unit as crashed.
    (void)(support::write_full(w.work_fd,
                               "u " + std::to_string(u) + " " +
                                   std::to_string(payload.size()) + "\n") &&
           support::write_full(w.work_fd, payload));
    std::string().swap(payload);
  };

  // The unit with an outstanding stop request, if any. It is cleared when
  // that unit reaches its final state, and a unit is handed out only
  // once, so no unit is ever asked twice.
  std::ptrdiff_t asked = -1;
  auto settle = [&](Worker& w, bool ran) {
    const auto idx = static_cast<std::size_t>(w.assigned);
    out[idx].ran = ran;
    out[idx].done_seconds = elapsed();
    if (asked == w.assigned) asked = -1;
    w.assigned = -1;
    finish(idx);
  };

  std::vector<pollfd> pfds;
  std::vector<std::size_t> order;
  for (;;) {
    // Hand queued units (on_result may have appended some) to idle
    // workers; stop once nothing is queued or running.
    std::size_t alive = 0, busy = 0;
    for (Worker& w : ws) {
      if (!w.alive) continue;
      ++alive;
      if (w.assigned < 0) assign(w);
      if (w.assigned >= 0) ++busy;
    }
    if (busy == 0) break;

    // Work stealing: a worker is idle, so the queue is dry. Ask the
    // longest-running preemptible unit to stop; its result comes back
    // through on_result like any other, and whatever the caller appends
    // from it feeds the idle workers.
    int timeout_ms = -1;
    if (steal && asked < 0 && busy < alive) {
      const Worker* victim = nullptr;
      for (const Worker& w : ws) {
        if (!w.alive || w.assigned < 0 ||
            !opts.preemptible(static_cast<std::size_t>(w.assigned))) {
          continue;
        }
        if (victim == nullptr ||
            out[static_cast<std::size_t>(w.assigned)].assigned_seconds <
                out[static_cast<std::size_t>(victim->assigned)]
                    .assigned_seconds) {
          victim = &w;
        }
      }
      if (victim != nullptr) {
        const double age =
            elapsed() -
            out[static_cast<std::size_t>(victim->assigned)].assigned_seconds;
        if (age >= kStealAfterSeconds) {
          asked = victim->assigned;
          stop_word(words, static_cast<std::size_t>(victim - ws.data()))
              ->store(static_cast<std::uint64_t>(asked) + 1,
                      std::memory_order_relaxed);
        } else {
          timeout_ms =
              1 + static_cast<int>((kStealAfterSeconds - age) * 1000.0);
        }
      }
    }

    pfds.clear();
    order.clear();
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
      if (!ws[wi].alive) continue;
      pfds.push_back(pollfd{ws[wi].result_fd, POLLIN, 0});
      order.push_back(wi);
    }
    int pr = poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Worker& w = ws[order[k]];
      char tmp[65536];
      long got = support::read_some(w.result_fd, tmp, sizeof tmp);
      if (got > 0) {
        w.buf.append(tmp, static_cast<std::size_t>(got));
        std::size_t nl = w.buf.find('\n');
        if (nl != std::string::npos) {
          unsigned long long idx = 0, len = 0;
          if (std::sscanf(w.buf.c_str(), "r %llu %llu", &idx, &len) != 2 ||
              static_cast<std::ptrdiff_t>(idx) != w.assigned) {
            // Protocol corruption: drop the worker, crash its unit below.
            got = 0;
          } else if (w.buf.size() >= nl + 1 + len) {
            out[idx].text = w.buf.substr(nl + 1, len);
            w.buf.erase(0, nl + 1 + len);
            settle(w, true);
          }
        }
      }
      if (got <= 0) {
        // EOF (worker exited or died) or corruption. An in-flight
        // assignment becomes a crashed unit — recorded, never retried, so
        // the merged outcome is deterministic.
        w.alive = false;
        close(w.work_fd);
        w.work_fd = -1;
        close(w.result_fd);
        w.result_fd = -1;
        if (w.assigned >= 0) settle(w, false);
        kill(w.pid, SIGKILL);  // no-op if it exited cleanly
      }
    }
  }

  for (Worker& w : ws) {
    if (w.work_fd >= 0) {
      (void)support::write_full(w.work_fd, "q\n");
      close(w.work_fd);
    }
    if (w.result_fd >= 0) close(w.result_fd);
    int status = 0;
    waitpid(w.pid, &status, 0);
  }
  munmap(words, words_bytes);

  // Units never assigned (every worker died) still get computed.
  run_inline();
  return out;
#endif
}

}  // namespace cds::mc
