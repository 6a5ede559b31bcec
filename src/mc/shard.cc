#include "mc/shard.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

#include "support/io.h"

#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

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
// The unit child and the steal rule
// ---------------------------------------------------------------------------

std::size_t StealRule::pick(bool idle, const std::vector<RunningUnit>& running,
                            double now, double* wake) {
  const std::size_t none = running.size();
  if (asked_) {
    if (std::any_of(running.begin(), running.end(),
                    [&](const RunningUnit& u) { return u.id == *asked_; })) {
      return none;
    }
    asked_.reset();
  }
  if (!idle) return none;
  std::size_t victim = none;
  for (std::size_t i = 0; i < running.size(); ++i) {
    if (running[i].splittable &&
        (victim == none || running[i].started < running[victim].started)) {
      victim = i;
    }
  }
  if (victim == none) return none;
  const double due = running[victim].started + kStealAfterSeconds;
  if (now < due) {
    *wake = std::min(*wake, due);
    return none;
  }
  asked_ = running[victim].id;
  return victim;
}

namespace {

// The child's loop: serve "u" frames off `in` until EOF or a malformed
// frame. Never returns.
[[noreturn]] void serve_units(int in, int out, const UnitWork& work,
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

}  // namespace

int fork_tied_to_parent() {
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);  // the parent died before prctl
  }
  return pid;
}

bool UnitChild::start(const UnitWork& work, const std::vector<int>& inherited,
                      std::ptrdiff_t sigkill_on_unit) {
  finish(/*kill=*/true);
  void* map = mmap(nullptr, sizeof(*word_), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) return false;
  auto* word = new (map) std::atomic<std::uint64_t>(0);
  int wfd[2] = {-1, -1}, rfd[2] = {-1, -1};
  const pid_t pid =
      pipe(wfd) != 0 || pipe(rfd) != 0 ? -1 : fork_tied_to_parent();
  if (pid < 0) {
    for (int fd : {wfd[0], wfd[1], rfd[0], rfd[1]}) {
      if (fd >= 0) close(fd);
    }
    munmap(map, sizeof(*word_));
    return false;
  }
  if (pid == 0) {
    close(wfd[1]);
    close(rfd[0]);
    for (int fd : inherited) {
      if (fd >= 0) close(fd);
    }
    serve_units(wfd[0], rfd[1], work, sigkill_on_unit, word);
  }
  close(wfd[0]);
  close(rfd[1]);
  pid_ = pid;
  work_fd_ = wfd[1];
  result_fd_ = rfd[0];
  word_ = word;
  buf_.clear();
  return true;
}

void UnitChild::assign(std::uint64_t idx, const std::string& payload) {
  support::SigpipeIgnoreScope sigpipe_guard;
  (void)(support::write_full(work_fd_, "u " + std::to_string(idx) + " " +
                                           std::to_string(payload.size()) +
                                           "\n") &&
         support::write_full(work_fd_, payload));
}

void UnitChild::stop(std::uint64_t idx) {
  word_->store(idx + 1, std::memory_order_relaxed);
}

UnitChild::Read UnitChild::read(std::uint64_t* idx, std::string* text) {
  char tmp[65536];
  const long got = support::read_some(result_fd_, tmp, sizeof tmp);
  if (got > 0) {
    buf_.append(tmp, static_cast<std::size_t>(got));
    const std::size_t nl = buf_.find('\n');
    if (nl == std::string::npos) return Read::kPending;
    unsigned long long i = 0, len = 0;
    char extra = 0;
    if (std::sscanf(buf_.substr(0, nl).c_str(), "r %llu %llu%c", &i, &len,
                    &extra) == 2) {
      if (buf_.size() < nl + 1 + len) return Read::kPending;
      *idx = i;
      *text = buf_.substr(nl + 1, len);
      buf_.erase(0, nl + 1 + len);
      return Read::kResult;
    }
  }
  // EOF (the child exited or died) or a corrupt frame.
  finish(/*kill=*/true);
  return Read::kDied;
}

UnitChild::Read UnitChild::await(double timeout_seconds, std::uint64_t* idx,
                                 std::string* text) {
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    int ms = -1;
    if (timeout_seconds > 0.0) {
      const double left =
          timeout_seconds - std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
      if (left <= 0.0) return Read::kPending;
      ms = static_cast<int>(std::min(left * 1000.0 + 1.0, 2147483000.0));
    }
    pollfd p{result_fd_, POLLIN, 0};
    const int pr = poll(&p, 1, ms);
    if (pr < 0 && errno != EINTR) {
      finish(/*kill=*/true);
      return Read::kDied;
    }
    if (pr <= 0) continue;
    const Read r = read(idx, text);
    if (r != Read::kPending) return r;
  }
}

void UnitChild::finish(bool kill) {
  if (pid_ > 0) {
    if (kill) ::kill(pid_, SIGKILL);
    close(work_fd_);  // EOF ends a child that is waiting for a unit
    close(result_fd_);
    while (waitpid(pid_, &status_, 0) < 0 && errno == EINTR) {
    }
    munmap(word_, sizeof(*word_));
  }
  pid_ = -1;
  work_fd_ = -1;
  result_fd_ = -1;
  word_ = nullptr;
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

  // A stealing pool forks even for one unit: the idle workers split it.
  const bool steal = static_cast<bool>(opts.preemptible);
  if (opts.jobs <= 1 || units.size() <= (steal ? 0u : 1u)) {
    run_inline();
    return out;
  }

  struct Worker {
    UnitChild child;
    std::ptrdiff_t assigned = -1;
  };
  // A stealing pool keeps every worker: units appear as running ones split.
  const std::size_t want =
      steal ? static_cast<std::size_t>(opts.jobs)
            : std::min(static_cast<std::size_t>(opts.jobs), units.size());
  std::vector<Worker> ws(want);
  std::vector<int> siblings;  // pipe ends a new child must not hold
  for (Worker& w : ws) {
    if (!w.child.start(work, siblings, opts.sigkill_on_unit)) break;
    siblings.push_back(w.child.work_fd());
    siblings.push_back(w.child.result_fd());
  }

  auto assign = [&](Worker& w) {
    if (next >= units.size()) return;
    const std::size_t u = next++;
    out.resize(units.size());
    w.assigned = static_cast<std::ptrdiff_t>(u);
    out[u].assigned_seconds = elapsed();
    out[u].worker = static_cast<int>(&w - ws.data());
    w.child.assign(u, units.payload(u));
    std::string().swap(units.payload(u));
  };
  auto settle = [&](Worker& w, bool ran) {
    const auto idx = static_cast<std::size_t>(w.assigned);
    out[idx].ran = ran;
    out[idx].done_seconds = elapsed();
    w.assigned = -1;
    finish(idx);
  };

  StealRule rule;
  std::vector<RunningUnit> running;
  std::vector<pollfd> pfds;
  std::vector<std::size_t> order;
  for (;;) {
    // Hand queued units (on_result may have appended some) to idle
    // workers; stop once nothing is queued or running.
    std::size_t alive = 0;
    running.clear();
    for (Worker& w : ws) {
      if (!w.child.running()) continue;
      ++alive;
      if (w.assigned < 0) assign(w);
      if (w.assigned < 0) continue;
      const auto u = static_cast<std::size_t>(w.assigned);
      running.push_back(RunningUnit{u, out[u].assigned_seconds,
                                    steal && opts.preemptible(u)});
    }
    if (running.empty()) break;

    // Work stealing: a worker is idle, so the queue is dry. The asked
    // unit's result comes back through on_result like any other, and
    // whatever the caller appends from it feeds the idle workers.
    const double now = elapsed();
    double wake = std::numeric_limits<double>::infinity();
    const std::size_t victim =
        rule.pick(running.size() < alive, running, now, &wake);
    if (victim < running.size()) {
      const std::uint64_t u = running[victim].id;
      ws[static_cast<std::size_t>(out[u].worker)].child.stop(u);
    }
    const int timeout_ms =
        wake == std::numeric_limits<double>::infinity()
            ? -1
            : 1 + static_cast<int>((wake - now) * 1000.0);

    pfds.clear();
    order.clear();
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
      if (!ws[wi].child.running()) continue;
      pfds.push_back(pollfd{ws[wi].child.result_fd(), POLLIN, 0});
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
      std::uint64_t idx = 0;
      std::string text;
      switch (w.child.read(&idx, &text)) {
        case UnitChild::Read::kPending:
          break;
        case UnitChild::Read::kResult:
          if (static_cast<std::ptrdiff_t>(idx) == w.assigned) {
            out[idx].text = std::move(text);
            settle(w, true);
            break;
          }
          // Protocol corruption: drop the worker, crash its unit.
          w.child.finish(/*kill=*/true);
          [[fallthrough]];
        case UnitChild::Read::kDied:
          // An in-flight assignment becomes a crashed unit — recorded,
          // never retried, so the merged outcome is deterministic.
          if (w.assigned >= 0) settle(w, false);
          break;
      }
    }
  }

  for (Worker& w : ws) w.child.finish();

  // Units never assigned (every worker died, or none started) still get
  // computed.
  run_inline();
  return out;
}

}  // namespace cds::mc
