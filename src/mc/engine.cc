#include "mc/engine.h"

#include <csetjmp>
#include <csignal>

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "spec/annotations.h"

namespace cds::mc {

namespace {
Engine* g_engine = nullptr;

[[noreturn]] void fatal(const char* msg) {
  std::fprintf(stderr, "cds::mc fatal: %s\n", msg);
  std::abort();
}

// --- signal-to-verdict containment ----------------------------------------
// A fatal signal raised while a modeled-thread fiber runs (the only place
// user test code executes) lands here, records what happened, and longjmps
// back onto the scheduler's native stack frame in run_one, abandoning the
// fiber mid-flight. The jump buffer is armed only across the
// switch-into-fiber window; a fault anywhere else (the checker itself) is
// re-raised with the default disposition — containment must never mask a
// bug in the engine.
//
// The handler runs on a dedicated sigaltstack so that a fiber-stack
// overflow (whose own stack is unusable, by definition) can still be
// caught. The window is armed with sigsetjmp(.., 0): saving the mask
// would cost an rt_sigprocmask system call on every scheduling step.
// The kernel blocks the handled signal while its handler runs, so the
// crash path instead restores the mask install_crash_handlers() saved.
sigjmp_buf g_crash_jmp;
volatile sig_atomic_t g_crash_armed = 0;
volatile sig_atomic_t g_crash_sig = 0;
void* volatile g_crash_addr = nullptr;
sigset_t g_crash_mask;

constexpr int kCrashSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGABRT};
constexpr int kNumCrashSignals =
    static_cast<int>(sizeof(kCrashSignals) / sizeof(kCrashSignals[0]));
struct sigaction g_old_actions[kNumCrashSignals];
stack_t g_old_altstack;
alignas(16) char g_altstack[64 * 1024];

void crash_signal_handler(int sig, siginfo_t* info, void*) {
  if (g_crash_armed == 0) {
    ::signal(sig, SIG_DFL);
    ::raise(sig);
    return;
  }
  g_crash_armed = 0;
  g_crash_sig = sig;
  g_crash_addr = info != nullptr ? info->si_addr : nullptr;
  siglongjmp(g_crash_jmp, 1);
}

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGABRT: return "SIGABRT";
  }
  return "fatal signal";
}
}  // namespace

const char* to_string(TraceEvent::Kind k) {
  using K = TraceEvent::Kind;
  switch (k) {
    case K::kLoad: return "load";
    case K::kStore: return "store";
    case K::kRmw: return "rmw";
    case K::kCasFail: return "cas-fail";
    case K::kFence: return "fence";
    case K::kSpawn: return "spawn";
    case K::kJoin: return "join";
    case K::kYield: return "yield";
    case K::kLock: return "lock";
    case K::kUnlock: return "unlock";
    case K::kThreadEnd: return "thread-end";
  }
  return "?";
}

Engine* Engine::current() { return g_engine; }

Engine::Engine(Config cfg)
    : cfg_(cfg),
      rf_mode_(cfg.explore == ExploreMode::kRf),
      rv_(rf_mode_ ? cfg.max_threads : 1),
      credit_(static_cast<std::size_t>(cfg.max_threads), 0) {
  sched_fiber_.init_native();
  threads_.resize(static_cast<std::size_t>(cfg_.max_threads));
  for (Thread& t : threads_) t.fib = std::make_unique<fiber::Fiber>();
  fiber::Fiber::set_fallthrough_handler(&Engine::on_fiber_fallthrough);
  // A choice fan-out that cannot be recorded in a uint16 Choice must fail
  // the execution loudly, never truncate (release builds used to
  // mis-explore silently).
  trail_.set_overflow_handler(&Engine::on_trail_overflow, this);
  // Cache registry slots once; hot-path bumps are single adds through
  // these pointers. Counter/histogram entries are per-execution-pure, so
  // sharded sums stay bit-identical to serial runs.
  m_executions_ = &obs_.counter("engine.executions");
  m_sleep_prunes_ = &obs_.counter("engine.sleep_set_prunes");
  m_rf_choice_points_ = &obs_.counter("engine.rf_choice_points");
  m_rf_candidates_ = &obs_.counter("engine.rf_candidates");
  m_sched_choice_points_ = &obs_.counter("engine.schedule_choice_points");
  m_rf_classes_ = &obs_.counter("engine.rf_classes");
  m_rf_deferred_reads_ = &obs_.counter("engine.rf_deferred_reads");
  m_rf_revisit_points_ = &obs_.counter("engine.rf_revisit_points");
  m_rf_revisits_ = &obs_.counter("engine.rf_revisits");
  m_steps_scripted_ = &obs_.counter("engine.steps.scripted");
  m_steps_replayed_ = &obs_.counter("engine.steps.replayed");
  m_steps_fresh_ = &obs_.counter("engine.steps.fresh");
  static constexpr std::pair<Outcome, const char*> kOutcomeNames[] = {
      {Outcome::kComplete, "complete"},
      {Outcome::kBuiltinViolation, "violation"},
      {Outcome::kPrunedBound, "bound"},
      {Outcome::kPrunedLivelock, "livelock"},
      {Outcome::kPrunedRedundant, "sleep_set"},
      {Outcome::kEngineFatal, "engine_fatal"},
      {Outcome::kCrash, "crash"},
  };
  for (const auto& [o, name] : kOutcomeNames) {
    m_exec_ns_[static_cast<int>(o)] =
        &obs_.timer(std::string("engine.exec_ns.") + name);
  }
  m_trail_depth_ = &obs_.histogram("engine.trail_depth");
  m_rf_fanout_ = &obs_.histogram("engine.rf_fanout");
  m_mem_peak_ = &obs_.gauge("engine.mem_estimate_peak_bytes");
  m_arena_peak_ = &obs_.gauge("engine.arena_peak_bytes");
}

void Engine::on_trail_overflow(void* self, std::uint32_t num) {
  static_cast<Engine*>(self)->engine_fatal(
      "choice fan-out " + std::to_string(num) +
      " exceeds the trail's recordable range [1, 65535] (raise the relevant "
      "bound, e.g. lower stale_read_bound, to shrink reads-from fan-out)");
}

Engine::~Engine() = default;

const ThreadMMState& Engine::mm(int tid) const {
  assert(tid >= 0 && tid < spawned_);
  return threads_[static_cast<std::size_t>(tid)].mm;
}

const char* Engine::location_name(std::uint32_t loc) const {
  return loc < nlocs_ ? locs_[loc].name : "?";
}

spec::Recorder* Engine::recorder() {
  // The model checker uses the process-global recorder the SpecChecker
  // arms; stress backends own private per-instance recorders instead.
  return spec::Recorder::current();
}

spec::OPEvent Engine::snapshot_op(int tid) const {
  const ThreadMMState& st = mm(tid);
  spec::OPEvent ev;
  ev.thread = tid;
  ev.pos = st.pos;
  ev.vc = st.cur.vc;
  ev.sc_index = st.last_sc_index;
  return ev;
}

void Engine::report_violation(ViolationKind k, std::string detail) {
  // Engine-fatal records are diagnostics about the checker itself, not
  // property violations: they must not flip the verdict to falsified or
  // trip stop_on_first_violation.
  if (k != ViolationKind::kEngineFatal) ++violations_total_;
  bool builtin = k == ViolationKind::kDataRace ||
                 k == ViolationKind::kUninitializedLoad ||
                 k == ViolationKind::kDeadlock;
  if (builtin) had_builtin_ = true;
  if (violations_.size() < cfg_.max_recorded_violations) {
    Violation v;
    v.kind = k;
    v.detail = std::move(detail);
    v.execution_index = exec_index_;
    // Every recorded violation carries the choice sequence that produced
    // it: a replayable one-execution repro (exported as a .trail file by
    // the CLI).
    v.trail = trail_.consumed();
    v.test_index = cfg_.test_index;
    violations_.push_back(std::move(v));
  }
}

void Engine::engine_fatal(std::string detail) {
  if (g_engine != this || current_ < 0) {
    // No live execution to fail; this is unrecoverable API misuse.
    fatal(detail.c_str());
  }
  fail_execution(std::move(detail));
  abandon_execution();
}

void Engine::fail_execution(std::string detail) {
  std::fprintf(stderr, "cds::mc engine-fatal (execution %llu discarded): %s\n",
               static_cast<unsigned long long>(exec_index_), detail.c_str());
  report_violation(ViolationKind::kEngineFatal, std::move(detail));
  fatal_abandon_ = true;
  outcome_ = Outcome::kEngineFatal;
}

void Engine::on_fiber_fallthrough(fiber::Fiber& f) {
  Engine* e = Engine::current();
  if (e == nullptr) return;  // trampoline aborts
  f.mark_finished();
  e->engine_fatal("fiber entry wrapper returned without switching out");
}

void Engine::record(TraceEvent::Kind k, MemoryOrder o, std::uint32_t loc,
                    std::uint64_t value) {
  if (!cfg_.collect_trace) return;
  trace_.push_back(TraceEvent{k, static_cast<std::int16_t>(current_), o, loc, value});
}

std::string Engine::format_trace() const {
  std::ostringstream os;
  for (const TraceEvent& e : trace_) {
    os << "  T" << e.thread << ": " << to_string(e.kind);
    if (e.loc != TraceEvent::kNoLoc) os << ' ' << location_name(e.loc);
    switch (e.kind) {
      case TraceEvent::Kind::kLoad:
      case TraceEvent::Kind::kStore:
      case TraceEvent::Kind::kRmw:
      case TraceEvent::Kind::kCasFail:
        os << " = " << static_cast<std::int64_t>(e.value) << " ["
           << to_string(e.order) << ']';
        break;
      case TraceEvent::Kind::kSpawn:
      case TraceEvent::Kind::kJoin:
        os << " T" << e.value;
        break;
      case TraceEvent::Kind::kFence:
        os << " [" << to_string(e.order) << ']';
        break;
      default:
        break;
    }
    os << '\n';
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Exploration loop
// ---------------------------------------------------------------------------

double Engine::seconds_since_start() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

std::size_t Engine::memory_usage_estimate() const {
  std::size_t bytes = arena_.bytes_reserved();
  // Every location slot counts, live or kept for reuse: both hold heap.
  for (const Location& L : locs_) {
    bytes += L.history.capacity() * sizeof(Message);
    // A message's `sync` clocks keep small sizes inside sizeof(Message);
    // wider ones spill to the heap, and on release-sequence-heavy
    // histories those dominate, so omitting them used to let such
    // workloads blow far past the memory budget before it tripped. Ditto
    // the live release-sequence heads.
    for (const Message& m : L.history) {
      bytes += (m.sync.vc.spilled_capacity() + m.sync.view.spilled_capacity()) *
               sizeof(std::uint32_t);
    }
    bytes += L.rs_heads.capacity() * sizeof(ReleaseSeqHead);
    for (const ReleaseSeqHead& h : L.rs_heads) {
      bytes += (h.sync.vc.spilled_capacity() + h.sync.view.spilled_capacity()) *
               sizeof(std::uint32_t);
    }
  }
  bytes += trace_.capacity() * sizeof(TraceEvent);
  bytes += trail_.raw().capacity() * sizeof(Choice);
  return bytes;
}

bool Engine::check_budgets() {
  if (active_deadline_ > 0.0 && seconds_since_start() >= active_deadline_) {
    hit_time_budget_ = true;
    return true;
  }
  if (cfg_.memory_budget_bytes != 0 &&
      memory_usage_estimate() > cfg_.memory_budget_bytes) {
    hit_memory_budget_ = true;
    return true;
  }
  return false;
}

bool Engine::tally_execution(ExplorationStats& stats) {
  ++stats.executions;
  m_executions_->add();
  m_steps_scripted_->add(steps_scripted_);
  m_steps_replayed_->add(steps_replayed_);
  m_steps_fresh_->add(steps_fresh_);
  if (revisit_exec_) m_rf_revisits_->add();
  m_trail_depth_->record(trail_.depth());
  m_mem_peak_->set_max(memory_usage_estimate());
  m_arena_peak_->set_max(arena_.bytes_reserved());
  if (trail_.depth() > stats.max_trail_depth) {
    stats.max_trail_depth = trail_.depth();
  }
  bool keep_going = true;
  // Each checkable execution in rf mode is one class representative (both
  // clean completions and built-in-violation executions name a class —
  // CDSChecker counts buggy executions as explored).
  switch (outcome_) {
    case Outcome::kComplete:
      ++stats.feasible;
      if (rf_mode_) {
        ++stats.rf_classes;
        m_rf_classes_->add();
      }
      if (listener_ != nullptr) keep_going = listener_->on_execution_complete(*this);
      break;
    case Outcome::kBuiltinViolation:
      ++stats.feasible;
      ++stats.builtin_violation_execs;
      if (rf_mode_) {
        ++stats.rf_classes;
        m_rf_classes_->add();
      }
      break;
    case Outcome::kEngineFatal:
      ++stats.engine_fatal_execs;
      break;
    case Outcome::kCrash:
      ++stats.crash_execs;
      break;
    case Outcome::kPrunedBound:
      ++stats.pruned_bound;
      break;
    case Outcome::kPrunedLivelock:
      ++stats.pruned_livelock;
      break;
    case Outcome::kPrunedRedundant:
      ++stats.pruned_redundant;
      m_sleep_prunes_->add();
      break;
    case Outcome::kRunning:
    case Outcome::kNumOutcomes:
      fatal("execution ended while still running");
  }
  const auto now = std::chrono::steady_clock::now();
  m_exec_ns_[static_cast<int>(outcome_)]->add_ns(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_exec_end_)
          .count()));
  last_exec_end_ = now;
  return keep_going;
}

void Engine::install_crash_handlers() {
  if (!cfg_.contain_crashes || crash_handlers_active_) return;
  stack_t ss{};
  ss.ss_sp = g_altstack;
  ss.ss_size = sizeof g_altstack;
  ss.ss_flags = 0;
  ::sigaltstack(&ss, &g_old_altstack);
  ::pthread_sigmask(SIG_SETMASK, nullptr, &g_crash_mask);
  struct sigaction sa{};
  sa.sa_sigaction = &crash_signal_handler;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigemptyset(&sa.sa_mask);
  for (int i = 0; i < kNumCrashSignals; ++i) {
    ::sigaction(kCrashSignals[i], &sa, &g_old_actions[i]);
  }
  g_crash_armed = 0;
  crash_handlers_active_ = true;
}

void Engine::restore_crash_handlers() {
  if (!crash_handlers_active_) return;
  for (int i = 0; i < kNumCrashSignals; ++i) {
    ::sigaction(kCrashSignals[i], &g_old_actions[i], nullptr);
  }
  if (g_old_altstack.ss_sp != nullptr && (g_old_altstack.ss_flags & SS_DISABLE) == 0) {
    ::sigaltstack(&g_old_altstack, nullptr);
  } else {
    stack_t off{};
    off.ss_flags = SS_DISABLE;
    ::sigaltstack(&off, nullptr);
  }
  g_crash_armed = 0;
  crash_handlers_active_ = false;
}

void Engine::contain_crash(int sig, const void* addr) {
  std::ostringstream d;
  d << "test body crashed with " << signal_name(sig) << " on modeled thread T"
    << current_;
  if (addr != nullptr && (sig == SIGSEGV || sig == SIGBUS)) {
    d << " (fault address " << addr << ")";
    for (int i = 0; i < spawned_; ++i) {
      if (threads_[static_cast<std::size_t>(i)].fib->guard_contains(addr)) {
        d << ": stack overflow of T" << i << "'s "
          << fiber::Fiber::kStackSize / 1024 << " KiB fiber stack";
        break;
      }
    }
  }
  report_violation(ViolationKind::kCrash, d.str());
  outcome_ = Outcome::kCrash;
}

ExplorationStats Engine::explore(const TestFn& test) {
  if (g_engine != nullptr) fatal("nested Engine::explore on one OS thread");
  g_engine = this;
  harness::Backend::set_current(this);
  trail_.reset_all();
  violations_.clear();
  violations_total_ = 0;
  preempt_frontier_.clear();
  ExplorationStats stats;
  stats.seed = cfg_.seed;
  rng_ = support::Xorshift64(support::derive_seed(cfg_.seed, 0));
  t0_ = std::chrono::steady_clock::now();
  last_exec_end_ = t0_;
  hit_time_budget_ = false;
  hit_memory_budget_ = false;
  frontier_frac_floor_ = 0.0;
  install_crash_handlers();

  std::uint64_t last_progress_exec = 0;
  bool stopped = false;

  // Subtree restriction: seed the trail with the shard's prefix and pin it
  // so DFS (and the degraded sampling phase) never leaves this subtree.
  if (!subtree_.empty()) {
    trail_.restore(subtree_);
    trail_.set_pinned(subtree_.size());
  }
  rv_.clear_cache();

  // Heartbeat meter, armed only when requested: the disabled hot path is a
  // single null-pointer branch per execution.
  progress_.reset();
  if (cfg_.progress_interval_seconds > 0.0) {
    progress_ = std::make_unique<obs::ProgressMeter>(
        cfg_.progress_interval_seconds,
        cfg_.progress_label.empty() ? cfg_.test_name : cfg_.progress_label);
  }

  // When degradation is possible, the DFS phase gets only a fraction of
  // the wall budget so the sampling phase has time left to run.
  const bool can_degrade = cfg_.sample_executions > 0;
  if (cfg_.time_budget_seconds > 0.0) {
    active_deadline_ = can_degrade
                           ? cfg_.time_budget_seconds * cfg_.dfs_budget_fraction
                           : cfg_.time_budget_seconds;
    // Fraction 0 means "skip straight to sampling": an infinitesimal DFS
    // deadline trips after the first execution.
    if (can_degrade && active_deadline_ <= 0.0) active_deadline_ = 1e-9;
  } else {
    active_deadline_ = 0.0;
  }

  // Phase 1: exhaustive DFS (skipped entirely under sampling_only, which
  // the fuzzer's DFS-vs-sampling oracle uses to drive the random-walk
  // phase on its own).
  const auto dfs_t0 = std::chrono::steady_clock::now();
  while (!cfg_.sampling_only) {
    exec_index_ = stats.executions;
    std::uint64_t violations_before = violations_total_;
    run_one(test);
    bool keep_going = tally_execution(stats);
    if (progress_) beat_progress(stats, "dfs");
    if (outcome_ == Outcome::kComplete || outcome_ == Outcome::kBuiltinViolation) {
      last_progress_exec = stats.executions;
    }
    if (outcome_ == Outcome::kCrash) {
      // The crash is already a recorded kCrash violation carrying its
      // trail; the in-process engine always stops here (the harness's
      // fork-isolated sweep mode provides keep-going crash semantics).
      stats.stopped_early = true;
      stopped = true;
      break;
    }
    if (cfg_.stop_on_first_violation && violations_total_ > violations_before) {
      stats.stopped_early = true;
      stopped = true;
      break;
    }
    if (!keep_going) {
      stats.stopped_early = true;
      stopped = true;
      break;
    }
    // Cooperative preemption (work stealing): stop after the execution
    // just tallied and surface its trail, so the coordinator can re-split
    // the unexplored right-sibling subtrees. Checked before advance(), so
    // the frontier names an execution this run did count — the partial
    // result plus the re-split shards partition the subtree exactly. Only
    // a subtree with a leaf left is preempted; its last leaf ends it as
    // exhausted below (that frontier would name no remainder, and none at
    // all when the execution made no choice).
    if (cfg_.stop_request && trail_.has_next() && cfg_.stop_request()) {
      stats.preempted = true;
      stats.stopped_early = true;
      preempt_frontier_ = trail_.raw();
      stopped = true;
      break;
    }
    if (cfg_.max_executions != 0 && stats.executions >= cfg_.max_executions) {
      stats.hit_execution_cap = !trail_.raw().empty();
      break;
    }
    if (hit_time_budget_ || hit_memory_budget_) break;
    if (active_deadline_ > 0.0 && seconds_since_start() >= active_deadline_) {
      hit_time_budget_ = true;
      break;
    }
    if (cfg_.watchdog_no_progress_execs != 0 &&
        stats.executions - last_progress_exec >= cfg_.watchdog_no_progress_execs) {
      stats.watchdog_fired = true;
      break;
    }
    if (!trail_.advance()) {
      stats.exhausted = true;
      break;
    }
  }
  const auto dfs_t1 = std::chrono::steady_clock::now();
  obs_.timer("engine.dfs_phase")
      .add_ns(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dfs_t1 - dfs_t0)
              .count()));

  // Phase 2: fail-safe degradation. Budget is gone but the space is not
  // covered — switch to seeded random-walk sampling instead of stopping
  // cold, so the remaining time still hunts for counterexamples.
  bool degraded = can_degrade &&
                  (cfg_.sampling_only ||
                   (!stopped && !stats.exhausted && !stats.hit_execution_cap &&
                    (hit_time_budget_ || hit_memory_budget_ ||
                     stats.watchdog_fired)));
  if (degraded) {
    if (hit_memory_budget_) release_retained_storage();
    active_deadline_ = cfg_.time_budget_seconds;  // sampling gets the remainder
    trail_.set_mode(Trail::Mode::kRandom, &rng_);
    while (stats.sampled < cfg_.sample_executions) {
      if (active_deadline_ > 0.0 && seconds_since_start() >= active_deadline_) break;
      exec_index_ = stats.executions;
      std::uint64_t violations_before = violations_total_;
      run_one(test);
      ++stats.sampled;
      bool keep_going = tally_execution(stats);
      if (progress_) beat_progress(stats, "sampling");
      if (outcome_ == Outcome::kCrash) {
        stats.stopped_early = true;
        break;
      }
      if (cfg_.stop_on_first_violation && violations_total_ > violations_before) {
        stats.stopped_early = true;
        break;
      }
      if (!keep_going) {
        stats.stopped_early = true;
        break;
      }
    }
    trail_.set_mode(Trail::Mode::kDfs);
    obs_.timer("engine.sampling_phase")
        .add_ns(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - dfs_t1)
                .count()));
  }

  stats.hit_time_budget = hit_time_budget_;
  stats.hit_memory_budget = hit_memory_budget_;
  stats.violations_total = violations_total_;
  // The verdict: proved, disproved, or merely sampled. "Exhaustive" is
  // relative to the configured bounds (max_steps, stale_read_bound), which
  // are part of the modeled semantics; an internal engine error taints the
  // proof because the discarded execution was never checked.
  if (violations_total_ > 0) {
    stats.verdict = Verdict::kFalsified;
  } else if (stats.exhausted && stats.engine_fatal_execs == 0) {
    stats.verdict = Verdict::kVerifiedExhaustive;
  } else {
    stats.verdict = Verdict::kInconclusive;
  }
  stats.seconds = seconds_since_start();
  obs_.timer("engine.explore")
      .add_ns(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0_)
              .count()));
  progress_.reset();
  active_deadline_ = 0.0;
  restore_crash_handlers();
  g_engine = nullptr;
  harness::Backend::set_current(nullptr);
  return stats;
}

double Engine::frontier_fraction() const {
  // The trail is a mixed-radix numeral: digit i has base num_i and value
  // chosen_i. Its fractional value is the share of the DFS tree strictly
  // before the current leaf — a cheap coverage estimate (exact when
  // subtree sizes are uniform). frontier_fraction_of already clamps to
  // [0, 1] and is monotone across advance(); the floor additionally pins
  // monotonicity across restore() boundaries within one explore().
  double frac = frontier_fraction_of(trail_.raw());
  if (frac < frontier_frac_floor_) return frontier_frac_floor_;
  frontier_frac_floor_ = frac;
  return frac;
}

void Engine::beat_progress(const ExplorationStats& stats, const char* phase) {
  double budget_left = -1.0;
  if (active_deadline_ > 0.0) {
    budget_left = active_deadline_ - seconds_since_start();
    if (budget_left < 0.0) budget_left = 0.0;
  }
  const bool dfs = phase[0] == 'd';
  progress_->maybe_beat(phase, stats.executions, trail_.depth(),
                        dfs ? frontier_fraction() : -1.0, budget_left);
}

bool Engine::replay(const std::vector<Choice>& saved, const TestFn& test,
                    bool strict, std::string* divergence) {
  if (g_engine != nullptr) fatal("replay during an active exploration");
  g_engine = this;
  harness::Backend::set_current(this);
  violations_.clear();
  violations_total_ = 0;
  exec_index_ = 0;
  install_crash_handlers();
  trail_.restore(saved, strict);
  rv_.clear_cache();
  run_one(test);
  // Re-run the attached layer's completion check (the spec checker re-files
  // its violation through report_violation), so a replayed spec-level
  // finding reproduces just like a built-in one.
  if (listener_ != nullptr && outcome_ == Outcome::kComplete) {
    (void)listener_->on_execution_complete(*this);
  }
  bool ok = true;
  if (strict) {
    if (trail_.replay_diverged()) {
      ok = false;
      if (divergence != nullptr) *divergence = trail_.divergence();
    } else if (!trail_.fully_consumed()) {
      ok = false;
      if (divergence != nullptr) {
        *divergence = "execution finished without consuming the whole trail (" +
                      std::to_string(saved.size()) +
                      " recorded choices); the trail was recorded against a "
                      "different test or build";
      }
    }
  }
  restore_crash_handlers();
  g_engine = nullptr;
  harness::Backend::set_current(nullptr);
  return ok;
}

void Engine::release_retained_storage() {
  arena_.release();
  std::vector<Location>().swap(locs_);
  nlocs_ = 0;
  std::vector<TraceEvent>().swap(trace_);
}

void Engine::reset_execution_state() {
  nlocs_ = 0;
  sc_view_.clear();
  sc_counter_ = 0;
  for (int i = 0; i < spawned_; ++i) {
    Thread& t = threads_[static_cast<std::size_t>(i)];
    t.status = ThreadStatus::kAbsent;
    t.body = nullptr;
    t.waiting_join = -1;
    t.waiting_mutex = nullptr;
  }
  spawned_ = 0;
  current_ = -1;
  steps_ = 0;
  steps_scripted_ = 0;
  steps_replayed_ = 0;
  steps_fresh_ = 0;
  outcome_ = Outcome::kRunning;
  had_builtin_ = false;
  abandoned_ = false;
  fatal_abandon_ = false;
  trace_.clear();
  sleep_.clear();
  if (rf_mode_) {
    rf_check_.reset();
    rv_.begin_segment();
  }
  arena_.reset();
}

void Engine::begin_segment(const TestFn& test) {
  reset_execution_state();
  script_pos_ = 0;
  forced_ = nullptr;
  if (rf_mode_) {
    std::fill(credit_.begin(), credit_.end(), std::uint8_t{0});
    for (int t : script_credits_) credit_[static_cast<std::size_t>(t)] = 1;
    credit_store_ = script_.empty() ? -1 : script_.back().src;
  }
  if (listener_ != nullptr) listener_->on_execution_begin(*this);
  Thread& root = threads_[0];
  root.body = [this, &test]() {
    Exec x(*this);
    test(x);
  };
  root.mm.reset();
  root.pending = PendingOp{};
  root.status = ThreadStatus::kRunnable;
  root.fib->reset([this]() {
    threads_[0].body();
    thread_exit();
  });
  spawned_ = 1;
}

void Engine::run_one(const TestFn& test) {
  trail_.begin_execution();
  replay_end_ = trail_.replay_end();
  script_.clear();
  script_credits_.clear();
  revisit_exec_ = false;
  if (rf_mode_) {
    // Points past the trail's recorded prefix belonged to other subtrees.
    // The deepest cached revisit the trail takes replaces everything
    // before it; a revisit without a cached point (a cold start: pinned
    // prefix, stolen frontier, .trail replay, sampling) is reached by
    // running up to its store, and the segment before it is discarded.
    rv_.drop_from(trail_.depth());
    const std::vector<Choice>& v = trail_.raw();
    for (std::size_t i = v.size(); i-- > 0;) {
      if (v[i].kind == ChoiceKind::kRevisit && v[i].chosen != 0 &&
          rv_.cached(i)) {
        rv_.build_script(i, v[i].chosen, &script_, &script_credits_);
        trail_.skip_to(i + 1);
        revisit_exec_ = true;
        break;
      }
    }
    mark_.rf_choice_points = m_rf_choice_points_->value;
    mark_.rf_candidates = m_rf_candidates_->value;
    mark_.sched_choice_points = m_sched_choice_points_->value;
    mark_.rf_deferred_reads = m_rf_deferred_reads_->value;
    mark_.rf_revisit_points = m_rf_revisit_points_->value;
    mark_.rf_fanout = *m_rf_fanout_;
    mark_.violations = violations_.size();
    mark_.violations_total = violations_total_;
  }
  begin_segment(test);
  // Sleep sets justify pruning by "a sibling DFS branch covers this";
  // in the random-walk sampling phase no systematic siblings exist, so
  // the reduction is unsound there (it would discard whole samples).
  const bool use_sleep_sets =
      cfg_.enable_sleep_sets && trail_.mode() == Trail::Mode::kDfs;

  for (;;) {
    enabled_.clear();
    enabled_.reserve(static_cast<std::size_t>(spawned_));
    int n = 0;
    bool any_yielded = false;
    bool any_blocked = false;
    for (int i = 0; i < spawned_; ++i) {
      switch (threads_[static_cast<std::size_t>(i)].status) {
        case ThreadStatus::kRunnable:
          enabled_.push_back(i);
          ++n;
          break;
        case ThreadStatus::kYielded:
          any_yielded = true;
          break;
        case ThreadStatus::kBlockedJoin:
        case ThreadStatus::kBlockedMutex:
          any_blocked = true;
          break;
        case ThreadStatus::kDone:
        case ThreadStatus::kAbsent:
          break;
      }
    }
    const bool forced = script_pos_ < script_.size();

    if (n == 0) {
      if (forced) {
        fail_execution("revisit replay stalled before script step " +
                       std::to_string(script_pos_) + " of " +
                       std::to_string(script_.size()) + ": no runnable thread");
      } else if (!any_yielded && !any_blocked) {
        outcome_ = Outcome::kComplete;
      } else if (any_yielded) {
        // Only spinners (and threads waiting on them) remain: an unfair
        // execution a sibling branch explores fairly. Prune.
        outcome_ = Outcome::kPrunedLivelock;
      } else {
        report_violation(ViolationKind::kDeadlock,
                         "all live threads are blocked");
        outcome_ = Outcome::kBuiltinViolation;
      }
      break;
    }

    if (++steps_ > cfg_.max_steps) {
      outcome_ = Outcome::kPrunedBound;
      break;
    }
    // Budget enforcement mid-execution: a single runaway execution must
    // not blow past the wall-clock or memory budget before the
    // between-executions check ever runs. Checked every 64 visible ops to
    // keep the clock syscall off the hot path.
    if ((steps_ & 63u) == 0 && check_budgets()) {
      outcome_ = Outcome::kPrunedBound;
      break;
    }

    int pick = -1;
    if (forced) {
      // A revisit script: its steps run in their recorded order, without
      // consulting or growing the sleep set (the continuation starts with
      // an empty one).
      const ScriptStep& fs = script_[script_pos_];
      if (fs.tid >= spawned_ ||
          threads_[static_cast<std::size_t>(fs.tid)].status !=
              ThreadStatus::kRunnable) {
        fail_execution("revisit replay: T" + std::to_string(fs.tid) +
                       " cannot take script step " +
                       std::to_string(script_pos_) + " of " +
                       std::to_string(script_.size()));
        break;
      }
      pick = fs.tid;
      forced_ = &fs;
      ++script_pos_;
      ++steps_scripted_;
    } else {
      forced_ = nullptr;
      // Two sound reductions govern the schedule choice:
      //  1. Invisible transitions: a thread parked at a thread-local
      //     (internal) operation always goes first without branching —
      //     such operations commute with every operation of every other
      //     thread, now and in the future.
      //  2. Sleep sets: once a thread's alternative has been fully
      //     explored at this choice point, siblings run with that thread
      //     asleep until a conflicting operation executes; if every
      //     runnable thread is asleep, the remainder of this execution is
      //     covered by an already-explored branch and is pruned as
      //     redundant.
      for (int i = 0; i < n; ++i) {
        const PendingOp& p =
            threads_[static_cast<std::size_t>(enabled_[i])].pending;
        if (p.cls == PendingOp::Class::kInternal) {
          pick = enabled_[i];
          break;
        }
      }
      // rf mode, third sound reduction: a deferred (non-seq_cst) load
      // never branches the schedule. Its only globally visible effect is
      // which message it observes: its kReadsFrom choice enumerates the
      // messages that exist, and each later store to the location offers
      // to revisit it (kRevisit) — so it runs greedily at its earliest
      // placement. Seq_cst loads keep schedule branching: they read and
      // advance the location's SC floors, which other threads observe.
      if (pick < 0 && rf_mode_) {
        for (int i = 0; i < n; ++i) {
          const PendingOp& p =
              threads_[static_cast<std::size_t>(enabled_[i])].pending;
          if (p.cls == PendingOp::Class::kRead && rf_defers_load(p.order)) {
            pick = enabled_[i];
            m_rf_deferred_reads_->add();
            break;
          }
        }
      }
      if (pick < 0) {
        cands_.clear();
        int nc = 0;
        for (int i = 0; i < n; ++i) {
          bool asleep = false;
          if (use_sleep_sets) {
            for (const SleepEntry& e : sleep_) {
              if (e.tid == enabled_[i]) {
                asleep = true;
                break;
              }
            }
          }
          if (!asleep) {
            cands_.push_back(enabled_[i]);
            ++nc;
          }
        }
        if (nc == 0) {
          outcome_ = Outcome::kPrunedRedundant;
          break;
        }
        if (nc > 1) m_sched_choice_points_->add();
        std::uint32_t k = trail_.choose(ChoiceKind::kSchedule,
                                        static_cast<std::uint32_t>(nc));
        pick = cands_[k];
        if (use_sleep_sets) {
          for (std::uint32_t i = 0; i < k; ++i) {
            sleep_.push_back(SleepEntry{
                cands_[i],
                threads_[static_cast<std::size_t>(cands_[i])].pending});
          }
        }
      }
      // Executing `pick`'s operation wakes every sleeper it conflicts
      // with (the kSleepSetNeverWakes sabotage hook skips the conflict
      // wake-ups, turning the reduction unsound; the fuzzer must catch
      // that).
      {
        const PendingOp& ex = threads_[static_cast<std::size_t>(pick)].pending;
        const bool wake_conflicts =
            cfg_.unsound_hook != UnsoundHook::kSleepSetNeverWakes;
        std::erase_if(sleep_, [&](const SleepEntry& e) {
          return e.tid == pick || (wake_conflicts && conflicts(e.op, ex));
        });
      }
      if (trail_.position() < replay_end_) {
        ++steps_replayed_;
      } else {
        ++steps_fresh_;
      }
      const PendingOp& p = threads_[static_cast<std::size_t>(pick)].pending;
      if (rf_mode_ && p.cls != PendingOp::Class::kInternal &&
          !(p.cls == PendingOp::Class::kRead && rf_defers_load(p.order))) {
        credit_[static_cast<std::size_t>(pick)] = 0;
      }
    }
    if (rf_mode_) {
      rv_.begin_step(pick, threads_[static_cast<std::size_t>(pick)].pending.cls ==
                               PendingOp::Class::kInternal);
    }
    current_ = pick;
    fiber::Fiber& fib = *threads_[static_cast<std::size_t>(pick)].fib;
    if (crash_handlers_active_) {
      // Containment window: only test-body code runs between this switch
      // and the fiber's switch back. A fatal signal inside it siglongjmps
      // here (onto the scheduler's native stack, abandoning the fiber) and
      // becomes a kCrash violation instead of killing the process.
      if (sigsetjmp(g_crash_jmp, 0) == 0) {
        g_crash_armed = 1;
        fib.switch_to(sched_fiber_);
        g_crash_armed = 0;
      } else {
        sched_fiber_.resumed_by_jump();
        ::pthread_sigmask(SIG_SETMASK, &g_crash_mask, nullptr);
        contain_crash(static_cast<int>(g_crash_sig), g_crash_addr);
        break;
      }
    } else {
      fib.switch_to(sched_fiber_);
    }

    if (rv_restart_) {
      // A store took a revisit alternative: discard this segment (its
      // counters and reports included) and run the revisit's script.
      rv_restart_ = false;
      m_rf_choice_points_->value = mark_.rf_choice_points;
      m_rf_candidates_->value = mark_.rf_candidates;
      m_sched_choice_points_->value = mark_.sched_choice_points;
      m_rf_deferred_reads_->value = mark_.rf_deferred_reads;
      m_rf_revisit_points_->value = mark_.rf_revisit_points;
      *m_rf_fanout_ = mark_.rf_fanout;
      violations_.resize(mark_.violations);
      violations_total_ = mark_.violations_total;
      revisit_exec_ = true;
      begin_segment(test);
      continue;
    }
    if (abandoned_) {
      outcome_ = fatal_abandon_ ? Outcome::kEngineFatal : Outcome::kBuiltinViolation;
      break;
    }
    if (rf_mode_) rv_.end_step();
  }
  forced_ = nullptr;

  // Defense in depth for rf-class representatives: the operational
  // construction only ever records constraint edges from earlier-executed
  // to later-executed events, so a cycle here means the engine itself
  // mis-built the class. Discard the execution as an internal error (which
  // also taints any exhaustive-proof verdict) rather than checking it.
  if (rf_mode_ && outcome_ == Outcome::kComplete) {
    std::string why;
    if (!rf_check_.validate(&why)) {
      report_violation(ViolationKind::kEngineFatal,
                       "rf-class constraints admit no linearization: " + why);
      outcome_ = Outcome::kEngineFatal;
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduling primitives (called on modeled-thread fibers)
// ---------------------------------------------------------------------------

bool Engine::conflicts(const PendingOp& a, const PendingOp& b) {
  using C = PendingOp::Class;
  if (a.cls == C::kInternal || b.cls == C::kInternal) return false;
  if (a.cls == C::kMutex || b.cls == C::kMutex) {
    return a.cls == C::kMutex && b.cls == C::kMutex && a.mutex == b.mutex;
  }
  if (a.cls == C::kScFence || b.cls == C::kScFence) return true;
  if (a.loc != b.loc) return false;
  if (a.cls == C::kWrite || b.cls == C::kWrite) return true;
  // Two loads of one location commute unless both are seq_cst: each raises
  // the location's SC read floor, so which runs first bounds what the
  // other may read.
  return is_seq_cst(a.order) && is_seq_cst(b.order);
}

void Engine::park(PendingOp op) {
  cur().pending = op;
  switch_to_scheduler();
}

void Engine::switch_to_scheduler() {
  sched_fiber_.switch_to(*threads_[static_cast<std::size_t>(current_)].fib);
}

void Engine::block(ThreadStatus why) {
  cur().status = why;
  switch_to_scheduler();
}

void Engine::abandon_execution() {
  abandoned_ = true;
  switch_to_scheduler();
  fatal("abandoned fiber was resumed");
}

void Engine::thread_exit() {
  int tid = current_;
  Thread& t = cur();
  // A final event so the join edge covers every plain access the thread
  // performed after its last visible operation (race-detector epochs are
  // pos+1-based).
  bump_event(tid);
  t.status = ThreadStatus::kDone;
  record(TraceEvent::Kind::kThreadEnd, MemoryOrder::relaxed, TraceEvent::kNoLoc, 0);
  for (int i = 0; i < spawned_; ++i) {
    Thread& u = threads_[static_cast<std::size_t>(i)];
    if (u.status == ThreadStatus::kBlockedJoin && u.waiting_join == tid) {
      u.status = ThreadStatus::kRunnable;
    }
  }
  t.fib->mark_finished();
  switch_to_scheduler();
  fatal("finished fiber was resumed");
}

void Engine::bump_event(int tid) {
  ThreadMMState& t = threads_[static_cast<std::size_t>(tid)].mm;
  ++t.pos;
  t.cur.vc.set(static_cast<std::size_t>(tid), t.pos);
}

void Engine::wake_yielded(int waker) {
  for (int i = 0; i < spawned_; ++i) {
    if (i == waker) continue;
    Thread& u = threads_[static_cast<std::size_t>(i)];
    if (u.status == ThreadStatus::kYielded) {
      u.status = ThreadStatus::kRunnable;
      if (rf_mode_) rv_.wake(i);
    }
  }
}

int Engine::spawn_thread(std::function<void()> body) {
  park(PendingOp{});
  int parent = current_;
  if (spawned_ >= cfg_.max_threads) {
    engine_fatal("too many modeled threads (max_threads=" +
                 std::to_string(cfg_.max_threads) + ")");
  }
  int tid = spawned_++;
  Thread& th = threads_[static_cast<std::size_t>(tid)];
  th.body = std::move(body);
  th.mm.reset();
  th.waiting_join = -1;
  th.waiting_mutex = nullptr;
  // A fresh thread runs setup code until its first park: internal class
  // (also clears the previous execution's stale pending op, which would
  // otherwise make replays diverge).
  th.pending = PendingOp{};
  bump_event(parent);
  th.mm.cur = threads_[static_cast<std::size_t>(parent)].mm.cur;  // hb: spawn edge
  if (rf_mode_) rv_.on_spawn(parent, tid);
  th.status = ThreadStatus::kRunnable;
  th.fib->reset([this, tid]() {
    threads_[static_cast<std::size_t>(tid)].body();
    thread_exit();
  });
  threads_[static_cast<std::size_t>(parent)].mm.last_sc_index = 0;
  record(TraceEvent::Kind::kSpawn, MemoryOrder::relaxed, TraceEvent::kNoLoc,
         static_cast<std::uint64_t>(tid));
  return tid;
}

void Engine::join_thread(int tid) {
  park(PendingOp{});
  assert(tid >= 0 && tid < spawned_ && tid != current_);
  Thread& target = threads_[static_cast<std::size_t>(tid)];
  while (target.status != ThreadStatus::kDone) {
    cur().waiting_join = tid;
    block(ThreadStatus::kBlockedJoin);
  }
  cur().waiting_join = -1;
  bump_event(current_);
  cur_mm().cur.join(target.mm.cur);  // hb: join edge
  if (rf_mode_) rv_.join_thread(current_, tid);
  cur_mm().last_sc_index = 0;
  record(TraceEvent::Kind::kJoin, MemoryOrder::relaxed, TraceEvent::kNoLoc,
         static_cast<std::uint64_t>(tid));
}

void Engine::yield_thread() {
  park(PendingOp{});
  record(TraceEvent::Kind::kYield, MemoryOrder::relaxed, TraceEvent::kNoLoc, 0);
  if (rf_mode_ && (forced_ != nullptr
                       ? (forced_->flags & kStepCredited) != 0
                       : credit_[static_cast<std::size_t>(current_)] != 0)) {
    // A wake credit: the revisited store ended this yield before the
    // revisit re-ran the thread, so the thread stays runnable.
    credit_[static_cast<std::size_t>(current_)] = 0;
    if (!rv_.mark_credited(forced_ != nullptr ? forced_->src : credit_store_)) {
      engine_fatal("revisit replay: credited yield of T" +
                   std::to_string(current_) + " lost the store that woke it");
    }
    return;
  }
  cur().status = ThreadStatus::kYielded;
  switch_to_scheduler();
}

// ---------------------------------------------------------------------------
// Atomic operations
// ---------------------------------------------------------------------------

std::uint32_t Engine::new_location(const char* name, bool initialized,
                                   std::uint64_t init_value) {
  if (g_engine != this || current_ < 0) {
    fatal("Atomic/Var constructed outside a modeled execution");
  }
  const std::uint32_t id = nlocs_++;
  if (id == locs_.size()) {
    locs_.emplace_back(name);
  } else {
    locs_[id].reuse(name);
  }
  Message init;
  init.value = init_value;
  init.timestamp = 0;
  init.writer = -1;
  init.uninit = !initialized;
  locs_[id].history.push_back(std::move(init));
  if (rf_mode_) rv_.on_new_location(id);
  return id;
}

void Engine::apply_read_sync(ThreadMMState& t, const Message& m, MemoryOrder o) {
  if (is_acquire(o)) {
    t.cur.join(m.sync);
  } else {
    // A later acquire fence turns this relaxed read into synchronization.
    t.acq_pending.join(m.sync);
  }
}

std::uint32_t Engine::pick_read(std::uint32_t loc, MemoryOrder o,
                                std::uint64_t exclude_value, bool use_exclude,
                                bool* has_option) {
  Location& L = locs_[loc];
  ThreadMMState& t = cur_mm();
  std::uint32_t floor = t.cur.view.get(loc);
  if (is_seq_cst(o) &&
      cfg_.unsound_hook != UnsoundHook::kScLoadIgnoresFloor) {
    floor = std::max(floor, L.sc_write_floor);
    floor = std::max(floor, L.sc_read_floor);
  }
  std::uint32_t hi = L.last_ts();
  assert(floor <= hi);
  if (forced_ != nullptr) {
    std::uint32_t idx = forced_source(loc, floor, hi);
    if (idx != hi) ++t.stale_reads;
    *has_option = true;
    return idx;
  }
  bool budget = t.stale_reads < cfg_.stale_read_bound;

  std::vector<std::uint32_t>& cands = rf_scratch_;
  cands.clear();
  std::uint32_t n = 0;
  for (std::uint32_t i = hi;; --i) {
    const Message& m = L.history[i];
    bool stale = i != hi;
    bool excluded = use_exclude && m.value == exclude_value;
    if (!excluded && (!stale || budget)) {
      cands.push_back(i);
      ++n;
    }
    if (i == floor) break;
  }

  if (n == 0) {
    *has_option = false;
    return 0;
  }
  m_rf_choice_points_->add();
  m_rf_candidates_->add(n);
  m_rf_fanout_->record(n);
  std::uint32_t k = trail_.choose(ChoiceKind::kReadsFrom, n);
  std::uint32_t idx = cands[k];
  if (idx != hi) ++t.stale_reads;
  *has_option = true;
  return idx;
}

std::uint32_t Engine::forced_source(std::uint32_t loc, std::uint32_t floor,
                                    std::uint32_t hi) {
  const Location& L = locs_[loc];
  for (std::uint32_t i = hi;; --i) {
    if (L.history[i].rf_step == forced_->src) return i;
    if (i == floor) break;
  }
  engine_fatal("revisit replay: T" + std::to_string(current_) + " at script step " +
               std::to_string(script_pos_ - 1) + " finds no eligible message of '" +
               L.name + "' written by script step " + std::to_string(forced_->src));
}

std::uint64_t Engine::atomic_load(std::uint32_t loc, MemoryOrder o) {
  if (cfg_.strengthen_to_sc) o = MemoryOrder::seq_cst;
  park(PendingOp{PendingOp::Class::kRead, loc, nullptr, o});
  bool has = false;
  std::uint32_t idx = pick_read(loc, o, 0, false, &has);
  assert(has);
  Location& L = locs_[loc];
  const Message& m = L.history[idx];
  ThreadMMState& t = cur_mm();
  if (m.uninit) {
    report_violation(ViolationKind::kUninitializedLoad,
                     std::string("load of '") + L.name +
                         "' observes uninitialized value");
    abandon_execution();
  }
  bump_event(current_);
  t.cur.view.raise(loc, idx);
  apply_read_sync(t, m, o);
  if (is_seq_cst(o)) {
    L.sc_read_floor = std::max(L.sc_read_floor, idx);
    t.last_sc_index = next_sc_index();
  } else {
    t.last_sc_index = 0;
  }
  if (rf_mode_) {
    rf_check_.on_read(current_, loc, idx, is_seq_cst(o));
    rv_.on_read(m.rf_step, m.rf_clock);
    if (is_seq_cst(o)) rv_.on_sc_read(loc);
    if (m.rf_step >= credit_store_) credit_[static_cast<std::size_t>(current_)] = 0;
    if (rf_defers_load(o)) {
      // A forced load keeps the revisit status it had where the script
      // copied it from; otherwise alternative 0 is the latest message.
      rv_.mark_load(loc, forced_ != nullptr ? forced_->flags
                         : idx == L.last_ts() ? kStepAlt0Load
                                              : std::uint8_t{0});
    }
  }
  record(TraceEvent::Kind::kLoad, o, loc, m.value);
  return m.value;
}

void Engine::append_store(std::uint32_t loc, std::uint64_t v, MemoryOrder o,
                          bool is_rmw) {
  Location& L = locs_[loc];
  ThreadMMState& t = cur_mm();
  int tid = current_;

  bump_event(tid);
  auto ts = static_cast<std::uint32_t>(L.history.size());
  t.cur.view.set(loc, ts);

  // C++11 release-sequence contiguity: a non-RMW store by thread T breaks
  // every live release sequence not headed by T.
  if (!is_rmw) {
    std::erase_if(L.rs_heads,
                  [tid](const ReleaseSeqHead& h) { return h.thread != tid; });
  }

  Message m;
  m.value = v;
  m.timestamp = ts;
  m.writer = tid;
  m.writer_pos = t.pos;

  support::Timestamps base;
  bool heads_own = false;
  if (is_release(o)) {
    base = t.cur;
    heads_own = true;
  } else if (t.has_rel_fence) {
    base = t.rel_fence;  // fence-promoted (hypothetical) release sequence
    heads_own = true;
  }
  m.sync = base;
  for (const ReleaseSeqHead& h : L.rs_heads) m.sync.join(h.sync);

  if (is_seq_cst(o)) {
    L.sc_write_floor = ts;
    sc_view_.raise(loc, ts);
    m.sc_index = next_sc_index();
    t.last_sc_index = m.sc_index;
  } else {
    t.last_sc_index = 0;
  }
  if (rf_mode_) {
    m.rf_step = rv_.current_step();
    m.rf_clock = rv_.on_write(loc, L.latest().rf_clock, is_seq_cst(o));
  }

  L.history.push_back(std::move(m));
  if (heads_own) L.rs_heads.push_back(ReleaseSeqHead{tid, std::move(base)});
  if (rf_mode_) rf_check_.on_write(tid, loc, ts, is_seq_cst(o));
  wake_yielded(tid);
  if (rf_mode_ && forced_ == nullptr) offer_revisits(loc);
}

void Engine::offer_revisits(std::uint32_t loc) {
  const std::vector<std::int32_t>& loads = rv_.qualifying(loc);
  if (loads.empty()) return;
  std::uint32_t k = trail_.choose(ChoiceKind::kRevisit,
                                  static_cast<std::uint32_t>(loads.size()) + 1);
  const std::size_t pos = trail_.position() - 1;
  m_rf_revisit_points_->add();
  // Saved on first reach, so serial DFS takes every later alternative of
  // this point from the cache instead of re-running up to here.
  if (!rv_.cached(pos)) rv_.save(pos);
  if (k == 0) return;
  rv_.build_script(pos, k, &script_, &script_credits_);
  rv_restart_ = true;
  switch_to_scheduler();
  fatal("revisited execution was resumed");
}

void Engine::atomic_store(std::uint32_t loc, std::uint64_t v, MemoryOrder o) {
  if (cfg_.strengthen_to_sc) o = MemoryOrder::seq_cst;
  park(PendingOp{PendingOp::Class::kWrite, loc, nullptr});
  append_store(loc, v, o, /*is_rmw=*/false);
  record(TraceEvent::Kind::kStore, o, loc, v);
}

std::uint64_t Engine::atomic_rmw(std::uint32_t loc, MemoryOrder o,
                                 std::uint64_t (*op)(std::uint64_t, std::uint64_t),
                                 std::uint64_t operand) {
  if (cfg_.strengthen_to_sc) o = MemoryOrder::seq_cst;
  park(PendingOp{PendingOp::Class::kWrite, loc, nullptr});
  Location& L = locs_[loc];
  // RMW atomicity: the write is mo-adjacent to the read, so under
  // append-order mo an RMW always reads the latest message.
  const Message& tail = L.latest();
  if (tail.uninit) {
    report_violation(ViolationKind::kUninitializedLoad,
                     std::string("rmw on uninitialized '") + L.name + "'");
    abandon_execution();
  }
  std::uint64_t old = tail.value;
  ThreadMMState& t = cur_mm();
  apply_read_sync(t, tail, o);
  t.cur.view.raise(loc, tail.timestamp);
  if (rf_mode_) {
    if (forced_ != nullptr && tail.rf_step != forced_->src) {
      engine_fatal("revisit replay: rmw on '" + std::string(L.name) +
                   "' at script step " + std::to_string(script_pos_ - 1) +
                   " reads a different write than recorded");
    }
    rf_check_.on_read(current_, loc, tail.timestamp, is_seq_cst(o));
    rv_.on_read(tail.rf_step, tail.rf_clock);
  }
  append_store(loc, op(old, operand), o, /*is_rmw=*/true);
  record(TraceEvent::Kind::kRmw, o, loc, old);
  return old;
}

std::uint64_t Engine::atomic_exchange(std::uint32_t loc, std::uint64_t v,
                                      MemoryOrder o) {
  return atomic_rmw(
      loc, o, [](std::uint64_t, std::uint64_t nv) { return nv; }, v);
}

bool Engine::atomic_cas(std::uint32_t loc, std::uint64_t& expected,
                        std::uint64_t desired, MemoryOrder success,
                        MemoryOrder failure) {
  if (cfg_.strengthen_to_sc) {
    success = MemoryOrder::seq_cst;
    failure = MemoryOrder::seq_cst;
  }
  park(PendingOp{PendingOp::Class::kWrite, loc, nullptr});
  Location& L = locs_[loc];
  ThreadMMState& t = cur_mm();
  const bool can_succeed = !L.latest().uninit && L.latest().value == expected;
  const bool tail_uninit = L.latest().uninit;

  // Failure candidates: any coherence-eligible message whose value differs
  // from `expected` (a failed CAS is just an atomic load).
  std::uint32_t floor = t.cur.view.get(loc);
  if (is_seq_cst(failure) &&
      cfg_.unsound_hook != UnsoundHook::kScLoadIgnoresFloor) {
    floor = std::max(floor, L.sc_write_floor);
    floor = std::max(floor, L.sc_read_floor);
  }
  std::uint32_t hi = L.last_ts();
  bool succeed = false;
  std::uint32_t idx = hi;
  if (forced_ != nullptr) {
    // Revisit replay: the recorded source decides success.
    idx = forced_source(loc, floor, hi);
    succeed = can_succeed && idx == hi;
    if (!succeed && L.history[idx].value == expected) {
      engine_fatal("revisit replay: cas on '" + std::string(L.name) +
                   "' at script step " + std::to_string(script_pos_ - 1) +
                   " cannot fail reading its recorded write");
    }
  } else {
    bool budget = t.stale_reads < cfg_.stale_read_bound;
    std::vector<std::uint32_t>& fails = rf_scratch_;
    fails.clear();
    std::uint32_t nf = 0;
    for (std::uint32_t i = hi;; --i) {
      const Message& m = L.history[i];
      bool stale = i != hi;
      if (m.value != expected && (!stale || budget)) {
        fails.push_back(i);
        ++nf;
      }
      if (i == floor) break;
    }

    std::uint32_t total = (can_succeed ? 1u : 0u) + nf;
    if (total == 0) {
      // Tail holds `expected` but is uninitialized, or no candidate at all.
      report_violation(ViolationKind::kUninitializedLoad,
                       std::string("cas on uninitialized '") + L.name + "'");
      abandon_execution();
    }
    m_rf_choice_points_->add();
    m_rf_candidates_->add(total);
    m_rf_fanout_->record(total);
    std::uint32_t k = trail_.choose(ChoiceKind::kReadsFrom, total);
    succeed = can_succeed && k == 0;
    if (!succeed) idx = fails[can_succeed ? k - 1 : k];
  }

  if (succeed) {
    const Message& tail = L.latest();
    apply_read_sync(t, tail, success);
    t.cur.view.raise(loc, tail.timestamp);
    if (rf_mode_) {
      rf_check_.on_read(current_, loc, tail.timestamp, is_seq_cst(success));
      rv_.on_read(tail.rf_step, tail.rf_clock);
    }
    append_store(loc, desired, success, /*is_rmw=*/true);
    record(TraceEvent::Kind::kRmw, success, loc, desired);
    return true;
  }

  const Message& m = L.history[idx];
  if (m.uninit || tail_uninit) {
    report_violation(ViolationKind::kUninitializedLoad,
                     std::string("cas-fail load of uninitialized '") + L.name + "'");
    abandon_execution();
  }
  if (idx != hi) ++t.stale_reads;
  bump_event(current_);
  t.cur.view.raise(loc, idx);
  apply_read_sync(t, m, failure);
  if (is_seq_cst(failure)) {
    L.sc_read_floor = std::max(L.sc_read_floor, idx);
    t.last_sc_index = next_sc_index();
  } else {
    t.last_sc_index = 0;
  }
  expected = m.value;
  if (rf_mode_) {
    rf_check_.on_read(current_, loc, idx, is_seq_cst(failure));
    rv_.on_read(m.rf_step, m.rf_clock);
    if (is_seq_cst(failure)) rv_.on_sc_read(loc);
  }
  record(TraceEvent::Kind::kCasFail, failure, loc, m.value);
  return false;
}

void Engine::atomic_thread_fence(MemoryOrder o) {
  if (cfg_.strengthen_to_sc) o = MemoryOrder::seq_cst;
  park(PendingOp{is_seq_cst(o) ? PendingOp::Class::kScFence
                               : PendingOp::Class::kInternal,
                 0, nullptr});
  ThreadMMState& t = cur_mm();
  bump_event(current_);
  if (is_acquire(o)) {
    t.cur.join(t.acq_pending);
    t.acq_pending.clear();
  }
  if (is_seq_cst(o)) {
    // Coherence propagation along the total SC order; hb still requires
    // the fence-release/fence-acquire pairing below.
    t.cur.view.join(sc_view_);
    sc_view_.join(t.cur.view);
    t.last_sc_index = next_sc_index();
    if (rf_mode_) {
      rf_check_.on_fence(current_);
      rv_.on_sc_fence();
    }
  } else {
    t.last_sc_index = 0;
  }
  if (is_release(o)) {
    t.rel_fence = t.cur;
    t.has_rel_fence = true;
  }
  record(TraceEvent::Kind::kFence, o, TraceEvent::kNoLoc, 0);
}

// ---------------------------------------------------------------------------
// Plain accesses (race detection) and mutexes
// ---------------------------------------------------------------------------

void Engine::plain_read(RaceShadow& s) {
  ThreadMMState& t = cur_mm();
  int tid = current_;
  if (s.w_thread >= 0 && s.w_thread != tid &&
      t.cur.vc.get(static_cast<std::size_t>(s.w_thread)) < s.w_pos) {
    report_violation(ViolationKind::kDataRace,
                     std::string("read of '") + s.name + "' by T" +
                         std::to_string(tid) + " races with write by T" +
                         std::to_string(s.w_thread));
    abandon_execution();
  }
  s.reads.raise(static_cast<std::size_t>(tid), t.pos + 1);
}

void Engine::plain_write(RaceShadow& s) {
  ThreadMMState& t = cur_mm();
  int tid = current_;
  if (s.w_thread >= 0 && s.w_thread != tid &&
      t.cur.vc.get(static_cast<std::size_t>(s.w_thread)) < s.w_pos) {
    report_violation(ViolationKind::kDataRace,
                     std::string("write of '") + s.name + "' by T" +
                         std::to_string(tid) + " races with write by T" +
                         std::to_string(s.w_thread));
    abandon_execution();
  }
  for (std::size_t u = 0; u < s.reads.stored_size(); ++u) {
    if (static_cast<int>(u) == tid) continue;
    if (s.reads.get(u) > t.cur.vc.get(u)) {
      report_violation(ViolationKind::kDataRace,
                       std::string("write of '") + s.name + "' by T" +
                           std::to_string(tid) + " races with read by T" +
                           std::to_string(u));
      abandon_execution();
    }
  }
  s.w_thread = tid;
  s.w_pos = t.pos + 1;
  s.reads.clear();
}

void Engine::mutex_lock(MutexState& m) {
  park(PendingOp{PendingOp::Class::kMutex, 0, &m});
  while (m.holder != -1) {
    // A blocked attempt observes the holder's lock; only a successful
    // lock or an unlock moves the mutex's dependency clock.
    if (rf_mode_) rv_.on_mutex(&m.rf_clock, false);
    cur().waiting_mutex = &m;
    block(ThreadStatus::kBlockedMutex);
    cur().waiting_mutex = nullptr;
  }
  if (rf_mode_) rv_.on_mutex(&m.rf_clock, true);
  m.holder = current_;
  bump_event(current_);
  cur_mm().cur.join(m.release_ts);  // sw: previous unlock -> this lock
  cur_mm().last_sc_index = 0;
  record(TraceEvent::Kind::kLock, MemoryOrder::acquire, TraceEvent::kNoLoc, 0);
}

void Engine::mutex_unlock(MutexState& m) {
  park(PendingOp{PendingOp::Class::kMutex, 0, &m});
  if (m.holder != current_) {
    engine_fatal(std::string("mutex '") + m.name + "' unlocked by non-owner T" +
                 std::to_string(current_));
  }
  bump_event(current_);
  m.release_ts = cur_mm().cur;
  m.holder = -1;
  if (rf_mode_) rv_.on_mutex(&m.rf_clock, true);
  cur_mm().last_sc_index = 0;
  for (int i = 0; i < spawned_; ++i) {
    Thread& u = threads_[static_cast<std::size_t>(i)];
    if (u.status == ThreadStatus::kBlockedMutex && u.waiting_mutex == &m) {
      u.status = ThreadStatus::kRunnable;
    }
  }
  wake_yielded(current_);
  record(TraceEvent::Kind::kUnlock, MemoryOrder::release, TraceEvent::kNoLoc, 0);
}

}  // namespace cds::mc
