// Stress backend: the same test bodies on real std::threads.
//
// Each iteration re-runs a mc::TestFn with genuine concurrency: spawns are
// std::threads, atomics map onto std::atomic with the declared memory
// order, and a seeded preemption point is injected before every atomic
// hook (sched_yield / double yield / short spin) to shake out interleavings
// the OS scheduler would otherwise never produce. Plain (mc::Var) accesses
// execute bare, so a TSan build sees the real races the model checker's
// FastTrack shadow detects analytically.
//
// Soundness: a stress run observes a sample of hardware schedules on one
// host, so it can only FALSIFY — the verdict is capped at inconclusive
// (never verified). Specification checking uses the existential
// observed-history semantics of spec/observed.h over the real-time
// interval order; built-in model checks (stale-read enumeration, the race
// detector, deadlock detection) do not apply.
//
// Determinism: the preemption decision stream is a pure function of
// (iteration seed, thread id, per-thread op index), so a replayed
// iteration under the same seed injects the same perturbations at the same
// program points (the hardware may still interleave differently — that is
// what makes replay probabilistic rather than exact).
#ifndef CDS_HARNESS_STRESS_BACKEND_H
#define CDS_HARNESS_STRESS_BACKEND_H

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/backend.h"
#include "mc/engine.h"
#include "spec/annotations.h"
#include "support/arena.h"
#include "support/record.h"

namespace cds::harness {

struct StressOptions {
  std::uint64_t iters = 256;  // iterations across all runners
  int threads_mult = 1;       // concurrent iteration runners
  std::uint64_t seed = 1;     // root seed; iteration i uses derive_seed(seed, i)
  bool check_spec = true;     // observed-history spec checking per iteration
  std::uint64_t max_histories = 2048;  // per-object order-enumeration cap
  std::uint32_t max_locations = 4096;
  int max_threads = 32;  // per iteration, including the root thread
  bool stop_on_first_violation = false;
  // Per-iteration watchdog: an iteration that runs longer than this is
  // declared hung — its runner thread is abandoned (detached; it leaks
  // until process exit, since a deadlocked std::thread cannot be
  // killed), a diagnostic naming the iteration and seed lands in
  // StressRunResult::hangs, and the run returns inconclusive instead of
  // blocking forever on a deadlocked test body. 0 disables the watchdog
  // (joins unconditionally, the pre-watchdog behavior).
  double iteration_timeout_seconds = 60.0;
};

struct StressViolation {
  mc::ViolationKind kind{};
  std::string detail;
  std::uint64_t iteration = 0;
  std::uint64_t iter_seed = 0;
  // Thread-major preemption decision stream (each entry one of 4
  // alternatives); serializes into the v2 .trail format under
  // `backend stress`.
  std::vector<mc::Choice> decisions;
};

struct StressStats {
  std::uint64_t iterations = 0;
  std::uint64_t violations_total = 0;
  std::uint64_t spec_histories_checked = 0;
  std::uint64_t spec_cap_hits = 0;  // iterations left unresolved by the cap
  std::uint64_t hung_iterations = 0;  // abandoned by the watchdog
  double seconds = 0.0;
};

// The stress counters as a record (support/record.h): unit tests' runs
// sum, and --backend stress --json prints it as its `stats` block.
inline std::array<support::Field, 6> fields(StressStats& s) {
  using support::Merge;
  return {{
      {"iterations", &s.iterations, Merge::kSum},
      {"violations_total", &s.violations_total, Merge::kSum},
      {"spec_histories_checked", &s.spec_histories_checked, Merge::kSum},
      {"spec_cap_hits", &s.spec_cap_hits, Merge::kSum},
      {"hung_iterations", &s.hung_iterations, Merge::kSum},
      {"seconds", &s.seconds, Merge::kSum},
  }};
}

struct StressRunResult {
  StressStats stats;
  std::vector<StressViolation> violations;  // first kMaxRecorded only
  // One diagnostic per iteration the watchdog abandoned (runner,
  // iteration, seed): enough to replay the hang under a debugger.
  std::vector<std::string> hangs;
  // kFalsified when any violation surfaced, else kInconclusive. Stress
  // never verifies — and a hang cannot falsify, only leave the verdict
  // inconclusive with a diagnostic.
  mc::Verdict verdict = mc::Verdict::kInconclusive;

  static constexpr std::size_t kMaxRecorded = 16;
};

// One iteration executor. Owns the shared-location slots, the per-thread
// decision logs, and a private spec Recorder; reusable across iterations
// (state resets in run_iteration). Public so tests can drive single
// iterations; most callers want run_stress below.
class StressBackend final : public Backend {
 public:
  explicit StressBackend(const StressOptions& opts);
  ~StressBackend() override;
  StressBackend(const StressBackend&) = delete;
  StressBackend& operator=(const StressBackend&) = delete;

  // Runs `test` once under `iter_seed`. Must be called from a thread that
  // is not itself inside an iteration. All spawned threads are joined on
  // return (test bodies join their threads by contract; stragglers are
  // joined defensively).
  void run_iteration(const mc::TestFn& test, std::uint64_t iter_seed);

  // --- post-iteration views (valid until the next run_iteration) -------
  [[nodiscard]] const std::vector<std::pair<mc::ViolationKind, std::string>>&
  iteration_violations() const {
    return iter_violations_;
  }
  [[nodiscard]] spec::Recorder& iteration_recorder() { return recorder_; }
  // Thread-major flattened decision stream of the finished iteration.
  [[nodiscard]] std::vector<mc::Choice> decision_trail() const;

  // --- Backend interface ------------------------------------------------
  [[nodiscard]] const char* backend_name() const override { return "stress"; }
  std::uint32_t new_location(const char* name, bool initialized,
                             std::uint64_t init_value) override;
  std::uint64_t atomic_load(std::uint32_t loc, mc::MemoryOrder o) override;
  void atomic_store(std::uint32_t loc, std::uint64_t v,
                    mc::MemoryOrder o) override;
  std::uint64_t atomic_rmw(std::uint32_t loc, mc::MemoryOrder o,
                           std::uint64_t (*op)(std::uint64_t, std::uint64_t),
                           std::uint64_t operand) override;
  bool atomic_cas(std::uint32_t loc, std::uint64_t& expected,
                  std::uint64_t desired, mc::MemoryOrder success,
                  mc::MemoryOrder failure) override;
  std::uint64_t atomic_exchange(std::uint32_t loc, std::uint64_t v,
                                mc::MemoryOrder o) override;
  void atomic_thread_fence(mc::MemoryOrder o) override;
  void plain_read(mc::RaceShadow& s) override;
  void plain_write(mc::RaceShadow& s) override;
  void mutex_lock(mc::MutexState& m) override;
  void mutex_unlock(mc::MutexState& m) override;
  int spawn_thread(std::function<void()> body) override;
  void join_thread(int tid) override;
  void yield_thread() override;
  [[nodiscard]] int current_thread() const override;
  void* allocate(std::size_t bytes, std::size_t align) override;
  void report_violation(mc::ViolationKind k, std::string detail) override;
  [[nodiscard]] std::uint32_t location_count() const override {
    return nloc_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t location_final_value(
      std::uint32_t loc) const override {
    return slots_[loc].load(std::memory_order_acquire);
  }
  [[nodiscard]] spec::Recorder* recorder() override { return &recorder_; }
  [[nodiscard]] spec::OPEvent snapshot_op(int tid) const override;

 private:
  struct PerThread {
    std::vector<std::uint8_t> decisions;
    std::uint64_t op_count = 0;
    std::uint32_t last_rt_begin = 0;
    std::uint32_t last_rt_end = 0;

    void reset() {
      decisions.clear();
      op_count = 0;
      last_rt_begin = 0;
      last_rt_end = 0;
    }
  };

  // Seeded preemption point before every atomic hook; also advances the
  // calling thread's op index.
  void preempt(int tid);
  std::uint32_t next_rt_ticket() {
    return rt_ticket_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  std::atomic<std::uint64_t>& slot(std::uint32_t loc) { return slots_[loc]; }

  StressOptions opts_;
  std::uint64_t iter_seed_ = 0;

  std::vector<std::atomic<std::uint64_t>> slots_;
  std::vector<const char*> names_;
  std::atomic<std::uint32_t> nloc_{0};
  std::atomic<std::uint32_t> rt_ticket_{0};

  std::vector<PerThread> pt_;        // indexed by tid
  std::vector<std::thread> threads_; // index tid-1; slots pre-sized
  int next_tid_ = 1;
  std::mutex spawn_mu_;

  support::Arena arena_;
  std::mutex arena_mu_;

  spec::Recorder recorder_;
  std::vector<std::pair<mc::ViolationKind, std::string>> iter_violations_;
  std::mutex violation_mu_;
};

// Per-iteration callback (runs serialized, between iterations of runner
// `r`): read off behaviors via location_count/location_final_value or the
// iteration recorder.
using StressIterationHook = std::function<void(int r, StressBackend&)>;

// Runs `opts.iters` iterations of `test`, `opts.threads_mult` runners in
// parallel (each with its own StressBackend). `test` must be re-entrant
// when threads_mult > 1 — use run_stress_per_runner for closures with
// per-run state (e.g. fuzz::Program::test_fn observation buffers).
// With the watchdog enabled (iteration_timeout_seconds > 0), anything
// `test` captures by reference must stay alive until process exit if a
// hang is possible: an abandoned runner thread still holds the closure.
StressRunResult run_stress(const mc::TestFn& test, const StressOptions& opts,
                           const StressIterationHook& hook = nullptr);

// As run_stress, but each runner builds its own TestFn instance.
StressRunResult run_stress_per_runner(
    const std::function<mc::TestFn(int r)>& make_test,
    const StressOptions& opts, const StressIterationHook& hook = nullptr);

}  // namespace cds::harness

#endif  // CDS_HARNESS_STRESS_BACKEND_H
