// Store-driven reads-from revisits (ExploreMode::kRf).
//
// In rf mode a deferred load (an atomic load weaker than seq_cst) never
// branches the schedule: it runs at its earliest placement and picks among
// the messages that exist. A message written later reaches it only through
// a backward revisit (TruSt, Kokologiannakis et al., POPL 2022): when a
// store S to x executes, each earlier deferred load L of x that S does not
// depend on becomes an alternative of a ChoiceKind::kRevisit choice point
// at S. Taking alternative i re-runs the execution restricted to the
// events before L plus S's dependency closure, in their original order as
// forced picks (the script), then lets L read S. The execution continues
// from there as a fresh one.
//
// This module owns the bookkeeping: the current segment's step log (one
// entry per scheduler step; a segment is the run since the last restart),
// the per-thread and per-message dependency clocks, the qualification and
// maximality tests, and a cache of revisit points keyed by trail position
// so serial DFS derives each script from the execution before it instead
// of re-running the prefix. The engine owns the scheduling and replays
// scripts. See DESIGN.md "Reads-from exploration" for the rules and the
// argument for them.
#ifndef CDS_MC_REVISIT_H
#define CDS_MC_REVISIT_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mc/memory_order.h"

namespace cds::mc {

// True for loads rf mode defers (earliest placement, revisitable):
// everything below seq_cst. SC loads keep full schedule branching because
// they read and advance the global SC floors, so their placement is
// visible to other threads.
[[nodiscard]] inline bool rf_defers_load(MemoryOrder o) {
  return !is_seq_cst(o);
}

// Step flags.
inline constexpr std::uint8_t kStepLocal = 1;      // thread-local operation
inline constexpr std::uint8_t kStepAlt0Load = 2;   // deferred load, forward alt 0
inline constexpr std::uint8_t kStepRevisited = 4;  // read satisfied by a revisit
inline constexpr std::uint8_t kStepCredited = 8;   // yield a wake credit ended

// One forced step of a revisit's script.
struct ScriptStep {
  std::int16_t tid;
  // kStepAlt0Load / kStepRevisited / kStepCredited as the step had them
  // where it was copied from: a forced load keeps its revisit status.
  std::uint8_t flags;
  // Read steps: index in the script of the step that wrote the message to
  // read (-1: the location's initial value); credited yields: the store
  // whose wake the credit stood for. kLostWriter: that step was not kept,
  // which replay reports as an engine bug.
  std::int32_t src;
};

class RfRevisits {
 public:
  static constexpr std::int32_t kNoStep = -1;
  static constexpr std::int32_t kLostWriter = -2;
  static constexpr std::uint32_t kNoClock = 0xffffffffu;

  explicit RfRevisits(int max_threads);

  // --- the current segment ---------------------------------------------
  // Clears the log and clocks; thread 0 exists.
  void begin_segment();
  void on_new_location(std::uint32_t loc);
  // Program order and the spawn edge: the child starts with the parent's
  // clock (which already holds the spawn step).
  void on_spawn(int parent, int child);
  // The scheduler picked `tid` for one step; `local` marks a thread-local
  // operation (spawn, join, yield, non-SC fence, thread start).
  void begin_step(int tid, bool local);
  // Links a finished step into the chain the maximality test walks.
  void end_step();
  [[nodiscard]] std::int32_t current_step() const {
    return static_cast<std::int32_t>(steps_.size()) - 1;
  }

  // The current step read the message written by `writer_step` whose
  // clock slot is `writer_clock` (reads-from join).
  void on_read(std::int32_t writer_step, std::uint32_t writer_clock);
  // The current step wrote a message to `loc` whose modification-order
  // predecessor has clock slot `prev_clock` (mo join). A seq_cst write
  // also joins every earlier seq_cst read of `loc` and every earlier
  // seq_cst fence: once it executes, those could no longer read or see
  // what they did. Returns the new message's slot.
  std::uint32_t on_write(std::uint32_t loc, std::uint32_t prev_clock,
                         bool seq_cst);
  // The current step was a seq_cst read of `loc` / a seq_cst fence. It
  // joins the earlier ones of its kind (of `loc`, for reads): a seq_cst
  // read raises the location's SC read floor and a seq_cst fence the SC
  // view, so an earlier one re-run after it could not read or see what
  // it did.
  void on_sc_read(std::uint32_t loc);
  void on_sc_fence();
  // A mutex operation: joins the mutex's clock slot; `acquires_or_releases`
  // then moves the mutex's clock to the step (a blocked attempt only
  // observes it).
  void on_mutex(std::uint32_t* mutex_clock, bool acquires_or_releases);
  // `dst` joins `src`'s clock (a join).
  void join_thread(int dst, int src);
  // The current step (a store or unlock) made the yielded thread `woken`
  // runnable: its next step exists only because of this one, so it joins
  // the waker's clock. A store also remembers the yields it ended, for its
  // revisits (see kept_clock() and build_script()).
  void wake(int woken);
  // The current step is a yield that a wake credit ended instead of a
  // store: it joins the clock of `store_step`, the store that woke the
  // thread before the revisit re-ran it. False when that step wrote no
  // message (a script that lost it).
  bool mark_credited(std::int32_t store_step);
  // The current step is a deferred load of `loc`; `flags` is
  // kStepAlt0Load, kStepRevisited or 0.
  void mark_load(std::uint32_t loc, std::uint8_t flags);

  // Deferred loads the store just performed by the current step to `loc`
  // may revisit, in execution order (step indices). Call after the store's
  // wake-ups.
  const std::vector<std::int32_t>& qualifying(std::uint32_t loc);

  // --- revisit points by trail position ----------------------------------
  void clear_cache() { live_ = 0; }
  // Invalidates every point at a trail position >= `pos`.
  void drop_from(std::size_t pos);
  [[nodiscard]] bool cached(std::size_t pos) const;
  // Records the revisit point the current step's store reached at trail
  // position `pos`: the log up to this step, the loads qualifying()
  // returned, the kept clock of each, and the yields the store ended.
  void save(std::size_t pos);
  // The script of alternative `alt` (>= 1) of the point at `pos`: the
  // kept steps in order, then the revisited load reading the store. Each
  // thread in `credits` had a yield the store ended deleted: its first
  // yield in the continuation may stand for it (see Engine::yield_thread).
  void build_script(std::size_t pos, std::uint32_t alt,
                    std::vector<ScriptStep>* out, std::vector<int>* credits);

 private:
  struct Step {
    std::int16_t tid;
    std::uint8_t flags;
    std::uint32_t tidx;       // 1-based index among tid's steps
    std::int32_t src;         // read steps: writer step (-1: initial value)
    std::int32_t prev_load;   // previous kStepAlt0Load step of the location
    std::int32_t prev_other;  // previous step that is neither local nor alt-0
  };
  // A yield the current step's store ended: the thread, its clock at the
  // yield, and the yield's step.
  struct Woken {
    int tid;
    std::uint32_t clock;
    std::int32_t step;
  };
  struct Point {
    std::size_t pos;
    std::vector<Step> steps;
    std::vector<std::int32_t> loads;
    std::vector<std::uint32_t> kept;  // loads.size() clocks of `width` entries
    std::size_t width;
    std::vector<Woken> woken;
  };

  std::uint32_t* row(int tid) {
    return &tclock_[static_cast<std::size_t>(tid) * width_];
  }
  void join_into(std::uint32_t* dst, const std::uint32_t* src) const;
  // Joins the current thread's clock into the accumulating slot `*slot`.
  void accumulate(std::uint32_t* slot);
  // The kept clock of revisiting `load` from the current step's store, into
  // `out` (threads_ entries); false when the revisit would delete a step
  // that is neither thread-local nor an alt-0 deferred load.
  bool kept_clock(std::int32_t load, std::uint32_t* out) const;
  [[nodiscard]] std::size_t find(std::size_t pos) const;

  std::size_t width_;
  int threads_ = 1;  // columns in use
  std::vector<Step> steps_;
  std::vector<std::uint32_t> tcount_;
  std::vector<std::int32_t> last_step_;  // per thread: its latest step
  std::vector<std::uint32_t> tclock_;    // width_ x width_
  std::vector<std::uint32_t> pool_;      // message and mutex clocks
  std::vector<std::uint32_t> write_clock_;  // per step: its message's slot
  std::vector<std::int32_t> load_head_;
  std::vector<std::uint32_t> sc_reads_;  // per location: seq_cst reads so far
  std::uint32_t sc_fences_ = kNoClock;   // seq_cst fences so far
  std::int32_t other_head_ = kNoStep;
  std::vector<Woken> woken_;             // yields the current step ended
  std::vector<std::int32_t> qual_;
  std::vector<std::uint32_t> qual_kept_;  // kept clock per qualifying load
  std::vector<std::uint32_t> scratch_;
  // Points sorted by position; entries past live_ keep their buffers.
  std::vector<Point> points_;
  std::size_t live_ = 0;
  std::vector<std::int32_t> remap_;
};

}  // namespace cds::mc

#endif  // CDS_MC_REVISIT_H
