// Per-modeled-thread memory-model state.
#ifndef CDS_MC_THREAD_STATE_H
#define CDS_MC_THREAD_STATE_H

#include <cstdint>

#include "support/vector_clock.h"

namespace cds::mc {

// Scheduling status. A load never blocks: in rf mode a message written
// later reaches it through a store-driven revisit (mc/revisit.h), which
// re-runs the execution instead of parking the reader.
enum class ThreadStatus : std::uint8_t {
  kAbsent,        // slot unused this execution
  kRunnable,
  kYielded,       // called yield(); deprioritized until another thread stores
  kBlockedJoin,   // waiting for a thread to finish
  kBlockedMutex,  // waiting for a mutex
  kDone,
};

struct ThreadMMState {
  // Happens-before clock (vc) + coherence view (view). vc[self] counts this
  // thread's visible events.
  support::Timestamps cur;

  // Snapshot taken at the most recent release fence; relaxed stores after
  // it carry this clock for acquire readers (C++11 fence synchronization).
  support::Timestamps rel_fence;
  bool has_rel_fence = false;

  // Sync clocks of messages observed by relaxed loads since the last
  // acquire fence; an acquire fence joins them into `cur`.
  support::Timestamps acq_pending;

  // Per-thread event counter (vc[self] mirrors it).
  std::uint32_t pos = 0;

  // Stale-read fairness budget used so far this execution.
  std::uint32_t stale_reads = 0;

  // SC index of this thread's most recent visible event (0 if it was not
  // seq_cst); the spec layer's ordering-point annotations capture it.
  std::uint32_t last_sc_index = 0;

  void reset() {
    cur.clear();
    rel_fence.clear();
    has_rel_fence = false;
    acq_pending.clear();
    pos = 0;
    stale_reads = 0;
    last_sc_index = 0;
  }
};

}  // namespace cds::mc

#endif  // CDS_MC_THREAD_STATE_H
