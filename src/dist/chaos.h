// Protocol chaos injection for the distributed transport's fault-tolerance
// tests (the dist analogue of src/inject's memory-order sites, but aimed
// at the coordinator/worker protocol instead of the modeled program).
//
// Each knob names the 1-based ordinal of an assignment *received by one
// worker process*; when that assignment arrives (or its result is about to
// be sent) the worker misbehaves in the named way. Under every injection
// the coordinator's verdict and merged counters must stay bit-identical to
// an undisturbed serial run — the injections only ever cost retries,
// lease expirations, or re-splits, never coverage (see tests/dist/).
#ifndef CDS_DIST_CHAOS_H
#define CDS_DIST_CHAOS_H

#include <cstddef>

namespace cds::dist {

struct ChaosOptions {
  // SIGKILL the whole worker process the moment it receives its Nth
  // assignment (before handing it to the shard child, which dies with
  // it): the coordinator sees the connection drop mid-lease and must
  // retry the shard elsewhere.
  std::ptrdiff_t kill_on_assignment = -1;

  // Stop sending heartbeats from the Nth assignment on, while the shard
  // child keeps computing: the lease expires on a live worker. The
  // coordinator must revoke + retry, and later drop this worker's
  // out-of-lease (stale) result instead of double-counting the shard.
  // The muted worker holds each result until two leases after its
  // assignment arrived, so the lease expires however fast the shard ran.
  std::ptrdiff_t mute_heartbeats_on = -1;

  // Truncate the Nth result's payload to half before sending (framing
  // stays consistent, the shard-result text does not parse): exercises
  // corrupt-result rejection + retry.
  std::ptrdiff_t truncate_result_on = -1;

  // Bit-flip bytes in the middle of the Nth result's payload: same
  // rejection path as truncation but with a plausible length.
  std::ptrdiff_t corrupt_result_on = -1;

  // SIGKILL the worker after sending the Nth result's header and half of
  // its payload bytes: the coordinator sees a torn frame + EOF and must
  // fail the attempt without applying any partial state.
  std::ptrdiff_t die_mid_result_on = -1;

  [[nodiscard]] bool any() const {
    return kill_on_assignment >= 0 || mute_heartbeats_on >= 0 ||
           truncate_result_on >= 0 || corrupt_result_on >= 0 ||
           die_mid_result_on >= 0;
  }
};

// Coordinator-side injections, aimed at the write-ahead journal's crash
// windows instead of the worker protocol. Ordinals are 1-based counts of
// journal appends by THIS coordinator incarnation; the injections fire
// inside JournalWriter::append, after the record is durable, so a
// resumed run must reconstruct exactly the state the record order
// implies. Under every injection, kill + --resume must converge to a
// verdict and merged counters bit-identical to an uninterrupted run.
struct CoordinatorChaos {
  // SIGKILL the coordinator immediately after its Nth journal append
  // (any record kind) reaches the disk: the canonical mid-run crash.
  std::ptrdiff_t kill_after_append = -1;

  // SIGKILL after the Nth *result* record is journaled but before the
  // merge state consumes it — the append-vs-apply window. Resume must
  // replay the journaled result rather than recompute the shard.
  std::ptrdiff_t kill_before_merge_on = -1;

  // After the Nth append, chop `truncate_tail_bytes` off the journal's
  // end and SIGKILL: resume sees a torn tail and must quarantine it (the
  // half-written record's shard is simply recomputed).
  std::ptrdiff_t truncate_tail_after = -1;
  std::size_t truncate_tail_bytes = 7;

  [[nodiscard]] bool any() const {
    return kill_after_append >= 0 || kill_before_merge_on >= 0 ||
           truncate_tail_after >= 0;
  }
};

}  // namespace cds::dist

#endif  // CDS_DIST_CHAOS_H
