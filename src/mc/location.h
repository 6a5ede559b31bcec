// Atomic locations and their message histories.
//
// Following the view-based operational presentation of C/C++11 (see
// DESIGN.md), every store appends a timestamped Message; modification order
// for a location is its append order in the explored schedule, and loads
// may non-deterministically observe any message at or above the loading
// thread's coherence view of the location.
#ifndef CDS_MC_LOCATION_H
#define CDS_MC_LOCATION_H

#include <cstdint>
#include <vector>

#include "support/vector_clock.h"

namespace cds::mc {

struct Message {
  std::uint64_t value = 0;
  // Timestamp == index in Location::history (mo position).
  std::uint32_t timestamp = 0;
  // Writing thread and its per-thread event position (for hb queries and
  // diagnostics). writer < 0 marks the initialization pseudo-store.
  std::int32_t writer = -1;
  std::uint32_t writer_pos = 0;
  // What an acquire reader of this message synchronizes with: the join of
  // the release clocks of every release operation whose release sequence
  // contains this message (plus fence-promoted clocks).
  support::Timestamps sync;
  // Nonzero iff the store was seq_cst; value is its position in the global
  // SC order (used by the spec checker's `r = hb ∪ sc` relation).
  std::uint32_t sc_index = 0;
  // True for the pre-initialization pseudo-store of a default-constructed
  // atomic; loads observing it trigger the built-in uninitialized-load
  // check, as in CDSChecker.
  bool uninit = false;
  // rf mode (mc/revisit.h): the step that wrote the message (-1 for the
  // initial value) and its dependency clock as of the write.
  std::int32_t rf_step = -1;
  std::uint32_t rf_clock = 0xffffffffu;
};

// A live release-sequence head: a release-store (or release-fence-promoted
// store) whose release sequence still extends to the end of this location's
// history. C++11 contiguity: a non-RMW store by a different thread breaks
// every head not owned by that thread.
struct ReleaseSeqHead {
  std::int32_t thread;
  support::Timestamps sync;
};

struct Location {
  explicit Location(const char* nm) : name(nm) {}

  // Re-arms a slot kept from an earlier execution as a fresh location; the
  // history and release-sequence storage stay allocated for reuse.
  void reuse(const char* nm) {
    name = nm;
    history.clear();
    sc_write_floor = 0;
    sc_read_floor = 0;
    rs_heads.clear();
  }

  const char* name;
  std::vector<Message> history;
  // Largest timestamp written by a seq_cst store / observed by a seq_cst
  // load; an SC load's coherence floor includes these (C++11 rule: an SC
  // read must not observe anything older than the last SC write in S).
  std::uint32_t sc_write_floor = 0;
  std::uint32_t sc_read_floor = 0;
  std::vector<ReleaseSeqHead> rs_heads;

  [[nodiscard]] const Message& latest() const { return history.back(); }
  [[nodiscard]] std::uint32_t last_ts() const {
    return static_cast<std::uint32_t>(history.size()) - 1;
  }
};

}  // namespace cds::mc

#endif  // CDS_MC_LOCATION_H
