// Incremental consistency recorder for reads-from equivalence classes.
//
// Under ExploreMode::kRf every completed execution is the representative of
// one reads-from class. The operational construction makes representatives
// consistent by construction — every constraint edge recorded below points
// from an earlier-executed event to a later-executed one — so this checker
// is defense in depth: it re-derives the class's ordering constraints
// (program order, reads-from, per-location modification order, and the
// global SC order) from the events the engine feeds it and verifies at
// execution end that they admit a linearization (Kahn toposort). A cycle
// means the engine produced a representative whose recorded constraints are
// unsatisfiable — an engine bug, reported as kEngineFatal so the execution
// is discarded without poisoning the verdict.
//
// Deliberately NOT included: from-read (fr) edges. po ∪ rf ∪ mo ∪ fr
// acyclicity is sequential consistency, which C/C++11 relaxed executions
// legitimately violate (store buffering: both threads read 0 — the fr+po
// cycle is an allowed outcome, not an inconsistency).
#ifndef CDS_MC_RF_CONSISTENCY_H
#define CDS_MC_RF_CONSISTENCY_H

#include <cstdint>
#include <string>
#include <vector>

namespace cds::mc {

class RfConsistencyChecker {
 public:
  // Clears all recorded events and edges (call per execution); the
  // storage stays for the next execution.
  void reset();

  // A store appended message `ts` to `loc` (mo edge from the location's
  // previous message; ts 0 is the init pseudo-store, never reported here).
  void on_write(int tid, std::uint32_t loc, std::uint32_t ts, bool seq_cst);
  // A load (or failed CAS, or the read half of an RMW) observed message
  // `ts` of `loc` (rf edge from that message's write event).
  void on_read(int tid, std::uint32_t loc, std::uint32_t ts, bool seq_cst);
  // A seq_cst fence (sc edge from the previous SC event).
  void on_fence(int tid);

  // True iff the recorded constraint graph is acyclic, i.e. the class's
  // constraints admit a linearization. On failure `why` names the residue.
  [[nodiscard]] bool validate(std::string* why);

  [[nodiscard]] std::size_t event_count() const { return tid_of_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

 private:
  struct Edge {
    std::uint32_t from;
    std::uint32_t to;
  };

  std::uint32_t new_event(int tid, bool seq_cst);
  void add_edge(std::uint32_t from, std::uint32_t to);

  // Event 0 is the shared init pseudo-store (mo-before every location's
  // first real write, rf source for loads that observe initial values).
  std::vector<std::int32_t> tid_of_;
  std::vector<Edge> edges_;
  // last_of_thread_[tid] = most recent event of tid, +1 (0 = none yet).
  std::vector<std::uint32_t> last_of_thread_;
  // writes_at_[loc][ts] = event id of the store that produced message ts.
  std::vector<std::vector<std::uint32_t>> writes_at_;
  std::uint32_t last_sc_ = 0;  // most recent SC event, +1 (0 = none yet)
  // validate()'s toposort scratch, reused across executions.
  std::vector<std::uint32_t> indegree_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> next_;
  std::vector<std::uint32_t> ready_;
};

}  // namespace cds::mc

#endif  // CDS_MC_RF_CONSISTENCY_H
