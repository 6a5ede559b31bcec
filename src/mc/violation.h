// Violation records: CDSChecker-style built-in checks plus the spec layer's
// reports (the spec checker files its findings through the same channel so
// harnesses see one stream of diagnostics).
#ifndef CDS_MC_VIOLATION_H
#define CDS_MC_VIOLATION_H

#include <cstdint>
#include <string>
#include <vector>

#include "mc/trail.h"

namespace cds::mc {

enum class ViolationKind {
  kDataRace,           // unordered conflicting plain accesses
  kUninitializedLoad,  // atomic load observes the pre-init message
  kDeadlock,           // every live thread is blocked
  kCrash,              // test body raised SIGSEGV/SIGBUS/SIGFPE/SIGABRT;
                       // contained by the engine's signal-to-verdict layer
  kInadmissible,       // execution outside the spec's admissibility (warn)
  kSpecAssertion,      // sequential-history / justification check failed
  kUserAssertion,      // mc::model_assert failed (CDSChecker-style assert)
  kEngineFatal,        // internal checker error; the execution is discarded
                       // (diagnostic, not a property violation)
};

[[nodiscard]] constexpr const char* to_string(ViolationKind k) {
  switch (k) {
    case ViolationKind::kDataRace: return "data race";
    case ViolationKind::kUninitializedLoad: return "uninitialized load";
    case ViolationKind::kDeadlock: return "deadlock";
    case ViolationKind::kCrash: return "crash";
    case ViolationKind::kInadmissible: return "inadmissible execution";
    case ViolationKind::kSpecAssertion: return "specification violation";
    case ViolationKind::kUserAssertion: return "assertion failure";
    case ViolationKind::kEngineFatal: return "engine fatal";
  }
  return "?";
}

// Stable wire names for .trail files and shard results (the display strings
// above contain spaces); shard results parse them back through the record
// codec.
[[nodiscard]] constexpr const char* wire_name(ViolationKind k) {
  switch (k) {
    case ViolationKind::kDataRace: return "data-race";
    case ViolationKind::kUninitializedLoad: return "uninit-load";
    case ViolationKind::kDeadlock: return "deadlock";
    case ViolationKind::kCrash: return "crash";
    case ViolationKind::kInadmissible: return "inadmissible";
    case ViolationKind::kSpecAssertion: return "spec-assertion";
    case ViolationKind::kUserAssertion: return "user-assertion";
    case ViolationKind::kEngineFatal: return "engine-fatal";
  }
  return "?";
}

// What an exploration proved. `kVerifiedExhaustive` means the DFS ran the
// whole tree with no cap, budget, or internal error in the way; anything
// short of that without a property violation is `kInconclusive` — the run
// only covered part of the space (the stats say how much).
enum class Verdict {
  kVerifiedExhaustive,  // full state space explored, no violation
  kFalsified,           // at least one property violation found
  kInconclusive,        // partial coverage (cap/budget/sampling), none found
};

[[nodiscard]] constexpr const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kVerifiedExhaustive: return "verified-exhaustive";
    case Verdict::kFalsified: return "falsified";
    case Verdict::kInconclusive: return "inconclusive";
  }
  return "?";
}

struct Violation {
  ViolationKind kind;
  std::string detail;
  std::uint64_t execution_index = 0;  // which explored execution produced it
  // Choice sequence of the violating execution: replaying it (mc/trace.h,
  // cdsspec-run --replay-trail) deterministically re-runs exactly this
  // execution. Shard results and the journal carry it along.
  std::vector<Choice> trail;
  // Index of the unit test within its benchmark (set by the harness when
  // aggregating; identifies the TestFn a trail repro must replay).
  std::uint32_t test_index = 0;
};

}  // namespace cds::mc

#endif  // CDS_MC_VIOLATION_H
