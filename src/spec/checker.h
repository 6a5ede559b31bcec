// The CDSSpec checker: plugs into the model-checking engine and validates
// every feasible execution against the attached specifications via
// non-deterministic linearizability (paper Definitions 1–7, Section 5.2).
//
// Per execution, per object:
//   1. extract the `r` relation from the recorded ordering points,
//   2. check admissibility (Definition 1) against the spec's @Admit rules,
//   3. enumerate valid sequential histories (topological orders of `r`,
//      Definition 2) and replay the sequential specification on each,
//   4. for every method call with justifying conditions, enumerate its
//      justifying subhistories (Definition 3) and require at least one to
//      satisfy them, or the call's CONCURRENT set to (Definition 4).
#ifndef CDS_SPEC_CHECKER_H
#define CDS_SPEC_CHECKER_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mc/engine.h"
#include "obs/metrics.h"
#include "spec/annotations.h"
#include "spec/history.h"
#include "spec/specification.h"
#include "support/record.h"

namespace cds::spec {

class SpecChecker : public mc::ExecutionListener {
 public:
  struct Options {
    // Exhaustive-history cap per object per execution; beyond it, the
    // checker additionally samples random histories (paper's
    // random-generation option).
    std::uint64_t max_histories = 2048;
    std::uint64_t sampled_histories = 64;
    // Cap on justifying-subhistory orders per call.
    std::uint64_t max_subhistories = 1024;
    // Keep detailed textual reports for at most this many violations.
    std::uint32_t max_reports = 8;
    // Include the engine's event trace in reports.
    bool report_trace = true;
    std::uint64_t seed = 0x5DEECE66Dull;
  };

  struct Stats {
    std::uint64_t executions_checked = 0;
    std::uint64_t inadmissible_execs = 0;
    std::uint64_t assertion_violation_execs = 0;
    std::uint64_t histories_checked = 0;
    std::uint64_t justification_checks = 0;
    bool history_cap_hit = false;
    bool r_cycle_seen = false;
  };

  SpecChecker();
  explicit SpecChecker(Options opts);
  ~SpecChecker() override;

  // Registers this checker as the engine's listener and arms the
  // annotation recorder.
  void attach(mc::Engine& e);
  void detach();

  void on_execution_begin(mc::Engine& e) override;
  bool on_execution_complete(mc::Engine& e) override;

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] Recorder& recorder() { return recorder_; }
  [[nodiscard]] const std::vector<std::string>& reports() const { return reports_; }

 private:
  struct ObjectCalls {
    const Specification* spec;
    std::vector<const CallRecord*> calls;
  };

  // Returns true iff the object's calls satisfy the specification on this
  // execution (reports through the engine otherwise).
  bool check_object(mc::Engine& e, const ObjectCalls& oc);
  bool check_admissibility(mc::Engine& e, const ObjectCalls& oc,
                           const std::vector<std::vector<int>>& succ);
  bool check_histories(mc::Engine& e, const ObjectCalls& oc,
                       const std::vector<std::vector<int>>& succ);
  bool check_justifications(mc::Engine& e, const ObjectCalls& oc,
                            const std::vector<std::vector<int>>& succ);

  // Replays one sequential history; returns the index of the first call
  // violating its pre/postcondition, or -1 if the history passes.
  int replay_history(const ObjectCalls& oc,
                     const std::vector<const CallRecord*>& order,
                     std::string* why);

  void file_report(mc::Engine& e, mc::ViolationKind kind, std::string detail);
  [[nodiscard]] std::string format_call(const CallRecord& c) const;
  [[nodiscard]] std::string format_order(
      const std::vector<const CallRecord*>& order) const;

  // Concurrent sets for the execution currently being checked.
  const std::vector<const CallRecord*>* concurrent_of(const CallRecord* c) const;

  Options opts_;
  Stats stats_;
  Recorder recorder_;
  mc::Engine* engine_ = nullptr;
  std::vector<std::string> reports_;

  // Cached metric handles into the attached engine's registry (null until
  // attach). All four are per-execution-pure counters, so sharded runs sum
  // to the serial values bit-for-bit.
  obs::Counter* m_execs_ = nullptr;
  obs::Counter* m_histories_ = nullptr;
  obs::Counter* m_justifications_ = nullptr;
  obs::Counter* m_cap_hits_ = nullptr;

  // Scratch, valid during check_object.
  std::vector<std::vector<const CallRecord*>> concurrent_;
  const std::vector<const CallRecord*>* cur_calls_ = nullptr;
};

// The checker's option and counter records (support/record.h). The
// options travel with the engine config in shard-assign and the shard
// journal; the counters ride in shard results and merge by these rules,
// and are the `spec` block of a --json document.
inline std::array<support::Field, 6> fields(SpecChecker::Options& o) {
  return {{
      {"max_histories", &o.max_histories},
      {"sampled_histories", &o.sampled_histories},
      {"max_subhistories", &o.max_subhistories},
      {"max_reports", &o.max_reports},
      {"report_trace", &o.report_trace},
      {"seed", &o.seed},
  }};
}

inline std::array<support::Field, 7> fields(SpecChecker::Stats& s) {
  using support::Merge;
  return {{
      {"executions_checked", &s.executions_checked, Merge::kSum},
      {"inadmissible_execs", &s.inadmissible_execs, Merge::kSum},
      {"assertion_violation_execs", &s.assertion_violation_execs, Merge::kSum},
      {"histories_checked", &s.histories_checked, Merge::kSum},
      {"justification_checks", &s.justification_checks, Merge::kSum},
      {"history_cap_hit", &s.history_cap_hit, Merge::kOr},
      {"r_cycle_seen", &s.r_cycle_seen, Merge::kOr},
  }};
}

}  // namespace cds::spec

#endif  // CDS_SPEC_CHECKER_H
