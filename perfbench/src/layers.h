// Per-layer instrumentation for the traced run. Nothing here reaches into
// src/: every span is timed from the benchmark's side of a public call or
// listener callback, and every count comes from a public stats struct or
// the engine's obs registry.
#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mc/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// What one traced pass spent in each layer. Times are wall seconds summed
// over the pass; counts are summed, peaks are maxima.
struct LayerTotals {
  // mc (engine + fiber): time inside Engine::explore, of which `inner_s`
  // was spent in the layer above it (spec checker or behavior collector).
  double explore_s = 0.0;
  double inner_s = 0.0;
  double fixed_s = 0.0;  // explore() entry/exit outside any execution
  std::uint64_t explores = 0;
  std::uint64_t executions = 0;
  std::uint64_t feasible = 0;
  std::uint64_t rf_infeasible = 0;
  std::uint64_t pruned_redundant = 0;
  std::uint64_t pruned_livelock = 0;
  std::uint64_t checked = 0;       // executions handed to the listener
  std::uint64_t trace_events = 0;  // Engine::trace() sizes at those points
  std::uint64_t schedule_choice_points = 0;
  std::uint64_t rf_choice_points = 0;
  std::uint64_t rf_candidates = 0;
  std::uint64_t rf_wait_choices = 0;
  std::uint64_t arena_peak_bytes = 0;
  // Under --jobs the engine runs in workers: only the merged shard
  // explore time is visible, spec time is not separable from it.
  double worker_explore_s = 0.0;

  // spec
  double spec_s = 0.0;
  std::uint64_t spec_checks = 0;
  std::uint64_t spec_histories = 0;
  std::uint64_t spec_justifications = 0;
  std::uint64_t spec_cap_hits = 0;

  // shard (fig7_jobs4)
  std::uint64_t shard_units = 0;
  std::uint64_t shard_crashed = 0;
  std::uint64_t probe_executions = 0;
  double probe_s = 0.0;
  double largest_share = 0.0;  // worst row
  double span_sum_s = 0.0;     // sum of shard spans
  double sharded_wall_s = 0.0;  // wall time of the sharded calls
  int jobs = 0;

  // fuzz (fuzz_oracles)
  std::uint64_t fuzz_trials = 0;
  std::uint64_t fuzz_oracle_checks = 0;
  std::uint64_t fuzz_skipped = 0;
  double generate_s = 0.0;
  double dfs_s = 0.0;
  double sampling_s = 0.0;
  double sc_enum_s = 0.0;
  double metamorphic_s = 0.0;

  // Folds one exploration's counters (stats + the engine's obs registry).
  void add_exploration(const cds::mc::ExplorationStats& s,
                       const cds::obs::Registry& m);

  // The per-layer metrics of BENCHMARK.json for this pass. `verdict_s` is
  // the traced pass's wall time, `switch_ns` the calibrated fiber switch.
  [[nodiscard]] std::map<std::string, double> metrics(double verdict_s,
                                                      double switch_ns,
                                                      bool fuzz) const;
};

// Forwarding ExecutionListener around the layer above the engine. It
// times the inner callbacks, counts trace events per checked execution,
// and measures the per-explore fixed cost: explore() entry to the first
// on_execution_begin, plus the last callback to explore()'s return.
class TracingListener : public cds::mc::ExecutionListener {
 public:
  explicit TracingListener(cds::mc::ExecutionListener* inner) : inner_(inner) {}

  // Runs engine.explore(test) with this listener installed in place of
  // the inner one (which must already be attached) and adds the spans and
  // counters to *t.
  cds::mc::ExplorationStats explore(cds::mc::Engine& engine,
                                    const cds::mc::TestFn& test,
                                    LayerTotals* t);

  void on_execution_begin(cds::mc::Engine& e) override;
  bool on_execution_complete(cds::mc::Engine& e) override;

 private:
  cds::mc::ExecutionListener* inner_;
  bool begun_ = false;
  Clock::time_point first_begin_{};
  Clock::time_point last_callback_{};
  double inner_s_ = 0.0;
  std::uint64_t checked_ = 0;
  std::uint64_t events_ = 0;
};

// Fiber switch cost through the public cds::fiber::Fiber API: times
// `round_trips` native -> fiber -> native round trips and returns the
// cost of one switch in nanoseconds.
double calibrate_switch_ns(std::uint64_t round_trips);

// Process CPU time (user + sys) of this process plus its reaped children.
double cpu_seconds();
// Peak resident set in MiB: the larger of this process's and the largest
// reaped child's high-water mark.
double peak_rss_mb();

double median(std::vector<double> v);
// "median 1.23 s, max 1.30 s (n=5)"-style summary: the median plus the
// highest percentile with at least ten samples beyond it, or the maximum
// when the sample is too small for any.
std::string describe(const std::vector<double>& v, const char* unit);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H
