// The four workloads and their passes. One pass runs every input of the
// workload once and checks every verdict against its known answer; the
// untraced pass calls only what users call, the traced pass assembles the
// same work from public pieces with a span around each layer.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/oracle.h"
#include "fuzz/program.h"
#include "harness/runner.h"
#include "layers.h"

namespace perfbench {

// Worker processes in fig7_jobs4 (the recording host's nproc).
inline constexpr int kJobs = 4;

// Every workload name, in BENCHMARK.json order.
inline constexpr const char* kWorkloads[] = {"fig7_rf", "fig7_schedule",
                                             "fig7_jobs4", "fuzz_oracles"};

struct RowResult {
  std::string name;
  std::string mode;
  std::uint64_t executions = 0;
  std::uint64_t feasible = 0;
  std::uint64_t rf_infeasible = 0;
  double seconds = 0.0;
  // Known-answer check: false when the verdict differs from the expected
  // one, a shard crashed, or a fuzz trial disagreed or was skipped.
  bool ok = true;
  std::string problem;
  // What a traced pass must reproduce exactly (counts and verdict).
  std::string signature;
  double largest_share = -1.0;  // traced fig7_jobs4 only
};

struct PassResult {
  double verdict_s = 0.0;
  double cpu_s = 0.0;
  std::vector<RowResult> rows;
  LayerTotals layers;  // traced passes only
};

class Workload {
 public:
  // Builds the workload's inputs from `seed` (the set-up step). `smoke`
  // selects the reduced-size inputs of the benchmark's own tests.
  Workload(const std::string& name, std::uint64_t seed, bool smoke);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool is_fuzz() const { return name_ == "fuzz_oracles"; }

  PassResult run(bool traced);

  // Traced runs re-create oracle and shard calls from public pieces; this
  // re-runs the real fuzz::mc_behaviors on the last traced pass's programs
  // and returns a description of every difference (empty = identical).
  std::vector<std::string> verify_replicas();

 private:
  struct Fig7Row {
    const cds::harness::Benchmark* bench;
    cds::harness::RunOptions opts;
    bool expect_cap = false;  // known answer: inconclusive, cap hit
  };
  struct ShapeInput {
    std::string name;
    cds::fuzz::Program program;
  };
  struct Replica {
    std::string what;
    cds::fuzz::Program program;
    cds::fuzz::OracleConfig cfg;
    cds::fuzz::McBehaviors got;
  };

  RowResult run_fig7_row(const Fig7Row& r, bool traced, LayerTotals* t);
  RowResult run_fig7_row_parallel(const Fig7Row& r, bool traced,
                                  LayerTotals* t);
  RowResult run_shape(const ShapeInput& s, bool traced, LayerTotals* t);
  RowResult run_fuzz_trial(std::uint64_t trial, bool traced, LayerTotals* t);
  void time_shard_probes(LayerTotals* t);

  std::string name_;
  std::uint64_t seed_;
  std::vector<Fig7Row> rows_;
  std::vector<ShapeInput> shapes_;
  std::vector<std::uint64_t> fuzz_order_;  // trial indices, seed-shuffled
  std::vector<Replica> replicas_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
