// rf-vs-schedule differential: both exploration modes must enumerate the
// SAME behavior set on every program — the rf mode only collapses
// schedule-equivalent executions into reads-from classes, it must never
// gain or lose a behavior. Covered here over the checked-in corpus (fast),
// 50 fresh generator seeds (slow sweep), the sharded merge identity
// (--jobs 4 counters bit-identical to serial in rf mode), and rf-mode
// trail witnesses replaying to the recorded behavior.
#include <gtest/gtest.h>

#include <dirent.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/program.h"
#include "mc/config.h"

namespace cds {
namespace {

using fuzz::McBehaviors;
using fuzz::OracleConfig;
using fuzz::Program;

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  DIR* d = opendir(CDS_CORPUS_DIR);
  if (d == nullptr) return files;
  while (dirent* ent = readdir(d)) {
    std::string n = ent->d_name;
    if (n.size() > 7 && n.substr(n.size() - 7) == ".litmus") {
      files.push_back(std::string(CDS_CORPUS_DIR) + "/" + n);
    }
  }
  closedir(d);
  std::sort(files.begin(), files.end());
  return files;
}

Program load_program(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream buf;
  buf << f.rdbuf();
  Program p;
  std::string err;
  EXPECT_TRUE(Program::parse(buf.str(), &p, &err)) << path << ": " << err;
  return p;
}

// Both modes to exhaustion on `p`; returns {schedule, rf} and asserts the
// core equivalence: identical behavior sets, rf counters only in rf mode,
// and the class count bounded by the schedule execution count.
std::pair<McBehaviors, McBehaviors> explore_both(const Program& p,
                                                 const OracleConfig& base,
                                                 const std::string& label) {
  OracleConfig sched = base;
  sched.explore = mc::ExploreMode::kSchedule;
  OracleConfig rf = base;
  rf.explore = mc::ExploreMode::kRf;
  McBehaviors s = fuzz::mc_behaviors(p, sched);
  McBehaviors r = fuzz::mc_behaviors(p, rf);
  EXPECT_TRUE(s.exhausted) << label;
  EXPECT_TRUE(r.exhausted) << label;
  EXPECT_EQ(s.behaviors, r.behaviors) << label << ": modes disagree";
  EXPECT_EQ(s.rf_classes, 0u) << label;
  EXPECT_EQ(s.rf_infeasible, 0u) << label;
  EXPECT_GT(r.rf_classes, 0u) << label;
  // Note: rf_classes is NOT bounded by the schedule-mode execution count.
  // rf mode still enumerates interleavings, so one rf assignment reached
  // from two schedules completes twice, and on tiny programs that can
  // exceed schedule mode's sleep-set-pruned total. The sound bounds are
  // against the rf-mode run itself.
  EXPECT_LE(r.rf_classes, r.executions) << label;
  // Every behavior needs at least one class representative to witness it.
  EXPECT_GE(r.rf_classes, r.behaviors.size()) << label;
  return {s, r};
}

TEST(RfEquivalence, CorpusBehaviorSetsMatchAcrossModes) {
  std::vector<std::string> files = corpus_files();
  ASSERT_FALSE(files.empty()) << "no .litmus files under " CDS_CORPUS_DIR;
  for (const std::string& path : files) {
    Program p = load_program(path);
    OracleConfig cfg;
    explore_both(p, cfg, path);
  }
}

TEST(RfEquivalence, ShardedRfCountersAreBitIdenticalToSerial) {
  // The acceptance bar for the shard-result wire: a --jobs 4 rf run must
  // merge to the exact serial counters, not just the same behavior set.
  for (const std::string& path : corpus_files()) {
    Program p = load_program(path);
    OracleConfig serial;
    serial.explore = mc::ExploreMode::kRf;
    OracleConfig sharded = serial;
    sharded.jobs = 4;
    McBehaviors a = fuzz::mc_behaviors(p, serial);
    McBehaviors b = fuzz::mc_behaviors(p, sharded);
    EXPECT_EQ(a.behaviors, b.behaviors) << path;
    EXPECT_EQ(a.executions, b.executions) << path;
    EXPECT_EQ(a.rf_classes, b.rf_classes) << path;
    EXPECT_EQ(a.rf_infeasible, b.rf_infeasible) << path;
    EXPECT_EQ(a.exhausted, b.exhausted) << path;
  }
}

TEST(RfEquivalence, DifferentialOraclesAgreeInRfMode) {
  // The full differential-oracle battery (brute-force interleavings,
  // monotonicity, sampling containment) with the engine in rf mode: the
  // oracles compare rf-mode enumerations against mode-independent
  // references, so a class the rf mode drops or invents fails here.
  for (const std::string& path : corpus_files()) {
    Program p = load_program(path);
    OracleConfig cfg;
    cfg.explore = mc::ExploreMode::kRf;
    fuzz::CheckResult res = fuzz::check_program(p, cfg);
    EXPECT_FALSE(res.skipped) << path << ": " << res.skip_reason;
    EXPECT_GT(res.oracles_run, 0) << path;
    for (const auto& d : res.disagreements) {
      ADD_FAILURE() << path << ": [" << to_string(d.oracle) << "] "
                    << d.detail;
    }
  }
}

// 50 fresh generator seeds through both modes, alternating the fuzzer's
// sc-only and mixed-order profiles. "Sweep" routes it to the slow label;
// PR CI runs the corpus subset above.
TEST(RfEquivalenceSweep, FiftyFreshSeedsMatchAcrossModes) {
  const std::uint64_t kBase = 20260809;
  for (std::uint64_t trial = 0; trial < 50; ++trial) {
    fuzz::GenParams gp;
    gp.sc_only = trial % 2 == 0;
    gp.max_threads = 3;
    gp.max_total_ops = 8;
    std::uint64_t seed = fuzz::trial_seed(kBase, trial);
    Program p = fuzz::generate(gp, seed);
    OracleConfig cfg;
    cfg.seed = seed;
    explore_both(p, cfg, "seed " + std::to_string(seed));
  }
}

// Larger programs: four threads, up to twelve operations. A closure that
// missed seq_cst read-floor order lost behaviours on trials 1037, 2035,
// 2063, 2397 and 2941 of this campaign (rf_sc_read_floor.litmus is the
// minimized repro), which the three-thread sweep above never reached.
TEST(RfEquivalenceSweep, FourThreadProgramsMatchAcrossModes) {
  const std::uint64_t kBase = 4242;
  for (std::uint64_t trial = 0; trial < 3000; ++trial) {
    fuzz::GenParams gp;
    gp.sc_only = trial % 2 == 0;
    gp.max_threads = 4;
    gp.max_total_ops = 12;
    std::uint64_t seed = fuzz::trial_seed(kBase, trial);
    Program p = fuzz::generate(gp, seed);
    OracleConfig cfg;
    cfg.seed = seed;
    OracleConfig rf = cfg;
    rf.explore = mc::ExploreMode::kRf;
    McBehaviors s = fuzz::mc_behaviors(p, cfg);
    McBehaviors r = fuzz::mc_behaviors(p, rf);
    if (!s.exhausted || !r.exhausted) continue;
    EXPECT_EQ(s.behaviors, r.behaviors) << "seed " << seed << ": modes disagree";
  }
}

}  // namespace
}  // namespace cds
