// rf mode against schedule mode at benchmark level:
//   - every registered benchmark is verified-exhaustive in rf mode with the
//     same verdict as in schedule mode (Chase-Lev's schedule verdict comes
//     from the committed BENCH_figure7.json: that run takes about a minute);
//   - no rf execution is wasted on an infeasible class, and the lock-style
//     rows explore fewer executions than schedule mode;
//   - (slow) the --sweep outcome of every Figure 8 site is the same in both
//     modes; Chase-Lev's schedule sweep (minutes) is pinned by a golden file.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ds/suite.h"
#include "harness/runner.h"

namespace cds {
namespace {

std::vector<std::string> registered_names() {
  ds::register_all_benchmarks();
  std::vector<std::string> names;
  for (const harness::Benchmark& b : harness::benchmarks()) names.push_back(b.name);
  return names;
}

std::string safe_name(const testing::TestParamInfo<std::string>& info) {
  std::string n = info.param;
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

// The recorded schedule-mode verdict of `bench` in BENCH_figure7.json
// ("" when the file has no such row).
std::string recorded_schedule_verdict(const std::string& bench) {
  const std::string json = read_file(CDS_SOURCE_DIR "/BENCH_figure7.json");
  const std::string key = "\"benchmark\": \"" + bench + "\", \"explore\": \"schedule\"";
  std::size_t at = json.find(key);
  if (at == std::string::npos) return "";
  at = json.find("\"verdict\": \"", at);
  if (at == std::string::npos) return "";
  at += 12;
  return json.substr(at, json.find('"', at) - at);
}

harness::RunResult run(const harness::Benchmark& b, mc::ExploreMode mode) {
  harness::RunOptions opts;
  opts.engine.explore = mode;
  return harness::run_benchmark(b, opts);
}

class RfModeVerdict : public testing::TestWithParam<std::string> {};

TEST_P(RfModeVerdict, MatchesScheduleMode) {
  const harness::Benchmark* b = harness::find_benchmark(GetParam());
  ASSERT_NE(b, nullptr);
  const harness::RunResult rf = run(*b, mc::ExploreMode::kRf);
  EXPECT_EQ(rf.mc.verdict, mc::Verdict::kVerifiedExhaustive);
  EXPECT_EQ(rf.mc.violations_total, 0u);
  EXPECT_EQ(rf.mc.rf_infeasible, 0u);
  EXPECT_EQ(rf.mc.engine_fatal_execs, 0u);
  if (GetParam() == "chase-lev-deque") {
    EXPECT_EQ(recorded_schedule_verdict(GetParam()), "verified-exhaustive");
    return;
  }
  const harness::RunResult sched = run(*b, mc::ExploreMode::kSchedule);
  EXPECT_EQ(sched.mc.verdict, rf.mc.verdict);
  EXPECT_EQ(sched.mc.violations_total, rf.mc.violations_total);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, RfModeVerdict,
                         testing::ValuesIn(registered_names()), safe_name);

TEST(RfModeCounts, NoInfeasibleExecutionsAndFewerThanScheduleMode) {
  // With the blind wait these rows explored more executions in rf mode
  // than in schedule mode (mcs-lock 28,942 vs 19,035, ticket-lock 8,951 vs
  // 6,885, seqlock 208 vs 159, lamport-queue 141 vs 61), most of them
  // ending rf_infeasible.
  ds::register_all_benchmarks();
  for (const char* name : {"mcs-lock", "ticket-lock", "seqlock", "lamport-queue"}) {
    SCOPED_TRACE(name);
    const harness::Benchmark* b = harness::find_benchmark(name);
    ASSERT_NE(b, nullptr);
    const harness::RunResult rf = run(*b, mc::ExploreMode::kRf);
    const harness::RunResult sched = run(*b, mc::ExploreMode::kSchedule);
    EXPECT_EQ(rf.mc.rf_infeasible, 0u);
    EXPECT_LT(rf.mc.executions, sched.mc.executions);
    EXPECT_EQ(rf.metrics.counter_value("engine.rf_wait_choices"), 0u);
  }
}

// Per-site outcome: the check that detected the weakened site, or why the
// trial produced none.
std::map<std::string, std::string> sweep_outcomes(const harness::Benchmark& b,
                                                  mc::ExploreMode mode) {
  harness::RunOptions opts;
  opts.engine.explore = mode;
  const harness::InjectionSummary s = harness::run_injection_experiment(b, opts);
  std::map<std::string, std::string> out;
  for (const harness::InjectionOutcome& o : s.outcomes) {
    out[o.site.name] = o.status == harness::TrialStatus::kCompleted
                           ? harness::to_string(o.how)
                           : harness::to_string(o.status);
  }
  return out;
}

TEST(RfModeSweep, SiteOutcomesMatchScheduleMode) {
  ds::register_all_benchmarks();
  for (const char* name : {"spsc-queue", "rcu", "lockfree-hashtable", "mcs-lock",
                           "mpmc-queue", "ms-queue", "linux-rwlock", "seqlock",
                           "ticket-lock"}) {
    SCOPED_TRACE(name);
    const harness::Benchmark* b = harness::find_benchmark(name);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(sweep_outcomes(*b, mc::ExploreMode::kRf),
              sweep_outcomes(*b, mc::ExploreMode::kSchedule));
  }
  // Chase-Lev: the golden file holds the schedule-mode outcome of each
  // site, one "<site>\t<outcome>" line each.
  const harness::Benchmark* cl = harness::find_benchmark("chase-lev-deque");
  ASSERT_NE(cl, nullptr);
  std::map<std::string, std::string> golden;
  std::istringstream lines(read_file(CDS_SOURCE_DIR "/tests/golden/chase_lev_sweep.tsv"));
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.find('\t');
    ASSERT_NE(tab, std::string::npos) << line;
    golden[line.substr(0, tab)] = line.substr(tab + 1);
  }
  EXPECT_EQ(golden.size(), 10u);
  EXPECT_EQ(sweep_outcomes(*cl, mc::ExploreMode::kRf), golden);
}

}  // namespace
}  // namespace cds
