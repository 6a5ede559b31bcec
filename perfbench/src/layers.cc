#include "layers.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "fiber/fiber.h"

namespace perfbench {

void LayerTotals::add_exploration(const cds::mc::ExplorationStats& s,
                                  const cds::obs::Registry& m) {
  executions += s.executions;
  feasible += s.feasible;
  rf_infeasible += s.rf_infeasible;
  pruned_redundant += s.pruned_redundant;
  pruned_livelock += s.pruned_livelock;
  schedule_choice_points += m.counter_value("engine.schedule_choice_points");
  rf_choice_points += m.counter_value("engine.rf_choice_points");
  rf_candidates += m.counter_value("engine.rf_candidates");
  rf_wait_choices += m.counter_value("engine.rf_wait_choices");
  auto g = m.gauges().find("engine.arena_peak_bytes");
  if (g != m.gauges().end()) {
    arena_peak_bytes = std::max(arena_peak_bytes, g->second.value);
  }
}

std::map<std::string, double> LayerTotals::metrics(double verdict_s,
                                                   double switch_ns,
                                                   bool fuzz) const {
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const bool sharded = jobs > 0;
  const double mc_self = sharded ? worker_explore_s : explore_s - inner_s;
  const double ops_per_exec =
      ratio(static_cast<double>(trace_events), static_cast<double>(checked));
  const double fuzz_s =
      generate_s + dfs_s + sampling_s + sc_enum_s + metamorphic_s;

  std::map<std::string, double> m;
  m["mc.self_s"] = mc_self;
  m["mc.us_per_exec"] = ratio(mc_self * 1e6, static_cast<double>(executions));
  m["mc.executions"] = static_cast<double>(executions);
  m["mc.feasible"] = static_cast<double>(feasible);
  m["mc.useful_ratio"] =
      ratio(static_cast<double>(feasible), static_cast<double>(executions));
  m["mc.rf_infeasible"] = static_cast<double>(rf_infeasible);
  m["mc.pruned_redundant"] = static_cast<double>(pruned_redundant);
  m["mc.pruned_livelock"] = static_cast<double>(pruned_livelock);
  m["mc.ops_per_exec"] = ops_per_exec;
  m["engine.schedule_choice_points"] =
      static_cast<double>(schedule_choice_points);
  m["engine.rf_choice_points"] = static_cast<double>(rf_choice_points);
  m["engine.rf_candidates"] = static_cast<double>(rf_candidates);
  m["engine.rf_wait_choices"] = static_cast<double>(rf_wait_choices);
  m["mc.arena_peak_bytes"] = static_cast<double>(arena_peak_bytes);
  m["mc.explores"] = static_cast<double>(explores);
  m["mc.explore_fixed_us"] =
      ratio(fixed_s * 1e6, static_cast<double>(explores));
  m["fiber.switch_ns"] = switch_ns;
  // Estimate: every visible operation parks its fiber (one switch out to
  // the scheduler, one back in); trace events stand in for visible ops
  // and are extrapolated from checked executions to all executions.
  m["fiber.est_share"] = ratio(
      2.0 * ops_per_exec * static_cast<double>(executions) * switch_ns * 1e-9,
      mc_self);
  m["spec.self_s"] = spec_s;
  m["spec.share"] = ratio(spec_s, verdict_s);
  m["spec.us_per_check"] =
      ratio(spec_s * 1e6, static_cast<double>(spec_checks));
  m["spec.histories"] = static_cast<double>(spec_histories);
  m["spec.justifications"] = static_cast<double>(spec_justifications);
  m["spec.cap_hits"] = static_cast<double>(spec_cap_hits);
  m["shard.units"] = static_cast<double>(shard_units);
  m["shard.probe_s"] = probe_s;
  m["shard.probe_executions"] = static_cast<double>(probe_executions);
  m["shard.largest_share"] = largest_share;
  m["shard.worker_busy_share"] =
      ratio(span_sum_s, static_cast<double>(jobs) * sharded_wall_s);
  m["shard.crashed"] = static_cast<double>(shard_crashed);
  m["fuzz.trials"] = static_cast<double>(fuzz_trials);
  m["fuzz.oracle_checks"] = static_cast<double>(fuzz_oracle_checks);
  m["fuzz.skipped"] = static_cast<double>(fuzz_skipped);
  m["fuzz.generate_s"] = generate_s;
  m["fuzz.dfs_s"] = dfs_s;
  m["fuzz.sampling_s"] = sampling_s;
  m["fuzz.sc_enum_s"] = sc_enum_s;
  m["fuzz.metamorphic_s"] = metamorphic_s;
  // Share of the pass's wall time the timed layer spans cover: engine +
  // spec on the serial fig7 rows, the fuzz phases on fuzz_oracles, the
  // sharded calls under --jobs.
  const double covered =
      fuzz ? fuzz_s : sharded ? sharded_wall_s : explore_s;
  m["trace.accounted_share"] = ratio(covered, verdict_s);
  return m;
}

cds::mc::ExplorationStats TracingListener::explore(cds::mc::Engine& engine,
                                                   const cds::mc::TestFn& test,
                                                   LayerTotals* t) {
  begun_ = false;
  inner_s_ = 0.0;
  checked_ = 0;
  events_ = 0;
  engine.set_listener(this);
  const Clock::time_point entry = Clock::now();
  cds::mc::ExplorationStats s = engine.explore(test);
  const Clock::time_point exit = Clock::now();
  engine.set_listener(inner_);

  t->explore_s += seconds_between(entry, exit);
  t->inner_s += inner_s_;
  t->fixed_s += begun_ ? seconds_between(entry, first_begin_) +
                             seconds_between(last_callback_, exit)
                       : seconds_between(entry, exit);
  ++t->explores;
  t->checked += checked_;
  t->trace_events += events_;
  t->add_exploration(s, engine.metrics());
  return s;
}

void TracingListener::on_execution_begin(cds::mc::Engine& e) {
  const Clock::time_point a = Clock::now();
  if (!begun_) {
    begun_ = true;
    first_begin_ = a;
  }
  inner_->on_execution_begin(e);
  last_callback_ = Clock::now();
  inner_s_ += seconds_between(a, last_callback_);
}

bool TracingListener::on_execution_complete(cds::mc::Engine& e) {
  ++checked_;
  events_ += e.trace().size();
  const Clock::time_point a = Clock::now();
  const bool keep_going = inner_->on_execution_complete(e);
  last_callback_ = Clock::now();
  inner_s_ += seconds_between(a, last_callback_);
  return keep_going;
}

double calibrate_switch_ns(std::uint64_t round_trips) {
  cds::fiber::Fiber native;
  native.init_native();
  cds::fiber::Fiber peer;
  bool stop = false;
  peer.reset([&] {
    while (!stop) native.switch_to(peer);
    peer.mark_finished();
    native.switch_to(peer);
  });
  peer.switch_to(native);  // first entry maps and starts the stack
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < round_trips; ++i) peer.switch_to(native);
  const Clock::time_point t1 = Clock::now();
  stop = true;
  peer.switch_to(native);
  return seconds_between(t0, t1) * 1e9 /
         (2.0 * static_cast<double>(round_trips));
}

double cpu_seconds() {
  auto secs = [](const rusage& r) {
    return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
           static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) * 1e-6;
  };
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return secs(self) + secs(children);
}

double peak_rss_mb() {
  // This process's own high-water mark comes from VmHWM: Linux carries
  // ru_maxrss across exec, so RUSAGE_SELF would report the launcher's
  // (e.g. a Python wrapper's) peak whenever that was larger.
  double self_kib = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &self_kib) == 1) break;
    }
    std::fclose(f);
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  // Both in KiB.
  return std::max(self_kib, static_cast<double>(children.ru_maxrss)) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string describe(const std::vector<double>& v, const char* unit) {
  if (v.empty()) return "no samples";
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const double n = static_cast<double>(s.size());
  char buf[160];
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (n * (1.0 - p / 100.0) < 10.0) continue;
    // Nearest-rank percentile.
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    const double value = s[rank == 0 ? 0 : rank - 1];
    std::snprintf(buf, sizeof buf, "median %.4f %s, p%g %.4f %s (n=%zu)",
                  median(s), unit, p, value, unit, s.size());
    return buf;
  }
  std::snprintf(buf, sizeof buf,
                "median %.4f %s, max %.4f %s (n=%zu, too few for a tail "
                "percentile)",
                median(s), unit, s.back(), unit, s.size());
  return buf;
}

}  // namespace perfbench
