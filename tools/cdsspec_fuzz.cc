// cdsspec-fuzz — differential-oracle self-validation of the exploration
// engine (the correctness-tooling layer: the checker checking itself).
// `cdsspec-fuzz` alone prints usage, rendered from the flag table in
// main().
//
// Each trial generates a seeded random litmus program and cross-checks the
// engine's behavior set three ways (see src/fuzz/oracle.h): brute-force
// interleavings on the seq_cst fragment, metamorphic memory-order
// monotonicity, and DFS-vs-sampling containment. Any disagreement is
// auto-minimized and written as a self-contained .litmus repro, with a
// .trail beside it pinning one witness execution; replay mode re-checks
// such files or a corpus. Either mode can also require the stress
// backend's observed behaviors to lie inside the DFS set (a stress-only
// behavior writes a .litmus + stress .trail pair), and export each program
// with its exhaustive behavior set for tools/herd_adjudicate. An unsound
// hook arms a deliberately broken engine variant, which the run must then
// catch: the self-validation tests use it to prove the oracles have teeth.
//
// Exit codes: 0 all oracles agreed, 1 disagreement found,
//             2 usage or I/O error (unreadable input, failed export).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "fuzz/generator.h"
#include "fuzz/herd_export.h"
#include "harness/stress_backend.h"
#include "fuzz/minimize.h"
#include "fuzz/oracle.h"
#include "fuzz/program.h"
#include "mc/trace.h"
#include "obs/metrics.h"
#include "support/flags.h"
#include "support/record.h"
#include "support/rng.h"

namespace {

constexpr int kExitAgreed = 0;
constexpr int kExitDisagreed = 1;
constexpr int kExitUsage = 2;

using cds::support::Field;
using cds::support::Flag;
using cds::support::JsonMember;
using cds::support::parse_u64;
using cds::support::render_fields;
using cds::support::render_json;
using cds::support::render_json_array;

void usage(std::span<const Flag> flags) {
  std::printf(
      "usage: cdsspec-fuzz [flags]\n"
      "flags:\n%s"
      "exit codes: 0 all oracles agreed, 1 disagreement found, 2 usage\n",
      cds::support::flag_usage(flags).c_str());
}

// --replay-dir: appends every *.litmus file in `dir`.
bool litmus_files(const std::string& dir, std::vector<std::string>* list,
                  std::string* err) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    *err = "cannot open dir '" + dir + "'";
    return false;
  }
  while (dirent* ent = readdir(d)) {
    const std::string n = ent->d_name;
    if (n.size() > 7 && n.ends_with(".litmus")) list->push_back(dir + "/" + n);
  }
  closedir(d);
  if (list->empty()) *err = "no .litmus files in '" + dir + "'";
  return !list->empty();
}

// Trial profiles alternate: even trials draw from the seq_cst-only pool
// (exact interleaving oracle), odd trials from the mixed-order pool
// (monotonicity + sampling oracles).
cds::fuzz::GenParams profile_for(std::uint64_t trial) {
  cds::fuzz::GenParams gp;
  gp.sc_only = trial % 2 == 0;
  gp.max_threads = 3;
  gp.max_total_ops = 8;
  return gp;
}

struct Repro {
  std::uint64_t trial = 0;
  std::uint64_t seed = 0;
  cds::fuzz::OracleKind oracle{};
  std::string detail;
  cds::fuzz::Program program;  // minimized
  int ops = 0;                 // the minimized program's operations
  std::string repro;           // where it was written ("" if write failed)
  std::string trail;           // witness .trail beside it ("" if none)
};

// One disagreement as a record: an entry of --json's `disagreements`.
std::array<Field, 7> fields(Repro& r) {
  return {{
      {"trial", &r.trial},
      {"seed", &r.seed},
      {"oracle", cds::support::enum_ref<3>(&r.oracle)},
      {"ops", &r.ops},
      {"repro", &r.repro},
      {"trail", &r.trail},
      {"detail", &r.detail},
  }};
}

// A campaign's summary, in trial or replay mode (where each file counts as
// a trial): the text summary line, the --json document and the
// --metrics-out fuzz.* metrics (obs::Registry::add_record) all render it.
struct Campaign {
  std::string mode;
  std::uint64_t seed = 0;
  std::uint64_t trials_requested = 0;
  std::uint64_t trials_completed = 0;
  std::uint64_t trials_skipped = 0;
  std::uint64_t oracle_checks = 0;
  std::uint64_t oracle_disagreements = 0;  // minimized repros, in trial mode
  std::uint64_t cross_backend_disagreements = 0;
  bool timed_out = false;
  double seconds = 0.0;
};

std::array<Field, 10> fields(Campaign& c) {
  using cds::support::Merge;
  return {{
      {"mode", &c.mode},
      {"seed", &c.seed},
      {"trials_requested", &c.trials_requested, Merge::kSum},
      {"trials_completed", &c.trials_completed, Merge::kSum},
      {"trials_skipped", &c.trials_skipped, Merge::kSum},
      {"oracle_checks", &c.oracle_checks, Merge::kSum},
      {"oracle_disagreements", &c.oracle_disagreements, Merge::kSum},
      {"cross_backend_disagreements", &c.cross_backend_disagreements,
       Merge::kSum},
      {"timed_out", &c.timed_out, Merge::kOr},
      {"seconds", &c.seconds, Merge::kSum},
  }};
}

// .trail "test" field for a witness execution: "litmus" for the repro
// program itself, "litmus+t<T>.op<I>[.fail]" when the trail drives the
// variant with that one site strengthened (monotonicity witnesses).
std::string witness_test_name(const cds::fuzz::WitnessTrail& wt) {
  if (!wt.strengthened) return "litmus";
  std::string n = "litmus+t" + std::to_string(wt.site.thread) + ".op" +
                  std::to_string(wt.site.index);
  if (wt.site.failure_order) n += ".fail";
  return n;
}

// Inverse of witness_test_name: rewrites `p` into the program the trail
// was recorded against. False when the name is malformed or out of range
// for this program.
bool apply_witness_test_name(const std::string& name, cds::fuzz::Program* p) {
  if (name == "litmus") return true;
  if (name.rfind("litmus+t", 0) != 0) return false;
  std::string rest = name.substr(8);
  std::size_t dot = rest.find(".op");
  if (dot == std::string::npos) return false;
  cds::fuzz::StrengthenSite site;
  site.failure_order = false;
  std::string idx = rest.substr(dot + 3);
  if (idx.size() > 5 && idx.substr(idx.size() - 5) == ".fail") {
    site.failure_order = true;
    idx = idx.substr(0, idx.size() - 5);
  }
  std::uint64_t t = 0, i = 0;
  if (!parse_u64(rest.substr(0, dot), &t) || !parse_u64(idx, &i)) {
    return false;
  }
  site.thread = static_cast<int>(t);
  site.index = static_cast<int>(i);
  if (site.thread >= p->threads() ||
      i >= p->ops[static_cast<std::size_t>(site.thread)].size()) {
    return false;
  }
  *p = cds::fuzz::strengthen_at(*p, site);
  return true;
}

// Re-runs the oracles on a candidate and reports whether the disagreement
// of the same kind persists (the minimizer's predicate).
bool reproduces(const cds::fuzz::Program& cand, cds::fuzz::OracleKind kind,
                const cds::fuzz::OracleConfig& cfg) {
  std::string why;
  if (cand.total_ops() == 0 || !cand.validate(&why)) return false;
  auto res = cds::fuzz::check_program(cand, cfg);
  for (const auto& d : res.disagreements) {
    if (d.oracle == kind) return true;
  }
  return false;
}

std::string write_repro(const std::string& out_dir, const Repro& r) {
  std::ostringstream name;
  name << out_dir << "/repro-" << cds::fuzz::to_string(r.oracle) << "-seed"
       << r.seed << ".litmus";
  std::ofstream f(name.str());
  if (!f) return "";
  f << "# cdsspec-fuzz minimized repro\n";
  f << "# oracle: " << cds::fuzz::to_string(r.oracle) << "\n";
  f << "# detail: ";
  for (char c : r.detail) f << (c == '\n' ? ' ' : c);
  f << "\n";
  f << "# trial " << r.trial << " seed " << r.seed << "\n";
  f << r.program.to_string();
  return f ? name.str() : "";
}

// Cross-backend / herd-export settings shared by trial and replay modes.
struct ExtraChecks {
  bool cross_backend = false;
  std::uint64_t stress_iters = 64;
  std::string herd_out;  // "" = no export
  std::string out_dir = ".";
  FILE* log = stdout;  // status lines: stderr under --json
};

// "path/to/mp_relacq.litmus" -> "mp_relacq" (herd test / artifact name).
std::string stem_of(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  std::string n = slash == std::string::npos ? path : path.substr(slash + 1);
  return n.size() > 7 && n.ends_with(".litmus") ? n.substr(0, n.size() - 7)
                                                 : n;
}

// Exports `p` for herd7 adjudication. Skips (with a note) when the DFS hit
// a cap before exhausting: a partial .expected would claim behaviors are
// forbidden that we merely did not finish enumerating. Returns false when
// the files could not be written.
bool herd_export_one(const cds::fuzz::Program& p,
                     const cds::fuzz::OracleConfig& cfg,
                     const std::string& name, const std::string& dir,
                     FILE* log) {
  auto mb = cds::fuzz::mc_behaviors(p, cfg);
  if (!mb.exhausted) {
    std::fprintf(stderr,
                 "cdsspec-fuzz: --herd-out: %s: DFS hit a cap before "
                 "exhausting; not exported\n",
                 name.c_str());
    return true;
  }
  std::string err;
  if (!cds::fuzz::write_herd_files(p, name, mb.behaviors, dir, &err)) {
    std::fprintf(stderr, "cdsspec-fuzz: --herd-out: %s: %s\n", name.c_str(),
                 err.c_str());
    return false;
  }
  std::fprintf(log, "herd-out: %s/%s.litmus + .expected (%zu states)\n",
               dir.c_str(), name.c_str(), mb.behaviors.size());
  return true;
}

// --herd-out must name an existing directory this process can write into;
// checked before any trial runs.
bool writable_dir(const std::string& dir) {
  struct stat st {};
  return ::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode) &&
         ::access(dir.c_str(), W_OK | X_OK) == 0;
}

// Best-effort stress witness: re-runs the single-runner iteration seed
// stream until `behavior` shows up again, capturing that iteration's seed
// and preemption decision trail. May fail — the hardware schedule is not
// replayable — in which case the caller records the root seed only.
bool find_stress_witness(const cds::fuzz::Program& p, std::uint64_t iters,
                         std::uint64_t seed, const std::string& behavior,
                         std::uint64_t* iter_seed,
                         std::vector<cds::mc::Choice>* decisions) {
  std::vector<std::uint64_t> obs;
  cds::mc::TestFn test = p.test_fn(&obs);
  cds::harness::StressOptions o;
  o.check_spec = false;
  cds::harness::StressBackend be(o);
  for (std::uint64_t it = 0; it < iters; ++it) {
    std::uint64_t s = cds::support::derive_seed(seed, it);
    be.run_iteration(test, s);
    std::vector<std::uint64_t> finals;
    for (int l = 0; l < p.locations; ++l) {
      finals.push_back(be.location_final_value(static_cast<std::uint32_t>(l)));
    }
    if (cds::fuzz::behavior_string(obs, finals) == behavior) {
      *iter_seed = s;
      *decisions = be.decision_trail();
      return true;
    }
  }
  return false;
}

// Stress-vs-DFS containment. True when stress observed a behavior the
// exhaustive DFS never enumerated — one of the two backends is wrong.
// Writes a replayable .litmus + stress .trail pair to ex.out_dir.
bool cross_backend_disagrees(const cds::fuzz::Program& p,
                             const cds::fuzz::OracleConfig& cfg,
                             const ExtraChecks& ex, const std::string& name,
                             std::string* detail) {
  auto mb = cds::fuzz::mc_behaviors(p, cfg);
  if (!mb.exhausted) {
    std::fprintf(stderr,
                 "cdsspec-fuzz: %s: cross-backend check skipped (DFS not "
                 "exhausted, containment undecidable)\n",
                 name.c_str());
    return false;
  }
  auto sb = cds::fuzz::stress_behaviors(p, ex.stress_iters,
                                        /*threads_mult=*/2, cfg.seed);
  std::vector<std::string> extra;
  for (const std::string& b : sb) {
    if (mb.behaviors.count(b) == 0) extra.push_back(b);
  }
  if (extra.empty()) return false;
  *detail = "stress observed " + std::to_string(extra.size()) +
            " behavior(s) outside the model set of " +
            std::to_string(mb.behaviors.size()) + "; first: " + extra.front();

  const std::string base = ex.out_dir + "/cross-" + name;
  std::ofstream f(base + ".litmus");
  if (f) {
    f << "# cdsspec-fuzz cross-backend disagreement\n";
    f << "# stress-only behavior: " << extra.front() << "\n";
    f << p.to_string();
  }
  cds::mc::TrailFile tf;
  tf.backend = "stress";
  tf.test_name = "litmus";
  tf.kind = "cross-backend";
  tf.detail = extra.front();
  tf.config.seed = cfg.seed;
  std::uint64_t iseed = 0;
  std::vector<cds::mc::Choice> dec;
  if (find_stress_witness(p, ex.stress_iters, cfg.seed, extra.front(),
                          &iseed, &dec)) {
    tf.config.seed = iseed;
    tf.choices = std::move(dec);
  }
  std::string terr;
  if (!cds::mc::write_trail_file(base + ".trail", tf, &terr)) {
    std::fprintf(stderr, "cdsspec-fuzz: cannot write '%s.trail': %s\n",
                 base.c_str(), terr.c_str());
  }
  return true;
}

// Re-checks `files`, counting each as a trial of *c. Returns the exit code.
int replay_files(const std::vector<std::string>& files,
                 const cds::fuzz::OracleConfig& cfg, const ExtraChecks& ex,
                 Campaign* c) {
  bool export_failed = false;
  c->trials_requested = files.size();
  for (const std::string& path : files) {
    std::ifstream f(path);
    if (!f) {
      std::fprintf(stderr, "cdsspec-fuzz: cannot open '%s'\n", path.c_str());
      ++c->trials_skipped;
      continue;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    cds::fuzz::Program p;
    std::string err;
    if (!cds::fuzz::Program::parse(buf.str(), &p, &err)) {
      std::fprintf(stderr, "cdsspec-fuzz: %s: parse error: %s\n", path.c_str(),
                   err.c_str());
      ++c->trials_skipped;
      continue;
    }
    if (!ex.herd_out.empty() &&
        !herd_export_one(p, cfg, stem_of(path), ex.herd_out, ex.log)) {
      export_failed = true;
    }
    if (ex.cross_backend) {
      std::string detail;
      ++c->oracle_checks;
      if (cross_backend_disagrees(p, cfg, ex, stem_of(path), &detail)) {
        ++c->cross_backend_disagreements;
        std::fprintf(ex.log, "%s: DISAGREEMENT [cross-backend] %s\n",
                     path.c_str(), detail.c_str());
      }
    }
    // Trail fast-path: a witness .trail beside the .litmus replays the one
    // recorded offending execution deterministically. Divergence or a
    // changed behavior (the engine moved since the recording) falls back
    // to the authoritative full oracle re-run below.
    if (path.size() > 7 && path.substr(path.size() - 7) == ".litmus") {
      std::string tpath = path.substr(0, path.size() - 7) + ".trail";
      cds::mc::TrailFile tf;
      std::string terr;
      if (std::ifstream(tpath).good()) {
        if (!cds::mc::load_trail_file(tpath, &tf, &terr)) {
          std::fprintf(stderr,
                       "cdsspec-fuzz: %s; re-running full oracles\n",
                       terr.c_str());
        } else if (!tf.backend.empty()) {
          // Stress trails replay probabilistically (cdsspec-run
          // --replay-trail); only model trails drive the deterministic
          // fast-path.
          std::fprintf(stderr,
                       "cdsspec-fuzz: %s: '%s' trail is not a model-checker "
                       "witness; re-running full oracles\n",
                       tpath.c_str(), tf.backend.c_str());
        } else {
          cds::fuzz::Program wp = p;
          if (!apply_witness_test_name(tf.test_name, &wp)) {
            std::fprintf(stderr,
                         "cdsspec-fuzz: %s: witness test '%s' does not fit "
                         "this program; re-running full oracles\n",
                         tpath.c_str(), tf.test_name.c_str());
          } else {
            // The trail's config is the one the witness ran under (its
            // hook, explore mode and sleep-set setting included), so the
            // command line's flags do not matter here.
            std::string behavior, rerr;
            if (!cds::fuzz::replay_behavior(wp, tf.config, tf.choices,
                                            &behavior, &rerr)) {
              std::fprintf(stderr,
                           "cdsspec-fuzz: %s: trail replay diverged (%s); "
                           "re-running full oracles\n",
                           tpath.c_str(), rerr.c_str());
            } else if (behavior != tf.detail) {
              std::fprintf(stderr,
                           "cdsspec-fuzz: %s: witness behavior changed "
                           "(recorded %s, replayed %s); re-running full "
                           "oracles\n",
                           tpath.c_str(), tf.detail.c_str(), behavior.c_str());
            } else {
              ++c->trials_completed;
              ++c->oracle_disagreements;
              std::fprintf(ex.log,
                           "%s: witness reproduced via trail [%s]: %s "
                           "(%zu choices)\n",
                           path.c_str(), tf.kind.c_str(), behavior.c_str(),
                           tf.choices.size());
              continue;
            }
          }
        }
      }
    }
    auto res = cds::fuzz::check_program(p, cfg);
    if (res.skipped) {
      std::fprintf(stderr, "cdsspec-fuzz: %s: skipped: %s\n", path.c_str(),
                   res.skip_reason.c_str());
      ++c->trials_skipped;
      continue;
    }
    ++c->trials_completed;
    c->oracle_checks += static_cast<std::uint64_t>(res.oracles_run);
    c->oracle_disagreements += res.disagreements.size();
    for (const auto& d : res.disagreements) {
      std::fprintf(ex.log, "%s: DISAGREEMENT [%s] %s\n", path.c_str(),
                   to_string(d.oracle), d.detail.c_str());
    }
    if (res.disagreements.empty()) {
      std::fprintf(ex.log, "%s: ok (%d oracle checks)\n", path.c_str(),
                   res.oracles_run);
    }
  }
  if (c->trials_skipped > 0 || export_failed) return kExitUsage;
  return c->oracle_disagreements + c->cross_backend_disagreements > 0
             ? kExitDisagreed
             : kExitAgreed;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t trials = 0;
  std::uint64_t base_seed = 1;
  double timeout = 0.0;
  bool json = false;
  std::string metrics_out;
  cds::fuzz::OracleConfig cfg;
  ExtraChecks ex;
  std::vector<std::string> replay;
  const Flag flags[] = {
      {{"--trials", &trials}, "N", "fuzz N seeded random programs"},
      {{"--seed", &base_seed}, "S", "root seed; trial seeds derive from it"},
      {{"--timeout", &timeout}, "SECS", "wall-clock budget for the campaign"},
      {{"--out", &ex.out_dir}, "DIR", "where minimized repros are written"},
      {{"--json", &json}, "", "machine-readable campaign summary"},
      {{"--unsound-hook", cds::support::enum_ref<3>(&cfg.unsound_hook)}, "",
       "arm a broken engine variant (self-validation only)", {1, 2}},
      {{"--jobs", &cfg.jobs}, "N", "N forked workers per DFS behavior set",
       {1, 256}},
      {{"--metrics-out", &metrics_out}, "FILE",
       "JSON snapshot of the campaign's metrics"},
      {{"--explore", cds::support::enum_ref<2>(&cfg.explore)}, "",
       "exploration mode of the engine under test"},
      {{"--cross-backend", &ex.cross_backend}, "",
       "also require stress behaviors inside the model's"},
      {{"--stress-iters", &ex.stress_iters}, "N",
       "stress iterations per --cross-backend check", {1}},
      {{"--herd-out", &ex.herd_out}, "DIR",
       "export each program and its behavior set for herd7"},
      {.field = {"--replay"}, .metavar = "FILE...",
       .help = "re-check repro or corpus programs instead of fuzzing",
       .list = &replay},
      {.field = {"--replay-dir"}, .metavar = "DIR",
       .help = "re-check every *.litmus file in DIR", .list = &replay,
       .expand = litmus_files},
  };
  std::string err;
  if (!cds::support::parse_flags(argc, argv, 1, flags, &err)) {
    std::fprintf(stderr, "cdsspec-fuzz: %s\n", err.c_str());
    usage(flags);
    return kExitUsage;
  }

  if (!ex.herd_out.empty() && !writable_dir(ex.herd_out)) {
    std::fprintf(stderr,
                 "cdsspec-fuzz: --herd-out: '%s' is not a writable directory\n",
                 ex.herd_out.c_str());
    return kExitUsage;
  }
  if (replay.empty() && trials == 0) {
    usage(flags);
    return kExitUsage;
  }

  // Under --json, stdout holds the one summary document.
  if (json) ex.log = stderr;
  auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  Campaign c;
  // Prints the summary and writes the metrics: the campaign's last step
  // in either mode.
  auto finish = [&](std::span<const JsonMember> more, int code) {
    c.seconds = elapsed();
    if (json) {
      std::printf("%s\n", render_json(fields(c), more).c_str());
    } else {
      std::printf("campaign: %s\n", render_fields(fields(c)).c_str());
    }
    cds::obs::Registry m;
    m.add_record("fuzz.", fields(c));
    std::string werr;
    if (!metrics_out.empty() &&
        !cds::mc::write_text_file_atomic(metrics_out, m.to_json(), &werr)) {
      std::fprintf(stderr, "cdsspec-fuzz: cannot write '%s': %s\n",
                   metrics_out.c_str(), werr.c_str());
    }
    return code;
  };
  if (!replay.empty()) {
    // Deterministic order regardless of directory enumeration order.
    std::sort(replay.begin(), replay.end());
    c.mode = "replay";
    c.seed = cfg.seed;
    return finish({}, replay_files(replay, cfg, ex, &c));
  }

  c.mode = "trials";
  c.seed = base_seed;
  c.trials_requested = trials;
  std::uint64_t export_failed = 0;
  std::vector<Repro> repros;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    if (timeout > 0.0 && elapsed() >= timeout) {
      c.timed_out = true;
      break;
    }
    // Per-trial seeds derive from the base seed alone, so one number
    // reproduces the campaign and text/JSON modes see identical streams.
    std::uint64_t seed = cds::fuzz::trial_seed(base_seed, trial);
    cds::fuzz::OracleConfig tcfg = cfg;
    tcfg.seed = seed;
    cds::fuzz::Program p = cds::fuzz::generate(profile_for(trial), seed);
    auto res = cds::fuzz::check_program(p, tcfg);
    ++c.trials_completed;
    c.oracle_checks += static_cast<std::uint64_t>(res.oracles_run);
    if (res.skipped) {
      ++c.trials_skipped;
      continue;
    }
    const std::string trial_name = "seed" + std::to_string(seed);
    if (!ex.herd_out.empty() &&
        !herd_export_one(p, tcfg, trial_name, ex.herd_out, ex.log)) {
      ++export_failed;
    }
    if (ex.cross_backend) {
      std::string detail;
      ++c.oracle_checks;
      if (cross_backend_disagrees(p, tcfg, ex, trial_name, &detail)) {
        ++c.cross_backend_disagreements;
        std::fprintf(ex.log,
                     "trial %llu seed %llu: DISAGREEMENT [cross-backend]\n"
                     "  %s\n",
                     static_cast<unsigned long long>(trial),
                     static_cast<unsigned long long>(seed), detail.c_str());
      }
    }
    for (const auto& d : res.disagreements) {
      Repro r;
      r.trial = trial;
      r.seed = seed;
      r.oracle = d.oracle;
      r.detail = d.detail;
      // Minimize the base program while the same oracle kind still fires.
      cds::fuzz::MinimizeStats ms;
      r.program = cds::fuzz::minimize(
          p, [&](const cds::fuzz::Program& cand) {
            return reproduces(cand, d.oracle, tcfg);
          },
          &ms);
      r.ops = r.program.total_ops();
      r.repro = write_repro(ex.out_dir, r);
      // Pin the disagreement down to one replayable execution: a .trail
      // beside the .litmus lets --replay confirm the witness in a single
      // deterministic run instead of a full oracle sweep.
      if (!r.repro.empty()) {
        cds::fuzz::WitnessTrail wt;
        if (cds::fuzz::witness_trail(r.program, tcfg, d.oracle, &wt)) {
          cds::mc::TrailFile tf;
          tf.test_name = witness_test_name(wt);
          tf.config = wt.config;
          tf.kind = cds::fuzz::to_string(d.oracle);
          tf.detail = wt.behavior;
          tf.choices = wt.choices;
          std::string tpath =
              r.repro.substr(0, r.repro.size() - 7) + ".trail";
          std::string terr;
          if (cds::mc::write_trail_file(tpath, tf, &terr)) {
            r.trail = tpath;
          } else {
            std::fprintf(stderr, "cdsspec-fuzz: cannot write '%s': %s\n",
                         tpath.c_str(), terr.c_str());
          }
        }
      }
      std::fprintf(ex.log,
                   "trial %llu seed %llu: DISAGREEMENT [%s]\n  %s\n"
                   "  minimized to %d ops (%d probes)%s%s%s%s\n",
                   static_cast<unsigned long long>(trial),
                   static_cast<unsigned long long>(seed), to_string(d.oracle),
                   d.detail.c_str(), r.ops, ms.probes,
                   r.repro.empty() ? "" : ", repro: ", r.repro.c_str(),
                   r.trail.empty() ? "" : ", trail: ", r.trail.c_str());
      ++c.oracle_disagreements;
      repros.push_back(std::move(r));
    }
  }

  int code = c.oracle_disagreements + c.cross_backend_disagreements > 0
                 ? kExitDisagreed
                 : kExitAgreed;
  if (export_failed > 0) {
    std::fprintf(stderr, "cdsspec-fuzz: --herd-out: %llu export(s) failed\n",
                 static_cast<unsigned long long>(export_failed));
    code = kExitUsage;
  }
  std::vector<std::string> found;
  for (Repro& r : repros) found.push_back(render_json(fields(r)));
  const JsonMember more[] = {
      {"disagreements", render_json_array(found)}};
  return finish(more, code);
}
