// Persistent trails: a compact, versioned textual format for choice
// sequences (.trail files), plus the config fingerprint that makes a trail
// a self-contained one-execution repro.
//
// The explorer is stateless: every execution is a deterministic function of
// its recorded choice sequence. Serializing that sequence turns any
// execution — in particular a violating one — into a one-file artifact that
// `cdsspec-run --replay-trail <file>` (or cdsspec-fuzz, for litmus
// programs) re-executes deterministically, with the debug-build replay
// determinism assertion promoted to a runtime divergence check.
//
// Format (line-oriented, '#' starts a comment, order fixed):
//   cdsspec-trail v3
//   test msqueue#2
//   seed 11400714819323198485
//   backend stress                       # optional: "model" (default) or
//                                        # "stress"; any other token rejected
//   kind data-race                       # optional: wire_name(ViolationKind)
//   detail read of 'head' races ...      # optional, newlines flattened
//   inject msqueue/enqueue-tail-store    # optional: active injection site
//   explore rf                           # optional: exploration mode; absent
//                                        # means "schedule" (the default)
//   config stale=3 max_steps=20000 strengthen_sc=0 sleep_sets=1
//   choices 3
//   S 1/2                                # schedule: chose 1 of 2
//   R 0/3                                # reads-from: chose 0 of 3
//   V 1/2                                # revisit (rf mode): chose 1 of 2
//   S 0/2
//   end
#ifndef CDS_MC_TRACE_H
#define CDS_MC_TRACE_H

#include <string>
#include <vector>

#include "mc/config.h"
#include "mc/trail.h"

namespace cds::mc {

struct TrailFile {
  // v2: Xorshift64::below() switched from modulo reduction to rejection
  // sampling, changing every random-mode choice stream; v1 trails recorded
  // from sampled executions would silently replay a different schedule, so
  // the version gates them out.
  // v3: rf mode replaced the blind "wait" alternative of kReadsFrom choices
  // with store-driven kRevisit choices ('V'); an older rf trail indexes a
  // different tree.
  static constexpr int kVersion = 3;

  // Identity: which test body this trail drives ("<benchmark>#<index>" for
  // registry benchmarks, "litmus" for fuzzer programs).
  std::string test_name;
  std::uint64_t seed = 0;

  // Which backend recorded the trail: "" or "model" for the model checker
  // (the parser normalizes "model" to "" so round-trips are exact),
  // "stress" for the stress backend. Model trails carry the engine's
  // choice sequence and replay exactly; stress trails carry the iteration
  // seed plus the thread-major preemption decision stream, and replay by
  // re-running the iteration under that seed (probabilistic — the decision
  // stream is deterministic, the hardware schedule is not).
  std::string backend;

  // What the recorded execution exhibited ("" when the trail was exported
  // manually rather than from a violation).
  std::string kind;
  std::string detail;

  // The bug-injection site active when the trail was recorded ("" for an
  // unmodified run). Opaque to this layer; cdsspec-run re-activates the
  // named site before replaying, since the injected memory order shapes
  // the choice tree the trail indexes into.
  std::string inject_site;

  // Exploration mode the trail was recorded under. rf-mode trails carry
  // kRevisit choices and branch differently on loads, and schedule trails
  // do neither, so replaying under the wrong mode desynchronizes;
  // rendered as an optional "explore rf" line (absent for the default
  // schedule mode, keeping pre-rf trails parseable unchanged).
  ExploreMode explore = ExploreMode::kSchedule;

  // Config fingerprint: the exploration parameters that shape the choice
  // tree. Replaying under a different fingerprint would desynchronize the
  // trail, so replay applies these.
  std::uint32_t stale_read_bound = 3;
  std::uint64_t max_steps = 20000;
  bool strengthen_to_sc = false;
  bool enable_sleep_sets = true;

  std::vector<Choice> choices;

  // Copies the fingerprint fields from / into an engine Config.
  void fingerprint_from(const Config& cfg);
  void apply_fingerprint(Config* cfg) const;
  // "" when `cfg` matches this fingerprint; otherwise a human-readable
  // description of the first mismatch.
  [[nodiscard]] std::string fingerprint_mismatch(const Config& cfg) const;
};

// Serialization. parse_trail accepts exactly render_trail's output (plus
// comments/blank lines) and rejects truncated, corrupted, or
// version-mismatched input with an actionable message naming the line.
[[nodiscard]] std::string render_trail(const TrailFile& t);
bool parse_trail(const std::string& text, TrailFile* out, std::string* err);

// File I/O. Writing is atomic (write to "<path>.tmp", then rename), so a
// crash mid-write never leaves a torn .trail behind.
bool write_trail_file(const std::string& path, const TrailFile& t,
                      std::string* err);
bool load_trail_file(const std::string& path, TrailFile* out,
                     std::string* err);

// Shared text-file plumbing (also used by the trace and herd exporters).
bool write_text_file_atomic(const std::string& path, const std::string& text,
                            std::string* err);
bool read_text_file(const std::string& path, std::string* out,
                    std::string* err);

// Renders the choices-only body ("S 1/2\n..."): shared with the shard
// wire formats, which embed the same trail section.
[[nodiscard]] std::string render_choices(const std::vector<Choice>& v);
// Parses `n` choice lines starting at lines[*idx]; advances *idx past them.
bool parse_choices(const std::vector<std::string>& lines, std::size_t* idx,
                   std::size_t n, std::vector<Choice>* out, std::string* err);

// One-token rendering of the flags that decide what a run explores and
// where it stops: the tree-shaping fields a TrailFile pins, the seed, and
// the budgets that cut results short, e.g.
//   stale=3,max_steps=20000,strengthen_sc=0,sleep_sets=1,explore=schedule,
//   seed=42,cap=0,timeout=0,mem_cap=0,stop_on_violation=0
// The shard journal keeps it in its run header, so a --resume under
// different flags is refused instead of merging results they did not cut.
[[nodiscard]] std::string render_config_fingerprint(const Config& cfg);

}  // namespace cds::mc

#endif  // CDS_MC_TRACE_H
