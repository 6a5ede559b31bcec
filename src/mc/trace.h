// Persistent trails: a compact, versioned textual format for choice
// sequences (.trail files), plus the run configuration that makes a trail
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
//   cdsspec-trail v4
//   test msqueue#2
//   backend stress                       # optional: "model" (default) or
//                                        # "stress"; any other token rejected
//   kind data-race                       # optional: wire_name(ViolationKind)
//   detail read of 'head' races ...      # optional, newlines flattened
//   config stale=3 max_steps=20000 ... inject=enq:\stail\sload ...
//                                        # the mc::Config record (config.h)
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
  // v4: one `config` line carries the whole mc::Config record, the seed,
  // the explore mode and the injection site included, in place of the
  // `seed`, `explore` and `inject` lines and the four-key config line.
  static constexpr int kVersion = 4;

  // Identity: which test body this trail drives ("<benchmark>#<index>" for
  // registry benchmarks, "litmus" for fuzzer programs).
  std::string test_name;

  // Which backend recorded the trail: "" or "model" for the model checker
  // (the parser normalizes "model" to "" so round-trips are exact),
  // "stress" for the stress backend. Model trails carry the engine's
  // choice sequence and replay exactly; stress trails carry the iteration
  // seed (config.seed) plus the thread-major preemption decision stream,
  // and replay by re-running the iteration under that seed (probabilistic
  // — the decision stream is deterministic, the hardware schedule is not).
  std::string backend;

  // What the recorded execution exhibited ("" when the trail was exported
  // manually rather than from a violation).
  std::string kind;
  std::string detail;

  // The configuration the execution ran under: replay runs under it,
  // since the seed, the bounds and the explore mode shape the choice tree
  // the trail indexes into.
  Config config;
  // The bug-injection site active when the trail was recorded ("" for an
  // unmodified run), carried in the config record. Opaque to this layer;
  // cdsspec-run re-activates the named site before replaying.
  std::string inject_site;

  std::vector<Choice> choices;
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

}  // namespace cds::mc

#endif  // CDS_MC_TRACE_H
