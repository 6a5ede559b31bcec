#include "harness/shard_result.h"

#include <algorithm>
#include <array>
#include <string_view>
#include <utility>

#include "mc/trace.h"
#include "support/record.h"
#include "support/rng.h"

namespace cds::harness {

using support::parse_u64;

namespace {

// A violation's line in a shard result; its trail follows as `choices`
// trail lines.
std::array<support::Field, 5> violation_fields(mc::Violation& v,
                                               std::uint64_t& choices) {
  return {{{"kind", support::enum_ref<8, mc::wire_name>(&v.kind)},
           {"execution", &v.execution_index},
           {"test", &v.test_index},
           {"choices", &choices},
           {"detail", &v.detail}}};
}

}  // namespace

std::string render_shard_result(const RunResult& r) {
  std::string s = "shard-result v7\nstats " + support::render_record(r.mc) +
                  "\nspec " + support::render_record(r.spec) + "\n";
  s += "violations " + std::to_string(r.violations.size()) + "\n";
  for (const mc::Violation& v : r.violations) {
    std::uint64_t choices = v.trail.size();
    // The table binds mutable members; rendering only reads them.
    s += "v " +
         support::render_fields(
             violation_fields(const_cast<mc::Violation&>(v), choices)) +
         "\n" + mc::render_choices(v.trail);
  }
  s += "reports " + std::to_string(r.reports.size()) + "\n";
  for (const std::string& rep : r.reports) {
    s += "rep " + support::escape(rep) + "\n";
  }
  const std::vector<std::string> mlines = r.metrics.render_wire();
  s += "metrics " + std::to_string(mlines.size()) + "\n";
  for (const std::string& ml : mlines) {
    s += "m " + ml + "\n";
  }
  s += "frontier " + std::to_string(r.frontier.size()) + "\n";
  s += mc::render_choices(r.frontier);
  s += "end\n";
  return s;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      if (start < text.size()) lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

bool parse_shard_result(const std::string& text, ShardResult* out,
                        std::string* err) {
  // Parse into a scratch result and commit only on success, so a
  // rejected message never leaves *out partially populated.
  ShardResult res;
  std::vector<std::string> lines = split_lines(text);
  std::size_t i = 0;
  auto next = [&]() -> const std::string* {
    return i < lines.size() ? &lines[i++] : nullptr;
  };
  // Diagnostics carry the 1-based line number of the offending line (the
  // one most recently consumed).
  auto fail = [&](const std::string& why) {
    *err = "line " + std::to_string(i == 0 ? 1 : i) + ": " + why;
    return false;
  };
  std::string why;
  // The next line as "<tag> <rest>".
  std::string_view rest;
  auto tagged = [&](const std::string& tag) {
    const std::string* l = next();
    if (l == nullptr || l->rfind(tag + " ", 0) != 0) return false;
    rest = std::string_view(*l).substr(tag.size() + 1);
    return true;
  };
  // A section's "<name> <count>" line, bounded by the message's size.
  auto count = [&](const std::string& name, std::uint64_t* n) {
    if (!tagged(name) || !parse_u64(rest, n)) {
      return fail("missing " + name + " count");
    }
    return *n <= lines.size() || fail(name + " count exceeds message");
  };
  const std::string* l = next();
  if (l == nullptr || *l != "shard-result v7") {
    return fail("not a shard result (or a stale wire version)");
  }
  if (!tagged("stats")) return fail("missing stats line");
  if (!support::parse_record(rest, &why, res.stats)) {
    return fail("stats: " + why);
  }
  if (!tagged("spec")) return fail("missing spec line");
  if (!support::parse_record(rest, &why, res.spec)) return fail("spec: " + why);

  std::uint64_t n = 0;
  if (!count("violations", &n)) return false;
  for (std::uint64_t k = 0; k < n; ++k) {
    mc::Violation v;
    std::uint64_t choices = 0;
    if (!tagged("v")) return fail("missing violation line");
    if (!support::parse_fields(rest, violation_fields(v, choices), &why)) {
      return fail("violation: " + why);
    }
    if (!mc::parse_choices(lines, &i, choices, &v.trail, &why)) {
      return fail(why);
    }
    res.violations.push_back(std::move(v));
  }
  if (!count("reports", &n)) return false;
  for (std::uint64_t k = 0; k < n; ++k) {
    std::string rep;
    if (!tagged("rep") || !support::unescape(rest, &rep)) {
      return fail("missing report line");
    }
    res.reports.push_back(std::move(rep));
  }
  if (!count("metrics", &n)) return false;
  for (std::uint64_t k = 0; k < n; ++k) {
    if (!tagged("m")) return fail("missing metrics line");
    if (!res.metrics.parse_wire_line(std::string(rest), &why)) {
      return fail(why);
    }
  }
  if (!count("frontier", &n)) return false;
  if (!mc::parse_choices(lines, &i, n, &res.frontier, &why)) {
    return fail(why);
  }
  if (res.stats.preempted != !res.frontier.empty()) {
    return fail("preempted flag and frontier presence disagree");
  }
  if (i >= lines.size() || lines[i++] != "end") {
    return fail("missing 'end' terminator");
  }
  *out = std::move(res);
  return true;
}

std::string render_shard_unit(const ShardUnit& u) {
  return "unit " + support::render_record(u) + "\nprefix " +
         std::to_string(u.prefix.size()) + "\n" + mc::render_choices(u.prefix);
}

bool parse_shard_unit(const std::vector<std::string>& lines, std::size_t* i,
                      ShardUnit* out, std::string* why) {
  ShardUnit u;
  std::size_t at = *i;
  if (at >= lines.size() || lines[at].rfind("unit ", 0) != 0) {
    *why = "missing unit line";
    return false;
  }
  if (!support::parse_record(std::string_view(lines[at++]).substr(5), why, u)) {
    return false;
  }
  std::uint64_t n = 0;
  if (at >= lines.size() || lines[at].rfind("prefix ", 0) != 0 ||
      !parse_u64(std::string_view(lines[at++]).substr(7), &n) ||
      n > lines.size()) {
    *why = "missing or oversized prefix count";
    return false;
  }
  if (!mc::parse_choices(lines, &at, n, &u.prefix, why)) return false;
  if (u.total == 0) u.total = 1;
  *out = std::move(u);
  *i = at;
  return true;
}

ShardUnit make_shard_unit(const RunOptions& base, std::size_t test_index,
                          std::vector<mc::Choice> prefix, std::size_t ordinal,
                          std::size_t total) {
  ShardUnit u;
  u.test_index = test_index;
  u.prefix = std::move(prefix);
  u.ordinal = ordinal;
  u.total = total;
  // Degraded-phase sampling shards by derived per-shard seeds and divides
  // the sample budget, so a budget-starved parallel run still samples
  // ~sample_executions total across the subtrees.
  u.engine_seed = support::derive_seed(base.engine.seed,
                                       static_cast<std::uint64_t>(ordinal));
  u.sample_executions = base.engine.sample_executions;
  if (u.sample_executions > 0 && total > 1) {
    u.sample_executions = std::max<std::uint64_t>(1, u.sample_executions / total);
  }
  return u;
}

std::string run_shard_unit(const Benchmark& b, const RunOptions& base,
                           const ShardUnit& u,
                           const std::function<bool()>& stop_request) {
  RunOptions wo = base;
  wo.engine.test_name = b.name + "#" + std::to_string(u.test_index);
  wo.engine.test_index = static_cast<std::uint32_t>(u.test_index);
  // Heartbeats from parallel workers interleave on the shared stderr, so
  // each line names its shard.
  wo.engine.progress_label = wo.engine.test_name + " shard " +
                             std::to_string(u.ordinal + 1) + "/" +
                             std::to_string(u.total);
  wo.engine.seed = u.engine_seed;
  wo.engine.sample_executions = u.sample_executions;
  wo.engine.stop_request = stop_request;
  wo.subtree = u.prefix;
  RunResult r = run_with_spec(b.tests[u.test_index], wo);
  return render_shard_result(r);
}

}  // namespace cds::harness
