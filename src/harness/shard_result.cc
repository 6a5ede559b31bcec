#include "harness/shard_result.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <utility>

#include "mc/trace.h"
#include "support/rng.h"

namespace cds::harness {

std::string escape_line(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape_line(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      out += s[i + 1] == 'n' ? '\n' : s[i + 1];
      ++i;
    } else {
      out += s[i];
    }
  }
  return out;
}

std::string render_shard_result(const RunResult& r) {
  const mc::ExplorationStats& m = r.mc;
  std::string s = "shard-result v4\n";
  s += "stats executions=" + std::to_string(m.executions) +
       " feasible=" + std::to_string(m.feasible) +
       " pruned_bound=" + std::to_string(m.pruned_bound) +
       " pruned_livelock=" + std::to_string(m.pruned_livelock) +
       " pruned_redundant=" + std::to_string(m.pruned_redundant) +
       " builtin=" + std::to_string(m.builtin_violation_execs) +
       " fatal=" + std::to_string(m.engine_fatal_execs) +
       " crash=" + std::to_string(m.crash_execs) +
       " violations_total=" + std::to_string(m.violations_total) +
       " sampled=" + std::to_string(m.sampled) +
       " rf_classes=" + std::to_string(m.rf_classes) +
       " rf_infeasible=" + std::to_string(m.rf_infeasible) +
       " max_depth=" + std::to_string(m.max_trail_depth) +
       " seconds_us=" +
       std::to_string(static_cast<std::uint64_t>(m.seconds * 1e6)) +
       " cap=" + std::to_string(m.hit_execution_cap ? 1 : 0) +
       " stopped=" + std::to_string(m.stopped_early ? 1 : 0) +
       " time=" + std::to_string(m.hit_time_budget ? 1 : 0) +
       " mem=" + std::to_string(m.hit_memory_budget ? 1 : 0) +
       " watchdog=" + std::to_string(m.watchdog_fired ? 1 : 0) +
       " exhausted=" + std::to_string(m.exhausted ? 1 : 0) +
       " preempted=" + std::to_string(m.preempted ? 1 : 0) +
       " verdict=" + std::to_string(static_cast<int>(m.verdict)) + "\n";
  s += "spec checked=" + std::to_string(r.spec.executions_checked) +
       " inadmissible=" + std::to_string(r.spec.inadmissible_execs) +
       " assertions=" + std::to_string(r.spec.assertion_violation_execs) +
       " histories=" + std::to_string(r.spec.histories_checked) +
       " justifications=" + std::to_string(r.spec.justification_checks) +
       " cap_hit=" + std::to_string(r.spec.history_cap_hit ? 1 : 0) +
       " r_cycle=" + std::to_string(r.spec.r_cycle_seen ? 1 : 0) + "\n";
  s += "violations " + std::to_string(r.violations.size()) + "\n";
  for (const mc::Violation& v : r.violations) {
    s += std::string("v ") + mc::wire_name(v.kind) + " " +
         std::to_string(v.execution_index) + " " +
         std::to_string(v.test_index) + " " + std::to_string(v.trail.size()) +
         " " + escape_line(v.detail) + "\n";
    s += mc::render_choices(v.trail);
  }
  s += "reports " + std::to_string(r.reports.size()) + "\n";
  for (const std::string& rep : r.reports) {
    s += "rep " + escape_line(rep) + "\n";
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

bool parse_u64_tok(const char* s, std::uint64_t* out) {
  // Strict: decimal digits only, fully consumed. strtoull alone would
  // accept leading whitespace, a sign (silently wrapping negatives), and
  // trailing junk — all of which a corrupted wire token may contain.
  if (s == nullptr || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0) return false;
  *out = v;
  return true;
}

// Parses "key=value" tokens off a stats-style line into `slots`.
bool parse_kv_tokens(const std::string& line, std::size_t skip_prefix,
                     const std::vector<std::pair<const char*, std::uint64_t*>>& slots,
                     std::string* err) {
  std::size_t pos = skip_prefix;
  std::size_t found = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    if (pos >= line.size()) break;
    std::size_t sp = line.find(' ', pos);
    std::string tok = line.substr(pos, sp == std::string::npos ? sp : sp - pos);
    pos = sp == std::string::npos ? line.size() : sp;
    std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      *err = "malformed token '" + tok + "'";
      return false;
    }
    std::string key = tok.substr(0, eq);
    bool known = false;
    for (const auto& slot : slots) {
      if (key == slot.first) {
        if (!parse_u64_tok(tok.c_str() + eq + 1, slot.second)) {
          *err = "malformed value in '" + tok + "'";
          return false;
        }
        known = true;
        ++found;
        break;
      }
    }
    if (!known) {
      *err = "unknown key '" + key + "'";
      return false;
    }
  }
  if (found != slots.size()) {
    *err = "missing keys in '" + line + "'";
    return false;
  }
  return true;
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
  const std::string* l = next();
  if (l == nullptr || *l != "shard-result v4") {
    return fail("not a shard result (or a stale wire version)");
  }
  l = next();
  if (l == nullptr || l->rfind("stats ", 0) != 0) {
    return fail("missing stats line");
  }
  mc::ExplorationStats& m = res.stats;
  std::uint64_t seconds_us = 0, cap = 0, stopped = 0, time = 0, mem = 0,
                watchdog = 0, exhausted = 0, preempted = 0, verdict = 0;
  std::string why;
  if (!parse_kv_tokens(*l, 6,
                       {{"executions", &m.executions},
                        {"feasible", &m.feasible},
                        {"pruned_bound", &m.pruned_bound},
                        {"pruned_livelock", &m.pruned_livelock},
                        {"pruned_redundant", &m.pruned_redundant},
                        {"builtin", &m.builtin_violation_execs},
                        {"fatal", &m.engine_fatal_execs},
                        {"crash", &m.crash_execs},
                        {"violations_total", &m.violations_total},
                        {"sampled", &m.sampled},
                        {"rf_classes", &m.rf_classes},
                        {"rf_infeasible", &m.rf_infeasible},
                        {"max_depth", &m.max_trail_depth},
                        {"seconds_us", &seconds_us},
                        {"cap", &cap},
                        {"stopped", &stopped},
                        {"time", &time},
                        {"mem", &mem},
                        {"watchdog", &watchdog},
                        {"exhausted", &exhausted},
                        {"preempted", &preempted},
                        {"verdict", &verdict}},
                       &why)) {
    return fail(why);
  }
  m.seconds = static_cast<double>(seconds_us) / 1e6;
  m.hit_execution_cap = cap != 0;
  m.stopped_early = stopped != 0;
  m.hit_time_budget = time != 0;
  m.hit_memory_budget = mem != 0;
  m.watchdog_fired = watchdog != 0;
  m.exhausted = exhausted != 0;
  m.preempted = preempted != 0;
  if (verdict > 2) return fail("bad verdict");
  m.verdict = static_cast<mc::Verdict>(verdict);

  l = next();
  if (l == nullptr || l->rfind("spec ", 0) != 0) {
    return fail("missing spec line");
  }
  std::uint64_t cap_hit = 0, r_cycle = 0;
  if (!parse_kv_tokens(*l, 5,
                       {{"checked", &res.spec.executions_checked},
                        {"inadmissible", &res.spec.inadmissible_execs},
                        {"assertions", &res.spec.assertion_violation_execs},
                        {"histories", &res.spec.histories_checked},
                        {"justifications", &res.spec.justification_checks},
                        {"cap_hit", &cap_hit},
                        {"r_cycle", &r_cycle}},
                       &why)) {
    return fail(why);
  }
  res.spec.history_cap_hit = cap_hit != 0;
  res.spec.r_cycle_seen = r_cycle != 0;

  l = next();
  std::uint64_t nviol = 0;
  if (l == nullptr || l->rfind("violations ", 0) != 0 ||
      !parse_u64_tok(l->c_str() + 11, &nviol)) {
    return fail("missing violations count");
  }
  if (nviol > lines.size()) return fail("violations count exceeds message");
  for (std::uint64_t k = 0; k < nviol; ++k) {
    l = next();
    if (l == nullptr || l->rfind("v ", 0) != 0) {
      return fail("missing violation line");
    }
    // "v <kind> <exec> <test> <nchoices> <detail>"
    std::vector<std::string> tok;
    std::size_t pos = 2;
    for (int t = 0; t < 4 && pos < l->size(); ++t) {
      std::size_t sp = l->find(' ', pos);
      tok.push_back(l->substr(pos, sp == std::string::npos ? sp : sp - pos));
      pos = sp == std::string::npos ? l->size() : sp + 1;
    }
    if (tok.size() != 4) return fail("malformed violation line");
    mc::Violation v;
    std::uint64_t exec = 0, ti = 0, nch = 0;
    if (!mc::parse_violation_kind(tok[0], &v.kind) ||
        !parse_u64_tok(tok[1].c_str(), &exec) ||
        !parse_u64_tok(tok[2].c_str(), &ti) ||
        !parse_u64_tok(tok[3].c_str(), &nch)) {
      return fail("malformed violation line");
    }
    v.execution_index = exec;
    v.test_index = static_cast<std::uint32_t>(ti);
    v.detail = unescape_line(pos <= l->size() ? l->substr(pos) : "");
    if (!mc::parse_choices(lines, &i, nch, &v.trail, &why)) return fail(why);
    res.violations.push_back(std::move(v));
  }

  l = next();
  std::uint64_t nrep = 0;
  if (l == nullptr || l->rfind("reports ", 0) != 0 ||
      !parse_u64_tok(l->c_str() + 8, &nrep)) {
    return fail("missing reports count");
  }
  if (nrep > lines.size()) return fail("reports count exceeds message");
  for (std::uint64_t k = 0; k < nrep; ++k) {
    l = next();
    if (l == nullptr || l->rfind("rep ", 0) != 0) {
      return fail("missing report line");
    }
    res.reports.push_back(unescape_line(l->substr(4)));
  }
  l = next();
  std::uint64_t nmet = 0;
  if (l == nullptr || l->rfind("metrics ", 0) != 0 ||
      !parse_u64_tok(l->c_str() + 8, &nmet)) {
    return fail("missing metrics count");
  }
  if (nmet > lines.size()) return fail("metrics count exceeds message");
  for (std::uint64_t k = 0; k < nmet; ++k) {
    l = next();
    if (l == nullptr || l->rfind("m ", 0) != 0) {
      return fail("missing metrics line");
    }
    if (!res.metrics.parse_wire_line(l->substr(2), &why)) return fail(why);
  }
  l = next();
  std::uint64_t nfro = 0;
  if (l == nullptr || l->rfind("frontier ", 0) != 0 ||
      !parse_u64_tok(l->c_str() + 9, &nfro)) {
    return fail("missing frontier count");
  }
  if (nfro > lines.size()) return fail("frontier count exceeds message");
  if (!mc::parse_choices(lines, &i, nfro, &res.frontier, &why)) {
    return fail(why);
  }
  if (res.stats.preempted != !res.frontier.empty()) {
    return fail("preempted flag and frontier presence disagree");
  }
  l = next();
  if (l == nullptr || *l != "end") return fail("missing 'end' terminator");
  *out = std::move(res);
  return true;
}

std::string render_shard_unit(const ShardUnit& u) {
  return "unit test=" + std::to_string(u.test_index) +
         " ordinal=" + std::to_string(u.ordinal) +
         " total=" + std::to_string(u.total) +
         " seed=" + std::to_string(u.engine_seed) +
         " samples=" + std::to_string(u.sample_executions) + "\nprefix " +
         std::to_string(u.prefix.size()) + "\n" + mc::render_choices(u.prefix);
}

bool parse_shard_unit(const std::vector<std::string>& lines, std::size_t* i,
                      ShardUnit* out, std::string* why) {
  if (*i >= lines.size() || lines[*i].rfind("unit ", 0) != 0) {
    *why = "missing unit line";
    return false;
  }
  ShardUnit u;
  std::uint64_t test = 0, ordinal = 0, total = 0, npfx = 0;
  if (!parse_kv_tokens(lines[*i], 5,
                       {{"test", &test},
                        {"ordinal", &ordinal},
                        {"total", &total},
                        {"seed", &u.engine_seed},
                        {"samples", &u.sample_executions}},
                       why)) {
    return false;
  }
  std::size_t at = *i + 1;
  if (at >= lines.size() || lines[at].rfind("prefix ", 0) != 0 ||
      !parse_u64_tok(lines[at].c_str() + 7, &npfx)) {
    *why = "missing prefix count";
    return false;
  }
  ++at;
  if (npfx > lines.size()) {
    *why = "prefix count exceeds message";
    return false;
  }
  if (!mc::parse_choices(lines, &at, npfx, &u.prefix, why)) return false;
  u.test_index = static_cast<std::size_t>(test);
  u.ordinal = static_cast<std::size_t>(ordinal);
  u.total = static_cast<std::size_t>(total == 0 ? 1 : total);
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
