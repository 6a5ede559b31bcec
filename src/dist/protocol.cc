#include "dist/protocol.h"

#include <utility>
#include <vector>

namespace cds::dist {

using harness::escape_line;
using harness::parse_kv_tokens;
using harness::parse_u64_tok;
using harness::split_lines;
using harness::unescape_line;

// ---------------------------------------------------------------------------
// Control lines
// ---------------------------------------------------------------------------

std::string render_hello(std::uint64_t pid) {
  return std::string("hello ") + kProtocolVersion +
         " pid=" + std::to_string(pid) + "\n";
}

std::string render_welcome(std::uint64_t heartbeat_us, std::uint64_t epoch) {
  return std::string("welcome ") + kProtocolVersion +
         " hb_us=" + std::to_string(heartbeat_us) +
         " epoch=" + std::to_string(epoch) + "\n";
}

std::string render_heartbeat(std::uint64_t shard_id) {
  return "hb " + std::to_string(shard_id) + "\n";
}

std::string render_result_header(std::uint64_t shard_id, std::uint64_t len) {
  return "result " + std::to_string(shard_id) + " " + std::to_string(len) +
         "\n";
}

std::string render_failed(std::uint64_t shard_id, const std::string& reason) {
  return "failed " + std::to_string(shard_id) + " " + escape_line(reason) +
         "\n";
}

std::string render_assign_header(std::uint64_t shard_id, std::uint64_t len) {
  return "assign " + std::to_string(shard_id) + " " + std::to_string(len) +
         "\n";
}

std::string render_steal(std::uint64_t shard_id) {
  return "steal " + std::to_string(shard_id) + "\n";
}

std::string render_quit() { return "quit\n"; }

namespace {

// Splits `line` on single spaces into at most `max_tok` tokens; the last
// token absorbs the remainder (for trailing free-text fields).
std::vector<std::string> split_tokens(const std::string& line,
                                      std::size_t max_tok) {
  std::vector<std::string> tok;
  std::size_t pos = 0;
  while (pos <= line.size() && tok.size() < max_tok) {
    if (tok.size() + 1 == max_tok) {
      tok.push_back(line.substr(pos));
      break;
    }
    std::size_t sp = line.find(' ', pos);
    if (sp == std::string::npos) {
      tok.push_back(line.substr(pos));
      break;
    }
    tok.push_back(line.substr(pos, sp - pos));
    pos = sp + 1;
  }
  return tok;
}

bool check_version_pair(const std::vector<std::string>& tok, std::string* err) {
  // tok[1] + " " + tok[2] must equal kProtocolVersion ("cdsspec-dist v1").
  if (tok.size() < 3 || tok[1] + " " + tok[2] != kProtocolVersion) {
    *err = "protocol version mismatch (want '" + std::string(kProtocolVersion) +
           "') at token 1";
    return false;
  }
  return true;
}

}  // namespace

bool parse_control_line(const std::string& line, ControlLine* out,
                        std::string* err) {
  ControlLine c;
  std::string why;
  auto fail = [&](const std::string& w) {
    if (err) *err = w + ": '" + line.substr(0, 200) + "'";
    return false;
  };
  if (line.empty()) return fail("empty control line at token 0");
  const std::size_t sp0 = line.find(' ');
  const std::string verb = line.substr(0, sp0);

  if (verb == "quit") {
    if (line != "quit") return fail("trailing bytes after 'quit' at token 1");
    c.kind = ControlLine::Kind::kQuit;
  } else if (verb == "hb" || verb == "steal") {
    std::vector<std::string> tok = split_tokens(line, 2);
    if (tok.size() != 2 || !parse_u64_tok(tok[1].c_str(), &c.shard_id)) {
      return fail("malformed shard id at token 1");
    }
    c.kind = verb == "hb" ? ControlLine::Kind::kHeartbeat
                          : ControlLine::Kind::kSteal;
  } else if (verb == "result" || verb == "assign") {
    std::vector<std::string> tok = split_tokens(line, 3);
    if (tok.size() != 3 || !parse_u64_tok(tok[1].c_str(), &c.shard_id)) {
      return fail("malformed shard id at token 1");
    }
    if (!parse_u64_tok(tok[2].c_str(), &c.payload_len)) {
      return fail("malformed payload length at token 2");
    }
    c.kind = verb == "result" ? ControlLine::Kind::kResult
                              : ControlLine::Kind::kAssign;
  } else if (verb == "failed") {
    std::vector<std::string> tok = split_tokens(line, 3);
    if (tok.size() < 2 || !parse_u64_tok(tok[1].c_str(), &c.shard_id)) {
      return fail("malformed shard id at token 1");
    }
    c.reason = tok.size() == 3 ? unescape_line(tok[2]) : "";
    c.kind = ControlLine::Kind::kFailed;
  } else if (verb == "hello") {
    std::vector<std::string> tok = split_tokens(line, 4);
    if (tok.size() != 4) return fail("short hello line at token 3");
    if (!check_version_pair(tok, &why)) return fail(why);
    if (tok[3].rfind("pid=", 0) != 0 ||
        !parse_u64_tok(tok[3].c_str() + 4, &c.pid)) {
      return fail("malformed pid= value at token 3");
    }
    c.kind = ControlLine::Kind::kHello;
  } else if (verb == "welcome") {
    std::vector<std::string> tok = split_tokens(line, 5);
    if (tok.size() != 5) return fail("short welcome line at token 4");
    if (!check_version_pair(tok, &why)) return fail(why);
    if (tok[3].rfind("hb_us=", 0) != 0 ||
        !parse_u64_tok(tok[3].c_str() + 6, &c.heartbeat_us)) {
      return fail("malformed hb_us= value at token 3");
    }
    if (tok[4].rfind("epoch=", 0) != 0 ||
        !parse_u64_tok(tok[4].c_str() + 6, &c.epoch)) {
      return fail("malformed epoch= value at token 4");
    }
    c.kind = ControlLine::Kind::kWelcome;
  } else {
    return fail("unknown verb '" + verb.substr(0, 32) + "' at token 0");
  }
  *out = c;
  return true;
}

// ---------------------------------------------------------------------------
// Assignment payload
// ---------------------------------------------------------------------------

std::string render_assignment(const Assignment& a) {
  std::string s = "shard-assign v3\n";
  s += "id " + std::to_string(a.shard_id) + "\n";
  s += "bench " + escape_line(a.bench) + "\n";
  const mc::Config& e = a.engine;
  s += "engine threads=" + std::to_string(e.max_threads) +
       " stale=" + std::to_string(e.stale_read_bound) +
       " steps=" + std::to_string(e.max_steps) +
       " execs=" + std::to_string(e.max_executions) +
       " viol=" + std::to_string(e.max_recorded_violations) +
       " stop_first=" + std::to_string(e.stop_on_first_violation ? 1 : 0) +
       " trace=" + std::to_string(e.collect_trace ? 1 : 0) +
       " sleep=" + std::to_string(e.enable_sleep_sets ? 1 : 0) +
       " sc=" + std::to_string(e.strengthen_to_sc ? 1 : 0) +
       " explore=" + std::to_string(static_cast<int>(e.explore)) +
       " time_us=" +
       std::to_string(static_cast<std::uint64_t>(e.time_budget_seconds * 1e6)) +
       " mem=" + std::to_string(e.memory_budget_bytes) +
       " watchdog=" + std::to_string(e.watchdog_no_progress_execs) +
       " samples=" + std::to_string(e.sample_executions) +
       " dfs_ppm=" +
       std::to_string(static_cast<std::uint64_t>(e.dfs_budget_fraction * 1e6)) +
       " seed=" + std::to_string(e.seed) +
       " contain=" + std::to_string(e.contain_crashes ? 1 : 0) +
       " sampling_only=" + std::to_string(e.sampling_only ? 1 : 0) +
       " unsound=" + std::to_string(static_cast<int>(e.unsound_hook)) + "\n";
  const spec::SpecChecker::Options& c = a.checker;
  s += "checker histories=" + std::to_string(c.max_histories) +
       " sampled=" + std::to_string(c.sampled_histories) +
       " subhist=" + std::to_string(c.max_subhistories) +
       " reports=" + std::to_string(c.max_reports) +
       " rtrace=" + std::to_string(c.report_trace ? 1 : 0) +
       " seed=" + std::to_string(c.seed) + "\n";
  s += harness::render_shard_unit(a.unit);
  s += "end\n";
  return s;
}

bool parse_assignment(const std::string& text, Assignment* out,
                      std::string* err) {
  // Scratch object committed only on full success, so a rejected payload
  // never leaves *out partially populated.
  Assignment a;
  std::vector<std::string> lines = split_lines(text);
  std::size_t i = 0;
  auto next = [&]() -> const std::string* {
    return i < lines.size() ? &lines[i++] : nullptr;
  };
  auto fail = [&](const std::string& why) {
    if (err) *err = "line " + std::to_string(i == 0 ? 1 : i) + ": " + why;
    return false;
  };
  std::string why;
  const std::string* l = next();
  if (l == nullptr || *l != "shard-assign v3") {
    return fail("not a shard assignment (or a stale wire version)");
  }
  l = next();
  if (l == nullptr || l->rfind("id ", 0) != 0 ||
      !parse_u64_tok(l->c_str() + 3, &a.shard_id)) {
    return fail("missing id line");
  }
  l = next();
  if (l == nullptr || l->rfind("bench ", 0) != 0) {
    return fail("missing bench line");
  }
  a.bench = unescape_line(l->substr(6));
  if (a.bench.empty()) return fail("empty benchmark name");

  l = next();
  if (l == nullptr || l->rfind("engine ", 0) != 0) {
    return fail("missing engine line");
  }
  mc::Config& e = a.engine;
  std::uint64_t threads = 0, stale = 0, viol = 0, stop_first = 0, trace = 0,
                sleep = 0, sc = 0, explore = 0, time_us = 0, mem = 0,
                dfs_ppm = 0,
                contain = 0, sampling_only = 0, unsound = 0;
  if (!parse_kv_tokens(*l, 7,
                       {{"threads", &threads},
                        {"stale", &stale},
                        {"steps", &e.max_steps},
                        {"execs", &e.max_executions},
                        {"viol", &viol},
                        {"stop_first", &stop_first},
                        {"trace", &trace},
                        {"sleep", &sleep},
                        {"sc", &sc},
                        {"explore", &explore},
                        {"time_us", &time_us},
                        {"mem", &mem},
                        {"watchdog", &e.watchdog_no_progress_execs},
                        {"samples", &e.sample_executions},
                        {"dfs_ppm", &dfs_ppm},
                        {"seed", &e.seed},
                        {"contain", &contain},
                        {"sampling_only", &sampling_only},
                        {"unsound", &unsound}},
                       &why)) {
    return fail(why);
  }
  if (threads == 0 || threads > 4096) return fail("bad engine thread cap");
  if (stale > 0xffffffffull || viol > 0xffffffffull) {
    return fail("engine field out of range");
  }
  if (unsound > 2) return fail("bad unsound hook");
  if (explore > 1) return fail("bad explore mode");
  e.max_threads = static_cast<int>(threads);
  e.stale_read_bound = static_cast<std::uint32_t>(stale);
  e.max_recorded_violations = static_cast<std::uint32_t>(viol);
  e.stop_on_first_violation = stop_first != 0;
  e.collect_trace = trace != 0;
  e.enable_sleep_sets = sleep != 0;
  e.strengthen_to_sc = sc != 0;
  e.explore = static_cast<mc::ExploreMode>(explore);
  e.time_budget_seconds = static_cast<double>(time_us) / 1e6;
  e.memory_budget_bytes = static_cast<std::size_t>(mem);
  e.dfs_budget_fraction = static_cast<double>(dfs_ppm) / 1e6;
  e.contain_crashes = contain != 0;
  e.sampling_only = sampling_only != 0;
  e.unsound_hook = static_cast<mc::UnsoundHook>(unsound);

  l = next();
  if (l == nullptr || l->rfind("checker ", 0) != 0) {
    return fail("missing checker line");
  }
  spec::SpecChecker::Options& c = a.checker;
  std::uint64_t reports = 0, rtrace = 0;
  if (!parse_kv_tokens(*l, 8,
                       {{"histories", &c.max_histories},
                        {"sampled", &c.sampled_histories},
                        {"subhist", &c.max_subhistories},
                        {"reports", &reports},
                        {"rtrace", &rtrace},
                        {"seed", &c.seed}},
                       &why)) {
    return fail(why);
  }
  if (reports > 0xffffffffull) return fail("checker field out of range");
  c.max_reports = static_cast<std::uint32_t>(reports);
  c.report_trace = rtrace != 0;

  std::size_t at = i;
  if (!harness::parse_shard_unit(lines, &at, &a.unit, &why)) {
    i = at + 1;  // the unit line
    return fail(why);
  }
  i = at;
  l = next();
  if (l == nullptr || *l != "end") return fail("missing 'end' terminator");
  *out = std::move(a);
  return true;
}

}  // namespace cds::dist
