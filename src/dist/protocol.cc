#include "dist/protocol.h"

#include <array>
#include <string_view>
#include <utility>
#include <vector>

#include "support/record.h"

namespace cds::dist {

using harness::split_lines;
using support::parse_u64;

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
  return "failed " + std::to_string(shard_id) + " " +
         support::escape(reason) + "\n";
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
    if (tok.size() != 2 || !parse_u64(tok[1], &c.shard_id)) {
      return fail("malformed shard id at token 1");
    }
    c.kind = verb == "hb" ? ControlLine::Kind::kHeartbeat
                          : ControlLine::Kind::kSteal;
  } else if (verb == "result" || verb == "assign") {
    std::vector<std::string> tok = split_tokens(line, 3);
    if (tok.size() != 3 || !parse_u64(tok[1], &c.shard_id)) {
      return fail("malformed shard id at token 1");
    }
    if (!parse_u64(tok[2], &c.payload_len)) {
      return fail("malformed payload length at token 2");
    }
    c.kind = verb == "result" ? ControlLine::Kind::kResult
                              : ControlLine::Kind::kAssign;
  } else if (verb == "failed") {
    std::vector<std::string> tok = split_tokens(line, 3);
    if (tok.size() < 2 || !parse_u64(tok[1], &c.shard_id)) {
      return fail("malformed shard id at token 1");
    }
    if (tok.size() == 3 && !support::unescape(tok[2], &c.reason)) {
      return fail("malformed reason at token 2");
    }
    c.kind = ControlLine::Kind::kFailed;
  } else if (verb == "hello" || verb == "welcome") {
    // "<verb> cdsspec-dist v1 " and then a record: pid for a hello,
    // hb_us and epoch for a welcome.
    const std::string head = verb + " " + kProtocolVersion + " ";
    if (line.rfind(head, 0) != 0) {
      return fail("protocol version mismatch (want '" +
                  std::string(kProtocolVersion) + "') at token 1");
    }
    std::vector<support::Field> fields = {{"pid", &c.pid}};
    if (verb == "welcome") {
      fields = {{"hb_us", &c.heartbeat_us}, {"epoch", &c.epoch}};
    }
    if (!support::parse_fields(std::string_view(line).substr(head.size()),
                               fields, &why)) {
      return fail(why + " at token 3");
    }
    c.kind = verb == "hello" ? ControlLine::Kind::kHello
                             : ControlLine::Kind::kWelcome;
  } else {
    return fail("unknown verb '" + verb.substr(0, 32) + "' at token 0");
  }
  *out = c;
  return true;
}

// ---------------------------------------------------------------------------
// Assignment payload
// ---------------------------------------------------------------------------

namespace {

// The assignment's own fields; the engine, checker and unit lines carry
// their records.
std::array<support::Field, 2> head_fields(Assignment& a) {
  return {{{"id", &a.shard_id}, {"bench", &a.bench}}};
}

}  // namespace

std::string render_assignment(const Assignment& a) {
  // The tables bind mutable members; rendering only reads them.
  return "shard-assign v4\nassign " +
         support::render_fields(head_fields(const_cast<Assignment&>(a))) +
         "\nengine " + support::render_record(a.engine, a.inject_site) +
         "\nchecker " + support::render_record(a.checker) + "\n" +
         harness::render_shard_unit(a.unit) + "end\n";
}

bool parse_assignment(const std::string& text, Assignment* out,
                      std::string* err) {
  // Scratch object committed only on full success, so a rejected payload
  // never leaves *out partially populated.
  Assignment a;
  std::vector<std::string> lines = split_lines(text);
  std::size_t i = 0;
  auto fail = [&](const std::string& why) {
    if (err) *err = "line " + std::to_string(i == 0 ? 1 : i) + ": " + why;
    return false;
  };
  // Line i+1 as "<tag> <record>", parsed into `fields`.
  std::string why;
  auto record = [&](const std::string& tag, auto fields) {
    if (i >= lines.size() || lines[i].rfind(tag + " ", 0) != 0) {
      ++i;
      return fail("missing " + tag + " line");
    }
    const std::string_view rest =
        std::string_view(lines[i++]).substr(tag.size() + 1);
    return support::parse_fields(rest, fields, &why) || fail(tag + ": " + why);
  };
  if (lines.empty() || lines[i++] != "shard-assign v4") {
    return fail("not a shard assignment (or a stale wire version)");
  }
  if (!record("assign", head_fields(a)) ||
      !record("engine", mc::fields(a.engine, a.inject_site)) ||
      !record("checker", spec::fields(a.checker))) {
    return false;
  }
  if (a.bench.empty()) return fail("empty benchmark name");
  if (a.engine.max_threads == 0 || a.engine.max_threads > 4096) {
    return fail("bad engine thread cap");
  }
  std::size_t at = i;
  if (!harness::parse_shard_unit(lines, &at, &a.unit, &why)) {
    i = at + 1;  // the unit line
    return fail(why);
  }
  i = at + 1;
  if (at >= lines.size() || lines[at] != "end") {
    return fail("missing 'end' terminator");
  }
  *out = std::move(a);
  return true;
}

}  // namespace cds::dist
