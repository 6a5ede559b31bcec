#include "mc/trace.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace cds::mc {

namespace {

// Strict non-negative integer parse: whole token, no sign, no suffix.
bool parse_u64_tok(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s[0] == '-' || s[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

std::string flatten(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

// Splits `text` into lines, dropping comments and blank lines but keeping
// 1-based original line numbers for error messages.
struct Line {
  std::string text;
  std::size_t number;
};

std::vector<Line> significant_lines(const std::string& text) {
  std::vector<Line> lines;
  std::istringstream is(text);
  std::string raw;
  std::size_t n = 0;
  while (std::getline(is, raw)) {
    ++n;
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    std::size_t start = raw.find_first_not_of(" \t");
    if (start == std::string::npos || raw[start] == '#') continue;
    lines.push_back(Line{raw, n});
  }
  return lines;
}

bool fail(std::string* err, const std::string& what) {
  if (err != nullptr) *err = what;
  return false;
}

bool fail_at(std::string* err, std::size_t line, const std::string& what) {
  return fail(err, "line " + std::to_string(line) + ": " + what);
}

// "key value..." accessor: returns the remainder after "key " or nullopt.
bool take_keyword(const std::string& line, const char* key, std::string* rest) {
  std::size_t klen = std::strlen(key);
  if (line.compare(0, klen, key) != 0) return false;
  if (line.size() == klen) {
    rest->clear();
    return true;
  }
  if (line[klen] != ' ') return false;
  *rest = line.substr(klen + 1);
  return true;
}

char choice_letter(ChoiceKind k) {
  switch (k) {
    case ChoiceKind::kSchedule: return 'S';
    case ChoiceKind::kReadsFrom: return 'R';
    case ChoiceKind::kRevisit: return 'V';
  }
  return '?';
}

bool parse_one_choice(const std::string& text, std::size_t lineno, Choice* c,
                      std::string* err) {
  // "S <chosen>/<num>", "R <chosen>/<num>" or "V <chosen>/<num>"
  if (text.size() < 3 || (text[0] != 'S' && text[0] != 'R' && text[0] != 'V') ||
      text[1] != ' ') {
    return fail_at(err, lineno,
                   "malformed choice '" + text +
                       "' (expected 'S <chosen>/<num>', 'R <chosen>/<num>' or "
                       "'V <chosen>/<num>')");
  }
  std::size_t slash = text.find('/', 2);
  if (slash == std::string::npos) {
    return fail_at(err, lineno, "malformed choice '" + text + "' (missing '/')");
  }
  std::uint64_t chosen = 0, num = 0;
  if (!parse_u64_tok(text.substr(2, slash - 2), &chosen) ||
      !parse_u64_tok(text.substr(slash + 1), &num)) {
    return fail_at(err, lineno, "malformed choice '" + text + "' (bad number)");
  }
  if (num < 2 || num >= 0x10000) {
    return fail_at(err, lineno,
                   "choice '" + text +
                       "': alternative count must be in [2, 65535] "
                       "(single-alternative choice points are never recorded)");
  }
  if (chosen >= num) {
    return fail_at(err, lineno,
                   "choice '" + text + "': chosen index " +
                       std::to_string(chosen) + " out of range [0, " +
                       std::to_string(num) + ")");
  }
  c->kind = text[0] == 'S'   ? ChoiceKind::kSchedule
            : text[0] == 'R' ? ChoiceKind::kReadsFrom
                             : ChoiceKind::kRevisit;
  c->chosen = static_cast<std::uint16_t>(chosen);
  c->num = static_cast<std::uint16_t>(num);
  return true;
}

}  // namespace

void TrailFile::fingerprint_from(const Config& cfg) {
  seed = cfg.seed;
  stale_read_bound = cfg.stale_read_bound;
  max_steps = cfg.max_steps;
  strengthen_to_sc = cfg.strengthen_to_sc;
  enable_sleep_sets = cfg.enable_sleep_sets;
  explore = cfg.explore;
  if (!cfg.test_name.empty()) test_name = cfg.test_name;
}

void TrailFile::apply_fingerprint(Config* cfg) const {
  cfg->seed = seed;
  cfg->stale_read_bound = stale_read_bound;
  cfg->max_steps = max_steps;
  cfg->strengthen_to_sc = strengthen_to_sc;
  cfg->enable_sleep_sets = enable_sleep_sets;
  cfg->explore = explore;
  cfg->test_name = test_name;
}

std::string TrailFile::fingerprint_mismatch(const Config& cfg) const {
  auto mismatch = [](const char* flag, std::uint64_t file_v,
                     std::uint64_t run_v) {
    return std::string(flag) + " mismatch: file has " +
           std::to_string(file_v) + ", this run has " + std::to_string(run_v);
  };
  if (!cfg.test_name.empty() && cfg.test_name != test_name) {
    return "test mismatch: file is for '" + test_name + "', this run is '" +
           cfg.test_name + "'";
  }
  if (cfg.seed != seed) return mismatch("--seed", seed, cfg.seed);
  if (cfg.stale_read_bound != stale_read_bound) {
    return mismatch("--stale", stale_read_bound, cfg.stale_read_bound);
  }
  if (cfg.max_steps != max_steps) {
    return mismatch("max_steps", max_steps, cfg.max_steps);
  }
  if (cfg.strengthen_to_sc != strengthen_to_sc) {
    return mismatch("strengthen_sc", strengthen_to_sc ? 1 : 0,
                    cfg.strengthen_to_sc ? 1 : 0);
  }
  if (cfg.enable_sleep_sets != enable_sleep_sets) {
    return mismatch("sleep_sets", enable_sleep_sets ? 1 : 0,
                    cfg.enable_sleep_sets ? 1 : 0);
  }
  if (cfg.explore != explore) {
    return std::string("--explore mismatch: file was recorded under '") +
           to_string(explore) + "', this run is '" + to_string(cfg.explore) +
           "'";
  }
  return "";
}

std::string render_config_fingerprint(const Config& cfg) {
  std::ostringstream os;
  os << "stale=" << cfg.stale_read_bound << ",max_steps=" << cfg.max_steps
     << ",strengthen_sc=" << (cfg.strengthen_to_sc ? 1 : 0)
     << ",sleep_sets=" << (cfg.enable_sleep_sets ? 1 : 0)
     << ",explore=" << to_string(cfg.explore) << ",seed=" << cfg.seed
     << ",cap=" << cfg.max_executions << ",timeout=" << cfg.time_budget_seconds
     << ",mem_cap=" << cfg.memory_budget_bytes
     << ",stop_on_violation=" << (cfg.stop_on_first_violation ? 1 : 0);
  return os.str();
}

std::string render_choices(const std::vector<Choice>& v) {
  std::ostringstream os;
  for (const Choice& c : v) {
    os << choice_letter(c.kind) << ' ' << c.chosen
       << '/' << c.num << '\n';
  }
  return os.str();
}

bool parse_choices(const std::vector<std::string>& lines, std::size_t* idx,
                   std::size_t n, std::vector<Choice>* out, std::string* err) {
  out->clear();
  out->reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (*idx >= lines.size()) {
      return fail(err, "truncated: expected " + std::to_string(n) +
                           " choices but found only " + std::to_string(i));
    }
    Choice c{};
    if (!parse_one_choice(lines[*idx], *idx + 1, &c, err)) return false;
    out->push_back(c);
    ++*idx;
  }
  return true;
}

std::string render_trail(const TrailFile& t) {
  std::ostringstream os;
  os << "cdsspec-trail v" << TrailFile::kVersion << '\n';
  os << "test " << t.test_name << '\n';
  os << "seed " << t.seed << '\n';
  if (!t.backend.empty() && t.backend != "model") {
    os << "backend " << t.backend << '\n';
  }
  if (!t.kind.empty()) os << "kind " << t.kind << '\n';
  if (!t.detail.empty()) os << "detail " << flatten(t.detail) << '\n';
  if (!t.inject_site.empty()) os << "inject " << t.inject_site << '\n';
  if (t.explore != ExploreMode::kSchedule) {
    os << "explore " << to_string(t.explore) << '\n';
  }
  os << "config stale=" << t.stale_read_bound << " max_steps=" << t.max_steps
     << " strengthen_sc=" << (t.strengthen_to_sc ? 1 : 0)
     << " sleep_sets=" << (t.enable_sleep_sets ? 1 : 0) << '\n';
  os << "choices " << t.choices.size() << '\n';
  os << render_choices(t.choices);
  os << "end\n";
  return os.str();
}

bool parse_trail(const std::string& text, TrailFile* out, std::string* err) {
  *out = TrailFile{};
  std::vector<Line> lines = significant_lines(text);
  std::size_t i = 0;
  auto line = [&]() -> const Line& { return lines[i]; };
  auto need = [&](const char* what) {
    return fail(err, std::string("truncated .trail file: missing ") + what);
  };

  if (lines.empty()) return fail(err, "empty .trail file");
  std::string rest;
  if (!take_keyword(line().text, "cdsspec-trail", &rest)) {
    return fail_at(err, line().number,
                   "not a .trail file (expected 'cdsspec-trail v" +
                       std::to_string(TrailFile::kVersion) + "' header)");
  }
  std::uint64_t ver = 0;
  if (rest.size() < 2 || rest[0] != 'v' ||
      !parse_u64_tok(rest.substr(1), &ver)) {
    return fail_at(err, line().number, "malformed version '" + rest + "'");
  }
  if (ver != TrailFile::kVersion) {
    return fail_at(err, line().number,
                   "unsupported .trail version v" + std::to_string(ver) +
                       " (this build reads v" +
                       std::to_string(TrailFile::kVersion) +
                       "; re-record the trail with a matching build)");
  }
  ++i;

  if (i >= lines.size() || !take_keyword(line().text, "test", &out->test_name)) {
    return need("'test <name>'");
  }
  if (out->test_name.empty()) {
    return fail_at(err, line().number, "'test' requires a name");
  }
  ++i;

  if (i >= lines.size() || !take_keyword(line().text, "seed", &rest) ||
      !parse_u64_tok(rest, &out->seed)) {
    return need("'seed <n>'");
  }
  ++i;

  if (i < lines.size() && take_keyword(line().text, "backend", &rest)) {
    // Strict token set: a trail recorded by a future backend this build
    // does not know must fail loudly, never replay under the wrong engine.
    if (rest != "model" && rest != "stress") {
      return fail_at(err, line().number,
                     "unknown backend '" + rest +
                         "' (this build replays 'model' and 'stress' trails)");
    }
    // Normalize the default so parse(render(t)) round-trips exactly.
    out->backend = rest == "model" ? "" : rest;
    ++i;
  }

  if (i < lines.size() && take_keyword(line().text, "kind", &out->kind)) ++i;
  if (i < lines.size() && take_keyword(line().text, "detail", &out->detail)) ++i;
  if (i < lines.size() &&
      take_keyword(line().text, "inject", &out->inject_site)) {
    ++i;
  }
  if (i < lines.size() && take_keyword(line().text, "explore", &rest)) {
    // Strict token set, and "schedule" normalizes to the absent default so
    // parse(render(t)) round-trips exactly.
    if (rest != "schedule" && rest != "rf") {
      return fail_at(err, line().number,
                     "unknown explore mode '" + rest +
                         "' (this build replays 'schedule' and 'rf' trails)");
    }
    out->explore = rest == "rf" ? ExploreMode::kRf : ExploreMode::kSchedule;
    ++i;
  }

  if (i >= lines.size() || !take_keyword(line().text, "config", &rest)) {
    return need("'config stale=... max_steps=... strengthen_sc=... "
                "sleep_sets=...'");
  }
  {
    std::size_t cfg_line = line().number;
    std::istringstream cs(rest);
    std::string kv;
    int seen = 0;
    while (cs >> kv) {
      std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        return fail_at(err, cfg_line, "malformed config entry '" + kv + "'");
      }
      std::string key = kv.substr(0, eq);
      std::uint64_t val = 0;
      if (!parse_u64_tok(kv.substr(eq + 1), &val)) {
        return fail_at(err, cfg_line, "malformed config value in '" + kv + "'");
      }
      if (key == "stale") {
        out->stale_read_bound = static_cast<std::uint32_t>(val);
      } else if (key == "max_steps") {
        out->max_steps = val;
      } else if (key == "strengthen_sc") {
        out->strengthen_to_sc = val != 0;
      } else if (key == "sleep_sets") {
        out->enable_sleep_sets = val != 0;
      } else {
        return fail_at(err, cfg_line, "unknown config key '" + key + "'");
      }
      ++seen;
    }
    if (seen < 4) {
      return fail_at(err, cfg_line,
                     "config line must carry stale, max_steps, strengthen_sc "
                     "and sleep_sets");
    }
  }
  ++i;

  std::uint64_t n = 0;
  if (i >= lines.size() || !take_keyword(line().text, "choices", &rest) ||
      !parse_u64_tok(rest, &n)) {
    return need("'choices <count>'");
  }
  ++i;

  std::vector<std::string> raw;
  raw.reserve(lines.size());
  for (const Line& l : lines) raw.push_back(l.text);
  // parse_choices reports 1-based indices into `raw`; remap to the source
  // line numbers so the message points at the right spot in the file.
  std::size_t idx = i;
  if (!parse_choices(raw, &idx, static_cast<std::size_t>(n), &out->choices,
                     err)) {
    if (err != nullptr && err->rfind("line ", 0) == 0) {
      std::size_t raw_no = 0;
      if (parse_u64_tok(err->substr(5, err->find(':') - 5), &raw_no) &&
          raw_no >= 1 && raw_no <= lines.size()) {
        *err = "line " + std::to_string(lines[raw_no - 1].number) +
               err->substr(err->find(':'));
      }
    }
    return false;
  }
  i = idx;

  if (i >= lines.size() || lines[i].text != "end") {
    return fail(err,
                "truncated .trail file: missing 'end' terminator (file was "
                "cut off mid-write?)");
  }
  if (i + 1 != lines.size()) {
    return fail_at(err, lines[i + 1].number, "trailing garbage after 'end'");
  }
  return true;
}

bool write_text_file_atomic(const std::string& path, const std::string& text,
                            std::string* err) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f) return fail(err, "cannot open '" + tmp + "' for writing");
    f << text;
    f.flush();
    if (!f) return fail(err, "short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::string why = std::strerror(errno);
    std::remove(tmp.c_str());
    return fail(err, "cannot rename '" + tmp + "' to '" + path + "': " + why);
  }
  return true;
}

bool read_text_file(const std::string& path, std::string* out,
                    std::string* err) {
  std::ifstream f(path);
  if (!f) return fail(err, "cannot open '" + path + "'");
  std::ostringstream buf;
  buf << f.rdbuf();
  *out = buf.str();
  return true;
}

bool write_trail_file(const std::string& path, const TrailFile& t,
                      std::string* err) {
  return write_text_file_atomic(path, render_trail(t), err);
}

bool load_trail_file(const std::string& path, TrailFile* out,
                     std::string* err) {
  std::string text;
  if (!read_text_file(path, &text, err)) return false;
  if (!parse_trail(text, out, err)) {
    if (err != nullptr) *err = path + ": " + *err;
    return false;
  }
  return true;
}

}  // namespace cds::mc
