#include "support/record.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <type_traits>
#include <vector>

namespace cds::support {

namespace {

template <class... F>
struct Overloaded : F... {
  using F::operator()...;
};
template <class... F>
Overloaded(F...) -> Overloaded<F...>;

// The escaped characters, and the letter that follows '\' for each.
constexpr std::string_view kEscaped = "\\ \t\r\n";
constexpr std::string_view kLetters = "\\strn";

}  // namespace

bool read_value(std::string_view text, const Field& f, bool store) {
  return std::visit(
      Overloaded{
          [&](bool* m) {
            if (text != "0" && text != "1") return false;
            if (store) *m = text == "1";
            return true;
          },
          [&](double* m) {
            double d = 0.0;
            if (!parse_double(text, &d)) return false;
            if (store) *m = d;
            return true;
          },
          [&](std::string* m) {
            std::string s;
            if (!unescape(text, &s)) return false;
            if (store) *m = std::move(s);
            return true;
          },
          [&](const EnumRef& e) {
            for (std::uint64_t v = 0; v < e.count; ++v) {
              if (text != e.name(v)) continue;
              if (store) e.set(e.member, v);
              return true;
            }
            return false;
          },
          [&](auto* m) {  // the integers, each within its type's range
            using T = std::remove_pointer_t<decltype(m)>;
            constexpr auto kMax = std::numeric_limits<T>::max();
            std::uint64_t u = 0;
            if (!parse_u64(text, &u) || u > std::uint64_t{kMax}) return false;
            if (store) *m = static_cast<T>(u);
            return true;
          },
      },
      f.ref);
}

std::string escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    const std::size_t k = kEscaped.find(c);
    if (k != std::string_view::npos) {
      out += '\\';
      c = kLetters[k];
    }
    out += c;
  }
  return out;
}

bool unescape(std::string_view s, std::string* out) {
  out->clear();
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '\\') {
      const std::size_t k =
          ++i < s.size() ? kLetters.find(s[i]) : std::string_view::npos;
      if (k == std::string_view::npos) return false;
      c = kEscaped[k];
    }
    *out += c;
  }
  return true;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += {'\\', c};
    } else if (c == '\n' || c == '\t') {
      out += c == '\n' ? "\\n" : "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

bool parse_u64(std::string_view s, std::uint64_t* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return false;
  *out = v;
  return true;
}

bool parse_double(std::string_view s, double* out) {
  if (s.empty() || !((s[0] >= '0' && s[0] <= '9') || s[0] == '.')) {
    return false;
  }
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

namespace {

// Appends field f's value: as a text token, or as a JSON value.
void append_value(const Field& f, bool json, std::string* out) {
  const auto quoted = [&](std::string_view s) {
    *out += json ? '"' + json_escape(s) + '"' : std::string(s);
  };
  std::visit(Overloaded{
                 [&](bool* m) {
                   *out += json ? (*m ? "true" : "false") : (*m ? "1" : "0");
                 },
                 [&](std::string* m) { quoted(json ? *m : escape(*m)); },
                 [&](const EnumRef& e) { quoted(e.name(e.get(e.member))); },
                 [&](auto* m) {
                   char buf[32];
                   const auto end = std::to_chars(buf, buf + sizeof buf, *m);
                   out->append(buf, end.ptr);
                 },
             },
             f.ref);
}

}  // namespace

std::string render_fields(std::span<const Field> fields) {
  std::string out;
  for (const Field& f : fields) {
    if (!out.empty()) out += ' ';
    out += f.key;
    out += '=';
    append_value(f, /*json=*/false, &out);
  }
  return out;
}

std::string render_json(std::span<const Field> fields,
                        std::span<const JsonMember> more) {
  std::string out = "{";
  for (const Field& f : fields) {
    if (out.size() > 1) out += ", ";
    out += '"' + std::string(f.key) + "\": ";
    append_value(f, /*json=*/true, &out);
  }
  for (const JsonMember& m : more) {
    out += out.size() > 1 ? ",\n  \"" : "\n  \"";
    out += std::string(m.key) + "\": " + m.json;
  }
  return out + "}";
}

std::string render_json_array(std::span<const std::string> values) {
  std::string out = "[";
  for (const std::string& v : values) {
    out += out.size() > 1 ? ",\n    " : "\n    ";
    out += v;
  }
  return out + "]";
}

bool parse_fields(std::string_view text, std::span<const Field> fields,
                  std::string* err) {
  auto fail = [&](const std::string& why) {
    if (err != nullptr) *err = why;
    return false;
  };
  // Every token is checked before any is stored, so a rejected record
  // writes no field. A value seen, even an empty one, points into `text`.
  std::vector<std::string_view> values(fields.size());
  // The previous token's key and field, then this one's.
  std::string_view key;
  std::size_t i = fields.size();
  for (std::size_t pos = 0; !text.empty() && pos <= text.size();) {
    const std::size_t sp = std::min(text.find(' ', pos), text.size());
    const std::string_view tok = text.substr(pos, sp - pos);
    const std::size_t eq = tok.find('=');
    if (eq == std::string_view::npos) {
      const std::string where =
          key.empty() ? "at the start" : "after key '" + std::string(key) + "'";
      return fail(tok.empty() ? "stray space " + where
                              : "stray text '" + std::string(tok) + "' " +
                                    where + " (expected key=value)");
    }
    key = tok.substr(0, eq);
    // Rendered records list their keys in table order: try the next field
    // before searching the table.
    if (++i >= fields.size() || key != fields[i].key) {
      i = 0;
      while (i < fields.size() && key != fields[i].key) ++i;
    }
    if (i == fields.size()) {
      return fail("unknown key '" + std::string(key) + "'");
    }
    if (values[i].data() != nullptr) {
      return fail("repeated key '" + std::string(key) + "'");
    }
    values[i] = tok.substr(eq + 1);
    if (!read_value(values[i], fields[i], /*store=*/false)) {
      return fail("bad value '" + std::string(values[i]) + "' for key '" +
                  std::string(key) + "'");
    }
    pos = sp + 1;
  }
  for (std::size_t k = 0; k < fields.size(); ++k) {
    if (values[k].data() == nullptr) {
      return fail("missing key '" + std::string(fields[k].key) + "'");
    }
  }
  for (std::size_t k = 0; k < fields.size(); ++k) {
    (void)read_value(values[k], fields[k], /*store=*/true);
  }
  return true;
}

void merge_fields(std::span<const Field> into, std::span<const Field> from) {
  for (std::size_t i = 0; i < into.size(); ++i) {
    const Merge rule = into[i].merge;
    if (rule == Merge::kNone) continue;
    std::visit(Overloaded{
                   [&](bool* m) {
                     const bool v = *std::get<bool*>(from[i].ref);
                     *m = rule == Merge::kAnd ? *m && v : *m || v;
                   },
                   [](std::string*) {},
                   [](const EnumRef&) {},
                   [&](auto* m) {
                     const auto v = *std::get<decltype(m)>(from[i].ref);
                     *m = rule == Merge::kMax ? std::max(*m, v) : *m + v;
                   },
               },
               into[i].ref);
  }
}

std::pair<std::string, std::string> difference(std::string_view a,
                                               std::string_view b) {
  while (!a.empty() || !b.empty()) {
    const std::string_view x = a.substr(0, a.find(' '));
    const std::string_view y = b.substr(0, b.find(' '));
    if (x != y) return {std::string(x), std::string(y)};
    a.remove_prefix(std::min(a.size(), x.size() + 1));
    b.remove_prefix(std::min(b.size(), y.size() + 1));
  }
  return {};
}

}  // namespace cds::support
