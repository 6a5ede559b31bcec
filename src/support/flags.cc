#include "support/flags.h"

#include <charconv>
#include <string_view>
#include <variant>

namespace cds::support {

namespace {

bool is_switch(const Flag& f) {
  return std::holds_alternative<bool*>(f.field.ref);
}

bool is_enum(const Flag& f) {
  return std::holds_alternative<EnumRef>(f.field.ref);
}

// What a value may be: an enum's names inside the bound ("schedule|rf"),
// or a number's bound ("1..256", "> 0"); empty when anything goes.
std::string note(const Flag& f) {
  const Bound& b = f.bound;
  std::string out;
  if (const auto* e = std::get_if<EnumRef>(&f.field.ref)) {
    for (std::uint64_t v = 0; v < e->count; ++v) {
      if (v < b.min || v > b.max) continue;
      out += (out.empty() ? "" : "|") + std::string(e->name(v));
    }
    return out;
  }
  auto decimal = [](double v) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  };
  if (b.min == kPositive.min) return "> 0";
  if (b.max == Bound{}.max) return b.min > 0 ? ">= " + decimal(b.min) : "";
  return b.min == 0 ? "<= " + decimal(b.max)
                    : decimal(b.min) + ".." + decimal(b.max);
}

std::string synopsis(const Flag& f) {
  const std::string name = f.field.key;
  if (is_switch(f)) return name;
  if (f.implied != nullptr) return name + "[=" + f.metavar + "]";
  return name + " " + (is_enum(f) ? note(f) : f.metavar);
}

}  // namespace

bool read_flag(int argc, char** argv, int* i, std::span<const Flag> table,
               std::string* err) {
  const std::string arg = argv[(*i)++];
  const Flag* f = nullptr;
  bool attached = false;
  for (const Flag& e : table) {
    const std::string_view key = e.field.key;
    // Only a valued flag with an implied value reads `--name=VALUE`.
    attached = e.implied != nullptr && !is_switch(e) &&
               arg.size() > key.size() && arg.starts_with(key) &&
               arg[key.size()] == '=';
    if (arg == key || attached) {
      f = &e;
      break;
    }
  }
  auto fail = [&](const std::string& why) {
    *err = why;
    return false;
  };
  if (f == nullptr) return fail("unknown flag '" + arg + "'");
  const std::string name = f->field.key;
  if (f->seen != nullptr) *f->seen = true;

  auto add = [&](const std::string& v) {
    std::string why;
    if (f->expand == nullptr) {
      f->list->push_back(v);
    } else if (!f->expand(v, f->list, &why)) {
      return fail(name + ": " + why);
    }
    return true;
  };
  if (f->list != nullptr && std::string_view(f->metavar).ends_with("...")) {
    while (*i < argc && argv[*i][0] != '-') {
      if (!add(argv[(*i)++])) return false;
    }
    return !f->list->empty() || fail(name + " requires a value");
  }

  std::string text;
  if (attached) {
    text = arg.substr(name.size() + 1);
  } else if (is_switch(*f) || f->implied != nullptr) {
    text = f->implied != nullptr ? f->implied : "1";
  } else if (*i < argc) {
    text = argv[(*i)++];
  } else {
    return fail(name + " requires a value");
  }
  if (f->list != nullptr) return add(text);
  // A path or an address is taken verbatim: argv needs no escaping.
  if (auto* s = std::get_if<std::string*>(&f->field.ref)) {
    **s = text;
    return true;
  }
  // The bound applies to the number, or to an enum's value.
  bool ok = read_value(text, f->field, /*store=*/true);
  double v = 0.0;
  if (const auto* e = std::get_if<EnumRef>(&f->field.ref)) {
    v = static_cast<double>(e->get(e->member));
  } else {
    ok = ok && parse_double(text, &v);
  }
  if (!ok || v < f->bound.min || v > f->bound.max) {
    const std::string n = note(*f);
    return fail("invalid value for " + name + ": '" + text + "'" +
                (n.empty() ? "" : " (" + n + ")"));
  }
  return true;
}

bool parse_flags(int argc, char** argv, int i, std::span<const Flag> table,
                 std::string* err) {
  while (i < argc) {
    if (!read_flag(argc, argv, &i, table, err)) return false;
  }
  return true;
}

std::string flag_usage(std::span<const Flag> table) {
  // Help starts in one column; a longer synopsis gets a line of its own.
  constexpr std::size_t kWidth = 22;
  std::string out;
  for (const Flag& f : table) {
    if (f.help == nullptr) continue;
    const std::string s = synopsis(f);
    out += "  " + s +
           (s.size() <= kWidth ? std::string(kWidth + 2 - s.size(), ' ')
                               : "\n" + std::string(kWidth + 4, ' ')) +
           f.help;
    std::string n = is_enum(f) ? "" : note(f);
    if (f.implied != nullptr && !is_switch(f)) {
      n += (n.empty() ? "" : ", ") + std::string(f.implied) + " when bare";
    }
    out += (n.empty() ? "" : " (" + n + ")") + "\n";
  }
  return out;
}

}  // namespace cds::support
