// One strict codec for flat records: a run's configuration and its
// counters, as .trail files, the shard journal and the shard wire carry
// them. A record's fields are listed once, in a table next to its struct:
// `fields(T&)` (found by argument-dependent lookup) returns one Field per
// member, naming its key and how merge_record folds it.
//
// Text: one line of space-separated key=value tokens in table order.
// Integers are decimal digits, bools 0/1, enums their names, doubles the
// shortest decimal that reads back exactly, and strings escape backslash,
// space, tab, CR and newline (\\ \s \t \r \n) so no token holds a raw
// space. Parsing is strict: an unknown, missing or repeated key, or a
// value that does not read back as its field's type (a sign, a space,
// junk, an out-of-range number or enum name) rejects the whole record
// with an error naming the key, and writes no field. render_json renders
// the same table as JSON, with the same keys in the same order.
#ifndef CDS_SUPPORT_RECORD_H
#define CDS_SUPPORT_RECORD_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

namespace cds::support {

// How merge_record folds a shard's value of a field into the total:
// numbers by kSum or kMax, bools by kOr or kAnd; strings and enums are
// never merged.
enum class Merge : std::uint8_t { kNone, kSum, kOr, kAnd, kMax };

// An enum member, rendered by name. Its values are 0..count-1 and
// name(v) names value v: `to_string`, or the function given as Name.
struct EnumRef {
  void* member;
  std::uint64_t count;
  const char* (*name)(std::uint64_t);
  std::uint64_t (*get)(const void*);
  void (*set)(void*, std::uint64_t);
};

template <std::uint64_t Count, auto Name = nullptr, typename E>
EnumRef enum_ref(E* member) {
  return {member, Count,
          [](std::uint64_t v) -> const char* {
            if constexpr (std::is_null_pointer_v<decltype(Name)>) {
              return to_string(static_cast<E>(v));
            } else {
              return Name(static_cast<E>(v));
            }
          },
          [](const void* m) {
            return static_cast<std::uint64_t>(*static_cast<const E*>(m));
          },
          [](void* m, std::uint64_t v) {
            *static_cast<E*>(m) = static_cast<E>(v);
          }};
}

struct Field {
  const char* key;
  std::variant<std::uint64_t*, std::uint32_t*, int*, bool*, double*,
               std::string*, EnumRef>
      ref = {};
  Merge merge = Merge::kNone;
};

std::string render_fields(std::span<const Field> fields);

// A JSON member whose value is JSON text already: a nested object or an
// array.
struct JsonMember {
  const char* key;
  std::string json;
};

// The JSON object of `fields` on one line: integers as numbers, bools as
// true/false, enums and strings as escaped strings, doubles in the text
// form's shortest exact decimal. Each of `more` follows on its own line.
std::string render_json(std::span<const Field> fields,
                        std::span<const JsonMember> more = {});
// A JSON array of values rendered already, one per line.
std::string render_json_array(std::span<const std::string> values);
// Reads `text` as field f's type (the rules above), and stores it only
// when `store` is set. False when the text does not read back.
bool read_value(std::string_view text, const Field& f, bool store);
bool parse_fields(std::string_view text, std::span<const Field> fields,
                  std::string* err);
// Folds `from` into `into` field by field, by each field's Merge rule;
// both spans come from the same table.
void merge_fields(std::span<const Field> into, std::span<const Field> from);

// Record-level entry points over the record's `fields` table. A record
// may be bound together with values kept outside its struct, such as
// mc::Config with the active injection site.
template <typename... R>
std::string render_record(const R&... r) {
  // The table binds mutable members; rendering only reads them.
  return render_fields(fields(const_cast<R&>(r)...));
}

template <typename... R>
bool parse_record(std::string_view text, std::string* err, R&... r) {
  return parse_fields(text, fields(r...), err);
}

template <typename R>
void merge_record(R& into, const R& from) {
  merge_fields(fields(into), fields(const_cast<R&>(from)));
}

// The first key on which two rendered records of one table differ, as
// the two "key=value" tokens; both empty when the records are equal.
std::pair<std::string, std::string> difference(std::string_view a,
                                               std::string_view b);

// The codec's string escaping, for text carried outside a record; unescape
// rejects a '\' that starts no escape.
std::string escape(std::string_view s);
bool unescape(std::string_view s, std::string* out);

// The body of a JSON string holding `s`: quote, backslash and every
// control character escaped.
std::string json_escape(std::string_view s);

// The strict number parsers behind the codec, shared by every wire and
// command line: the whole text must be the number. parse_u64 takes
// decimal digits only; parse_double takes a non-negative finite decimal
// (digits or '.' first, optional exponent).
bool parse_u64(std::string_view s, std::uint64_t* out);
bool parse_double(std::string_view s, double* out);

}  // namespace cds::support

#endif  // CDS_SUPPORT_RECORD_H
