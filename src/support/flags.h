// One table per command line. Each flag is one entry: its name, the name
// of its value, one line of help, an optional bound, and the record-codec
// Field its value goes into (support/record.h). The value is read by the
// codec's own reader, so a flag takes exactly what that field takes in a
// record: decimal digits for an integer (in its type's range), a
// non-negative finite decimal for a double, an enum by name. parse_flags
// reads argv against the table and flag_usage renders the table's usage
// lines, so the two cannot drift apart.
#ifndef CDS_SUPPORT_FLAGS_H
#define CDS_SUPPORT_FLAGS_H

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "support/record.h"

namespace cds::support {

// An inclusive range for a flag's number, or for an enum flag's value
// (usage then lists only the names inside it).
struct Bound {
  double min = 0.0;
  double max = std::numeric_limits<double>::infinity();
};
// Any number above zero.
inline constexpr Bound kPositive{std::numeric_limits<double>::denorm_min()};

struct Flag {
  // field.key is the flag itself ("--cap"), field.ref where its value
  // goes. A flag bound to a bool is a switch: it takes no value.
  Field field;
  // The value's name in usage ("N"); an enum flag lists its names.
  const char* metavar = "";
  // One line of usage; null leaves the flag out of it (test hooks).
  const char* help = nullptr;
  Bound bound = {};
  // Set when the flag is given.
  bool* seen = nullptr;
  // What a switch stores ("1" when null). A valued flag with one is
  // `--name[=VALUE]`: bare, it stores `implied`.
  const char* implied = nullptr;
  // A list flag appends its values to *list instead (its field only
  // names it), through `expand` when set (one value may become several
  // entries, or an error). A metavar ending in "..." takes every
  // following argument up to the next one that starts with '-', and the
  // list must not be empty then.
  std::vector<std::string>* list = nullptr;
  bool (*expand)(const std::string& value, std::vector<std::string>* list,
                 std::string* err) = nullptr;
};

// Reads the flag at argv[*i] and its value, and moves *i past them. False
// on an unknown flag, a missing value, or a value that its field's type
// or its bound rejects; *err then names the flag.
bool read_flag(int argc, char** argv, int* i, std::span<const Flag> table,
               std::string* err);
// read_flag over argv[i..argc).
bool parse_flags(int argc, char** argv, int i, std::span<const Flag> table,
                 std::string* err);

// One aligned line per flag that has help: "  --jobs N  <help> (1..256)".
std::string flag_usage(std::span<const Flag> table);

}  // namespace cds::support

#endif  // CDS_SUPPORT_FLAGS_H
