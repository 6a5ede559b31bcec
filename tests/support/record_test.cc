// The record codec (support/record.h) over every record that uses it:
// randomized parse(render(x)) == x, field by field, with maximum values,
// non-integral doubles and strings full of separators; every rejection
// case names its key and writes nothing; difference() names the first key
// that differs; merge_record follows each table's rules; render_json
// renders each value type and every table's keys in its text order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "dist/coordinator.h"
#include "harness/parallel.h"
#include "harness/runner.h"
#include "harness/shard_result.h"
#include "harness/stress_backend.h"
#include "mc/config.h"
#include "mc/stats.h"
#include "spec/checker.h"
#include "support/record.h"
#include "support/rng.h"

namespace cds {
namespace {

using support::Field;

template <class... F>
struct Overloaded : F... {
  using F::operator()...;
};
template <class... F>
Overloaded(F...) -> Overloaded<F...>;

// Draws a value for every field, often the type's extreme.
template <std::size_t N>
void randomize(const std::array<Field, N>& fields, support::Xorshift64& rng) {
  const std::string alphabet = "ab =:\\\n\t\r->#x";
  for (const Field& f : fields) {
    const bool extreme = rng.below(4) == 0;
    std::visit(
        Overloaded{
            [&](std::uint64_t* m) {
              *m = extreme ? std::numeric_limits<std::uint64_t>::max()
                           : rng.next();
            },
            [&](std::uint32_t* m) {
              *m = extreme ? std::numeric_limits<std::uint32_t>::max()
                           : static_cast<std::uint32_t>(rng.next());
            },
            [&](int* m) {
              *m = extreme ? std::numeric_limits<int>::max()
                           : static_cast<int>(rng.below(1u << 30));
            },
            [&](bool* m) { *m = rng.below(2) != 0; },
            [&](double* m) {
              *m = extreme ? std::numeric_limits<double>::max()
                           : static_cast<double>(rng.next()) / 7.0 /
                                 static_cast<double>(1 + rng.below(1000000));
            },
            [&](std::string* m) {
              m->clear();
              const std::uint64_t n = rng.below(12);
              for (std::uint64_t i = 0; i < n; ++i) {
                *m += alphabet[rng.below(alphabet.size())];
              }
            },
            [&](const support::EnumRef& e) {
              e.set(e.member, rng.below(e.count));
            },
        },
        f.ref);
  }
}

// Field-by-field equality of two bindings of one table; doubles compare
// exactly.
template <std::size_t N>
void expect_same(const std::array<Field, N>& a, const std::array<Field, N>& b) {
  for (std::size_t i = 0; i < N; ++i) {
    std::visit(
        Overloaded{
            [&](const support::EnumRef& e) {
              const auto& o = std::get<support::EnumRef>(b[i].ref);
              EXPECT_EQ(e.get(e.member), o.get(o.member)) << a[i].key;
            },
            [&](auto* m) {
              using T = std::remove_pointer_t<decltype(m)>;
              EXPECT_EQ(*m, *std::get<T*>(b[i].ref)) << a[i].key;
            },
        },
        a[i].ref);
  }
}

template <typename Make>
void round_trip_property(Make make) {
  support::Xorshift64 rng(0xC0DEC0DEull);
  for (int iter = 0; iter < 300; ++iter) {
    auto x = make();
    auto y = make();
    randomize(x.fields(), rng);
    const std::string text = support::render_fields(x.fields());
    EXPECT_EQ(text.find("  "), std::string::npos) << text;
    std::string err;
    ASSERT_TRUE(support::parse_fields(text, y.fields(), &err))
        << err << "\n" << text;
    expect_same(x.fields(), y.fields());
    EXPECT_EQ(support::render_fields(y.fields()), text);
  }
}

// Each record under test, holding its storage and binding its table.
struct ConfigRec {
  mc::Config c;
  std::string inject;
  auto fields() { return mc::fields(c, inject); }
};
struct StatsRec {
  mc::ExplorationStats s;
  auto fields() { return mc::fields(s); }
};
struct OptionsRec {
  spec::SpecChecker::Options o;
  auto fields() { return spec::fields(o); }
};
struct SpecStatsRec {
  spec::SpecChecker::Stats s;
  auto fields() { return spec::fields(s); }
};
struct UnitRec {
  harness::ShardUnit u;
  auto fields() { return harness::fields(u); }
};

TEST(Record, ConfigRoundTripsEveryField) {
  round_trip_property([] { return ConfigRec{}; });
}
TEST(Record, ExplorationStatsRoundTripEveryField) {
  round_trip_property([] { return StatsRec{}; });
}
TEST(Record, CheckerOptionsRoundTripEveryField) {
  round_trip_property([] { return OptionsRec{}; });
}
TEST(Record, CheckerStatsRoundTripEveryField) {
  round_trip_property([] { return SpecStatsRec{}; });
}
TEST(Record, ShardUnitRoundTripsEveryField) {
  round_trip_property([] { return UnitRec{}; });
}

TEST(Record, EachKeyIsListedOnce) {
  auto unique = [](const auto& fields) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      for (std::size_t j = i + 1; j < fields.size(); ++j) {
        EXPECT_STRNE(fields[i].key, fields[j].key);
      }
    }
  };
  ConfigRec c;
  StatsRec s;
  OptionsRec o;
  SpecStatsRec p;
  UnitRec u;
  unique(c.fields());
  unique(s.fields());
  unique(o.fields());
  unique(p.fields());
  unique(u.fields());
  EXPECT_EQ(c.fields().size(), 20u);
  EXPECT_EQ(s.fields().size(), 22u);
  EXPECT_EQ(o.fields().size(), 6u);
  EXPECT_EQ(p.fields().size(), 7u);
}

// Values that must not parse as a field of the given kind.
std::vector<std::string> bad_values(const Field& f) {
  return std::visit(
      Overloaded{
          [](std::uint64_t*) -> std::vector<std::string> {
            return {"", "-5", "+5", " 5", "5 ", "5x", "0x10", "1.5",
                    "18446744073709551616"};
          },
          [](std::uint32_t*) -> std::vector<std::string> {
            return {"-1", "+1", "4294967296", "7q"};
          },
          [](int*) -> std::vector<std::string> {
            return {"-1", "2147483648", "1e3"};
          },
          [](bool*) -> std::vector<std::string> {
            return {"", "2", "-1", "true", "01"};
          },
          [](double*) -> std::vector<std::string> {
            return {"", "-1", "+1", "nan", "inf", "1e999", "1.5s", "0x1p3",
                    " 1"};
          },
          [](std::string*) -> std::vector<std::string> {
            return {"a\\", "a\\q"};
          },
          [](const support::EnumRef& e) -> std::vector<std::string> {
            return {"", std::to_string(e.count), "none-such"};
          },
      },
      f.ref);
}

template <typename Make>
void rejection_cases(Make make) {
  auto rec = make();
  auto fields = rec.fields();
  const std::string good = support::render_fields(fields);
  // Tokens of the rendered record, one per field in table order.
  std::vector<std::string> tok;
  for (std::size_t pos = 0; pos <= good.size();) {
    const std::size_t sp = std::min(good.find(' ', pos), good.size());
    tok.push_back(good.substr(pos, sp - pos));
    pos = sp + 1;
  }
  ASSERT_EQ(tok.size(), fields.size());
  auto join = [](const std::vector<std::string>& t) {
    std::string s;
    for (const std::string& x : t) s += (s.empty() ? "" : " ") + x;
    return s;
  };
  auto reject = [&](const std::string& text, const std::string& want) {
    auto target = make();
    const std::string before = support::render_fields(target.fields());
    std::string err;
    EXPECT_FALSE(support::parse_fields(text, target.fields(), &err)) << text;
    EXPECT_NE(err.find(want), std::string::npos)
        << "'" << text << "' -> " << err;
    EXPECT_EQ(support::render_fields(target.fields()), before)
        << "a rejected record wrote a field";
  };
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const std::string key = fields[i].key;
    for (const std::string& v : bad_values(fields[i])) {
      std::vector<std::string> t = tok;
      t[i] = key + "=" + v;
      std::string want = "for key '" + key + "'";
      // A space splits the token: the stray part after it names the key.
      if (v.find(' ') != std::string::npos) want = "key '" + key + "'";
      reject(join(t), want);
    }
    std::vector<std::string> missing = tok;
    missing.erase(missing.begin() + static_cast<std::ptrdiff_t>(i));
    reject(join(missing), "missing key '" + key + "'");
    std::vector<std::string> repeated = tok;
    repeated[(i + 1) % tok.size()] = tok[i];
    reject(join(repeated), "repeated key '" + key + "'");
  }
  reject(good + " bogus=1", "unknown key 'bogus'");
  reject(good + " ", "stray space");
  reject("", std::string("missing key '") + fields[0].key + "'");
}

TEST(Record, ConfigRejectsEveryMalformedField) {
  rejection_cases([] { return ConfigRec{}; });
}
TEST(Record, ExplorationStatsRejectEveryMalformedField) {
  rejection_cases([] { return StatsRec{}; });
}
TEST(Record, CheckerOptionsRejectEveryMalformedField) {
  rejection_cases([] { return OptionsRec{}; });
}
TEST(Record, CheckerStatsRejectEveryMalformedField) {
  rejection_cases([] { return SpecStatsRec{}; });
}

TEST(Record, DifferenceNamesTheFirstKeyThatDiffers) {
  mc::Config a, b;
  std::string site;
  EXPECT_EQ(support::difference(support::render_record(a, site),
                                support::render_record(b, site)),
            std::make_pair(std::string(), std::string()));
  b.max_executions = 5;
  b.watchdog_no_progress_execs = 9;
  EXPECT_EQ(support::difference(support::render_record(a, site),
                                support::render_record(b, site)),
            std::make_pair(std::string("cap=0"), std::string("cap=5")));
  EXPECT_EQ(support::difference("x=1 y=2", "x=1"),
            std::make_pair(std::string("y=2"), std::string()));
}

TEST(Record, DoublesUseOneExactEncoding) {
  mc::Config c;
  std::string site;
  c.time_budget_seconds = 0.1;
  c.dfs_budget_fraction = 1.0 / 3.0;
  const std::string text = support::render_record(c, site);
  EXPECT_NE(text.find(" timeout=0.1 "), std::string::npos) << text;
  mc::Config back;
  std::string err;
  ASSERT_TRUE(support::parse_record(text, &err, back, site)) << err;
  EXPECT_EQ(back.dfs_budget_fraction, c.dfs_budget_fraction);
  EXPECT_EQ(back.time_budget_seconds, c.time_budget_seconds);
}

TEST(Record, StatsMergeByTheirTablesRules) {
  mc::ExplorationStats into, shard;
  into.executions = 3;
  into.max_trail_depth = 9;
  into.exhausted = true;
  into.seconds = 0.25;
  into.verdict = mc::Verdict::kFalsified;
  shard.executions = 4;
  shard.max_trail_depth = 5;
  shard.exhausted = false;
  shard.hit_time_budget = true;
  shard.seconds = 0.5;
  shard.preempted = true;
  shard.verdict = mc::Verdict::kVerifiedExhaustive;
  mc::merge_shard_stats(into, shard);
  EXPECT_EQ(into.executions, 7u);          // sum
  EXPECT_EQ(into.max_trail_depth, 9u);     // max
  EXPECT_FALSE(into.exhausted);            // and
  EXPECT_TRUE(into.hit_time_budget);       // or
  EXPECT_EQ(into.seconds, 0.75);           // sum
  EXPECT_FALSE(into.preempted);            // not merged
  EXPECT_EQ(into.verdict, mc::Verdict::kFalsified);  // not merged

  spec::SpecChecker::Stats a, b;
  a.histories_checked = 2;
  b.histories_checked = 5;
  b.r_cycle_seen = true;
  support::merge_record(a, b);
  EXPECT_EQ(a.histories_checked, 7u);
  EXPECT_TRUE(a.r_cycle_seen);
  EXPECT_FALSE(a.history_cap_hit);
}

TEST(Record, StrictNumberParsers) {
  std::uint64_t u = 7;
  for (const char* bad : {"", " 5", "-5", "+5", "5 ", "5x", "0x5",
                          "18446744073709551616"}) {
    EXPECT_FALSE(support::parse_u64(bad, &u)) << "'" << bad << "'";
  }
  EXPECT_EQ(u, 7u);
  ASSERT_TRUE(support::parse_u64("18446744073709551615", &u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  double d = 0.0;
  for (const char* bad : {"", " 1", "-1", "+1", "inf", "nan", "1e999", "1x"}) {
    EXPECT_FALSE(support::parse_double(bad, &d)) << "'" << bad << "'";
  }
  ASSERT_TRUE(support::parse_double(".5", &d));
  EXPECT_EQ(d, 0.5);
  ASSERT_TRUE(support::parse_double("2.5e-3", &d));
  EXPECT_EQ(d, 2.5e-3);
}

TEST(Record, JsonRendersEachValueType) {
  std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
  bool yes = true, no = false;
  mc::Verdict v = mc::Verdict::kFalsified;
  std::string s = "a\"b\\c\td\ne";
  double d = 2.5;
  int i = 7;
  const Field fields[] = {{"big", &big},
                          {"yes", &yes},
                          {"no", &no},
                          {"verdict", support::enum_ref<3>(&v)},
                          {"s", &s},
                          {"d", &d},
                          {"i", &i}};
  EXPECT_EQ(support::render_json(fields),
            "{\"big\": 18446744073709551615, \"yes\": true, \"no\": false, "
            "\"verdict\": \"falsified\", \"s\": \"a\\\"b\\\\c\\td\\ne\", "
            "\"d\": 2.5, \"i\": 7}");
  // Doubles keep the text form's shortest exact decimal.
  d = 0.1 + 0.2;
  const Field one[] = {{"d", &d}};
  EXPECT_EQ(support::render_json(one), "{\"d\": 0.30000000000000004}");

  const std::vector<std::string> items = {"{}", "[1]"};
  const support::JsonMember more[] = {
      {"list", support::render_json_array(items)}, {"empty", "[]"}};
  EXPECT_EQ(support::render_json(one, more),
            "{\"d\": 0.30000000000000004,\n  \"list\": [\n    {},\n    "
            "[1]],\n  \"empty\": []}");
  EXPECT_EQ(support::render_json({}, more),
            "{\n  \"list\": [\n    {},\n    [1]],\n  \"empty\": []}");
}

// The keys of a record's text form, and of its JSON object (top level).
std::vector<std::string> text_keys(const std::string& text) {
  std::vector<std::string> keys;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t sp = std::min(text.find(' ', pos), text.size());
    const std::string tok = text.substr(pos, sp - pos);
    keys.push_back(tok.substr(0, tok.find('=')));
    pos = sp + 1;
  }
  return keys;
}
std::vector<std::string> json_keys(const std::string& json) {
  std::vector<std::string> keys;
  std::string cur;
  bool in_string = false;
  int depth = 0;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        cur += json[++i];
      } else if (c == '"') {
        in_string = false;
        if (depth == 1 && json.compare(i + 1, 2, ": ") == 0) {
          keys.push_back(cur);
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      in_string = true;
      cur.clear();
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    }
  }
  return keys;
}

TEST(Record, JsonKeysFollowEveryTable) {
  auto same_keys = [](std::span<const Field> fields) {
    EXPECT_EQ(json_keys(support::render_json(fields)),
              text_keys(support::render_fields(fields)));
    EXPECT_EQ(json_keys(support::render_json(fields)).size(), fields.size());
  };
  support::Xorshift64 rng(0x15011ull);
  for (int iter = 0; iter < 20; ++iter) {
    ConfigRec c;
    StatsRec s;
    OptionsRec o;
    SpecStatsRec ss;
    UnitRec u;
    dist::ShardRunStats run;
    harness::InjectionOutcome outcome;
    harness::InjectionSummary sum;
    harness::StressStats stress;
    const auto cf = c.fields();
    const auto sf = s.fields();
    const auto of = o.fields();
    const auto ssf = ss.fields();
    const auto uf = u.fields();
    const auto runf = dist::fields(run);
    const auto outf = harness::fields(outcome);
    const auto sumf = harness::fields(sum);
    const auto stressf = harness::fields(stress);
    randomize(cf, rng);
    randomize(sf, rng);
    randomize(of, rng);
    randomize(ssf, rng);
    randomize(uf, rng);
    randomize(runf, rng);
    randomize(outf, rng);
    randomize(sumf, rng);
    randomize(stressf, rng);
    same_keys(cf);
    same_keys(sf);
    same_keys(of);
    same_keys(ssf);
    same_keys(uf);
    same_keys(runf);
    same_keys(outf);
    same_keys(sumf);
    same_keys(stressf);
  }
  harness::ParallelRunResult par;
  dist::DistRunResult dr;
  dr.listen = "unix:/tmp/a \"b\".sock";
  same_keys(harness::fields(par));
  same_keys(dist::fields(dr));
}

}  // namespace
}  // namespace cds
