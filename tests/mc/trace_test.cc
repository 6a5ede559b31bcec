// Trail serialization: parse(render(t)) == t over hand-built and
// randomly generated trails, plus clean rejection of truncated, corrupted,
// and version-mismatched files with actionable messages.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "mc/trace.h"
#include "support/rng.h"

namespace cds::mc {
namespace {

TrailFile full_trail() {
  TrailFile t;
  t.test_name = "ms-queue#2";
  t.seed = 0x9e3779b97f4a7c15ull;
  t.kind = "data-race";
  t.detail = "read of 'head' by T2 races with write by T1";
  t.inject_site = "enqueue: tail store";
  t.stale_read_bound = 7;
  t.max_steps = 1234;
  t.strengthen_to_sc = true;
  t.enable_sleep_sets = false;
  t.explore = ExploreMode::kRf;
  t.choices = {
      Choice{ChoiceKind::kSchedule, 1, 2},
      Choice{ChoiceKind::kReadsFrom, 0, 3},
      Choice{ChoiceKind::kSchedule, 2, 4},
  };
  return t;
}

void expect_equal(const TrailFile& a, const TrailFile& b) {
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.test_name, b.test_name);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_EQ(a.inject_site, b.inject_site);
  EXPECT_EQ(a.stale_read_bound, b.stale_read_bound);
  EXPECT_EQ(a.max_steps, b.max_steps);
  EXPECT_EQ(a.strengthen_to_sc, b.strengthen_to_sc);
  EXPECT_EQ(a.enable_sleep_sets, b.enable_sleep_sets);
  EXPECT_EQ(a.explore, b.explore);
  ASSERT_EQ(a.choices.size(), b.choices.size());
  for (std::size_t i = 0; i < a.choices.size(); ++i) {
    EXPECT_EQ(a.choices[i].kind, b.choices[i].kind) << "choice " << i;
    EXPECT_EQ(a.choices[i].chosen, b.choices[i].chosen) << "choice " << i;
    EXPECT_EQ(a.choices[i].num, b.choices[i].num) << "choice " << i;
  }
}

TEST(Trace, RoundTripPreservesEveryField) {
  TrailFile t = full_trail();
  TrailFile back;
  std::string err;
  ASSERT_TRUE(parse_trail(render_trail(t), &back, &err)) << err;
  expect_equal(t, back);
}

TEST(Trace, RoundTripMinimalTrail) {
  // Optional fields absent, empty choice list.
  TrailFile t;
  t.test_name = "litmus";
  t.seed = 1;
  TrailFile back;
  std::string err;
  ASSERT_TRUE(parse_trail(render_trail(t), &back, &err)) << err;
  expect_equal(t, back);
}

TEST(Trace, RoundTripPropertyOverRandomTrails) {
  support::Xorshift64 rng(0xC0FFEEull);
  for (int iter = 0; iter < 100; ++iter) {
    TrailFile t;
    t.test_name = "bench-" + std::to_string(rng.next() % 100) + "#" +
                  std::to_string(rng.next() % 8);
    t.seed = rng.next();
    if (rng.next() % 2 != 0) t.kind = "user-assertion";
    if (rng.next() % 2 != 0) t.detail = "multi word detail " +
                                        std::to_string(rng.next());
    t.stale_read_bound = static_cast<std::uint32_t>(rng.next() % 100);
    t.max_steps = rng.next() % 100000;
    t.strengthen_to_sc = rng.next() % 2 != 0;
    t.enable_sleep_sets = rng.next() % 2 != 0;
    t.explore =
        rng.next() % 2 != 0 ? ExploreMode::kRf : ExploreMode::kSchedule;
    std::size_t n = rng.next() % 40;
    for (std::size_t i = 0; i < n; ++i) {
      auto num = static_cast<std::uint16_t>(2 + rng.next() % 200);
      auto chosen = static_cast<std::uint16_t>(rng.next() % num);
      t.choices.push_back(Choice{
          rng.next() % 2 != 0 ? ChoiceKind::kSchedule : ChoiceKind::kReadsFrom,
          chosen, num});
    }
    TrailFile back;
    std::string err;
    ASSERT_TRUE(parse_trail(render_trail(t), &back, &err))
        << "iter " << iter << ": " << err;
    expect_equal(t, back);
  }
}

TEST(Trace, CommentsAndBlankLinesAreIgnored) {
  std::string text = render_trail(full_trail());
  std::string commented = "# a leading comment\n\n";
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    commented += line + "\n# interleaved comment\n\n";
  }
  TrailFile back;
  std::string err;
  ASSERT_TRUE(parse_trail(commented, &back, &err)) << err;
  expect_equal(full_trail(), back);
}

TEST(Trace, EveryTruncationIsRejectedWithActionableError) {
  // Chop the rendered file after every line boundary: each prefix must be
  // rejected with a non-empty message, never accepted or crash.
  std::string text = render_trail(full_trail());
  for (std::size_t pos = text.find('\n'); pos != std::string::npos;
       pos = text.find('\n', pos + 1)) {
    std::string prefix = text.substr(0, pos + 1);
    if (prefix.size() == text.size()) break;  // the full file parses
    TrailFile back;
    std::string err;
    EXPECT_FALSE(parse_trail(prefix, &back, &err))
        << "prefix of " << prefix.size() << " bytes was accepted";
    EXPECT_FALSE(err.empty());
  }
  // The headline case: everything but the 'end' terminator (a torn write).
  std::string no_end = text.substr(0, text.rfind("end"));
  TrailFile back;
  std::string err;
  EXPECT_FALSE(parse_trail(no_end, &back, &err));
  EXPECT_NE(err.find("missing 'end' terminator"), std::string::npos) << err;
}

TEST(Trace, VersionMismatchNamesBothVersions) {
  std::string text = render_trail(full_trail());
  text.replace(text.find("v3"), 2, "v9");
  TrailFile back;
  std::string err;
  EXPECT_FALSE(parse_trail(text, &back, &err));
  EXPECT_NE(err.find("unsupported .trail version v9"), std::string::npos)
      << err;
  EXPECT_NE(err.find("v3"), std::string::npos) << err;
}

TEST(Trace, WrongMagicIsRejected) {
  TrailFile back;
  std::string err;
  EXPECT_FALSE(parse_trail("not-a-trail v1\nend\n", &back, &err));
  EXPECT_NE(err.find("not a .trail file"), std::string::npos) << err;
  EXPECT_FALSE(parse_trail("", &back, &err));
  EXPECT_NE(err.find("empty"), std::string::npos) << err;
}

TEST(Trace, CorruptedChoiceLinesAreRejected) {
  auto reject = [](const std::string& choice_line, const char* expect_msg) {
    TrailFile t = full_trail();
    std::string text = render_trail(t);
    std::size_t at = text.find("S 1/2");
    text.replace(at, 5, choice_line);
    TrailFile back;
    std::string err;
    EXPECT_FALSE(parse_trail(text, &back, &err)) << choice_line;
    EXPECT_NE(err.find(expect_msg), std::string::npos)
        << "'" << choice_line << "' -> " << err;
    // The message names the offending line.
    EXPECT_EQ(err.rfind("line ", 0), 0u) << err;
  };
  reject("X 1/2", "malformed choice");
  reject("S 1-2", "missing '/'");
  reject("S x/2", "bad number");
  reject("S 5/2", "out of range");
  reject("S 0/1", "alternative count");  // single-alternative never recorded
  reject("S 0/100000", "alternative count");
}

TEST(Trace, ChoiceCountMismatchIsRejected) {
  TrailFile t = full_trail();
  std::string text = render_trail(t);
  // Claim more choices than are present: the 'end' line is consumed as a
  // (malformed) choice or the file ends early.
  std::string more = text;
  more.replace(more.find("choices 3"), 9, "choices 9");
  TrailFile back;
  std::string err;
  EXPECT_FALSE(parse_trail(more, &back, &err));
  EXPECT_FALSE(err.empty());
  // Claim fewer: the leftover choice line sits where 'end' should be.
  std::string fewer = text;
  fewer.replace(fewer.find("choices 3"), 9, "choices 2");
  EXPECT_FALSE(parse_trail(fewer, &back, &err));
  EXPECT_NE(err.find("missing 'end' terminator"), std::string::npos) << err;
  // Content after 'end' is rejected as trailing garbage.
  EXPECT_FALSE(parse_trail(text + "junk\n", &back, &err));
  EXPECT_NE(err.find("trailing garbage"), std::string::npos) << err;
}

TEST(Trace, StressBackendTrailRoundTrips) {
  // A stress discovery is replayable from its trail: the header names the
  // backend, `seed` is the failing iteration's seed, and the choices are
  // the thread-major preemption decision stream (4 alternatives each).
  TrailFile t;
  t.test_name = "concurrent-hashmap#0";
  t.seed = 0xBADC0DEull;
  t.backend = "stress";
  t.kind = "spec-assertion";
  t.detail = "postcondition of get(1)=10 [T2] failed (S_RET=0)";
  for (std::uint16_t d : {0, 3, 1, 2, 0, 0, 2}) {
    t.choices.push_back(Choice{ChoiceKind::kSchedule, d, 4});
  }
  TrailFile back;
  std::string err;
  std::string text = render_trail(t);
  EXPECT_NE(text.find("backend stress"), std::string::npos) << text;
  ASSERT_TRUE(parse_trail(text, &back, &err)) << err;
  EXPECT_EQ(back.backend, "stress");
  expect_equal(t, back);
}

TEST(Trace, ModelBackendTokenNormalizesToEmpty) {
  // "backend model" is accepted for symmetry but normalizes to the empty
  // default, and the renderer never emits it — model trails stay byte-
  // identical to pre-v2 ones.
  TrailFile t = full_trail();
  EXPECT_EQ(render_trail(t).find("backend"), std::string::npos);
  std::string text = render_trail(t);
  text.insert(text.find("kind "), "backend model\n");
  TrailFile back;
  std::string err;
  ASSERT_TRUE(parse_trail(text, &back, &err)) << err;
  EXPECT_EQ(back.backend, "");
  expect_equal(t, back);
}

TEST(Trace, UnknownBackendTokenIsRejected) {
  std::string text = render_trail(full_trail());
  text.insert(text.find("kind "), "backend quantum\n");
  TrailFile back;
  std::string err;
  EXPECT_FALSE(parse_trail(text, &back, &err));
  EXPECT_NE(err.find("unknown backend 'quantum'"), std::string::npos) << err;
}

TEST(Trace, ExploreScheduleTokenNormalizesToAbsent) {
  // "explore schedule" is accepted for symmetry but normalizes to the
  // default, and the renderer only emits the line for rf trails — so
  // schedule-mode trails stay byte-identical to pre-rf ones.
  TrailFile t = full_trail();
  t.explore = ExploreMode::kSchedule;
  std::string text = render_trail(t);
  EXPECT_EQ(text.find("explore"), std::string::npos) << text;
  text.insert(text.find("config "), "explore schedule\n");
  TrailFile back;
  std::string err;
  ASSERT_TRUE(parse_trail(text, &back, &err)) << err;
  EXPECT_EQ(back.explore, ExploreMode::kSchedule);
  expect_equal(t, back);
}

TEST(Trace, RfTrailCarriesExploreLine) {
  TrailFile t = full_trail();
  std::string text = render_trail(t);
  EXPECT_NE(text.find("explore rf"), std::string::npos) << text;
  TrailFile back;
  std::string err;
  ASSERT_TRUE(parse_trail(text, &back, &err)) << err;
  EXPECT_EQ(back.explore, ExploreMode::kRf);
}

TEST(Trace, UnknownExploreModeIsRejected) {
  std::string text = render_trail(full_trail());
  std::size_t at = text.find("explore rf");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 10, "explore povo");
  TrailFile back;
  std::string err;
  EXPECT_FALSE(parse_trail(text, &back, &err));
  EXPECT_NE(err.find("unknown explore mode"), std::string::npos) << err;
}

TEST(Trace, FileIoRoundTripsAndRejectsMissingFile) {
  const std::string path = testing::TempDir() + "/trace_test_roundtrip.trail";
  TrailFile t = full_trail();
  std::string err;
  ASSERT_TRUE(write_trail_file(path, t, &err)) << err;
  TrailFile back;
  ASSERT_TRUE(load_trail_file(path, &back, &err)) << err;
  expect_equal(t, back);
  std::remove(path.c_str());
  EXPECT_FALSE(load_trail_file(path, &back, &err));
  EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST(Trace, FingerprintMismatchNamesTheFlag) {
  TrailFile t = full_trail();
  Config cfg;
  t.apply_fingerprint(&cfg);
  EXPECT_EQ(t.fingerprint_mismatch(cfg), "");
  cfg.stale_read_bound = 99;
  EXPECT_NE(t.fingerprint_mismatch(cfg).find("--stale"), std::string::npos);
  t.apply_fingerprint(&cfg);
  cfg.test_name = "other#0";
  EXPECT_NE(t.fingerprint_mismatch(cfg).find("test mismatch"),
            std::string::npos);
  t.apply_fingerprint(&cfg);
  cfg.explore = ExploreMode::kSchedule;
  std::string msg = t.fingerprint_mismatch(cfg);
  EXPECT_NE(msg.find("--explore"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'rf'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'schedule'"), std::string::npos) << msg;
}

}  // namespace
}  // namespace cds::mc
