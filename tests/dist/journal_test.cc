// Write-ahead shard journal durability: every record kind round-trips
// through its checksummed line form, the CRC catches any single corrupted
// byte, a torn tail is quarantined at EVERY byte offset of the last
// record (truncated back to the last good record, never a crash), a
// damaged magic header quarantines the whole file, and the resume header
// validation rejects a journal recorded under a different benchmark or
// engine configuration instead of merging incompatible state.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dist/journal.h"
#include "ds/suite.h"
#include "harness/parallel.h"
#include "harness/runner.h"
#include "harness/shard_result.h"
#include "mc/atomic.h"

namespace cds {
namespace {

std::string tmp_path(const char* name) { return testing::TempDir() + name; }

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.is_open()) << path;
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

bool exists(const std::string& path) {
  std::ifstream f(path);
  return f.is_open();
}

dist::JournalRecord run_record() {
  dist::JournalRecord r;
  r.kind = dist::JournalRecord::Kind::kRun;
  r.epoch = 3;
  r.shards = 12;
  r.plan_hash = 0xDEADBEEFu;
  r.fingerprint =
      "stale=3,max_steps=20000,strengthen_sc=0,sleep_sets=1,explore=rf,"
      "seed=42,cap=0,timeout=0,mem_cap=0,stop_on_violation=0";
  r.bench = "ticket-lock with spaces\nand a newline";
  return r;
}

dist::JournalRecord result_record() {
  dist::JournalRecord r;
  r.kind = dist::JournalRecord::Kind::kResult;
  r.shard = 7;
  r.attempt = (3ull << 32) | 41u;
  r.payload = "shard-result v3\nstats executions=5\nend\n";
  return r;
}

void expect_equal_records(const dist::JournalRecord& a,
                          const dist::JournalRecord& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.plan_hash, b.plan_hash);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.bench, b.bench);
  EXPECT_EQ(a.shard, b.shard);
  EXPECT_EQ(a.attempt, b.attempt);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_EQ(a.verdict, b.verdict);
}

TEST(Journal, EveryRecordKindRoundTrips) {
  std::vector<dist::JournalRecord> records;
  records.push_back(run_record());
  {
    dist::JournalRecord r;
    r.kind = dist::JournalRecord::Kind::kLease;
    r.shard = 4;
    r.attempt = (1ull << 32) | 9u;
    records.push_back(r);
  }
  records.push_back(result_record());
  {
    dist::JournalRecord r;
    r.kind = dist::JournalRecord::Kind::kMint;
    r.shard = 7;
    r.count = 3;
    records.push_back(r);
  }
  {
    dist::JournalRecord r;
    r.kind = dist::JournalRecord::Kind::kFailed;
    r.shard = 2;
    r.attempt = (2ull << 32) | 5u;
    r.payload = "worker died twice\nwith detail";
    records.push_back(r);
  }
  {
    dist::JournalRecord r;
    r.kind = dist::JournalRecord::Kind::kDone;
    r.verdict = 2;
    records.push_back(r);
  }
  for (const auto& r : records) {
    std::string line = dist::render_journal_record(r);
    ASSERT_FALSE(line.empty());
    ASSERT_EQ(line.back(), '\n');
    EXPECT_EQ(line.find('\n'), line.size() - 1)
        << "multi-line payloads must be escaped onto one line";
    line.pop_back();
    dist::JournalRecord got;
    std::string err;
    ASSERT_TRUE(dist::parse_journal_record(line, &got, &err)) << err;
    expect_equal_records(r, got);
  }
}

TEST(Journal, CrcCatchesAnySingleCorruptedByte) {
  std::string line = dist::render_journal_record(result_record());
  line.pop_back();  // newline is framing, not part of the record
  for (std::size_t i = 0; i < line.size(); ++i) {
    std::string bad = line;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    dist::JournalRecord got;
    std::string err;
    EXPECT_FALSE(dist::parse_journal_record(bad, &got, &err))
        << "byte " << i << " flipped yet the record still parsed";
  }
}

TEST(Journal, TornTailIsQuarantinedAtEveryByteOffset) {
  const std::string path = tmp_path("torn.journal");
  const std::string qpath = path + ".quarantined";
  const std::string magic = "cdsspec-journal v3\n";
  const std::string good1 = dist::render_journal_record(run_record());
  const std::string good2 = dist::render_journal_record(result_record());
  dist::JournalRecord last;
  last.kind = dist::JournalRecord::Kind::kLease;
  last.shard = 9;
  last.attempt = (3ull << 32) | 77u;
  const std::string tail = dist::render_journal_record(last);
  const std::string base = magic + good1 + good2;

  // Every proper prefix of the last record simulates an append the crash
  // cut off mid-write. All of them must load the two good records, set
  // the torn bytes aside, and truncate the file back to the good prefix.
  for (std::size_t cut = 1; cut < tail.size(); ++cut) {
    std::remove(qpath.c_str());
    write_file(path, base + tail.substr(0, cut));
    dist::JournalReplay rep;
    std::string err;
    ASSERT_TRUE(dist::load_journal(path, &rep, &err))
        << "cut=" << cut << ": " << err;
    EXPECT_TRUE(rep.found) << "cut=" << cut;
    ASSERT_EQ(rep.records.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(rep.records[0].kind, dist::JournalRecord::Kind::kRun);
    EXPECT_EQ(rep.records[1].kind, dist::JournalRecord::Kind::kResult);
    EXPECT_EQ(rep.last_epoch, 3u);
    EXPECT_EQ(rep.quarantined_bytes, cut) << "cut=" << cut;
    EXPECT_FALSE(rep.quarantine_note.empty());
    EXPECT_EQ(slurp(qpath), tail.substr(0, cut)) << "cut=" << cut;
    EXPECT_EQ(slurp(path), base) << "cut=" << cut
                                 << ": file must shrink to last good record";

    // The truncated-back journal is clean: a reload sees no quarantine.
    dist::JournalReplay again;
    ASSERT_TRUE(dist::load_journal(path, &again, &err)) << err;
    EXPECT_EQ(again.records.size(), 2u);
    EXPECT_EQ(again.quarantined_bytes, 0u);
    EXPECT_TRUE(again.quarantine_note.empty());
  }
  std::remove(path.c_str());
  std::remove(qpath.c_str());
}

TEST(Journal, CorruptRecordTruncatesBackToLastGoodRecord) {
  const std::string path = tmp_path("corrupt.journal");
  const std::string magic = "cdsspec-journal v3\n";
  const std::string good = dist::render_journal_record(run_record());
  std::string bad = dist::render_journal_record(result_record());
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x40);
  const std::string after = dist::render_journal_record(result_record());
  write_file(path, magic + good + bad + after);

  dist::JournalReplay rep;
  std::string err;
  ASSERT_TRUE(dist::load_journal(path, &rep, &err)) << err;
  EXPECT_TRUE(rep.found);
  // WAL discipline: nothing after the first bad record can be trusted
  // (the writer fsyncs in order), so the valid-looking record behind it
  // is quarantined too.
  ASSERT_EQ(rep.records.size(), 1u);
  EXPECT_EQ(rep.records[0].kind, dist::JournalRecord::Kind::kRun);
  EXPECT_EQ(rep.quarantined_bytes, bad.size() + after.size());
  EXPECT_EQ(slurp(path), magic + good);
  std::remove(path.c_str());
  std::remove((path + ".quarantined").c_str());
}

TEST(Journal, DamagedMagicHeaderQuarantinesTheWholeFile) {
  const std::string path = tmp_path("badmagic.journal");
  const std::string content =
      "cdsspec-jounral v1\n" + dist::render_journal_record(run_record());
  write_file(path, content);
  dist::JournalReplay rep;
  std::string err;
  ASSERT_TRUE(dist::load_journal(path, &rep, &err)) << err;
  EXPECT_FALSE(rep.found) << "a damaged header must read as a fresh start";
  EXPECT_TRUE(rep.records.empty());
  EXPECT_EQ(rep.quarantined_bytes, content.size());
  EXPECT_FALSE(exists(path)) << "whole file should have been renamed aside";
  EXPECT_EQ(slurp(path + ".quarantined"), content);
  std::remove((path + ".quarantined").c_str());
}

TEST(Journal, MissingFileIsAFreshStartNotAnError) {
  dist::JournalReplay rep;
  std::string err;
  ASSERT_TRUE(dist::load_journal(tmp_path("never-created.journal"), &rep, &err))
      << err;
  EXPECT_FALSE(rep.found);
  EXPECT_TRUE(rep.records.empty());
  EXPECT_EQ(rep.quarantined_bytes, 0u);
}

TEST(Journal, PlanHashIsSensitiveToEveryPlanComponent) {
  harness::ShardUnit u;
  u.test_index = 1;
  u.engine_seed = 42;
  u.sample_executions = 100;
  u.prefix = {mc::Choice{mc::ChoiceKind::kSchedule, 0, 2},
              mc::Choice{mc::ChoiceKind::kReadsFrom, 1, 3}};
  const std::uint32_t base = dist::journal_plan_hash({u});
  EXPECT_EQ(dist::journal_plan_hash({u}), base) << "must be deterministic";

  harness::ShardUnit v = u;
  v.test_index = 2;
  EXPECT_NE(dist::journal_plan_hash({v}), base);
  v = u;
  v.engine_seed = 43;
  EXPECT_NE(dist::journal_plan_hash({v}), base);
  v = u;
  v.sample_executions = 99;
  EXPECT_NE(dist::journal_plan_hash({v}), base);
  v = u;
  v.prefix[1].chosen = 2;
  EXPECT_NE(dist::journal_plan_hash({v}), base);
  EXPECT_NE(dist::journal_plan_hash({u, u}), base);
}

TEST(Journal, WriterAppendsReloadVerbatimAndSurviveReopen) {
  const std::string path = tmp_path("writer.journal");
  std::string err;
  {
    dist::JournalWriter w;
    ASSERT_TRUE(w.open(path, /*truncate=*/true, &err)) << err;
    ASSERT_TRUE(w.append(run_record(), &err)) << err;
    ASSERT_TRUE(w.append(result_record(), &err)) << err;
    EXPECT_EQ(w.appends(), 2u);
  }
  {
    // Reopen without truncation: a resumed incarnation appends behind the
    // previous one's records.
    dist::JournalWriter w;
    ASSERT_TRUE(w.open(path, /*truncate=*/false, &err)) << err;
    dist::JournalRecord done;
    done.kind = dist::JournalRecord::Kind::kDone;
    done.verdict = 1;
    ASSERT_TRUE(w.append(done, &err)) << err;
  }
  dist::JournalReplay rep;
  ASSERT_TRUE(dist::load_journal(path, &rep, &err)) << err;
  ASSERT_EQ(rep.records.size(), 3u);
  expect_equal_records(rep.records[0], run_record());
  expect_equal_records(rep.records[1], result_record());
  EXPECT_EQ(rep.records[2].kind, dist::JournalRecord::Kind::kDone);
  EXPECT_EQ(rep.records[2].verdict, 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Resume header validation through the parallel (--jobs) harness
// ---------------------------------------------------------------------------

TEST(ParallelResume, CleanJournalReplaysToBitIdenticalCounters) {
  ds::register_all_benchmarks();
  const auto* b = harness::find_benchmark("ticket-lock");
  ASSERT_NE(b, nullptr);
  const std::string path = tmp_path("clean-replay.journal");
  std::remove(path.c_str());
  harness::RunOptions opts;
  harness::ParallelOptions par;
  par.jobs = 2;
  par.journal_path = path;
  harness::ParallelRunResult first = harness::run_benchmark_parallel(*b, opts, par);
  ASSERT_TRUE(first.resume_error.empty()) << first.resume_error;
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_FALSE(first.resumed);

  par.resume = true;
  harness::ParallelRunResult again = harness::run_benchmark_parallel(*b, opts, par);
  ASSERT_TRUE(again.resume_error.empty()) << again.resume_error;
  EXPECT_EQ(again.epoch, 2u);
  EXPECT_TRUE(again.resumed);
  EXPECT_EQ(again.replayed_shards, again.shards)
      << "a completed journal must satisfy every shard without re-running";
  EXPECT_EQ(again.merged.mc.executions, first.merged.mc.executions);
  EXPECT_EQ(again.merged.mc.feasible, first.merged.mc.feasible);
  EXPECT_EQ(again.merged.spec.histories_checked,
            first.merged.spec.histories_checked);
  EXPECT_EQ(again.merged.verdict, first.merged.verdict);
  std::remove(path.c_str());
}

TEST(ParallelResume, MismatchedConfigFingerprintRejectsResume) {
  ds::register_all_benchmarks();
  const auto* b = harness::find_benchmark("ticket-lock");
  ASSERT_NE(b, nullptr);
  const std::string path = tmp_path("fingerprint-mismatch.journal");
  std::remove(path.c_str());
  harness::RunOptions opts;
  harness::ParallelOptions par;
  par.jobs = 2;
  par.journal_path = path;
  harness::ParallelRunResult first = harness::run_benchmark_parallel(*b, opts, par);
  ASSERT_TRUE(first.resume_error.empty()) << first.resume_error;

  // Same benchmark, different exploration-shaping config: the journaled
  // shard results cover a different tree, so merging them would be wrong.
  harness::RunOptions other = opts;
  other.engine.stale_read_bound += 1;
  par.resume = true;
  harness::ParallelRunResult r = harness::run_benchmark_parallel(*b, other, par);
  EXPECT_FALSE(r.resume_error.empty());
  EXPECT_EQ(r.merged.verdict, mc::Verdict::kInconclusive);
  EXPECT_EQ(r.merged.mc.executions, 0u) << "nothing may run on a rejected resume";
  std::remove(path.c_str());
}

TEST(ParallelResume, MismatchedBenchmarkRejectsResume) {
  ds::register_all_benchmarks();
  const auto* tl = harness::find_benchmark("ticket-lock");
  const auto* ttas = harness::find_benchmark("ttas-lock");
  ASSERT_NE(tl, nullptr);
  ASSERT_NE(ttas, nullptr);
  const std::string path = tmp_path("bench-mismatch.journal");
  std::remove(path.c_str());
  harness::RunOptions opts;
  harness::ParallelOptions par;
  par.jobs = 2;
  par.journal_path = path;
  harness::ParallelRunResult first = harness::run_benchmark_parallel(*tl, opts, par);
  ASSERT_TRUE(first.resume_error.empty()) << first.resume_error;

  par.resume = true;
  harness::ParallelRunResult r = harness::run_benchmark_parallel(*ttas, opts, par);
  EXPECT_FALSE(r.resume_error.empty());
  EXPECT_EQ(r.merged.verdict, mc::Verdict::kInconclusive);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cds
