#include "dist/journal.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string_view>

#include "mc/trace.h"
#include "support/io.h"
#include "support/record.h"

#if defined(__unix__) || defined(__APPLE__)
#define CDS_DIST_JOURNAL_POSIX 1
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace cds::dist {

namespace {

constexpr const char* kMagic = "cdsspec-journal v5";

constexpr const char* kVerbs[] = {"run",  "lease",  "result",
                                  "mint", "failed", "done"};

// Each record kind's fields (support/record.h). The run record's config
// and checker values are whole rendered records, and result payloads and
// failure reasons whole messages, each escaped into one token.
std::vector<support::Field> fields(JournalRecord& r) {
  switch (r.kind) {
    case JournalRecord::Kind::kRun:
      return {{"epoch", &r.epoch},     {"shards", &r.shards},
              {"planhash", &r.plan_hash}, {"bench", &r.bench},
              {"config", &r.config},   {"checker", &r.checker}};
    case JournalRecord::Kind::kLease:
      return {{"shard", &r.shard}, {"attempt", &r.attempt}};
    case JournalRecord::Kind::kResult:
      return {{"shard", &r.shard},
              {"attempt", &r.attempt},
              {"payload", &r.payload}};
    case JournalRecord::Kind::kMint:
      return {{"parent", &r.shard}, {"count", &r.count}};
    case JournalRecord::Kind::kFailed:
      return {{"shard", &r.shard},
              {"attempt", &r.attempt},
              {"reason", &r.payload}};
    case JournalRecord::Kind::kDone:
      return {{"verdict", &r.verdict}};
  }
  return {};
}

std::string with_crc(std::string body) {
  char suffix[16];
  std::snprintf(suffix, sizeof suffix, " #crc=%08" PRIx32,
                support::crc32(body));
  body += suffix;
  body += '\n';
  return body;
}

}  // namespace

std::string render_journal_record(const JournalRecord& r) {
  // The table binds mutable members; rendering only reads them.
  const auto f = fields(const_cast<JournalRecord&>(r));
  return with_crc(std::string(kVerbs[static_cast<int>(r.kind)]) + " " +
                  support::render_fields(f));
}

bool parse_journal_record(const std::string& line, JournalRecord* out,
                          std::string* err) {
  auto fail = [&](const std::string& why) {
    if (err) *err = why + ": '" + line.substr(0, 120) + "'";
    return false;
  };
  // " #crc=XXXXXXXX" is always the last 14 bytes; the CRC covers
  // everything before it.
  if (line.size() < 15) return fail("record too short");
  const std::size_t cpos = line.size() - 14;
  if (line.compare(cpos, 6, " #crc=") != 0) {
    return fail("missing crc suffix");
  }
  std::uint32_t want = 0;
  for (std::size_t k = cpos + 6; k < line.size(); ++k) {
    const char c = line[k];
    if (!std::isxdigit(static_cast<unsigned char>(c))) {
      return fail("malformed crc suffix");
    }
    want = want * 16u +
           static_cast<std::uint32_t>(
               c <= '9' ? c - '0' : std::tolower(c) - 'a' + 10);
  }
  const std::string body = line.substr(0, cpos);
  if (support::crc32(body) != want) return fail("crc mismatch");

  const std::string_view rest(body);
  const std::string_view verb = rest.substr(0, rest.find(' '));
  const auto* k = std::find(std::begin(kVerbs), std::end(kVerbs), verb);
  if (k == std::end(kVerbs) || verb.size() == rest.size()) {
    return fail("unknown or malformed record");
  }
  JournalRecord r;
  r.kind = static_cast<JournalRecord::Kind>(k - std::begin(kVerbs));
  std::string why;
  if (!support::parse_fields(rest.substr(verb.size() + 1), fields(r), &why)) {
    return fail(std::string(verb) + " record: " + why);
  }
  if (r.kind == JournalRecord::Kind::kRun && r.bench.empty()) {
    return fail("run record with empty bench");
  }
  *out = std::move(r);
  return true;
}

std::uint32_t journal_plan_hash(const std::vector<harness::ShardUnit>& units) {
  std::string s;
  for (const harness::ShardUnit& u : units) {
    s += support::render_record(u) + "\n" + mc::render_choices(u.prefix);
  }
  return support::crc32(s);
}

bool load_journal(const std::string& path, JournalReplay* out,
                  std::string* err) {
  *out = JournalReplay{};
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return true;  // fresh start, not an error
    if (err) *err = "cannot open '" + path + "': " + std::strerror(errno);
    return false;
  }
  std::string data;
  char buf[65536];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) data.append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    if (err) *err = "read error on '" + path + "'";
    return false;
  }

  const std::string magic = std::string(kMagic) + "\n";
  if (data.size() < magic.size() ||
      data.compare(0, magic.size(), magic) != 0) {
    // The header itself is damaged: nothing in the file can be trusted,
    // so set the whole file aside and report a fresh start.
    out->quarantined_bytes = data.size();
    out->quarantine_note = "'" + path +
                           "': missing or damaged journal header; whole file "
                           "quarantined";
    (void)std::rename(path.c_str(), (path + ".quarantined").c_str());
    (void)support::fsync_parent_dir(path);
    return true;
  }
  out->found = true;

  std::size_t pos = magic.size();
  std::size_t good_end = pos;
  std::string note;
  while (pos < data.size()) {
    const std::size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) {
      note = "torn record at byte " + std::to_string(pos) +
             " (no newline; append cut off mid-write?)";
      break;
    }
    JournalRecord r;
    std::string perr;
    if (!parse_journal_record(data.substr(pos, nl - pos), &r, &perr)) {
      note = "bad record at byte " + std::to_string(pos) + " (" + perr + ")";
      break;
    }
    if (r.kind == JournalRecord::Kind::kRun) {
      out->last_epoch = std::max(out->last_epoch, r.epoch);
    }
    out->records.push_back(std::move(r));
    pos = nl + 1;
    good_end = pos;
  }

  if (!note.empty()) {
    const std::string tail = data.substr(good_end);
    out->quarantined_bytes = tail.size();
    out->quarantine_note = "'" + path + "': " + note + "; " +
                           std::to_string(tail.size()) +
                           " tail bytes quarantined, journal truncated to "
                           "last good record";
    std::FILE* q = std::fopen((path + ".quarantined").c_str(), "wb");
    if (q != nullptr) {
      (void)std::fwrite(tail.data(), 1, tail.size(), q);
      std::fclose(q);
    }
#ifdef CDS_DIST_JOURNAL_POSIX
    if (truncate(path.c_str(), static_cast<off_t>(good_end)) == 0) {
      int fd = open(path.c_str(), O_WRONLY | O_CLOEXEC);
      if (fd >= 0) {
        (void)fsync(fd);
        close(fd);
      }
      (void)support::fsync_parent_dir(path);
    }
#endif
  }
  return true;
}

// ---------------------------------------------------------------------------
// JournalWriter
// ---------------------------------------------------------------------------

JournalWriter::~JournalWriter() { close_file(); }

bool JournalWriter::open(const std::string& path, bool truncate_file,
                         std::string* err) {
#ifdef CDS_DIST_JOURNAL_POSIX
  close_file();
  const int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC |
                    (truncate_file ? O_TRUNC : 0);
  int fd = ::open(path.c_str(), flags, 0666);
  if (fd < 0) {
    if (err) *err = "cannot open '" + path + "': " + std::strerror(errno);
    return false;
  }
  struct stat st {};
  if (fstat(fd, &st) != 0) {
    if (err) *err = "fstat of '" + path + "' failed: " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  fd_ = fd;
  path_ = path;
  if (st.st_size == 0) {
    const std::string magic = std::string(kMagic) + "\n";
    if (!support::write_full(fd_, magic) || fsync(fd_) != 0 ||
        !support::fsync_parent_dir(path_)) {
      if (err) {
        *err = "cannot write journal header to '" + path +
               "': " + std::strerror(errno);
      }
      close_file();
      return false;
    }
  }
  return true;
#else
  (void)path;
  (void)truncate_file;
  if (err) *err = "journal unsupported on this platform";
  errno = ENOSYS;
  return false;
#endif
}

bool JournalWriter::append(const JournalRecord& r, std::string* err) {
#ifdef CDS_DIST_JOURNAL_POSIX
  if (fd_ < 0) {
    if (err) *err = "journal not open";
    return false;
  }
  const std::string line = render_journal_record(r);
  if (!support::write_full(fd_, line) || fsync(fd_) != 0) {
    if (err) {
      *err = "journal append to '" + path_ + "' failed: " +
             std::strerror(errno);
    }
    return false;
  }
  ++appends_;
  if (r.kind == JournalRecord::Kind::kResult) ++result_appends_;
  // Chaos fires only after the record is durable: a resumed run must be
  // able to rebuild from exactly what the journal order implies.
  if (chaos_.truncate_tail_after ==
      static_cast<std::ptrdiff_t>(appends_)) {
    struct stat st {};
    if (fstat(fd_, &st) == 0) {
      const off_t cut = static_cast<off_t>(chaos_.truncate_tail_bytes);
      (void)ftruncate(fd_, st.st_size > cut ? st.st_size - cut : 0);
      (void)fsync(fd_);
    }
    raise(SIGKILL);
  }
  if (chaos_.kill_after_append == static_cast<std::ptrdiff_t>(appends_)) {
    raise(SIGKILL);
  }
  if (r.kind == JournalRecord::Kind::kResult &&
      chaos_.kill_before_merge_on ==
          static_cast<std::ptrdiff_t>(result_appends_)) {
    raise(SIGKILL);
  }
  return true;
#else
  (void)r;
  if (err) *err = "journal unsupported on this platform";
  return false;
#endif
}

void JournalWriter::close_file() {
#ifdef CDS_DIST_JOURNAL_POSIX
  if (fd_ >= 0) {
    (void)fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
#endif
}

}  // namespace cds::dist
