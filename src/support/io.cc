#include "support/io.h"

#include <cerrno>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define CDS_SUPPORT_IO_POSIX 1
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#endif

namespace cds::support {

bool write_full(int fd, const void* data, std::size_t len) {
#ifdef CDS_SUPPORT_IO_POSIX
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
#else
  (void)fd;
  (void)data;
  (void)len;
  errno = ENOSYS;
  return false;
#endif
}

bool write_full(int fd, const std::string& s) {
  return write_full(fd, s.data(), s.size());
}

bool read_full(int fd, void* data, std::size_t len) {
#ifdef CDS_SUPPORT_IO_POSIX
  char* p = static_cast<char*>(data);
  while (len > 0) {
    ssize_t n = read(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF before len bytes: truncated frame
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
#else
  (void)fd;
  (void)data;
  (void)len;
  errno = ENOSYS;
  return false;
#endif
}

long read_some(int fd, void* data, std::size_t len) {
#ifdef CDS_SUPPORT_IO_POSIX
  for (;;) {
    ssize_t n = read(fd, data, len);
    if (n < 0 && errno == EINTR) continue;
    return static_cast<long>(n);
  }
#else
  (void)fd;
  (void)data;
  (void)len;
  errno = ENOSYS;
  return -1;
#endif
}

namespace {

// Table-driven CRC-32 (polynomial 0xEDB88320), built once.
const std::uint32_t* crc_table() {
  static std::uint32_t table[256];
  static bool init = [] {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return true;
  }();
  (void)init;
  return table;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len) {
  const std::uint32_t* t = crc_table();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = t[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const std::string& s) { return crc32(s.data(), s.size()); }

bool fsync_dir(const std::string& dir) {
#ifdef CDS_SUPPORT_IO_POSIX
  int fd = -1;
  do {
    fd = open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return false;
  int rc;
  do {
    rc = fsync(fd);
  } while (rc != 0 && errno == EINTR);
  // Some filesystems refuse fsync on directory fds (EINVAL); treat that
  // as "as durable as this platform gets" rather than an error.
  const bool ok = rc == 0 || errno == EINVAL;
  close(fd);
  return ok;
#else
  (void)dir;
  errno = ENOSYS;
  return false;
#endif
}

bool fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return fsync_dir(".");
  if (slash == 0) return fsync_dir("/");
  return fsync_dir(path.substr(0, slash));
}

SigpipeIgnoreScope::SigpipeIgnoreScope() : old_action_(nullptr) {
#ifdef CDS_SUPPORT_IO_POSIX
  auto* old_sa = new struct sigaction;
  struct sigaction ign {};
  ign.sa_handler = SIG_IGN;
  sigemptyset(&ign.sa_mask);
  if (sigaction(SIGPIPE, &ign, old_sa) == 0) {
    installed_ = true;
    old_action_ = old_sa;
  } else {
    delete old_sa;
  }
#endif
}

SigpipeIgnoreScope::~SigpipeIgnoreScope() {
#ifdef CDS_SUPPORT_IO_POSIX
  if (installed_) {
    auto* old_sa = static_cast<struct sigaction*>(old_action_);
    sigaction(SIGPIPE, old_sa, nullptr);
    delete old_sa;
  }
#endif
}

}  // namespace cds::support
