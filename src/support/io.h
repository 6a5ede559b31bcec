// Low-level IO helpers shared by every process-boundary layer (fork_map
// pipes, the distributed socket transport, the shard journal).
//
// Two concerns live here on purpose:
//  - EINTR discipline: every read/write loops on EINTR, so signal delivery
//    (progress timers, child reaping) can never shear a frame in half.
//  - SIGPIPE containment: a peer that dies mid-conversation must surface
//    as an EPIPE error code on *any* fd we hold, not a process-fatal
//    signal. SigpipeIgnoreScope is installed RAII-style around whole
//    coordinator/worker loops, not just individual writes.
#ifndef CDS_SUPPORT_IO_H
#define CDS_SUPPORT_IO_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace cds::support {

// Writes all `len` bytes, retrying on EINTR and short writes. Returns
// false on any other error (errno preserved); EPIPE is the expected
// failure mode when the peer died (see SigpipeIgnoreScope).
bool write_full(int fd, const void* data, std::size_t len);
bool write_full(int fd, const std::string& s);

// Reads exactly `len` bytes, retrying on EINTR and short reads. Returns
// false on error or premature EOF (a truncated frame).
bool read_full(int fd, void* data, std::size_t len);

// One read(2) retried on EINTR only; returns what the kernel gave us
// (possibly short). <0 error, 0 EOF — the building block for buffered
// line readers over sockets/pipes.
long read_some(int fd, void* data, std::size_t len);

// CRC-32 (IEEE 802.3, reflected), the checksum on shard journal records.
std::uint32_t crc32(const void* data, std::size_t len);
std::uint32_t crc32(const std::string& s);

// Fsyncs the directory `dir`, making previously renamed/created entries
// in it durable across power loss. A temp+rename is only atomic-durable
// once the *directory* holding the new name has been synced; fsyncing
// the file alone persists its bytes but not its name.
bool fsync_dir(const std::string& dir);

// Fsyncs the directory containing `path` ("." when `path` has no
// directory component). Convenience wrapper around fsync_dir for
// callers that hold the file path, not its directory.
bool fsync_parent_dir(const std::string& path);

// Ignores SIGPIPE for the scope's lifetime and restores the previous
// disposition on exit. Any layer that writes to fds whose peer can die
// (fork_map, the dist coordinator/worker) holds one of these around its
// whole IO loop, so a dead peer is an EPIPE return everywhere rather
// than a fatal signal on whichever write happened to race the death.
class SigpipeIgnoreScope {
 public:
  SigpipeIgnoreScope();
  ~SigpipeIgnoreScope();
  SigpipeIgnoreScope(const SigpipeIgnoreScope&) = delete;
  SigpipeIgnoreScope& operator=(const SigpipeIgnoreScope&) = delete;

 private:
  bool installed_ = false;
  void* old_action_;  // opaque storage for struct sigaction
};

}  // namespace cds::support

#endif  // CDS_SUPPORT_IO_H
