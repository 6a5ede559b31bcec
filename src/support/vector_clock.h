// Vector clocks and per-location views.
//
// Both happens-before clocks (indexed by thread id) and coherence views
// (indexed by atomic location id) are sparse monotone maps from a dense
// small-integer key space to 32-bit counters. `BasicClock` implements the
// lattice operations once; `VectorClock` and `View` are strong typedefs so
// thread ids and location ids cannot be mixed up.
#ifndef CDS_SUPPORT_VECTOR_CLOCK_H
#define CDS_SUPPORT_VECTOR_CLOCK_H

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace cds::support {

template <typename Tag>
class BasicClock {
 public:
  // Entries stored inside the object; a clock spills to the heap only past
  // this many. Modeled tests rarely exceed it in threads or in atomic
  // locations a thread has read, so copying a clock (a message's sync, a
  // spec ordering point's snapshot) usually allocates nothing.
  static constexpr std::size_t kInline = 8;

  BasicClock() = default;
  BasicClock(const BasicClock& o) { assign(o); }
  BasicClock(BasicClock&& o) noexcept { take(o); }
  BasicClock& operator=(const BasicClock& o) {
    if (this != &o) assign(o);
    return *this;
  }
  BasicClock& operator=(BasicClock&& o) noexcept {
    if (this != &o) {
      if (o.spilled()) {
        release();
        take(o);
      } else {
        assign(o);
        o.size_ = 0;
      }
    }
    return *this;
  }
  ~BasicClock() { release(); }

  // Value at index `i`; indices beyond the stored prefix are implicitly 0.
  [[nodiscard]] std::uint32_t get(std::size_t i) const {
    return i < size_ ? data_[i] : 0u;
  }

  void set(std::size_t i, std::uint32_t v) {
    grow(i + 1);
    data_[i] = v;
  }

  // set(i, max(get(i), v))
  void raise(std::size_t i, std::uint32_t v) {
    grow(i + 1);
    data_[i] = std::max(data_[i], v);
  }

  void bump(std::size_t i) {
    grow(i + 1);
    ++data_[i];
  }

  // Pointwise maximum (lattice join).
  void join(const BasicClock& o) {
    grow(o.size_);
    for (std::size_t i = 0; i < o.size_; ++i) {
      data_[i] = std::max(data_[i], o.data_[i]);
    }
  }

  // Pointwise <= (lattice order). `a.leq(b)` means every component of `a`
  // is covered by `b`.
  [[nodiscard]] bool leq(const BasicClock& o) const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (data_[i] > o.get(i)) return false;
    }
    return true;
  }

  [[nodiscard]] bool includes(std::size_t i, std::uint32_t v) const {
    return get(i) >= v;
  }

  // Drops every entry; the storage stays for reuse.
  void clear() { size_ = 0; }

  [[nodiscard]] bool empty() const {
    return std::all_of(data_, data_ + size_, [](std::uint32_t v) { return v == 0; });
  }

  [[nodiscard]] std::size_t stored_size() const { return size_; }
  // Entries held on the heap: 0 while the clock fits inline.
  [[nodiscard]] std::size_t spilled_capacity() const {
    return spilled() ? cap_ : 0;
  }

  friend bool operator==(const BasicClock& a, const BasicClock& b) {
    return a.leq(b) && b.leq(a);
  }

 private:
  [[nodiscard]] bool spilled() const { return data_ != inline_; }

  // Makes room for `n` entries; new entries are 0.
  void grow(std::size_t n) {
    if (n <= size_) return;
    if (n > cap_) reserve(std::max<std::size_t>(n, 2 * std::size_t{cap_}));
    std::fill(data_ + size_, data_ + n, 0u);
    size_ = static_cast<std::uint32_t>(n);
  }

  void reserve(std::size_t n) {
    auto* p = new std::uint32_t[n];
    std::copy(data_, data_ + size_, p);
    release();
    data_ = p;
    cap_ = static_cast<std::uint32_t>(n);
  }

  // Copies o's entries into the storage this clock already has.
  void assign(const BasicClock& o) {
    if (o.size_ > cap_) {
      size_ = 0;
      reserve(o.size_);
    }
    std::copy(o.data_, o.data_ + o.size_, data_);
    size_ = o.size_;
  }

  // Moves o's entries here (this clock holds no heap storage); o ends
  // empty and inline.
  void take(BasicClock& o) {
    if (o.spilled()) {
      data_ = o.data_;
      cap_ = o.cap_;
      o.data_ = o.inline_;
      o.cap_ = kInline;
    } else {
      std::copy(o.data_, o.data_ + o.size_, data_);
    }
    size_ = o.size_;
    o.size_ = 0;
  }

  void release() {
    if (spilled()) delete[] data_;
    data_ = inline_;
    cap_ = kInline;
  }

  std::uint32_t* data_ = inline_;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInline;
  std::uint32_t inline_[kInline];
};

struct ThreadTag {};
struct LocationTag {};

// Happens-before clock: index = thread id, value = per-thread event count.
using VectorClock = BasicClock<ThreadTag>;
// Coherence view: index = atomic location id, value = message timestamp.
using View = BasicClock<LocationTag>;

// The pair of lattices every synchronization edge transports: the
// happens-before component (for race detection and the spec checker's
// ordering relation) and the coherence component (which messages a thread
// is still allowed to read).
struct Timestamps {
  VectorClock vc;
  View view;

  void join(const Timestamps& o) {
    vc.join(o.vc);
    view.join(o.view);
  }

  void clear() {
    vc.clear();
    view.clear();
  }

  [[nodiscard]] bool empty() const { return vc.empty() && view.empty(); }
};

}  // namespace cds::support

#endif  // CDS_SUPPORT_VECTOR_CLOCK_H
