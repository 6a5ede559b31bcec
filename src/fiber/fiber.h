// Cooperative fibers with a hand-written x86-64 stack switch.
//
// The model checker needs full control over thread interleaving: every
// modeled thread runs as a fiber that yields to the scheduler at each
// visible operation. This mirrors CDSChecker's user-level thread library.
// Everything runs on a single OS thread, so no locking is needed anywhere
// in the checker.
//
// Protocol: the engine owns a "native" fiber wrapping the OS thread's own
// context plus one fiber per modeled thread. All switches are
// scheduler <-> thread; a modeled thread's entry wrapper must switch back
// to the scheduler (after calling mark_finished()) instead of returning.
//
// A switch is one call into a small assembly routine (fiber.cc). It pushes
// the System V callee-saved registers (rbx, rbp, r12-r15), MXCSR and the
// x87 control word onto the running stack, parks the stack pointer in the
// outgoing fiber, loads the incoming fiber's and pops the same state back.
// It makes no system call: the signal mask is not part of a fiber and
// stays one per OS thread. Floating-point control state (rounding mode,
// exception masks) is per fiber. reset() builds a first frame by hand that
// the switch "returns" into, entering trampoline() with the ABI's stack
// alignment. This routine and that frame are the only architecture-specific
// code in the checker; other targets fail to compile until they are ported.
//
// Stacks are mmap'd with a PROT_NONE guard region below them, so a test
// body that overflows its fiber stack faults deterministically in the
// guard instead of silently corrupting a neighboring allocation; the
// engine's crash containment turns that fault into a diagnosed violation
// (see guard_contains()). When mmap is unavailable the stack falls back to
// a plain heap allocation without a guard. A destroyed fiber hands its
// mapping, guard included, to a small per-OS-thread cache that the next
// fiber's stack is taken from, so building an Engine per exploration does
// not map and protect its stacks afresh each time.
//
// Under AddressSanitizer every switch is announced through the sanitizer's
// fiber hooks, and reset() unpoisons the reused stack: an abandoned fiber's
// frames never unwind, so their redzones would otherwise outlive them.
#ifndef CDS_FIBER_FIBER_H
#define CDS_FIBER_FIBER_H

#include <cstddef>
#include <functional>
#include <memory>

#if defined(__SANITIZE_ADDRESS__)
#define CDS_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CDS_FIBER_ASAN 1
#endif
#endif

namespace cds::fiber {

class Fiber {
 public:
  static constexpr std::size_t kStackSize = 256 * 1024;
  // Rounded up to the page size at allocation time.
  static constexpr std::size_t kGuardSize = 16 * 1024;

  Fiber() = default;
  ~Fiber();
  // Not movable: a started fiber's trampoline frame holds `this` (it runs
  // entry_ in place and hands *this to the fallthrough handler), so a
  // Fiber must stay at a stable address once reset() has run. Hold fibers
  // by unique_ptr.
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  Fiber(Fiber&&) = delete;
  Fiber& operator=(Fiber&&) = delete;

  // (Re)arms the fiber with an entry function. The stack is allocated once
  // (from the per-thread cache when it holds one) and reused across
  // executions.
  void reset(std::function<void()> entry);

  // Switches from `from` (which must be the currently running fiber) into
  // this fiber. Returns when some fiber later switches back into `from`.
  void switch_to(Fiber& from);

  // Crash containment leaves a running fiber by siglongjmp onto this
  // native fiber's stack instead of switching. Call right after landing:
  // under AddressSanitizer it tells the runtime which stack is live again.
  // Otherwise it does nothing.
  void resumed_by_jump();

  // The entry wrapper calls this right before its final switch out.
  void mark_finished() { finished_ = true; }

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] bool armed() const { return armed_; }

  // True iff `p` falls inside this fiber's PROT_NONE stack guard — i.e. a
  // fault at `p` is this fiber's stack overflowing. Always false for
  // guard-less (heap-fallback) stacks.
  [[nodiscard]] bool guard_contains(const void* p) const;
  // True iff `p` is inside the usable stack itself.
  [[nodiscard]] bool stack_contains(const void* p) const;

  // Wraps the calling OS thread's own context (no stack/entry of its own).
  void init_native() {
    native_ = true;
    armed_ = true;
  }

  // Invoked on the offending fiber when an entry wrapper returns instead
  // of switching out. The handler must not return: it should mark the
  // fiber finished and switch away (the engine installs one that records
  // the error and abandons the execution). Without a handler the process
  // aborts, as a returned fiber has no context to resume.
  static void set_fallthrough_handler(void (*handler)(Fiber&));

 private:
  // First code a fresh fiber runs; the switch hands it the fiber in %rdi.
  [[noreturn]] static void trampoline(Fiber* self);
  void allocate_stack();
#if CDS_FIBER_ASAN
  static void asan_finish_switch(void* fake_stack);
#endif

  // Stack pointer saved by the last switch out of this fiber, or the
  // hand-built first frame after reset(). Meaningless while running.
  void* sp_ = nullptr;
  // mmap'd region: [map_, map_ + guard_bytes_) is the PROT_NONE guard,
  // [map_ + guard_bytes_, map_ + map_bytes_) the usable stack (grows down
  // toward the guard). Null when the heap fallback is in use.
  char* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::size_t guard_bytes_ = 0;
  std::unique_ptr<char[]> heap_stack_;  // fallback when mmap fails
  std::function<void()> entry_;
  bool finished_ = false;
  bool armed_ = false;
  bool native_ = false;
#if CDS_FIBER_ASAN
  // ASan's fake stack while switched out, and this fiber's stack bounds
  // (a native fiber's are learned on its first switch out).
  void* asan_fake_stack_ = nullptr;
  const void* asan_bottom_ = nullptr;
  std::size_t asan_size_ = 0;
#endif
};

}  // namespace cds::fiber

#endif  // CDS_FIBER_FIBER_H
