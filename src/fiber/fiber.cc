#include "fiber/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#if CDS_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if !defined(__x86_64__)
#error "cds::fiber: no stack switch for this architecture; port cds_fiber_switch and the first frame Fiber::reset builds"
#endif
#if defined(__CET__) && (__CET__ & 2)
#error "cds::fiber: cds_fiber_switch does not maintain a CET shadow stack; compile fiber.cc with -fcf-protection=none or =branch"
#endif

// Saves the running context's callee-saved registers, MXCSR and x87
// control word on its own stack, stores the stack pointer to *save_sp,
// loads load_sp and restores the same state from there. `arg` arrives in
// %rdi on the resumed side: a fresh fiber's first frame "returns" into
// Fiber::trampoline, which takes it as its parameter, while an ordinary
// resume returns from its own call and ignores it.
extern "C" void cds_fiber_switch(void** save_sp, void* load_sp, void* arg);

asm(R"(
	.text
	.globl	cds_fiber_switch
	.hidden	cds_fiber_switch
	.type	cds_fiber_switch, @function
	.p2align 4
cds_fiber_switch:
	pushq	%rbp
	pushq	%rbx
	pushq	%r12
	pushq	%r13
	pushq	%r14
	pushq	%r15
	subq	$8, %rsp
	stmxcsr	(%rsp)
	fnstcw	4(%rsp)
	movq	%rsp, (%rdi)
	movq	%rsi, %rsp
	ldmxcsr	(%rsp)
	fldcw	4(%rsp)
	addq	$8, %rsp
	popq	%r15
	popq	%r14
	popq	%r13
	popq	%r12
	popq	%rbx
	popq	%rbp
	movq	%rdx, %rdi
	ret
	.size	cds_fiber_switch, .-cds_fiber_switch
)");

namespace cds::fiber {

namespace {
void (*g_fallthrough)(Fiber&) = nullptr;

#if CDS_FIBER_ASAN
// The fiber that started the switch in progress; its resumed peer records
// a native fiber's stack bounds from what ASan reports.
thread_local Fiber* g_asan_leaving = nullptr;
#endif

std::size_t round_up_to_page(std::size_t n) {
  long page = ::sysconf(_SC_PAGESIZE);
  auto p = page > 0 ? static_cast<std::size_t>(page) : std::size_t{4096};
  return (n + p - 1) / p * p;
}

// Bytes of one stack mapping: the guard plus the usable stack.
std::size_t stack_map_bytes() {
  return round_up_to_page(Fiber::kGuardSize) +
         round_up_to_page(Fiber::kStackSize);
}

// Stack mappings (guard included) of destroyed fibers, kept per OS thread
// for the next fiber: an Engine is built per exploration, and mapping and
// protecting its stacks afresh each time cost three system calls per
// stack. All mappings have one size, so any can serve any fiber. Past the
// bound, a destroyed fiber unmaps its stack.
constexpr std::size_t kStackCacheSlots = 8;
// Set once the thread's cache is destroyed (thread exit, or process exit
// for the main thread); fibers destroyed after that unmap directly.
thread_local bool t_stack_cache_closed = false;
struct StackCache {
  char* maps[kStackCacheSlots] = {};
  std::size_t count = 0;

  StackCache() = default;
  StackCache(const StackCache&) = delete;
  StackCache& operator=(const StackCache&) = delete;
  ~StackCache() {
    while (count > 0) ::munmap(maps[--count], stack_map_bytes());
    t_stack_cache_closed = true;
  }
};
thread_local StackCache t_stack_cache;

// What cds_fiber_switch pops when it switches into a fresh fiber, lowest
// address first.
struct FirstFrame {
  std::uint32_t mxcsr;
  std::uint16_t fpu_cw;
  std::uint16_t pad;
  std::uint64_t r15, r14, r13, r12, rbx, rbp;
  std::uint64_t entry;        // popped by ret: Fiber::trampoline
  std::uint64_t return_addr;  // trampoline's own: null ends backtraces
};
static_assert(sizeof(FirstFrame) == 72);
}  // namespace

void Fiber::set_fallthrough_handler(void (*handler)(Fiber&)) {
  g_fallthrough = handler;
}

Fiber::~Fiber() {
  if (map_ == nullptr) return;
  if (!t_stack_cache_closed && t_stack_cache.count < kStackCacheSlots) {
    t_stack_cache.maps[t_stack_cache.count++] = map_;
  } else {
    ::munmap(map_, map_bytes_);
  }
}

void Fiber::allocate_stack() {
  guard_bytes_ = round_up_to_page(kGuardSize);
  map_bytes_ = stack_map_bytes();
  if (!t_stack_cache_closed && t_stack_cache.count > 0) {
    map_ = t_stack_cache.maps[--t_stack_cache.count];
    return;
  }
  void* m = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (m != MAP_FAILED && ::mprotect(m, guard_bytes_, PROT_NONE) == 0) {
    map_ = static_cast<char*>(m);
    return;
  }
  if (m != MAP_FAILED) ::munmap(m, map_bytes_);
  map_ = nullptr;
  map_bytes_ = 0;
  guard_bytes_ = 0;
  heap_stack_ = std::make_unique<char[]>(kStackSize);
}

void Fiber::reset(std::function<void()> entry) {
  assert(!native_);
  if (map_ == nullptr && !heap_stack_) allocate_stack();
  entry_ = std::move(entry);
  finished_ = false;
  armed_ = true;
  char* base = map_ != nullptr ? map_ + guard_bytes_ : heap_stack_.get();
  const std::size_t size =
      map_ != nullptr ? map_bytes_ - guard_bytes_ : kStackSize;
#if CDS_FIBER_ASAN
  ASAN_UNPOISON_MEMORY_REGION(base, size);
  asan_fake_stack_ = nullptr;
  asan_bottom_ = base;
  asan_size_ = size;
#endif
  // trampoline is entered by a `ret` that leaves %rsp at the frame's
  // return_addr slot. Putting that slot 8 bytes below a 16-byte boundary
  // gives the alignment a real call would. The fiber starts with the
  // floating-point control state of the thread calling reset().
  const auto top = reinterpret_cast<std::uintptr_t>(base + size) &
                   ~std::uintptr_t{15};
  auto* f =
      new (reinterpret_cast<void*>(top - sizeof(FirstFrame))) FirstFrame{};
  asm volatile("stmxcsr %0" : "=m"(f->mxcsr));
  asm volatile("fnstcw %0" : "=m"(f->fpu_cw));
  f->entry = reinterpret_cast<std::uintptr_t>(&Fiber::trampoline);
  sp_ = f;
}

bool Fiber::guard_contains(const void* p) const {
  if (map_ == nullptr) return false;
  const char* c = static_cast<const char*>(p);
  return c >= map_ && c < map_ + guard_bytes_;
}

bool Fiber::stack_contains(const void* p) const {
  const char* c = static_cast<const char*>(p);
  if (map_ != nullptr) {
    return c >= map_ + guard_bytes_ && c < map_ + map_bytes_;
  }
  return heap_stack_ && c >= heap_stack_.get() &&
         c < heap_stack_.get() + kStackSize;
}

void Fiber::trampoline(Fiber* self) {
#if CDS_FIBER_ASAN
  asan_finish_switch(nullptr);
#endif
  self->entry_();
  // Entry wrappers must mark_finished() and switch back to the scheduler;
  // falling off the end of a fiber would resume an undefined context. The
  // installed handler can recover by switching away itself (it must not
  // return here).
  if (g_fallthrough != nullptr) g_fallthrough(*self);
  std::fprintf(stderr, "cds::fiber: entry wrapper returned without switching out\n");
  std::abort();
}

void Fiber::switch_to(Fiber& from) {
  assert(armed_ && !finished_ && this != &from);
#if CDS_FIBER_ASAN
  // A finished fiber is never resumed: a null save slot lets ASan free
  // its fake stack.
  g_asan_leaving = &from;
  __sanitizer_start_switch_fiber(
      from.finished_ ? nullptr : &from.asan_fake_stack_, asan_bottom_,
      asan_size_);
#endif
  cds_fiber_switch(&from.sp_, sp_, this);
#if CDS_FIBER_ASAN
  asan_finish_switch(from.asan_fake_stack_);
#endif
}

void Fiber::resumed_by_jump() {
#if CDS_FIBER_ASAN
  // The fiber jumped away from never runs again: drop its fake stack.
  g_asan_leaving = nullptr;
  __sanitizer_start_switch_fiber(nullptr, asan_bottom_, asan_size_);
  asan_finish_switch(asan_fake_stack_);
#endif
}

#if CDS_FIBER_ASAN
void Fiber::asan_finish_switch(void* fake_stack) {
  const void* bottom = nullptr;
  std::size_t size = 0;
  __sanitizer_finish_switch_fiber(fake_stack, &bottom, &size);
  Fiber* prev = g_asan_leaving;
  g_asan_leaving = nullptr;
  if (prev != nullptr && prev->native_ && prev->asan_size_ == 0) {
    prev->asan_bottom_ = bottom;
    prev->asan_size_ = size;
  }
}
#endif

}  // namespace cds::fiber
