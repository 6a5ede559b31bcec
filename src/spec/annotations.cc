#include "spec/annotations.h"

#include <cassert>
#include <string>

#include "harness/backend.h"

namespace cds::spec {

namespace {
Recorder* g_recorder = nullptr;
}

Recorder* Recorder::current() { return g_recorder; }
void Recorder::set_current(Recorder* r) { g_recorder = r; }

void Recorder::begin_execution(const void* backend_tag) {
  std::lock_guard<std::mutex> lock(mu_);
  engine_tag_ = backend_tag;
  calls_.clear();
  next_object_ = 0;
  for (Slot& s : slots_) {
    s.depth = 0;
    s.call.ops.clear();
    s.potentials.clear();
  }
}

std::uint32_t Recorder::new_object() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_object_++;
}

Recorder::Slot& Recorder::slot(int tid) {
  assert(tid >= 0);
  if (static_cast<std::size_t>(tid) >= slots_.size()) {
    slots_.resize(static_cast<std::size_t>(tid) + 1);
  }
  return slots_[static_cast<std::size_t>(tid)];
}

bool Recorder::enter(int tid, CallRecord call) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& s = slot(tid);
  if (s.depth++ > 0) return false;
  s.call = std::move(call);
  s.potentials.clear();
  return true;
}

void Recorder::leave(int tid) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& s = slot(tid);
  assert(s.depth > 0);
  if (--s.depth > 0) return;
  s.call.id = static_cast<std::uint32_t>(calls_.size());
  calls_.push_back(std::move(s.call));
  s.call = CallRecord{};
}

void Recorder::set_return(int tid, std::int64_t v) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& s = slot(tid);
  s.call.c_ret = v;
  s.call.has_ret = true;
}

void Recorder::define_op(int tid, OPEvent ev) {
  std::lock_guard<std::mutex> lock(mu_);
  slot(tid).call.ops.push_back(std::move(ev));
}

void Recorder::add_potential(int tid, int label, OPEvent ev) {
  std::lock_guard<std::mutex> lock(mu_);
  slot(tid).potentials.emplace_back(label, std::move(ev));
}

void Recorder::check_potentials(int tid, int label) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& s = slot(tid);
  for (auto it = s.potentials.begin(); it != s.potentials.end();) {
    if (it->first == label) {
      s.call.ops.push_back(std::move(it->second));
      it = s.potentials.erase(it);
    } else {
      ++it;
    }
  }
}

void Recorder::clear_ops(int tid) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& s = slot(tid);
  s.call.ops.clear();
  s.potentials.clear();
}

Object::Object(const Specification& s) : spec_(&s) {
  harness::Backend* b = harness::Backend::current();
  if (b == nullptr) return;
  Recorder* r = b->recorder();
  if (r != nullptr && r->armed_for(b)) id_ = r->new_object();
}

Method::Method(const Object& obj, const char* name,
               std::initializer_list<std::int64_t> args)
    : spec_(&obj.spec()) {
  harness::Backend* b = harness::Backend::current();
  if (b == nullptr) return;
  Recorder* r = b->recorder();
  if (r == nullptr || !r->armed_for(b)) return;
  rec_ = r;
  backend_ = b;
  tid_ = b->current_thread();
  CallRecord call;
  call.spec = spec_;
  call.object = obj.id();
  call.method = spec_->method_index(name);
  call.thread = tid_;
  int i = 0;
  for (std::int64_t a : args) {
    if (i < CallRecord::kMaxArgs) call.args[i++] = a;
  }
  call.nargs = i;
  const int method = call.method;
  active_ = rec_->enter(tid_, std::move(call));
  assert((!active_ || method >= 0) &&
         "method not declared in the specification");
  (void)method;
}

Method::~Method() {
  if (rec_ != nullptr) rec_->leave(tid_);
}

std::int64_t Method::ret(std::int64_t v) {
  if (active_) rec_->set_return(tid_, v);
  return v;
}

OPEvent Method::snapshot() const { return backend_->snapshot_op(tid_); }

void Method::note_site(const char* kind, const std::source_location& loc) const {
  if (spec_ == nullptr) return;
  // One spec "line" per distinct textual annotation site.
  const_cast<Specification*>(spec_)->note_op_site(kind, loc.file_name(),
                                                   loc.line());
}

void Method::op_define(std::source_location loc) {
  note_site("op_define", loc);
  if (active_) rec_->define_op(tid_, snapshot());
}

void Method::potential_op(int label, std::source_location loc) {
  note_site("potential_op", loc);
  if (active_) rec_->add_potential(tid_, label, snapshot());
}

void Method::op_check(int label, std::source_location loc) {
  note_site("op_check", loc);
  if (active_) rec_->check_potentials(tid_, label);
}

void Method::op_clear(std::source_location loc) {
  note_site("op_clear", loc);
  if (active_) rec_->clear_ops(tid_);
}

void Method::op_clear_define(std::source_location loc) {
  note_site("op_clear_define", loc);
  if (!active_) return;
  rec_->clear_ops(tid_);
  rec_->define_op(tid_, snapshot());
}

}  // namespace cds::spec
