#include "spec/specification.h"

#include <algorithm>
#include <mutex>

namespace cds::spec {

namespace {
// Serializes op-site accounting across real threads (stress backend); the
// model checker's fibers share one OS thread, so it only pays an
// uncontended lock on a cold diagnostic path.
std::mutex& op_site_mutex() {
  static std::mutex m;
  return m;
}
}  // namespace

Specification::Specification(std::string name) : name_(std::move(name)) {}
Specification::~Specification() = default;

MethodSpec& Specification::method(const std::string& name) {
  int idx = method_index(name);
  if (idx >= 0) return *methods_[static_cast<std::size_t>(idx)];
  methods_.push_back(
      std::make_unique<MethodSpec>(name, static_cast<int>(methods_.size())));
  return *methods_.back();
}

Specification& Specification::admit(const std::string& m1, const std::string& m2,
                                    AdmitFn guard) {
  // Referencing a method in a rule declares it.
  int i1 = method(m1).index();
  int i2 = method(m2).index();
  admits_.push_back(AdmitRule{i1, i2, std::move(guard)});
  return *this;
}

int Specification::method_index(const std::string& name) const {
  for (const auto& m : methods_) {
    if (m->name() == name) return m->index();
  }
  return -1;
}

int Specification::spec_lines() const {
  int lines = has_state() ? 1 : 0;
  for (const auto& m : methods_) lines += m->annotation_count();
  lines += static_cast<int>(admits_.size());
  lines += static_cast<int>(op_sites_.size());
  return lines;
}

void Specification::note_op_site(const char* kind, const char* file,
                                 std::uint32_t line) {
  std::lock_guard<std::mutex> lock(op_site_mutex());
  for (const SiteKey& k : site_keys_) {
    if (k.kind == kind && k.file == file && k.line == line) return;
  }
  site_keys_.push_back(SiteKey{kind, file, line});
  std::string site = std::string(kind) + "@" + file + ":" + std::to_string(line);
  if (std::find(op_sites_.begin(), op_sites_.end(), site) == op_sites_.end()) {
    op_sites_.push_back(std::move(site));
  }
}

int Specification::ordering_point_sites() const {
  std::lock_guard<std::mutex> lock(op_site_mutex());
  return static_cast<int>(op_sites_.size());
}

}  // namespace cds::spec
