#include "inject/inject.h"

#include <cassert>

namespace cds::inject {

namespace {
std::vector<Site>& registry() {
  static std::vector<Site> sites;
  return sites;
}
SiteId g_active = -1;
}  // namespace

mc::MemoryOrder Site::weakened() const {
  mc::MemoryOrder w = mc::weaker(def);
  switch (kind) {
    case OpKind::kLoad:
      return mc::for_load(w);
    case OpKind::kStore:
      return mc::for_store(w);
    case OpKind::kRmw:
    case OpKind::kFence:
      return w;
  }
  return w;
}

mc::MemoryOrder strengthen(OpKind kind, mc::MemoryOrder o) {
  using O = mc::MemoryOrder;
  if (o == O::seq_cst) return O::seq_cst;
  if (o == O::relaxed) {
    switch (kind) {
      case OpKind::kLoad: return O::acquire;
      case OpKind::kStore: return O::release;
      case OpKind::kRmw:
      case OpKind::kFence: return O::acq_rel;
    }
  }
  // acquire / release / acq_rel: the only stronger parameter is seq_cst.
  return O::seq_cst;
}

mc::MemoryOrder Site::strengthened() const { return strengthen(kind, def); }

SiteId register_site(const char* benchmark, const char* name,
                     mc::MemoryOrder def, OpKind kind) {
  auto id = static_cast<SiteId>(registry().size());
  registry().push_back(Site{id, benchmark, name, def, kind});
  return id;
}

mc::MemoryOrder order(SiteId id) {
  assert(id >= 0 && static_cast<std::size_t>(id) < registry().size());
  const Site& s = registry()[static_cast<std::size_t>(id)];
  return id == g_active ? s.weakened() : s.def;
}

void inject(SiteId id) { g_active = id; }
void clear_injection() { g_active = -1; }
SiteId active_injection() { return g_active; }

std::string active_site_name() {
  return g_active < 0 ? std::string()
                      : registry()[static_cast<std::size_t>(g_active)].name;
}

bool activate_site(const std::string& benchmark, const std::string& name) {
  clear_injection();
  for (const Site& s : registry()) {
    if (s.benchmark == benchmark && s.name == name) inject(s.id);
  }
  return name.empty() || g_active >= 0;
}

const std::vector<Site>& all_sites() { return registry(); }

std::vector<Site> sites_for(const std::string& benchmark) {
  std::vector<Site> out;
  for (const Site& s : registry()) {
    if (s.benchmark == benchmark) out.push_back(s);
  }
  return out;
}

}  // namespace cds::inject
