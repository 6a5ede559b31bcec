// Memory-order bug-injection framework (paper Section 6.4.2).
//
// Every memory-order parameter in a benchmark implementation is routed
// through a registered *site*. The injection experiment weakens one site
// per trial to the next-weaker parameter (seq_cst -> acq_rel,
// acq_rel -> release/acquire, acquire/release -> relaxed) and asks the
// checker whether any unit test detects the change.
#ifndef CDS_INJECT_INJECT_H
#define CDS_INJECT_INJECT_H

#include <cstdint>
#include <string>
#include <vector>

#include "mc/memory_order.h"

namespace cds::inject {

enum class OpKind : std::uint8_t { kLoad, kStore, kRmw, kFence };

using SiteId = int;

struct Site {
  SiteId id;
  std::string benchmark;
  std::string name;
  mc::MemoryOrder def;
  OpKind kind;

  // The next-weaker legal parameter for this operation kind; equals `def`
  // when the site is already relaxed (not injectable).
  [[nodiscard]] mc::MemoryOrder weakened() const;
  [[nodiscard]] bool injectable() const { return weakened() != def; }

  // The reverse walk: the next-stronger legal parameter, terminating at
  // seq_cst. The fuzzer's metamorphic monotonicity oracle strengthens one
  // site per run and requires the behavior set never to grow.
  [[nodiscard]] mc::MemoryOrder strengthened() const;
  [[nodiscard]] bool strengthenable() const { return strengthened() != def; }
};

// One step up the strengthening lattice for an operation kind: relaxed
// rises to the kind's weakest synchronizing form (acquire for loads,
// release for stores, acq_rel for RMWs and fences); any synchronizing
// order rises to seq_cst; seq_cst is a fixpoint.
[[nodiscard]] mc::MemoryOrder strengthen(OpKind kind, mc::MemoryOrder o);

// Registers a memory-order site (call once, at namespace scope, per
// textual occurrence of a memory-order parameter).
SiteId register_site(const char* benchmark, const char* name,
                     mc::MemoryOrder def, OpKind kind);

// The order the site currently uses: its default, or the weakened order if
// this site is the active injection.
[[nodiscard]] mc::MemoryOrder order(SiteId id);

// Activates the injection at `id` (one site at a time, as in the paper).
void inject(SiteId id);
void clear_injection();
[[nodiscard]] SiteId active_injection();  // -1 when none

// The active site by name ("" when none): how configuration records
// (mc::Config's, support/record.h) carry the injection across processes.
[[nodiscard]] std::string active_site_name();
// Arms exactly the site `name` of `benchmark`, or clears any injection
// when `name` is empty. False, with nothing armed, when this build has no
// such site.
bool activate_site(const std::string& benchmark, const std::string& name);

[[nodiscard]] const std::vector<Site>& all_sites();
[[nodiscard]] std::vector<Site> sites_for(const std::string& benchmark);

}  // namespace cds::inject

#endif  // CDS_INJECT_INJECT_H
