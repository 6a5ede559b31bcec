// Reproduces paper Section 6.4.3: finding overly strong memory-order
// parameters. Injection trials whose weakening triggers NO violation are
// candidates for relaxation; the paper's finding — the seq_cst CAS on top
// in the Chase-Lev deque's take() can be relaxed (confirmed by the
// original authors) — must appear in this list.
#include <cstdio>

#include "ds/suite.h"
#include "harness/runner.h"

int main() {
  cds::ds::register_all_benchmarks();

  std::printf("Section 6.4.3 — overly strong memory-order candidates\n");
  std::printf("(injections that trigger no violation on any unit test)\n\n");

  cds::harness::RunOptions opts;
  opts.engine.max_executions = 500000;
  opts.engine.stop_on_first_violation = true;

  bool found_paper_site = false;
  for (const auto& b : cds::harness::benchmarks()) {
    auto sum = cds::harness::run_injection_experiment(b, opts);
    for (const auto& o : sum.outcomes) {
      if (o.detection != cds::harness::Detection::kNone) continue;
      std::printf("  %-20s %-40s %s -> %s\n", b.display.c_str(),
                  o.site.c_str(), to_string(o.def), to_string(o.weakened));
      if (b.name == "chase-lev-deque" && o.site == "take: top CAS") {
        found_paper_site = true;
      }
    }
  }
  std::printf("\npaper's confirmed finding — Chase-Lev 'take: top CAS' "
              "(seq_cst, relaxable): %s\n",
              found_paper_site ? "REPRODUCED (undetected as expected)"
                               : "NOT reproduced");
  return 0;
}
