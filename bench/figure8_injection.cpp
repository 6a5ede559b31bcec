// Reproduces paper Figure 8: the memory-order bug-injection experiment.
// Every memory-order parameter the unit tests exercise is weakened to the
// next-weaker parameter, one per trial, and the detection is classified as
// Built-in (data race / uninitialized load / deadlock), Admissibility, or
// Assertion — with the paper's counts alongside.
#include <cstdio>
#include <string>

#include "bench/paper_refs.h"
#include "ds/suite.h"
#include "harness/runner.h"

int main(int argc, char** argv) {
  bool verbose = argc > 1 && std::string(argv[1]) == "-v";
  cds::ds::register_all_benchmarks();

  std::printf("Figure 8 — bug-injection detection results\n\n");
  std::printf("%-20s | %-28s | %-28s\n", "", "paper", "ours");
  std::printf("%-20s | %4s %5s %5s %6s %5s | %4s %5s %5s %6s %5s\n",
              "Benchmark", "#Inj", "#Blt", "#Adm", "#Asrt", "Rate", "#Inj",
              "#Blt", "#Adm", "#Asrt", "Rate");
  std::printf("%.*s\n", 112,
              "--------------------------------------------------------------"
              "--------------------------------------------------");

  int tot_inj = 0, tot_detected = 0;
  for (const auto& row : cds::bench::kFigure8) {
    const auto* b = cds::harness::find_benchmark(row.benchmark);
    if (b == nullptr) {
      std::printf("%-20s | MISSING\n", row.display);
      continue;
    }
    cds::harness::RunOptions opts;
    opts.engine.max_executions = 500000;
    opts.engine.stop_on_first_violation = true;
    auto sum = cds::harness::run_injection_experiment(*b, opts);
    tot_inj += sum.injections;
    tot_detected += sum.injections - sum.undetected;
    std::printf("%-20s | %4d %5d %5d %6d %4d%% | %4d %5d %5d %6d %4.0f%%\n",
                row.display, row.paper_injections, row.paper_builtin,
                row.paper_admissibility, row.paper_assertion,
                row.paper_rate_pct, sum.injections, sum.builtin,
                sum.admissibility, sum.assertion, sum.detection_rate() * 100);
    if (verbose) {
      for (const auto& o : sum.outcomes) {
        std::printf("    %-45s %-8s -> %s\n", o.site.c_str(),
                    to_string(o.def), cds::harness::to_string(o.detection));
      }
    }
  }
  std::printf("\nTotal: %d injections, %d detected (%.0f%%; paper: 57 "
              "injections, 93%%)\n",
              tot_inj, tot_detected,
              tot_inj ? 100.0 * tot_detected / tot_inj : 0.0);
  std::printf("(run with -v for per-site outcomes)\n");
  return 0;
}
