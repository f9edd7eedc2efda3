// ffbench: one binary for every bench experiment — the paper's figures and
// tables, the ablations, and the sweep, battery, contention, fleet and
// microbench records.
//
//   ./build/bench/ffbench <experiment> [flags]
//   ./build/bench/ffbench --help            (lists the experiments)
//   ./build/bench/ffbench <experiment> --help   (lists its flags)
//
// The registry below maps each name to its run function; every
// experiment accepts only the flags it honours.

#include <cstdio>
#include <cstring>
#include <exception>

#include "experiments.hpp"

using namespace flexfetch::bench;

namespace {

struct Experiment {
  const char* name;
  const char* summary;
  int (*run)(int argc, char** argv);
};

constexpr Experiment kExperiments[] = {
    {"fig1", "Figure 1: grep+make energy vs WNIC latency/bandwidth",
     run_figure},
    {"fig2", "Figure 2: mplayer", run_figure},
    {"fig3", "Figure 3: Thunderbird", run_figure},
    {"fig4", "Figure 4: grep+make with xmms forcing disk spin-ups",
     run_figure},
    {"fig5", "Figure 5: Acroread with a stale profile", run_figure},
    {"tables", "Tables 1-3: disk and WNIC parameters, trace inventory",
     run_tables},
    {"ablation-lossrate", "A: maximum tolerable performance loss rate",
     run_ablation_lossrate},
    {"ablation-adaptation", "B: Section 2.3 adaptations, one at a time",
     run_ablation_adaptation},
    {"ablation-stage", "C: evaluation-stage length", run_ablation_stage},
    {"ablation-oracle", "D: FlexFetch vs a clairvoyant Oracle",
     run_ablation_oracle},
    {"ablation-cscan", "E: C-SCAN elevator vs FIFO dispatch",
     run_ablation_cscan},
    {"ablation-sync", "F: replica synchronization overhead",
     run_ablation_sync},
    {"ablation-timeout", "G: disk spin-down timeout, fixed vs adaptive",
     run_ablation_timeout},
    {"ablation-overhead", "H: scheme overhead vs energy saved",
     run_ablation_overhead},
    {"sweep", "full evaluation grid, serial == parallel gate, JSON record",
     run_sweep},
    {"battery", "constant == static gate + battery-adaptive ablation",
     run_battery},
    {"contention", "N clients on one shared AP and server", run_contention},
    {"fleet", "multi-process population run with bit-identity gate",
     run_fleet},
    {"microbench", "telemetry overhead and hot-path records with gates",
     run_microbench},
};

void print_usage(std::FILE* to) {
  std::fprintf(to, "usage: ffbench <experiment> [flags]   "
                   "(ffbench <experiment> --help lists its flags)\n"
                   "experiments:\n");
  for (const Experiment& e : kExperiments) {
    std::fprintf(to, "  %-20s %s\n", e.name, e.summary);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(stderr);
    return 2;
  }
  if (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0) {
    print_usage(stdout);
    return 0;
  }
  for (const Experiment& e : kExperiments) {
    if (std::strcmp(argv[1], e.name) != 0) continue;
    try {
      return e.run(argc - 1, argv + 1);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "ffbench %s: %s\n", e.name, ex.what());
      return 1;
    }
  }
  std::fprintf(stderr, "ffbench: unknown experiment '%s'\n", argv[1]);
  print_usage(stderr);
  return 2;
}
