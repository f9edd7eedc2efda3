// Entry points of the ffbench experiments, one per registry row in
// ffbench.cpp. Each takes the arguments after `ffbench`: argv[0] is the
// experiment's name and argv[1..argc) its flags, which it parses with its
// own ParsedFlags table. The return value is the process exit status.
#pragma once

namespace flexfetch::bench {

// paper.cpp — Figures 1-5 (looked up by argv[0]) and Tables 1-3.
int run_figure(int argc, char** argv);
int run_tables(int argc, char** argv);

// ablations.cpp
int run_ablation_lossrate(int argc, char** argv);
int run_ablation_adaptation(int argc, char** argv);
int run_ablation_stage(int argc, char** argv);
int run_ablation_oracle(int argc, char** argv);
int run_ablation_cscan(int argc, char** argv);
int run_ablation_sync(int argc, char** argv);
int run_ablation_timeout(int argc, char** argv);
int run_ablation_overhead(int argc, char** argv);

int run_sweep(int argc, char** argv);       // sweep.cpp
int run_battery(int argc, char** argv);     // battery.cpp
int run_contention(int argc, char** argv);  // contention.cpp
int run_fleet(int argc, char** argv);       // fleet.cpp
int run_microbench(int argc, char** argv);  // microbench.cpp

}  // namespace flexfetch::bench
