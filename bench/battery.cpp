// Battery-adaptive loss-rate experiment: the degeneracy gate plus the
// adaptive-vs-static ablation, recorded in BENCH_battery.json.
//
//   ./build/bench/ffbench battery [--jobs N] [--seed S] [--out FILE] [--quick]
//
// Two parts:
//
//  1. Degeneracy gate — the full standard sweep grid is run twice, once
//     with the static "flexfetch" policy and once with "flexfetch" replaced
//     by "flexfetch-adaptive:constant@0.25". Every numeric field of every
//     cell must match bit-for-bit: the constant curve *is* the static knob,
//     so any drift means the adaptive plumbing changed decisions it must
//     not touch. A mismatch exits non-zero (CI gates on this).
//
//  2. Adaptive-vs-static ablation — the first two scenarios are run at
//     initial battery fractions {0.05, 0.25, 0.5, 1.0} plus a wall-power
//     row, under the static policy and the three adaptive curves (linear,
//     step, horizon-ratio). The summary records each curve's low-battery
//     energy saving vs static — the headline number for the
//     battery-horizon-adaptive family.
//
// --quick shrinks both parts to one scenario (the CI perf-smoke leg).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "experiments.hpp"
#include "harness.hpp"
#include "policies/factory.hpp"
#include "sim/sweep.hpp"
#include "workloads/scenarios.hpp"

namespace flexfetch::bench {

namespace {

constexpr const char* kConstantSpec = "flexfetch-adaptive:constant@0.25";

struct AblationRow {
  std::string scenario;
  std::string policy;   ///< Factory spec string.
  std::string curve;    ///< Short label ("static", "linear", ...).
  double initial_fraction = 1.0;
  bool wall_power = false;
  double energy_j = 0.0;
  double makespan_s = 0.0;
  double io_time_s = 0.0;
  std::uint64_t net_bytes = 0;
  std::uint64_t disk_bytes = 0;
};

/// The pack the ablation runs on: small enough that a low starting
/// fraction depletes within a scenario, so the horizon actually moves.
energy::BatteryParams ablation_battery(double fraction, bool wall) {
  energy::BatteryParams b;
  b.capacity = Joules{20000.0};
  b.base_drain = Watts{10.0};
  b.initial_fraction = fraction;
  b.on_wall_power = wall;
  return b;
}

}  // namespace

int run_battery(int argc, char** argv) {
  int jobs = 0;
  std::uint64_t seed = 1;
  std::string out_path = "BENCH_battery.json";
  bool quick = false;
  ParsedFlags flags;
  flags.add("jobs", &jobs, "N");
  flags.add("seed", &seed, "S");
  flags.add("out", &out_path, "FILE");
  flags.add("quick", &quick);
  flags.parse(argc, argv);
  jobs = sim::resolve_jobs_detail(jobs).effective;

  auto scenarios = workloads::all_scenarios(seed);
  const std::size_t gate_scenarios = quick ? 1 : scenarios.size();

  // -------------------------------------------------------------------------
  // Part 1: the constant == static degeneracy gate.
  SweepSpec spec;
  spec.policies = policies::standard_policy_names();
  std::vector<sim::SweepCell> static_cells;
  for (std::size_t s = 0; s < gate_scenarios; ++s) {
    auto figure = figure_cells(scenarios[s], spec);
    static_cells.insert(static_cells.end(), figure.begin(), figure.end());
  }
  std::vector<sim::SweepCell> adaptive_cells = static_cells;
  for (auto& cell : adaptive_cells) {
    if (cell.policy == "flexfetch") cell.policy = kConstantSpec;
  }

  std::printf("degeneracy gate: %zu cells x 2 (static vs %s), jobs=%d\n",
              static_cells.size(), kConstantSpec, jobs);
  const auto static_results = sim::run_sweep(static_cells, {.jobs = jobs});
  const auto adaptive_results = sim::run_sweep(adaptive_cells, {.jobs = jobs});
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < static_results.size(); ++i) {
    if (!numerically_identical(static_results[i], adaptive_results[i])) {
      ++mismatches;
      std::fprintf(stderr,
                   "DEGENERACY VIOLATION at cell %zu (%s / %s / %s=%g): "
                   "constant@0.25 differs from the static policy\n",
                   i, static_cells[i].scenario->name.c_str(),
                   static_cells[i].policy.c_str(),
                   static_cells[i].axis.c_str(), static_cells[i].axis_value);
    }
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "degeneracy gate FAILED: %zu/%zu cells differ\n",
                 mismatches, static_results.size());
    return 1;
  }
  std::printf("degeneracy gate: constant@0.25 bit-identical to static across "
              "%zu cells\n",
              static_results.size());

  // -------------------------------------------------------------------------
  // Part 2: adaptive-vs-static battery ablation. mplayer leads: it is the
  // scenario whose energy/loss-rate curve still falls past 0.25 at the
  // chosen network point, so "aggressive near empty" has real headroom
  // over the paper's static 25% knob.
  std::vector<std::size_t> ablation_idx = {1, 0};  // mplayer, grep+make.
  if (quick) ablation_idx.resize(1);
  const std::vector<double> fractions = {0.05, 0.25, 0.5, 1.0};
  const std::vector<std::pair<std::string, std::string>> curves = {
      {"static", "flexfetch"},
      {"linear", "flexfetch-adaptive:linear"},
      {"step", "flexfetch-adaptive:step@0.2:0.05:0.5"},
      {"horizon-ratio", "flexfetch-adaptive:horizon-ratio@1800:0.05:0.5"},
  };

  std::vector<sim::SweepCell> cells;
  std::vector<AblationRow> rows;
  for (const std::size_t s : ablation_idx) {
    for (const auto& [curve, policy] : curves) {
      auto push = [&](double fraction, bool wall) {
        sim::SweepCell cell;
        cell.scenario = &scenarios[s];
        cell.policy = policy;
        cell.config.battery = ablation_battery(fraction, wall);
        // A constrained network point (2 Mbps, the 802.11b low rate):
        // here rule 3's time-loss bound still bites between 0.25 and
        // 0.5, so an adaptive rate moves real decisions. At the default
        // 11 Mbps / 1 ms point the energy/loss-rate curve is flat past
        // ~0.25 and every curve trivially ties the static policy.
        cell.wnic = device::WnicParams{}.with_bandwidth_mbps(2.0);
        cell.axis = wall ? "wall_power" : "initial_fraction";
        cell.axis_value = wall ? 1.0 : fraction;
        cells.push_back(cell);
        AblationRow row;
        row.scenario = scenarios[s].name;
        row.policy = policy;
        row.curve = curve;
        row.initial_fraction = fraction;
        row.wall_power = wall;
        rows.push_back(row);
      };
      for (const double fraction : fractions) push(fraction, false);
      push(1.0, true);  // Plugged in: adaptive curves stop trading.
    }
  }

  std::printf("ablation: %zu scenarios x %zu curves x %zu battery rows = %zu "
              "cells\n",
              ablation_idx.size(), curves.size(), fractions.size() + 1,
              cells.size());
  const auto results = sim::run_sweep(cells, {.jobs = jobs});
  for (std::size_t i = 0; i < results.size(); ++i) {
    rows[i].energy_j = results[i].total_energy().value();
    rows[i].makespan_s = results[i].makespan.value();
    rows[i].io_time_s = results[i].io_time.value();
    rows[i].net_bytes = results[i].net_bytes.value();
    rows[i].disk_bytes = results[i].disk_bytes.value();
  }

  // Headline: each curve's energy saving vs static at the lowest battery.
  auto find_row = [&](const std::string& scenario, const std::string& curve,
                      double fraction, bool wall) -> const AblationRow* {
    for (const AblationRow& r : rows) {
      if (r.scenario == scenario && r.curve == curve && r.wall_power == wall &&
          (wall || r.initial_fraction == fraction)) {
        return &r;
      }
    }
    return nullptr;
  };

  struct Headline {
    std::string scenario;
    std::string curve;
    double static_j = 0.0;
    double adaptive_j = 0.0;
    double savings_pct = 0.0;
  };
  std::vector<Headline> headlines;
  const double low = fractions.front();
  for (const std::size_t s : ablation_idx) {
    const std::string& name = scenarios[s].name;
    const AblationRow* st = find_row(name, "static", low, false);
    if (st == nullptr || st->energy_j <= 0.0) continue;
    for (const auto& [curve, policy] : curves) {
      if (curve == "static") continue;
      const AblationRow* ad = find_row(name, curve, low, false);
      if (ad == nullptr) continue;
      Headline h;
      h.scenario = name;
      h.curve = curve;
      h.static_j = st->energy_j;
      h.adaptive_j = ad->energy_j;
      h.savings_pct = 100.0 * (st->energy_j - ad->energy_j) / st->energy_j;
      headlines.push_back(h);
      std::printf("low battery (%.0f%%), %s: %s %.1f J vs static %.1f J "
                  "(%+.1f%% energy saving)\n",
                  100.0 * low, name.c_str(), curve.c_str(), h.adaptive_j,
                  h.static_j, h.savings_pct);
    }
  }

  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  os << "{\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "  \"degeneracy_gate\": {\"cells\": " << static_results.size()
     << ", \"policy\": \"" << kConstantSpec << "\", \"identical\": true},\n";
  os << "  \"battery\": {\"capacity_j\": 20000, \"base_drain_w\": 10},\n";
  os << "  \"cells\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AblationRow& r = rows[i];
    os << "    {\"scenario\": \"" << r.scenario << "\", \"curve\": \""
       << r.curve << "\", \"policy\": \"" << r.policy
       << "\", \"initial_fraction\": " << r.initial_fraction
       << ", \"wall_power\": " << (r.wall_power ? "true" : "false")
       << ",\n     \"energy_j\": " << r.energy_j
       << ", \"makespan_s\": " << r.makespan_s
       << ", \"io_time_s\": " << r.io_time_s
       << ", \"net_bytes\": " << r.net_bytes
       << ", \"disk_bytes\": " << r.disk_bytes << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"summary\": {\"low_battery_fraction\": " << low
     << ", \"savings_vs_static\": [\n";
  for (std::size_t i = 0; i < headlines.size(); ++i) {
    const Headline& h = headlines[i];
    os << "    {\"scenario\": \"" << h.scenario << "\", \"curve\": \""
       << h.curve << "\", \"static_energy_j\": " << h.static_j
       << ", \"adaptive_energy_j\": " << h.adaptive_j
       << ", \"savings_pct\": " << h.savings_pct << "}"
       << (i + 1 < headlines.size() ? "," : "") << "\n";
  }
  os << "  ]}\n";
  os << "}\n";
  std::printf("wrote %s (%zu ablation cells)\n", out_path.c_str(),
              rows.size());
  return 0;
}

}  // namespace flexfetch::bench
