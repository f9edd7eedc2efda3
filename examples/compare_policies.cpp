// Runs every Section 3.3 scenario under the full policy set at the default
// network conditions (11 Mbps, 1 ms) and prints an energy comparison table.
// The (scenario, policy) grid is fanned out by the parallel sweep engine.
//
//   ./build/examples/compare_policies [seed] [--jobs N] [--metrics]
//                                     [--trace-out FILE]
//
// --metrics appends a per-policy telemetry metrics summary (merged across
// scenarios); --trace-out writes a Chrome trace_event JSON of the first
// grid cell, loadable in chrome://tracing or https://ui.perfetto.dev.

#include <cctype>
#include <cstdio>
#include <cstring>

#include "common/format.hpp"
#include "harness.hpp"
#include "sim/sweep.hpp"
#include "workloads/scenarios.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [seed] [--jobs N] [--metrics] [--trace-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flexfetch;
  std::uint64_t seed = 1;
  int jobs = 0;
  bool metrics = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], jobs)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::isdigit(static_cast<unsigned char>(argv[i][0]))) {
      if (!bench::parse_number(argv[i], seed)) return usage(argv[0]);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i]);
      return usage(argv[0]);
    }
  }

  const std::vector<std::string> policy_names = {
      "flexfetch", "flexfetch-static", "bluefs", "disk-only", "wnic-only",
      "oracle"};

  const auto scenarios = workloads::all_scenarios(seed);
  std::vector<const workloads::ScenarioBundle*> refs;
  refs.reserve(scenarios.size());
  for (const auto& s : scenarios) refs.push_back(&s);

  auto cells = sim::make_grid(refs, policy_names,
                              {device::WnicParams::cisco_aironet350()});
  bench::enable_telemetry(cells, metrics, trace_out);
  const auto results = sim::run_sweep(cells, {.jobs = jobs});

  std::size_t i = 0;
  for (const auto& scenario : scenarios) {
    std::printf("=== %s ===\n", scenario.name.c_str());
    std::printf("%-18s %12s %12s %12s %10s\n", "policy", "energy", "disk",
                "wnic", "makespan");
    for (std::size_t p = 0; p < policy_names.size(); ++p) {
      const sim::SimResult& r = results[i++];
      std::printf("%-18s %12s %12s %12s %10s\n", r.policy.c_str(),
                  format_joules(r.total_energy()).c_str(),
                  format_joules(r.disk_energy()).c_str(),
                  format_joules(r.wnic_energy()).c_str(),
                  format_seconds(r.makespan).c_str());
    }
    std::printf("\n");
  }

  if (metrics) {
    std::printf("telemetry metrics, merged per policy across %zu scenarios\n",
                scenarios.size());
    bench::print_metrics_by_policy(policy_names, cells, results);
  }

  if (!trace_out.empty() && !results.empty() &&
      !bench::write_cell_trace(trace_out, cells[0], results[0])) {
    return 1;
  }
  return 0;
}
