// Ablations A-H: each isolates one design choice of the scheme or of the
// simulated system and prints how energy (and time) respond to it.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "core/flexfetch.hpp"
#include "experiments.hpp"
#include "harness.hpp"
#include "policies/factory.hpp"
#include "policies/fixed.hpp"
#include "sim/simulator.hpp"
#include "trace/builder.hpp"

namespace flexfetch::bench {

namespace {

/// Runs `policy_name` under `config` on the scenario's programs.
sim::SimResult run_policy(const workloads::ScenarioBundle& scenario,
                          const std::string& policy_name,
                          const sim::SimConfig& config) {
  auto policy = policies::make_policy(policy_name, scenario.profiles,
                                      &scenario.oracle_future);
  sim::Simulator simulator(config, scenario.programs, *policy);
  return simulator.run();
}

// --- A: loss rate ---------------------------------------------------------

void lossrate_sweep(const workloads::ScenarioBundle& scenario, int jobs) {
  std::printf("--- %s ---\n", scenario.name.c_str());
  std::printf("%-12s %14s %14s %14s %14s\n", "loss_rate", "energy[J]",
              "makespan[s]", "disk[J]", "wnic[J]");
  const std::vector<double> rates = {0.0, 0.05, 0.10, 0.25, 0.50, 1.0, 4.0};
  std::vector<sim::SweepCell> cells;
  for (const double rate : rates) {
    sim::SweepCell cell;
    cell.scenario = &scenario;
    cell.policy = "flexfetch";
    cell.loss_rate = rate;
    cell.axis = "loss_rate";
    cell.axis_value = rate;
    cells.push_back(std::move(cell));
  }
  const auto results = sim::run_sweep(cells, {.jobs = jobs});
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const auto& r = results[i];
    std::printf("%-12.2f %14.1f %14.1f %14.1f %14.1f\n", rates[i],
                r.total_energy().value(), r.makespan.value(), r.disk_energy().value(),
                r.wnic_energy().value());
  }
  std::printf("\n");
}

// --- B: adaptation mechanisms ---------------------------------------------

struct Variant {
  const char* label;
  core::FlexFetchConfig config;
};

std::vector<Variant> adaptation_variants() {
  std::vector<Variant> out;
  out.push_back({"full", core::FlexFetchConfig{}});
  {
    core::FlexFetchConfig c;
    c.adapt_splice = false;
    out.push_back({"-splice", c});
  }
  {
    core::FlexFetchConfig c;
    c.adapt_stage_audit = false;
    out.push_back({"-stage-audit", c});
  }
  {
    core::FlexFetchConfig c;
    c.adapt_cache_filter = false;
    out.push_back({"-cache-filter", c});
  }
  {
    core::FlexFetchConfig c;
    c.adapt_free_rider = false;
    out.push_back({"-free-rider", c});
  }
  out.push_back({"none (static)", core::FlexFetchConfig::static_variant()});
  return out;
}

void adaptation_scenario(const workloads::ScenarioBundle& scenario) {
  std::printf("--- %s ---\n", scenario.name.c_str());
  std::printf("%-16s %12s %12s %9s %9s %9s %9s\n", "variant", "energy[J]",
              "makespan", "splices", "audits", "freerides", "filtered");
  for (const auto& v : adaptation_variants()) {
    core::FlexFetchPolicy policy(v.config, scenario.profiles);
    sim::Simulator simulator(sim::SimConfig{}, scenario.programs, policy);
    const auto r = simulator.run();
    const auto& s = policy.stats();
    std::printf("%-16s %12.1f %12.1f %9llu %9llu %9llu %9llu\n", v.label,
                r.total_energy().value(), r.makespan.value(),
                static_cast<unsigned long long>(s.splice_switches),
                static_cast<unsigned long long>(s.audit_overrides),
                static_cast<unsigned long long>(s.free_rider_redirects),
                static_cast<unsigned long long>(s.cache_filtered_requests));
  }
  std::printf("\n");
}

// --- C: stage length ------------------------------------------------------

void stage_sweep(const workloads::ScenarioBundle& scenario) {
  std::printf("--- %s ---\n", scenario.name.c_str());
  std::printf("%-14s %10s %12s %12s %9s %9s\n", "stage_len[s]", "stages",
              "energy[J]", "makespan[s]", "audits", "splices");
  for (const double len : {10.0, 20.0, 40.0, 80.0, 160.0}) {
    core::FlexFetchConfig config;
    config.stage_min_length = Seconds{len};
    core::FlexFetchPolicy policy(config, scenario.profiles);
    sim::Simulator simulator(sim::SimConfig{}, scenario.programs, policy);
    const auto r = simulator.run();
    std::printf("%-14.0f %10llu %12.1f %12.1f %9llu %9llu\n", len,
                static_cast<unsigned long long>(policy.stats().stages_entered),
                r.total_energy().value(), r.makespan.value(),
                static_cast<unsigned long long>(policy.stats().audit_overrides),
                static_cast<unsigned long long>(policy.stats().splice_switches));
  }
  std::printf("\n");
}

// --- E: C-SCAN vs FIFO ----------------------------------------------------

/// Scatter-writer: dirties pages across many files in shuffled order, then
/// idles so the background flusher writes everything back in one batch.
trace::Trace scatter_write_trace(std::size_t files, std::uint64_t seed) {
  Rng rng(seed);
  trace::TraceBuilder b("scatter");
  b.process(90, 90);
  std::vector<trace::Inode> order(files);
  for (std::size_t i = 0; i < files; ++i) order[i] = 50'000 + i;
  for (std::size_t i = files; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_int(0, i - 1)]);
  }
  for (const auto ino : order) {
    b.write(ino, Bytes{0}, 8 * kKiB);
    b.think(Seconds{0.002});
  }
  b.think(Seconds{45.0});          // Let the flusher drain the dirty set.
  b.read(99'999, Bytes{0}, Bytes{4096});  // Final marker read.
  return b.build();
}

sim::SimResult run_scatter(bool use_cscan, std::size_t files) {
  sim::SimConfig config;
  config.disk.seek_model = device::DiskParams::SeekModel::kDistance;
  config.use_cscan = use_cscan;
  policies::DiskOnlyPolicy policy;
  return sim::simulate(config, scatter_write_trace(files, 7), policy);
}

// --- F: replica synchronization -------------------------------------------

sim::SimResult run_with_sync(const workloads::ScenarioBundle& scenario,
                             const std::string& policy_name,
                             double sync_interval) {
  sim::SimConfig config;
  if (sync_interval > 0) {
    config.enable_sync = true;
    config.sync.interval = Seconds{sync_interval};
  }
  return run_policy(scenario, policy_name, config);
}

void sync_sweep(const workloads::ScenarioBundle& scenario,
                const std::string& policy_name) {
  std::printf("--- %s under %s ---\n", scenario.name.c_str(),
              policy_name.c_str());
  std::printf("%-14s %12s %12s %12s %10s %12s\n", "interval[s]", "energy[J]",
              "overhead[%]", "sync[MB]", "batches", "makespan[s]");
  const double base =
      run_with_sync(scenario, policy_name, 0).total_energy().value();
  std::printf("%-14s %12.1f %12s %12s %10s %12s\n", "off", base, "-", "-",
              "-", "-");
  for (const double interval : {30.0, 120.0, 600.0}) {
    const auto r = run_with_sync(scenario, policy_name, interval);
    std::printf("%-14.0f %12.1f %12.1f %12.2f %10llu %12.1f\n", interval,
                r.total_energy().value(),
                (r.total_energy().value() / base - 1.0) * 100.0,
                r.sync_bytes.as_double() / 1e6,
                static_cast<unsigned long long>(r.sync_batches),
                r.makespan.value());
  }
  std::printf("\n");
}

// --- G: spin-down timeout -------------------------------------------------

sim::SimResult run_with_timeout(const workloads::ScenarioBundle& scenario,
                                const std::string& policy_name,
                                double timeout, bool adaptive) {
  sim::SimConfig config;
  if (timeout > 0) config.disk.spin_down_timeout = Seconds{timeout};
  config.adaptive_disk_timeout = adaptive;
  return run_policy(scenario, policy_name, config);
}

void timeout_sweep(const workloads::ScenarioBundle& scenario,
                   const std::string& policy_name) {
  std::printf("--- %s under %s ---\n", scenario.name.c_str(),
              policy_name.c_str());
  std::printf("%-14s %12s %10s %12s\n", "timeout[s]", "energy[J]", "spinups",
              "makespan[s]");
  for (const double timeout : {5.0, 10.0, 20.0, 40.0, 80.0}) {
    const auto r = run_with_timeout(scenario, policy_name, timeout, false);
    std::printf("%-14.0f %12.1f %10llu %12.1f\n", timeout, r.total_energy().value(),
                static_cast<unsigned long long>(r.disk_counters.spin_ups),
                r.makespan.value());
  }
  const auto r = run_with_timeout(scenario, policy_name, 0, true);
  std::printf("%-14s %12.1f %10llu %12.1f\n", "adaptive", r.total_energy().value(),
              static_cast<unsigned long long>(r.disk_counters.spin_ups),
              r.makespan.value());
  std::printf("\n");
}

}  // namespace

// Ablation A — the user-specified maximum tolerable performance loss rate
// (Section 2.2). The paper fixes it at 25%; this sweeps it to show the
// energy/performance trade-off it controls.
int run_ablation_lossrate(int argc, char** argv) {
  int jobs = 0;
  ParsedFlags flags;
  flags.add("jobs", &jobs, "N");
  flags.parse(argc, argv);
  std::printf("=== Ablation A: maximum tolerable performance loss rate ===\n");
  std::printf("(paper uses 25%%; rule 3 of Section 2.2)\n\n");
  lossrate_sweep(workloads::scenario_grep_make(1), jobs);
  lossrate_sweep(workloads::scenario_mplayer(1), jobs);
  return 0;
}

// Ablation B — the four run-time adaptation mechanisms of Section 2.3,
// disabled one at a time on the two scenarios that stress them: the forced
// disk spin-up (Figure 4) and the stale profile (Figure 5).
int run_ablation_adaptation(int argc, char** argv) {
  ParsedFlags{}.parse(argc, argv);
  std::printf("=== Ablation B: Section 2.3 adaptation mechanisms ===\n\n");
  adaptation_scenario(workloads::scenario_forced_spinup(1));
  adaptation_scenario(workloads::scenario_stale_acroread(1));
  adaptation_scenario(workloads::scenario_thunderbird(1));
  return 0;
}

// Ablation C — the evaluation-stage length (Section 2.2). The paper uses
// 40 s: long enough for stable estimates, short enough for timely
// correction.
int run_ablation_stage(int argc, char** argv) {
  ParsedFlags{}.parse(argc, argv);
  std::printf("=== Ablation C: evaluation-stage length ===\n");
  std::printf("(paper uses 40 s)\n\n");
  stage_sweep(workloads::scenario_grep_make(1));
  stage_sweep(workloads::scenario_stale_acroread(1));
  return 0;
}

// Ablation D — how close does FlexFetch, working from a one-run-old
// profile, get to an Oracle that sees the exact future burst structure?
// Reported for every Section 3.3 scenario alongside the fixed policies.
int run_ablation_oracle(int argc, char** argv) {
  int jobs = 0;
  ParsedFlags flags;
  flags.add("jobs", &jobs, "N");
  flags.parse(argc, argv);
  std::printf("=== Ablation D: FlexFetch vs clairvoyant Oracle ===\n\n");
  std::printf("%-24s %12s %12s %12s %12s %10s\n", "scenario", "FlexFetch",
              "Oracle", "Disk-only", "WNIC-only", "FF/Oracle");
  const auto wnic = device::WnicParams::cisco_aironet350();
  const auto scenarios = workloads::all_scenarios(1);
  std::vector<const workloads::ScenarioBundle*> refs;
  for (const auto& s : scenarios) refs.push_back(&s);
  const auto cells = sim::make_grid(
      refs, {"flexfetch", "oracle", "disk-only", "wnic-only"}, {wnic});
  const auto results = sim::run_sweep(cells, {.jobs = jobs});
  for (std::size_t i = 0; i < results.size(); i += 4) {
    const double ff = results[i].total_energy().value();
    const double oracle = results[i + 1].total_energy().value();
    std::printf("%-24s %12.1f %12.1f %12.1f %12.1f %10.3f\n",
                cells[i].scenario->name.c_str(), ff, oracle,
                results[i + 2].total_energy().value(), results[i + 3].total_energy().value(),
                ff / oracle);
  }
  std::printf("\n");
  return 0;
}

// Ablation E — the C-SCAN I/O scheduler vs FIFO dispatch, under the
// distance-dependent seek model. The paper's simulator "emulates ... the
// C-SCAN I/O request scheduling mechanism" (Section 3.1); this shows what
// the elevator buys on a seek-heavy workload: write-back batches of pages
// dirtied across many scattered files.
int run_ablation_cscan(int argc, char** argv) {
  ParsedFlags{}.parse(argc, argv);
  std::printf("=== Ablation E: C-SCAN elevator vs FIFO dispatch ===\n");
  std::printf("(distance-dependent seek model; scattered write-back batch)\n\n");
  std::printf("%-8s %12s %12s %14s %14s %10s\n", "files", "order",
              "energy[J]", "seek-time[s]", "io-time[s]", "merges");
  for (const std::size_t files : {200u, 800u, 2000u}) {
    for (const bool cscan : {false, true}) {
      const auto r = run_scatter(cscan, files);
      std::printf("%-8zu %12s %12.1f %14.3f %14.3f %10llu\n", files,
                  cscan ? "C-SCAN" : "FIFO", r.total_energy().value(),
                  r.disk_counters.seek_time.value(), r.io_time.value(),
                  static_cast<unsigned long long>(r.scheduler_stats.merged));
    }
  }
  std::printf("\n");
  return 0;
}

// Ablation F — the cost of replica synchronization, which the paper's
// evaluation assumes away ("data sets ... are available on both local hard
// disk and remote server and synced", Section 3.1; Section 5 defers the
// study). With the hoard/sync substrate enabled, local writes must be
// shipped to the server over the WNIC: this quantifies the energy overhead
// across sync intervals on the write-heavy programming workload.
int run_ablation_sync(int argc, char** argv) {
  ParsedFlags{}.parse(argc, argv);
  std::printf("=== Ablation F: replica synchronization overhead ===\n\n");
  sync_sweep(workloads::scenario_grep_make(1), "flexfetch");
  sync_sweep(workloads::scenario_grep_make(1), "disk-only");
  return 0;
}

// Ablation G — the disk spin-down timeout (the paper's Section 4 related
// work: fixed thresholds [6] vs adaptive ones [7]). Swept on the two
// workloads at the opposite ends of the idle-gap spectrum: Thunderbird's
// email phase (~22 s gaps, straddling the default) and mplayer's 40 s
// refills, under Disk-only and under FlexFetch.
int run_ablation_timeout(int argc, char** argv) {
  ParsedFlags{}.parse(argc, argv);
  std::printf("=== Ablation G: disk spin-down timeout (fixed vs adaptive) ===\n\n");
  timeout_sweep(workloads::scenario_thunderbird(1), "disk-only");
  timeout_sweep(workloads::scenario_mplayer(1), "disk-only");
  timeout_sweep(workloads::scenario_thunderbird(1), "flexfetch");
  return 0;
}

// Ablation H — the scheme's own overhead, the question the paper's
// Section 5 defers ("time, space, and energy overhead of applying the
// scheme"). Every estimator replay, shadow replay and tracked syscall is
// counted and charged a configurable CPU cost; this compares the scheme's
// spend against the I/O energy it saves over the better fixed policy.
int run_ablation_overhead(int argc, char** argv) {
  ParsedFlags{}.parse(argc, argv);
  std::printf("=== Ablation H: scheme overhead vs energy saved ===\n\n");
  std::printf("%-24s %10s %10s %10s %12s %14s %12s\n", "scenario", "est-ops",
              "shadow", "syscalls", "overhead[J]", "saving[J]", "ratio");
  const auto wnic = device::WnicParams::cisco_aironet350();
  for (const auto& scenario : workloads::all_scenarios(1)) {
    core::FlexFetchPolicy ff(core::FlexFetchConfig{}, scenario.profiles);
    sim::Simulator simulator(sim::SimConfig{}, scenario.programs, ff);
    const auto r = simulator.run();

    const auto fixed_energy = [&](const char* policy) {
      sim::SweepCell cell;
      cell.scenario = &scenario;
      cell.policy = policy;
      cell.wnic = wnic;
      return sim::run_cell(cell).total_energy().value();
    };
    const double disk_e = fixed_energy("disk-only");
    const double net_e = fixed_energy("wnic-only");
    const double saving = std::min(disk_e, net_e) - r.total_energy().value();
    const auto& s = ff.stats();
    const double overhead = ff.overhead_energy().value();
    std::printf("%-24s %10llu %10llu %10llu %12.4f %14.1f %12s\n",
                scenario.name.c_str(),
                static_cast<unsigned long long>(s.estimator_requests_replayed),
                static_cast<unsigned long long>(s.shadow_requests_replayed),
                static_cast<unsigned long long>(s.syscalls_tracked), overhead,
                saving,
                overhead > 0 && saving > 0
                    ? strprintf("1:%.0f", saving / overhead).c_str()
                    : "-");
  }
  std::printf("\n(overhead charged at %.1f uJ per scheme operation — a ~1 us"
              " slice of a 2 W mobile CPU)\n",
              core::FlexFetchConfig{}.overhead_per_op.value() * 1e6);
  return 0;
}

}  // namespace flexfetch::bench
