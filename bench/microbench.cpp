// Performance records of the simulation substrates, each with a gate:
//
//  * the telemetry overhead contract (near-zero when disabled): the same
//    full simulation is timed with telemetry off, metrics-on and ring
//    capture in interleaved rounds, the results are checked for equality,
//    and the medians are recorded in BENCH_telemetry.json (path
//    overridable with --telemetry-out FILE);
//  * the arena hot-path speedups (2Q cache, C-SCAN, full-sim cell
//    throughput) against the pre-rewrite numbers, recorded in
//    BENCH_hotpath.json (path overridable with --hotpath-out FILE).
//
// Per-layer costs of the simulator come from the perfbench program
// (`python3 perfbench/run.py --trace 1`), not from here.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "experiments.hpp"
#include "harness.hpp"
#include "os/buffer_cache.hpp"
#include "os/io_scheduler.hpp"
#include "policies/fixed.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "workloads/generators.hpp"
#include "workloads/scenarios.hpp"

namespace flexfetch::bench {

namespace {

/// Wall-clock of one full grep simulation, in ms, split at the
/// Simulator's phase boundaries. finish() is where metrics-on telemetry
/// folds its registry; teardown frees what the cell built.
constexpr std::array<const char*, 4> kPhaseNames = {"ctor", "loop", "finish",
                                                   "teardown"};
using SimMillis = std::array<double, kPhaseNames.size()>;

double total(const SimMillis& m) {
  return std::accumulate(m.begin(), m.end(), 0.0);
}

SimMillis sim_millis(const sim::SimConfig& config, const trace::Trace& trace,
                     sim::SimResult* out) {
  using Clock = std::chrono::steady_clock;
  const auto ms = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  policies::DiskOnlyPolicy policy;
  sim::SimResult result;
  const auto t0 = Clock::now();
  Clock::time_point t1, t2, t3;
  {
    std::vector<sim::ProgramSpec> programs;
    programs.push_back(sim::ProgramSpec{.trace = trace, .name = trace.name()});
    sim::Simulator simulator(config, std::move(programs), policy);
    t1 = Clock::now();
    simulator.start();
    while (simulator.step()) {
    }
    t2 = Clock::now();
    result = simulator.finish();
    t3 = Clock::now();
  }
  const auto t4 = Clock::now();
  if (out != nullptr) *out = std::move(result);
  return {ms(t0, t1), ms(t1, t2), ms(t2, t3), ms(t3, t4)};
}

/// The enforced overhead budget for metrics-on telemetry, in percent of
/// the telemetry-off wall-clock. CI runs this as a failing gate.
constexpr double kMetricsOverheadBudgetPct = 5.0;

/// Rounds of the overhead measurement. Each round runs off, metrics-on,
/// ring, off back to back, so host speed drift between rounds cancels out
/// of that round's ratios.
constexpr int kOverheadRounds = 41;

/// Times telemetry off vs metrics-on (the production default) vs full
/// ring capture, asserts identical simulation outcomes, records all three
/// in a JSON file diffable across PRs, and fails when metrics-on overhead
/// blows the budget. The overhead is the median over rounds of each
/// round's on-time / mean of its two off-times.
int record_telemetry_overhead(const std::string& out_path) {
  const auto trace = workloads::grep_trace();
  sim::SimConfig off;
  sim::SimConfig metrics_on;
  metrics_on.telemetry.enabled = true;  // ring_capacity 0: metrics-only
  sim::SimConfig ring_on;
  ring_on.telemetry.enabled = true;
  ring_on.telemetry.ring_capacity = telemetry::kDefaultRingCapacity;

  sim::SimResult r_off, r_metrics, r_ring;
  std::vector<double> off_ms, metrics_ms, ring_ms, metrics_ratio, ring_ratio;
  // Per phase: off and metrics-on ms, and the phase's share of the
  // round's overhead in percent of the off time.
  constexpr std::size_t kPhases = kPhaseNames.size();
  std::array<std::vector<double>, kPhases> phase_off, phase_on, phase_pct;
  for (int round = 0; round < kOverheadRounds; ++round) {
    const SimMillis off_a = sim_millis(off, trace, &r_off);
    const SimMillis on = sim_millis(metrics_on, trace, &r_metrics);
    const double ring = total(sim_millis(ring_on, trace, &r_ring));
    const SimMillis off_b = sim_millis(off, trace, nullptr);
    const double off_mean = 0.5 * (total(off_a) + total(off_b));
    off_ms.push_back(off_mean);
    metrics_ms.push_back(total(on));
    ring_ms.push_back(ring);
    metrics_ratio.push_back(total(on) / off_mean);
    ring_ratio.push_back(ring / off_mean);
    for (std::size_t p = 0; p < kPhases; ++p) {
      const double off_p = 0.5 * (off_a[p] + off_b[p]);
      phase_off[p].push_back(off_p);
      phase_on[p].push_back(on[p]);
      phase_pct[p].push_back((on[p] - off_p) / off_mean * 100.0);
    }
  }

  if (!numerically_identical(r_off, r_metrics) ||
      !numerically_identical(r_off, r_ring)) {
    std::fprintf(stderr,
                 "TELEMETRY PERTURBATION: enabling telemetry changed the "
                 "simulation result\n");
    return 1;
  }

  const auto median = [](const std::vector<double>& v) { return percentile(v, 50.0); };
  const double overhead_pct = (median(metrics_ratio) - 1.0) * 100.0;
  const double ring_overhead_pct = (median(ring_ratio) - 1.0) * 100.0;
  std::printf("telemetry overhead (grep, disk-only, median of %d rounds): "
              "off=%.2f ms  metrics-on=%.2f ms (%+.1f%%)  ring=%.2f ms "
              "(%+.1f%%), results identical\n",
              kOverheadRounds, median(off_ms), median(metrics_ms), overhead_pct,
              median(ring_ms), ring_overhead_pct);
  std::printf("  metrics-on by phase (off -> on ms, share of overhead):");
  for (std::size_t p = 0; p < kPhases; ++p) {
    std::printf("  %s %.3f -> %.3f (%+.2f%%)", kPhaseNames[p],
                median(phase_off[p]), median(phase_on[p]),
                median(phase_pct[p]));
  }
  std::printf("\n");

  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  os << "{\n";
  os << "  \"scenario\": \"grep (disk-only)\",\n";
  os << "  \"rounds\": " << kOverheadRounds << ",\n";
  os << "  \"telemetry_off_ms\": " << median(off_ms) << ",\n";
  os << "  \"telemetry_on_ms\": " << median(metrics_ms) << ",\n";
  os << "  \"overhead_pct\": " << overhead_pct << ",\n";
  os << "  \"overhead_budget_pct\": " << kMetricsOverheadBudgetPct << ",\n";
  os << "  \"ring_on_ms\": " << median(ring_ms) << ",\n";
  os << "  \"ring_overhead_pct\": " << ring_overhead_pct << ",\n";
  os << "  \"metrics_on_phases\": [\n";
  for (std::size_t p = 0; p < kPhases; ++p) {
    os << "    {\"phase\": \"" << kPhaseNames[p]
       << "\", \"off_ms\": " << median(phase_off[p])
       << ", \"on_ms\": " << median(phase_on[p])
       << ", \"overhead_pct\": " << median(phase_pct[p]) << "}"
       << (p + 1 < kPhases ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"events_emitted\": "
     << r_ring.metrics.value("telemetry.events_emitted") << ",\n";
  os << "  \"results_identical\": true\n";
  os << "}\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (overhead_pct >= kMetricsOverheadBudgetPct) {
    std::fprintf(stderr,
                 "TELEMETRY OVERHEAD GATE: metrics-on costs %+.1f%% "
                 "(budget < %.1f%%)\n",
                 overhead_pct, kMetricsOverheadBudgetPct);
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Arena hot-path speedup record (BENCH_hotpath.json).
//
// The "before" figures were measured immediately prior to the arena rewrite
// (list-based 2Q cache, std::map C-SCAN, per-run trace scans) on the same
// machine and with the same workload loops as the live "after" measurement
// below, Release build, -O2 -flto. They are recorded constants so every
// rerun reports the delta against the same pre-rewrite state.

struct HotpathBefore {
  double cache_fill_evict_mops = 4.188;
  double cache_lookup_hit_mops = 134.592;
  double cscan_mixed_mops = 47.628;
  double full_sim_grep_ms = 2.710;        // grep / disk-only, min of 5.
  std::uint64_t full_sim_grep_syscalls = 6399;
  double cell_total_ms = 107.18;          // 5 scenarios x 2 policies, min of 3.
  double cell_syscalls_per_sec = 522579;
};

/// Measures the current hot paths with the pre-rewrite workload loops and
/// writes before/after/speedup tuples to `out_path`.
int record_hotpath(const std::string& out_path) {
  using Clock = std::chrono::steady_clock;
  const HotpathBefore before;

  // 1. 2Q fill/evict steady state (capacity 1024, sequential page stream).
  double fill_evict_mops = 0.0;
  {
    os::BufferCacheConfig config;
    config.capacity_pages = 1024;
    os::BufferCache cache(config);
    std::vector<os::DirtyPage> flushed;
    flushed.reserve(16);
    constexpr std::uint64_t kOps = 4'000'000;
    for (std::uint64_t i = 0; i < 2048; ++i) cache.fill(os::PageId{1, i}, Seconds{0.0});
    const auto t0 = Clock::now();
    for (std::uint64_t i = 2048; i < kOps; ++i) {
      cache.fill(os::PageId{1, i}, Seconds{0.0}, flushed);
    }
    fill_evict_mops = static_cast<double>(kOps - 2048) / seconds_since(t0) / 1e6;
  }

  // 2. 2Q lookup hit.
  double lookup_hit_mops = 0.0;
  {
    os::BufferCache cache;
    for (std::uint64_t i = 0; i < 1000; ++i) cache.fill(os::PageId{1, i}, Seconds{0.0});
    constexpr std::uint64_t kOps = 20'000'000;
    std::uint64_t hits = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      hits += cache.lookup(os::PageId{1, i % 1000}, Seconds{0.0}) ? 1u : 0u;
    }
    const double s = seconds_since(t0);
    // A volatile store is observable, so the loop that computes `hits`
    // (and every lookup in it) cannot be optimised away.
    [[maybe_unused]] volatile std::uint64_t sink = hits;
    lookup_hit_mops = static_cast<double>(kOps) / s / 1e6;
  }

  // 3. C-SCAN submit/dispatch, mixed merge workload (3 of 4 submissions
  //    extend the previous request, 1 of 4 jumps).
  double cscan_mops = 0.0;
  {
    os::CScanScheduler sched;
    constexpr std::uint64_t kOps = 4'000'000;
    Bytes lba = Bytes{0};
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      if (i % 4 == 0) lba = Bytes{(i * 7919) % (1ull << 30)};
      sched.submit(device::DeviceRequest{.lba = lba, .size = Bytes{4096}});
      lba += Bytes{4096};
      if (sched.pending() > 64) sched.dispatch();
    }
    while (sched.dispatch()) {
    }
    cscan_mops = static_cast<double>(kOps) / seconds_since(t0) / 1e6;
  }

  // 4. Full simulation, grep / disk-only (min of 5).
  double full_sim_ms = 0.0;
  std::uint64_t full_sim_syscalls = 0;
  {
    const auto trace = workloads::grep_trace();
    double best = 1e18;
    for (int r = 0; r < 5; ++r) {
      policies::DiskOnlyPolicy policy;
      const auto t0 = Clock::now();
      const auto res = sim::simulate(sim::SimConfig{}, trace, policy);
      best = std::min(best, seconds_since(t0));
      full_sim_syscalls = res.syscalls;
    }
    full_sim_ms = best * 1e3;
  }

  // 5. Full-sim cell throughput: every scenario x {flexfetch, disk-only},
  //    each cell min of 3 — the headline number for the arena rewrite.
  double cell_total_ms = 0.0;
  double cell_syscalls_per_sec = 0.0;
  {
    const auto scenarios = workloads::all_scenarios(1);
    const auto wnic = device::WnicParams::cisco_aironet350();
    double total_best = 0.0;
    std::uint64_t total_syscalls = 0;
    for (const auto& scenario : scenarios) {
      for (const char* policy : {"flexfetch", "disk-only"}) {
        sim::SweepCell cell;
        cell.scenario = &scenario;
        cell.policy = policy;
        cell.wnic = wnic;
        double best = 1e18;
        std::uint64_t syscalls = 0;
        for (int r = 0; r < 3; ++r) {
          const auto t0 = Clock::now();
          syscalls = sim::run_cell(cell).syscalls;
          best = std::min(best, seconds_since(t0));
        }
        total_best += best;
        total_syscalls += syscalls;
      }
    }
    cell_total_ms = total_best * 1e3;
    cell_syscalls_per_sec = static_cast<double>(total_syscalls) / total_best;
  }

  std::printf(
      "hotpath: fill/evict %.2f Mops (%.2fx)  lookup %.2f Mops (%.2fx)  "
      "cscan %.2f Mops (%.2fx)  grep sim %.3f ms (%.2fx)  "
      "10-cell %.2f ms (%.2fx)\n",
      fill_evict_mops, fill_evict_mops / before.cache_fill_evict_mops,
      lookup_hit_mops, lookup_hit_mops / before.cache_lookup_hit_mops,
      cscan_mops, cscan_mops / before.cscan_mixed_mops, full_sim_ms,
      before.full_sim_grep_ms / full_sim_ms, cell_total_ms,
      before.cell_total_ms / cell_total_ms);

  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  // Every entry: before (pre-arena), after (measured now), speedup (>1 is
  // an improvement regardless of the unit's direction).
  os << "{\n";
  os << "  \"note\": \"before = pre-arena-rewrite measurement on the same "
        "machine and workload loops; Release -O2\",\n";
  os << "  \"benchmarks\": [\n";
  const auto row = [&os](const char* name, const char* unit, double b,
                         double a, double speedup, bool last) {
    os << "    {\"name\": \"" << name << "\", \"unit\": \"" << unit
       << "\", \"before\": " << b << ", \"after\": " << a
       << ", \"speedup\": " << speedup << "}" << (last ? "\n" : ",\n");
  };
  row("cache_fill_evict", "Mops/s", before.cache_fill_evict_mops,
      fill_evict_mops, fill_evict_mops / before.cache_fill_evict_mops, false);
  row("cache_lookup_hit", "Mops/s", before.cache_lookup_hit_mops,
      lookup_hit_mops, lookup_hit_mops / before.cache_lookup_hit_mops, false);
  row("cscan_mixed_merge", "Mops/s", before.cscan_mixed_mops, cscan_mops,
      cscan_mops / before.cscan_mixed_mops, false);
  row("full_sim_grep_disk_only", "ms", before.full_sim_grep_ms, full_sim_ms,
      before.full_sim_grep_ms / full_sim_ms, false);
  row("cell_throughput_10_cells", "ms", before.cell_total_ms, cell_total_ms,
      before.cell_total_ms / cell_total_ms, true);
  os << "  ],\n";
  os << "  \"full_sim_grep_syscalls\": " << full_sim_syscalls << ",\n";
  os << "  \"cell_syscalls_per_sec_before\": " << before.cell_syscalls_per_sec
     << ",\n";
  os << "  \"cell_syscalls_per_sec_after\": " << cell_syscalls_per_sec << "\n";
  os << "}\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (full_sim_syscalls != before.full_sim_grep_syscalls) {
    std::fprintf(stderr,
                 "HOTPATH PERTURBATION: grep simulation now issues %llu "
                 "syscalls (expected %llu)\n",
                 static_cast<unsigned long long>(full_sim_syscalls),
                 static_cast<unsigned long long>(before.full_sim_grep_syscalls));
    return 1;
  }
  return 0;
}

}  // namespace

int run_microbench(int argc, char** argv) {
  std::string telemetry_out = "BENCH_telemetry.json";
  std::string hotpath_out = "BENCH_hotpath.json";
  ParsedFlags flags;
  flags.add("telemetry-out", &telemetry_out, "FILE");
  flags.add("hotpath-out", &hotpath_out, "FILE");
  flags.parse(argc, argv);

  if (const int rc = record_telemetry_overhead(telemetry_out); rc != 0) {
    return rc;
  }
  return record_hotpath(hotpath_out);
}

}  // namespace flexfetch::bench
