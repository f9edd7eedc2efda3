// paper-grid: the 340-cell standard evaluation grid at full scale — the five
// paper scenarios x {flexfetch, bluefs, disk-only, wnic-only} x 17 WNIC
// points — with telemetry and faults off. Most of its time is the event
// loop (VFS/2Q, C-SCAN, devices, FlexFetch estimator replays); set-up is a
// small share of a cell.
//
// The scenarios are the paper-calibrated seed-1 bundles EXPERIMENTS.md
// reports; the benchmark seed draws the on-disk file layout of every cell.
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "common.hpp"
#include "common/units.hpp"
#include "os/buffer_cache.hpp"
#include "os/vfs.hpp"

namespace perfbench {
namespace {

using namespace flexfetch;

// The standard grid's WNIC points: latency at the default 11 Mb/s, then
// bandwidth at the default 1 ms.
const std::vector<double> kLatenciesMs = {0, 1, 3, 5, 7, 9, 12, 15, 20, 30, 50, 70, 100};
const std::vector<double> kBandwidthsMbps = {1, 2, 5.5, 11};
const std::vector<std::string> kPolicies = {"flexfetch", "bluefs", "disk-only",
                                            "wnic-only"};

struct GridInputs {
  std::vector<workloads::ScenarioBundle> bundles;
  std::vector<std::uint64_t> bundle_syscalls;
  std::vector<sim::SweepCell> cells;
  std::vector<std::size_t> cell_scenario;
  std::vector<std::size_t> cell_point;
};

std::size_t point_count() { return kLatenciesMs.size() + kBandwidthsMbps.size(); }

std::unique_ptr<GridInputs> make_inputs(std::uint64_t seed, Tracer* tracer) {
  auto in = std::make_unique<GridInputs>();
  in->bundles = build_bundles(tracer);
  const device::WnicParams base = device::WnicParams::cisco_aironet350();
  for (std::size_t s = 0; s < in->bundles.size(); ++s) {
    in->bundle_syscalls.push_back(trace_length(in->bundles[s].programs));
    for (std::size_t p = 0; p < point_count(); ++p) {
      const device::WnicParams wnic =
          p < kLatenciesMs.size()
              ? base.with_latency(units::ms(kLatenciesMs[p]))
              : base.with_bandwidth_mbps(kBandwidthsMbps[p - kLatenciesMs.size()]);
      for (const std::string& policy : kPolicies) {
        sim::SweepCell cell;
        cell.scenario = &in->bundles[s];
        cell.policy = policy;
        cell.wnic = wnic;
        cell.config.layout_seed = seed;
        in->cells.push_back(std::move(cell));
        in->cell_scenario.push_back(s);
        in->cell_point.push_back(p);
      }
    }
  }
  return in;
}

std::string describe(const GridInputs& in, std::size_t i) {
  return "paper-grid cell " + std::to_string(i) + " (" +
         in.bundles[in.cell_scenario[i]].name + ", point " +
         std::to_string(in.cell_point[i]) + ", " + in.cells[i].policy + ")";
}

/// Checks one cell's result and folds it into a unit outcome.
UnitResult judge(const GridInputs& in, std::size_t i, const sim::SimResult& res,
                 Report& report) {
  UnitResult r;
  r.cells = 1;
  const std::string why = check_cell(res, in.bundle_syscalls[in.cell_scenario[i]]);
  if (!why.empty()) {
    r.failed = 1;
    report.problem(describe(in, i) + ": " + why);
  }
  r.digest = sim::fold_result_digest(sim::kResultDigestSeed, res);
  return r;
}

/// 100 * (1 - sum E_flexfetch / sum E_bluefs) over matched cells.
double saving_pct(const GridInputs& in, const std::vector<double>& energy,
                  std::optional<std::size_t> scenario = std::nullopt,
                  std::optional<std::size_t> point = std::nullopt) {
  double ff = 0.0;
  double bluefs = 0.0;
  for (std::size_t i = 0; i < in.cells.size(); ++i) {
    if (scenario && in.cell_scenario[i] != *scenario) continue;
    if (point && in.cell_point[i] != *point) continue;
    if (in.cells[i].policy == "flexfetch") ff += energy[i];
    if (in.cells[i].policy == "bluefs") bluefs += energy[i];
  }
  return 100.0 * (1.0 - ff / bluefs);
}

/// The paper's FlexFetch-vs-BlueFS figure for each scenario, where it gives
/// one (EXPERIMENTS.md). Reported beside the simulated value, not gated.
struct PaperPoint {
  std::size_t point;  ///< Index into the grid's 17 WNIC points.
  const char* where;
  double paper_pct;   ///< NaN: the paper gives no FlexFetch-vs-BlueFS number.
  const char* source;
};
const PaperPoint kPaperPoints[] = {
    {0, "0 ms", 100.0 * (1.0 - 1522.0 / 2179.0), "Fig. 1 energies 1522 J vs 2179 J"},
    {1, "1 ms", std::nan(""), "Fig. 2 gives an ordering only"},
    {1, "1 ms", 17.0, "Fig. 3 text"},
    {1, "1 ms", std::nan(""), "Fig. 4 compares against FlexFetch-static"},
    {6, "12 ms", -15.0, "Fig. 5 text: +15% over BlueFS"},
};

void print_model_accuracy(const GridInputs& in, const std::vector<double>& energy) {
  std::printf("model accuracy (reported, not gated; the model is otherwise "
              "unvalidated against the paper):\n");
  for (std::size_t s = 0; s < in.bundles.size(); ++s) {
    const PaperPoint& p = kPaperPoints[s];
    const double sim_pct = saving_pct(in, energy, s, p.point);
    if (std::isnan(p.paper_pct)) {
      std::printf("  %-24s @ %-5s FlexFetch saves %6.1f%% vs BlueFS; paper: n/a (%s)\n",
                  in.bundles[s].name.c_str(), p.where, sim_pct, p.source);
    } else {
      std::printf("  %-24s @ %-5s FlexFetch saves %6.1f%% vs BlueFS; paper: %6.1f%% (%s)\n",
                  in.bundles[s].name.c_str(), p.where, sim_pct, p.paper_pct, p.source);
    }
  }
}

/// Replays every syscall of a bundle's programs through a standalone VFS
/// (plan_read fills the cache; plan_write dirties it), as one span. Adds
/// the replay's cache hits to `hits`.
std::uint64_t replay_vfs(const workloads::ScenarioBundle& b, Tracer& t,
                         std::uint64_t& hits) {
  os::Vfs vfs;
  os::ReadPlan read_plan;
  os::WritePlan write_plan;
  std::uint64_t replayed = 0;
  Tracer::Scope span(t, "os.vfs_replay");
  for (const sim::ProgramSpec& p : b.programs) {
    const trace::CompiledTrace& ct = *p.compiled;
    for (std::size_t i = 0; i < p.trace.size(); ++i) {
      const trace::SyscallRecord& r = p.trace[i];
      if (r.op == trace::OpType::kRead) {
        const auto it = ct.file_extents().find(r.inode);
        const Bytes extent = it == ct.file_extents().end() ? Bytes{} : it->second;
        vfs.plan_read(r, r.timestamp, extent, ct.first_page(i), ct.end_page(i),
                      read_plan);
      } else if (r.op == trace::OpType::kWrite) {
        vfs.plan_write(r, r.timestamp, ct.first_page(i), ct.end_page(i), write_plan);
      } else if (r.op == trace::OpType::kClose) {
        vfs.readahead().forget(r.inode);
      }
      ++replayed;
    }
  }
  hits += vfs.cache().stats().hits;
  return replayed;
}

}  // namespace

void run_paper_grid(const Options& opt, Report& report) {
  SetupTimer setup([&] { return make_inputs(opt.seed, nullptr); });
  const auto in = setup.initial();
  std::vector<double> energy(in->cells.size());
  const UnitFn cell = [&](std::size_t i) {
    try {
      const sim::SimResult res = sim::run_cell(in->cells[i]);
      energy[i] = res.total_energy().value();
      return judge(*in, i, res, report);
    } catch (const std::exception& e) {
      report.problem(describe(*in, i) + " threw: " + e.what());
      return UnitResult{1, 1, 0};
    }
  };
  const PassStats ps = run_passes(in->cells.size(), opt.seconds, 3, cell, cell, report,
                                  [&] { setup.between_passes(); });
  std::printf("paper-grid: %llu cells per pass, %llu timed passes, result digest %016llx\n",
              static_cast<unsigned long long>(ps.cells_per_pass),
              static_cast<unsigned long long>(ps.passes),
              static_cast<unsigned long long>(ps.digest));
  print_model_accuracy(*in, energy);
  report.add("cells_per_s", ps.cells_per_s(), "1/s");
  report.add("setup_s", setup.fastest_s(), "s");
  report.add("flexfetch_saving_pct", saving_pct(*in, energy), "%");
}

void trace_paper_grid(const Options& opt, TraceContext& ctx, bool overhead) {
  Tracer& t = ctx.tracer;
  Report& rep = *ctx.report;
  t.set_track(kPaperGrid);
  t.set_cell(-1);
  std::unique_ptr<GridInputs> in;
  {
    Tracer::Scope span(t, "bench.setup");
    in = make_inputs(opt.seed, &t);
  }

  // Untraced reference pass (timed passes too when measuring overhead).
  const UnitFn plain = [&](std::size_t i) {
    try {
      return judge(*in, i, sim::run_cell(in->cells[i]), rep);
    } catch (const std::exception& e) {
      rep.problem(describe(*in, i) + " threw: " + e.what());
      return UnitResult{1, 1, 0};
    }
  };
  const PassStats ps = run_passes(in->cells.size(), 0.0, overhead ? 3 : 0,
                                  plain, plain, rep);

  std::uint64_t syscalls = 0;
  std::uint64_t events = 0;
  std::map<std::string, std::int64_t> loop_ns_by_policy;
  std::map<std::string, double> core;
  os::CacheStats cache;
  os::SchedulerStats sched;
  std::uint64_t disk_requests = 0, spin_ups = 0, wnic_requests = 0, wakes = 0;
  std::uint64_t digest = kDigestSeed;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < in->cells.size(); ++i) {
    t.set_cell(static_cast<std::int64_t>(i));
    ++rep.attempted;
    UnitResult r{1, 1, 0};
    try {
      const TracedCell tc = run_traced_cell(in->cells[i], ctx, kPaperGrid, true);
      r = judge(*in, i, tc.result, rep);
      const sim::SimResult& res = tc.result;
      syscalls += res.syscalls;
      events += tc.events;
      loop_ns_by_policy[in->cells[i].policy] += tc.loop_ns;
      for (const char* name : {"ff.estimator_requests_replayed",
                               "ff.shadow_requests_replayed", "ff.stages_entered",
                               "ff.audit_overrides"}) {
        if (res.metrics.contains(name)) core[name] += res.metrics.value(name);
      }
      cache.lookups += res.cache_stats.lookups;
      cache.hits += res.cache_stats.hits;
      cache.evictions += res.cache_stats.evictions;
      sched.submitted += res.scheduler_stats.submitted;
      sched.merged += res.scheduler_stats.merged;
      disk_requests += res.disk_counters.requests;
      spin_ups += res.disk_counters.spin_ups;
      wnic_requests += res.wnic_counters.requests;
      wakes += res.wnic_counters.wakes;
    } catch (const std::exception& e) {
      rep.problem(describe(*in, i) + " threw under audit: " + e.what());
    }
    rep.failed += r.failed;
    digest = fold_u64(digest, r.digest);
  }
  const double traced_s = std::chrono::duration<double>(Clock::now() - t0).count();
  t.set_cell(-1);
  if (digest != ps.digest) {
    rep.problem("paper-grid traced results differ from untraced results");
  }
  std::printf("paper-grid traced: result digest %016llx\n",
              static_cast<unsigned long long>(digest));

  // Standalone os layer: default cache construction and a VFS replay of
  // each scenario's syscalls.
  std::size_t sink = 0;
  for (int i = 0; i < 32; ++i) {
    std::optional<os::BufferCache> c;
    {
      Tracer::Scope span(t, "os.cache_ctor");
      c.emplace();
    }
    sink += c->capacity();
  }
  std::uint64_t replayed = 0;
  std::uint64_t replay_hits = 0;
  for (int rep_i = 0; rep_i < 3; ++rep_i) {
    for (const auto& b : in->bundles) replayed += replay_vfs(b, t, replay_hits);
  }
  std::printf("os replay: %llu syscalls through a standalone VFS, %llu cache hits; "
              "%zu default cache slots built\n",
              static_cast<unsigned long long>(replayed),
              static_cast<unsigned long long>(replay_hits), sink);

  ctx.syscalls[kPaperGrid] = syscalls;
  const auto mean_ms = [&](const char* name) {
    return span_total(t, kPaperGrid, name).mean_total_ns() / 1e6;
  };
  rep.add("workloads.bundle_build_ms", mean_ms("workloads.bundle_build"), "ms");
  rep.add("trace.compile_ms", mean_ms("trace.compile"), "ms");
  rep.add("os.cache_ctor_us", mean_ms("os.cache_ctor") * 1e3, "us");
  rep.add("sim.loop_ns_per_syscall",
          static_cast<double>(span_total(t, kPaperGrid, "sim.loop").self_ns) /
              static_cast<double>(syscalls),
          "ns");
  rep.add("sim.syscalls", static_cast<double>(syscalls), "count");
  rep.add("sim.events", static_cast<double>(events), "count");
  for (const std::string& p : kPolicies) {
    const PolicyTimes& pt = ctx.policy_times[kPaperGrid][p];
    rep.add("policies." + p + ".select_ns", pt.select.ns_per_call(), "ns");
    rep.add("policies." + p + ".on_syscall_ns", pt.on_syscall.ns_per_call(), "ns");
    rep.add("policies." + p + ".observe_ns", pt.observe.ns_per_call(), "ns");
    rep.add("policies." + p + ".share_pct",
            100.0 * static_cast<double>(pt.total_ns()) /
                static_cast<double>(loop_ns_by_policy[p]),
            "%");
  }
  rep.add("core.estimator_requests_replayed", core["ff.estimator_requests_replayed"], "count");
  rep.add("core.shadow_requests_replayed", core["ff.shadow_requests_replayed"], "count");
  rep.add("core.stages_entered", core["ff.stages_entered"], "count");
  rep.add("core.audit_overrides", core["ff.audit_overrides"], "count");
  rep.add("os.vfs_replay_ns_per_syscall",
          static_cast<double>(span_total(t, kPaperGrid, "os.vfs_replay").total_ns) /
              static_cast<double>(replayed),
          "ns");
  rep.add("os.cache_lookups", static_cast<double>(cache.lookups), "count");
  rep.add("os.cache_hit_rate", cache.hit_rate(), "ratio");
  rep.add("os.cache_evictions", static_cast<double>(cache.evictions), "count");
  rep.add("os.sched_submitted", static_cast<double>(sched.submitted), "count");
  rep.add("os.sched_merge_pct",
          100.0 * static_cast<double>(sched.merged) / static_cast<double>(sched.submitted),
          "%");
  rep.add("device.disk_requests", static_cast<double>(disk_requests), "count");
  rep.add("device.disk_spin_ups", static_cast<double>(spin_ups), "count");
  rep.add("device.wnic_requests", static_cast<double>(wnic_requests), "count");
  rep.add("device.wnic_wakes", static_cast<double>(wakes), "count");
  if (overhead) {
    const double traced_cps = static_cast<double>(in->cells.size()) / traced_s;
    rep.add("bench.trace_overhead_pct", overhead_pct(ps.cells_per_s(), traced_cps), "%");
  }
}

}  // namespace perfbench
