#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>

#include "fleet/catalog.hpp"
#include "policies/factory.hpp"
#include "trace/compiled.hpp"

namespace perfbench {

void Report::problem(const std::string& what) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

std::uint64_t fold_u64(std::uint64_t digest, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    digest = (digest ^ ((v >> (byte * 8)) & 0xffULL)) * 0x100000001b3ULL;
  }
  return digest;
}

std::uint64_t fold_string(std::uint64_t digest, const std::string& s) {
  for (const char c : s) digest = fold_u64(digest, static_cast<unsigned char>(c));
  return fold_u64(digest, s.size());
}

std::string check_cell(const flexfetch::sim::SimResult& r,
                       std::uint64_t expected_syscalls) {
  const double total = r.total_energy().value();
  const double disk = r.disk_meter.total().value();
  const double wnic = r.wnic_meter.total().value();
  if (!std::isfinite(total) || !(total > 0.0)) {
    return "energy not finite and positive: " + std::to_string(total);
  }
  if (!(disk >= 0.0) || !(wnic >= 0.0) || total != disk + wnic) {
    return "total energy != disk + wnic";
  }
  if (r.syscalls != expected_syscalls) {
    return "replayed " + std::to_string(r.syscalls) + " of " +
           std::to_string(expected_syscalls) + " syscalls";
  }
  return {};
}

std::uint64_t trace_length(
    const std::vector<flexfetch::sim::ProgramSpec>& programs) {
  std::uint64_t n = 0;
  for (const auto& p : programs) n += p.trace.size();
  return n;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

PassStats run_passes(std::size_t units, double seconds, std::uint64_t min_passes,
                     const UnitFn& warm, const UnitFn& timed, Report& report,
                     const std::function<void()>& between) {
  PassStats stats;
  std::uint64_t digest = kDigestSeed;
  for (std::size_t u = 0; u < units; ++u) {
    const UnitResult r = warm(u);
    stats.cells_per_pass += r.cells;
    report.attempted += r.cells;
    report.failed += r.failed;
    digest = fold_u64(digest, r.digest);
  }
  stats.digest = digest;

  std::vector<std::vector<double>> unit_s(units);
  const auto t_start = Clock::now();
  while (stats.passes < min_passes ||
         std::chrono::duration<double>(Clock::now() - t_start).count() < seconds) {
    std::uint64_t pass_digest = kDigestSeed;
    std::uint64_t pass_failed = 0;
    for (std::size_t u = 0; u < units; ++u) {
      const auto t0 = Clock::now();
      const UnitResult r = timed(u);
      unit_s[u].push_back(std::chrono::duration<double>(Clock::now() - t0).count());
      pass_failed += r.failed;
      pass_digest = fold_u64(pass_digest, r.digest);
    }
    ++stats.passes;
    report.attempted += stats.cells_per_pass;
    if (pass_digest != digest) {
      report.problem("pass " + std::to_string(stats.passes) +
                     " result digest differs from the warm-up pass");
      pass_failed = stats.cells_per_pass;
    }
    report.failed += pass_failed;
    if (between) between();
  }
  for (const auto& times : unit_s) {
    if (!times.empty()) stats.robust_pass_s += *std::min_element(times.begin(), times.end());
  }
  return stats;
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

SpanTotal span_total(const Tracer& tracer, std::uint32_t track,
                     const std::string& name) {
  SpanTotal t;
  for (const Span& s : tracer.spans()) {
    if (s.track != track || s.name != name) continue;
    ++t.calls;
    t.self_ns += s.self_ns();
    t.total_ns += s.end_ns - s.start_ns;
  }
  return t;
}

std::vector<flexfetch::workloads::ScenarioBundle> build_bundles(Tracer* tracer) {
  using namespace flexfetch;
  constexpr std::uint64_t seed = 1;
  std::vector<workloads::ScenarioBundle> bundles;
  for (std::size_t k = 0; k < workloads::kScenarioCount; ++k) {
    if (tracer == nullptr) {
      bundles.push_back(fleet::make_scenario(k, seed, {}));
      continue;
    }
    {
      Tracer::Scope span(*tracer, "workloads.bundle_build");
      bundles.push_back(fleet::make_scenario(k, seed, {}));
    }
    std::vector<trace::CompiledTrace> compiled;
    Tracer::Scope span(*tracer, "trace.compile");
    for (const auto& p : bundles.back().programs) compiled.emplace_back(p.trace);
  }
  return bundles;
}

TracedCell run_traced_cell(const flexfetch::sim::SweepCell& cell,
                           TraceContext& ctx, std::uint32_t track, bool metrics) {
  using namespace flexfetch;
  Tracer& t = ctx.tracer;
  Tracer::Scope cell_span(t, "bench.cell");
  sim::SimConfig config = cell.config;
  config.wnic = cell.wnic;
  config.audit.enabled = true;
  config.telemetry.enabled = metrics;
  std::unique_ptr<sim::Policy> policy;
  {
    Tracer::Scope span(t, "policies.make");
    policy = policies::make_policy(cell.policy, cell.scenario->profiles,
                                   &cell.scenario->oracle_future, cell.loss_rate);
  }
  TimedPolicy timed(*policy, ctx.policy_times[track][cell.policy], t);
  std::optional<sim::Simulator> simulator;
  {
    Tracer::Scope span(t, "sim.ctor");
    simulator.emplace(config, cell.scenario->programs, timed);
  }
  TracedCell out;
  {
    Tracer::Scope span(t, "sim.loop");
    simulator->start();
    while (simulator->step()) ++out.events;
    out.loop_ns = now_ns() - t.spans()[static_cast<std::size_t>(span.id())].start_ns;
  }
  Tracer::Scope span(t, "sim.finish");
  out.result = simulator->finish();
  return out;
}

}  // namespace perfbench
