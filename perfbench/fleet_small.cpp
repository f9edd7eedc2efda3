// fleet-small: a few thousand users drawn from the default PopulationSpec
// (workload scale 0.15, blocks of 256, policies disk-only / bluefs /
// flexfetch / oracle, per-user link, battery, hoard and fault draws), run
// in-process on one worker as fleet::run_block -> write_block_line ->
// parse_block_line -> merge_blocks. Its cells are short and dominated by
// Simulator construction, so set-up-side changes (the buffer cache arena)
// show here.
//
// The population is the default PopulationSpec's (master and scenario seed
// 1): across populations the simulated FlexFetch-vs-BlueFS saving over
// ~150-user strata swings by several points, far outside any useful
// bound. The benchmark seed instead permutes the order the blocks run in,
// as shards finishing in any order would; merge_blocks folds by block
// index, so the merged aggregate must be bit-identical for every seed.
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>

#include "common.hpp"
#include "common/rng.hpp"
#include "fleet/catalog.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/population.hpp"
#include "fleet/runner.hpp"

namespace perfbench {
namespace {

using namespace flexfetch;

constexpr std::uint64_t kUsers = 3072;  // 12 blocks of the default 256
constexpr std::uint64_t kOrderDomain = 0x666f72ULL;  // "for"

struct FleetInputs {
  explicit FleetInputs(std::uint64_t seed)
      : config(make_config()),
        gen(config.population),
        catalog(config.population.scenario_seed, config.population.think_scales,
                config.tuning),
        order(block_order(fleet::block_count(config), seed)) {}

  static fleet::FleetConfig make_config() {
    fleet::FleetConfig c;
    c.users = kUsers;
    c.workers = 1;
    return c;
  }

  /// Fisher-Yates shuffle of the block indices, drawn from the seed.
  static std::vector<std::uint64_t> block_order(std::uint64_t n, std::uint64_t seed) {
    std::vector<std::uint64_t> order(n);
    for (std::uint64_t i = 0; i < n; ++i) order[i] = i;
    for (std::uint64_t i = n; i > 1; --i) {
      const std::uint64_t j = seeds::derive_stream(seed, kOrderDomain, i) % i;
      std::swap(order[i - 1], order[j]);
    }
    return order;
  }

  /// Builds every (scenario, think bucket) bundle up front, so no timed
  /// pass pays for one.
  void warm_catalog() {
    for (std::size_t s = 0; s < workloads::kScenarioCount; ++s) {
      for (std::size_t b = 0; b < config.population.think_scales.size(); ++b) {
        catalog.bundle(s, b);
      }
    }
  }

  fleet::FleetConfig config;
  fleet::PopulationGenerator gen;
  fleet::ScenarioCatalog catalog;
  /// Block execution order (unit u runs block order[u]).
  std::vector<std::uint64_t> order;
  std::map<std::uint64_t, fleet::BlockSummary> blocks;
};

std::uint64_t block_users(const fleet::BlockSummary& b) { return b.user_hi - b.user_lo; }

/// Serializes a block to its checkpoint line and parses it back into the
/// run's block map, as a resumable fleet run does.
UnitResult checkpoint(FleetInputs& in, const fleet::BlockSummary& summary,
                      Report& report) {
  std::ostringstream os;
  fleet::write_block_line(os, summary);
  std::string line = os.str();
  if (!line.empty() && line.back() == '\n') line.pop_back();
  UnitResult r;
  r.cells = block_users(summary);
  fleet::BlockSummary parsed;
  if (!fleet::parse_block_line(line, &parsed) || parsed.block != summary.block) {
    report.problem("fleet block " + std::to_string(summary.block) +
                   " checkpoint line does not parse back");
    r.failed = r.cells;
  }
  in.blocks[summary.block] = std::move(parsed);
  r.digest = fold_string(kDigestSeed, line);
  return r;
}

/// Folds every block in block order; checks the aggregate covers every user
/// with finite, positive energies.
UnitResult merge(FleetInputs& in, Report& report, sim::SweepAggregator* out) {
  sim::SweepAggregator merged = fleet::merge_blocks(in.config, in.blocks);
  if (merged.cells_seen() != in.config.users) {
    report.problem("fleet merge covers " + std::to_string(merged.cells_seen()) +
                   " of " + std::to_string(in.config.users) + " users");
  }
  for (const auto& [key, s] : merged.strata()) {
    if (!std::isfinite(s.energy_j.mean()) || !(s.energy_j.min() > 0.0)) {
      report.problem("fleet stratum " + key + " has a non-positive energy");
    }
  }
  UnitResult r;
  r.digest = fold_string(kDigestSeed, fleet::fingerprint(merged));
  if (out != nullptr) *out = std::move(merged);
  return r;
}

/// run_block's loop (cell_for + run_cell + fold, in user order) with every
/// cell's result checked; its checkpoint line must equal run_block's. With
/// a trace context each cell runs traced and audited, a throwing cell counts
/// as failed instead of failing the block, and `syscalls` sums the replays.
fleet::BlockSummary checked_block(FleetInputs& in, std::uint64_t block,
                                  Report& report, std::uint64_t& failed,
                                  TraceContext* ctx = nullptr,
                                  std::uint64_t* syscalls = nullptr) {
  fleet::BlockSummary summary;
  summary.block = block;
  summary.user_lo = block * in.config.block_size;
  summary.user_hi = std::min(summary.user_lo + in.config.block_size, in.config.users);
  for (std::uint64_t k = summary.user_lo; k < summary.user_hi; ++k) {
    const fleet::UserParams u = in.gen.user(k);
    const auto& bundle = in.catalog.bundle(u.scenario, u.think_bucket);
    const sim::SweepCell cell = fleet::cell_for(u, in.gen, bundle, in.config);
    sim::SimResult res;
    if (ctx == nullptr) {
      res = sim::run_cell(cell);
    } else {
      ctx->tracer.set_cell(static_cast<std::int64_t>(k));
      try {
        res = run_traced_cell(cell, *ctx, kFleetSmall, false).result;
      } catch (const std::exception& e) {
        ++failed;
        report.problem("fleet user " + std::to_string(k) + " threw under audit: " + e.what());
        continue;
      }
      *syscalls += res.syscalls;
    }
    const std::string why = check_cell(res, trace_length(bundle.programs));
    if (!why.empty()) {
      ++failed;
      report.problem("fleet user " + std::to_string(k) + ": " + why);
    }
    summary.agg.add(cell, res);
  }
  return summary;
}

/// 100 * (1 - sum of flexfetch stratum means / sum of bluefs stratum means),
/// over the scenarios that have both strata.
double saving_pct(const sim::SweepAggregator& agg) {
  double ff = 0.0;
  double bluefs = 0.0;
  for (const auto& [key, s] : agg.strata()) {
    const std::string scenario = key.substr(0, key.rfind('/'));
    if (key != scenario + "/flexfetch") continue;
    const auto b = agg.strata().find(scenario + "/bluefs");
    if (b == agg.strata().end()) continue;
    ff += s.energy_j.mean();
    bluefs += b->second.energy_j.mean();
  }
  return 100.0 * (1.0 - ff / bluefs);
}

/// Unit u < blocks runs block order[u]; the last unit is the merge.
UnitFn block_units(FleetInputs& in, Report& report, bool checked,
                   sim::SweepAggregator* merged) {
  const std::uint64_t n = fleet::block_count(in.config);
  return [&in, &report, checked, merged, n](std::size_t u) {
    if (u == n) return merge(in, report, merged);
    const std::uint64_t b = in.order[u];
    try {
      std::uint64_t failed = 0;
      const fleet::BlockSummary summary =
          checked ? checked_block(in, b, report, failed)
                  : fleet::run_block(in.config, in.gen, in.catalog, b);
      UnitResult r = checkpoint(in, summary, report);
      r.failed = std::max(r.failed, failed);
      return r;
    } catch (const std::exception& e) {
      report.problem("fleet block " + std::to_string(b) + " threw: " + e.what());
      const std::uint64_t lo = b * in.config.block_size;
      return UnitResult{std::min(in.config.block_size, in.config.users - lo),
                        std::min(in.config.block_size, in.config.users - lo), 0};
    }
  };
}

}  // namespace

void run_fleet_small(const Options& opt, Report& report) {
  SetupTimer setup([&] {
    auto fresh = std::make_unique<FleetInputs>(opt.seed);
    fresh->warm_catalog();
    return fresh;
  });
  const auto in = setup.initial();
  sim::SweepAggregator merged;
  const std::size_t units = fleet::block_count(in->config) + 1;
  const PassStats ps = run_passes(units, opt.seconds, 3,
                                  block_units(*in, report, true, &merged),
                                  block_units(*in, report, false, nullptr), report,
                                  [&] { setup.between_passes(); });
  std::printf("fleet-small: %llu users per pass in %zu blocks, %llu timed passes, "
              "%zu catalog bundles, merged-fingerprint digest %016llx\n",
              static_cast<unsigned long long>(ps.cells_per_pass), units - 1,
              static_cast<unsigned long long>(ps.passes), in->catalog.bundles_built(),
              static_cast<unsigned long long>(
                  fold_string(kDigestSeed, fleet::fingerprint(merged))));
  report.add("cells_per_s", ps.cells_per_s(), "1/s");
  report.add("setup_s", setup.fastest_s(), "s");
  report.add("flexfetch_saving_pct", saving_pct(merged), "%");
}

void trace_fleet_small(const Options& opt, TraceContext& ctx, bool overhead) {
  Tracer& t = ctx.tracer;
  Report& rep = *ctx.report;
  t.set_track(kFleetSmall);
  t.set_cell(-1);
  std::unique_ptr<FleetInputs> in;
  {
    Tracer::Scope span(t, "bench.setup");
    in = std::make_unique<FleetInputs>(opt.seed);
    Tracer::Scope catalog(t, "fleet.catalog");
    in->warm_catalog();
  }

  PassStats ps;
  if (overhead) {
    ps = run_passes(fleet::block_count(in->config) + 1, 0.0, 3,
                    block_units(*in, rep, false, nullptr),
                    block_units(*in, rep, false, nullptr), rep);
  }

  // Traced pass: run_block's loop with each cell traced and audited.
  std::uint64_t syscalls = 0;
  const auto t0 = Clock::now();
  for (const std::uint64_t b : in->order) {
    fleet::BlockSummary summary;
    std::uint64_t failed = 0;
    {
      Tracer::Scope span(t, "fleet.block");
      summary = checked_block(*in, b, rep, failed, &ctx, &syscalls);
      t.set_cell(-1);
    }
    rep.attempted += summary.user_hi - summary.user_lo;
    Tracer::Scope span(t, "fleet.checkpoint");
    rep.failed += std::max(failed, checkpoint(*in, summary, rep).failed);
  }
  sim::SweepAggregator merged;
  {
    Tracer::Scope span(t, "fleet.merge");
    merge(*in, rep, &merged);
  }
  const double traced_s = std::chrono::duration<double>(Clock::now() - t0).count();

  sim::SweepAggregator mono;
  {
    Tracer::Scope span(t, "fleet.run_monolithic");
    mono = fleet::run_monolithic(in->config, in->gen, in->catalog);
  }
  const bool same = fleet::fingerprint(merged) == fleet::fingerprint(mono);
  std::printf("fleet-small traced: merged fingerprint %s run_monolithic's\n",
              same ? "equals" : "DIFFERS FROM");
  if (!same) rep.problem("fleet traced merge differs from run_monolithic");

  ctx.syscalls[kFleetSmall] = syscalls;
  const auto mean_ns = [&](const char* name) {
    return span_total(t, kFleetSmall, name).mean_total_ns();
  };
  rep.add("fleet.catalog_bundles", static_cast<double>(in->catalog.bundles_built()), "count");
  rep.add("fleet.catalog_ms", mean_ns("fleet.catalog") / 1e6, "ms");
  rep.add("fleet.block_ms", mean_ns("fleet.block") / 1e6, "ms");
  rep.add("fleet.checkpoint_us_per_block", mean_ns("fleet.checkpoint") / 1e3, "us");
  rep.add("fleet.merge_ms", mean_ns("fleet.merge") / 1e6, "ms");
  rep.add("sim.ctor_us", mean_ns("sim.ctor") / 1e3, "us");
  rep.add("sim.finish_us", mean_ns("sim.finish") / 1e3, "us");
  if (overhead) {
    const double traced_cps = static_cast<double>(in->config.users) / traced_s;
    rep.add("bench.trace_overhead_pct", overhead_pct(ps.cells_per_s(), traced_cps), "%");
  }
}

}  // namespace perfbench
