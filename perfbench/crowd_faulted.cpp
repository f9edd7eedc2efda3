// crowd-faulted: medium::MultiClientSim sessions of four clients on one
// crowded 3 Mb/s cell with a two-slot, battery-aware server (the
// bench_contention preset), each client with a seeded fault schedule,
// replica sync on and metrics-only telemetry on. Sessions come in pairs on
// the same seeds: all-flexfetch, then all-bluefs. It drives the medium,
// server, faults, hoard sync and telemetry layers, which the other two
// workloads bypass, and makes devices and policies serve writes, outages
// and failovers rather than clean reads. The scenarios are the seed-1
// bundles; the benchmark seed draws each client's fault schedule and disk
// layout.
#include <cstdio>
#include <memory>
#include <optional>

#include "common.hpp"
#include "common/rng.hpp"
#include "faults/schedule.hpp"
#include "medium/multi_client.hpp"
#include "policies/factory.hpp"

namespace perfbench {
namespace {

using namespace flexfetch;

constexpr std::size_t kClients = 4;
constexpr std::size_t kPairs = 16;  // 32 sessions, 128 client cells per pass
constexpr std::uint64_t kFaultDomain = 0x637266ULL;   // "crf"
constexpr std::uint64_t kLayoutDomain = 0x63726cULL;  // "crl"

struct Client {
  std::size_t scenario = 0;
  faults::FaultSchedule faults;
  std::uint64_t layout_seed = 0;
};

struct CrowdInputs {
  std::vector<workloads::ScenarioBundle> bundles;
  std::vector<std::uint64_t> bundle_syscalls;
  /// Clients of each session pair; client g (counting across pairs)
  /// replays scenario g mod 5.
  std::vector<std::vector<Client>> pairs;
};

std::unique_ptr<CrowdInputs> make_inputs(std::uint64_t seed, Tracer* tracer) {
  auto in = std::make_unique<CrowdInputs>();
  in->bundles = build_bundles(tracer);
  for (const auto& b : in->bundles) in->bundle_syscalls.push_back(trace_length(b.programs));
  for (std::size_t p = 0; p < kPairs; ++p) {
    std::vector<Client> clients;
    for (std::size_t i = 0; i < kClients; ++i) {
      const std::uint64_t g = p * kClients + i;
      Client c;
      c.scenario = g % in->bundles.size();
      c.faults = faults::generate_schedule(seeds::derive_stream(seed, kFaultDomain, g));
      c.layout_seed = seeds::derive_stream(seed, kLayoutDomain, g);
      clients.push_back(std::move(c));
    }
    in->pairs.push_back(std::move(clients));
  }
  return in;
}

/// Client i's starting battery (bench_contention's ramp): client 0 is below
/// the server's low-battery threshold, the rest ramp from 0.40 to 1.0.
double initial_battery(std::size_t i) {
  if (i == 0) return 0.12;
  return 0.40 + 0.60 * static_cast<double>(i - 1) / static_cast<double>(kClients - 2);
}

const char* session_policy(std::size_t session) {
  return session % 2 == 0 ? "flexfetch" : "bluefs";
}

struct SessionRun {
  medium::MultiClientResult result;
  UnitResult unit;
};

/// Runs session s (pair s / 2, policy by parity). With a trace context the
/// session is one "medium.session" span, the policies are timed, and the
/// audit runs on the coordinator and on every client.
SessionRun run_session(const CrowdInputs& in, std::size_t s, bool telemetry,
                       TraceContext* ctx, Report& report) {
  const std::vector<Client>& clients = in.pairs[s / 2];
  const std::string policy = session_policy(s);
  std::optional<Tracer::Scope> span;
  if (ctx != nullptr) span.emplace(ctx->tracer, "medium.session");

  medium::MultiClientConfig config;
  config.server.capacity = 2;
  config.server.reserved_slots = 1;
  config.server.low_battery_threshold = 0.30;
  config.server.admission = "battery";
  config.audit.enabled = ctx != nullptr;

  std::vector<std::unique_ptr<sim::Policy>> owned;
  std::vector<std::unique_ptr<TimedPolicy>> timed;
  std::vector<medium::ClientSpec> specs;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const workloads::ScenarioBundle& b = in.bundles[clients[i].scenario];
    {
      std::optional<Tracer::Scope> make;
      if (ctx != nullptr) make.emplace(ctx->tracer, "policies.make");
      owned.push_back(policies::make_policy(policy, b.profiles, &b.oracle_future, 0.25));
    }
    sim::Policy* p = owned.back().get();
    if (ctx != nullptr) {
      timed.push_back(std::make_unique<TimedPolicy>(
          *p, ctx->policy_times[kCrowdFaulted][policy], ctx->tracer));
      p = timed.back().get();
    }
    medium::ClientSpec spec;
    spec.name = b.name + "#" + std::to_string(i);
    spec.programs = b.programs;
    spec.config.wnic = spec.config.wnic.with_bandwidth_mbps(3.0);
    spec.config.layout_seed = clients[i].layout_seed;
    spec.config.faults = clients[i].faults;
    spec.config.enable_sync = true;
    spec.config.telemetry.enabled = telemetry;
    spec.config.audit.enabled = ctx != nullptr;
    spec.policy = p;
    spec.link_quality = 1.0 - 0.05 * static_cast<double>(i % 4);
    spec.battery.initial_fraction = initial_battery(i);
    specs.push_back(std::move(spec));
  }
  SessionRun run;
  run.unit.cells = clients.size();
  const std::string where = "crowd session " + std::to_string(s) + " (" + policy + ")";
  try {
    medium::MultiClientSim sim(config, std::move(specs));
    run.result = sim.run();
  } catch (const std::exception& e) {
    report.problem(where + " threw: " + e.what());
    run.unit.failed = run.unit.cells;
    run.unit.digest = 0;
    return run;
  }
  const medium::MultiClientResult& r = run.result;
  std::uint64_t digest = sim::kResultDigestSeed;
  for (std::size_t i = 0; i < r.clients.size(); ++i) {
    const std::string why =
        check_cell(r.clients[i], in.bundle_syscalls[clients[i].scenario]);
    if (!why.empty()) {
      ++run.unit.failed;
      report.problem(where + " client " + std::to_string(i) + ": " + why);
    }
    digest = sim::fold_result_digest(digest, r.clients[i]);
  }
  if (r.server.conservation_violations != 0) {
    report.problem(where + ": server work-conservation violations");
    run.unit.failed = run.unit.cells;
  }
  digest = fold_u64(digest, r.server.requests);
  digest = fold_u64(digest, r.server.queue_waits);
  run.unit.digest = fold_u64(digest, r.medium.transfers);
  return run;
}

double session_energy(const medium::MultiClientResult& r) {
  double e = 0.0;
  for (const auto& c : r.clients) e += c.total_energy().value();
  return e;
}

std::size_t session_count(const CrowdInputs& in) { return 2 * in.pairs.size(); }

}  // namespace

void run_crowd_faulted(const Options& opt, Report& report) {
  SetupTimer setup([&] { return make_inputs(opt.seed, nullptr); });
  const auto in = setup.initial();
  std::vector<double> energy(session_count(*in));
  const UnitFn session = [&](std::size_t s) {
    SessionRun run = run_session(*in, s, true, nullptr, report);
    energy[s] = session_energy(run.result);
    return run.unit;
  };
  const PassStats ps = run_passes(session_count(*in), opt.seconds, 3, session, session,
                                  report, [&] { setup.between_passes(); });
  std::printf("crowd-faulted: %llu client cells per pass in %zu sessions, %llu timed "
              "passes, result digest %016llx\n",
              static_cast<unsigned long long>(ps.cells_per_pass), session_count(*in),
              static_cast<unsigned long long>(ps.passes),
              static_cast<unsigned long long>(ps.digest));
  double ff = 0.0;
  double bluefs = 0.0;
  for (std::size_t s = 0; s < energy.size(); ++s) (s % 2 == 0 ? ff : bluefs) += energy[s];
  report.add("cells_per_s", ps.cells_per_s(), "1/s");
  report.add("setup_s", setup.fastest_s(), "s");
  report.add("flexfetch_saving_pct", 100.0 * (1.0 - ff / bluefs), "%");
}

void trace_crowd_faulted(const Options& opt, TraceContext& ctx, bool overhead) {
  Tracer& t = ctx.tracer;
  Report& rep = *ctx.report;
  t.set_track(kCrowdFaulted);
  t.set_cell(-1);
  std::unique_ptr<CrowdInputs> in;
  {
    Tracer::Scope span(t, "bench.setup");
    in = make_inputs(opt.seed, &t);
  }
  const std::size_t n = session_count(*in);

  // Telemetry cost: each session run with metrics on (the workload's
  // setting) and off, alternated; results must not differ. The untraced
  // metrics-on times are also the baseline of the tracing overhead.
  double on_pass_s = 0.0;
  double off_pass_s = 0.0;
  std::uint64_t on_digest = kDigestSeed;
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<double> on_s;
    std::vector<double> off_s;
    std::uint64_t digests[2] = {0, 0};
    for (int r = 0; r < 5; ++r) {
      for (const bool telemetry : {true, false}) {
        const auto t0 = Clock::now();
        const UnitResult u = run_session(*in, s, telemetry, nullptr, rep).unit;
        (telemetry ? on_s : off_s).push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
        rep.attempted += u.cells;
        rep.failed += u.failed;
        digests[telemetry ? 0 : 1] = u.digest;
      }
    }
    if (digests[0] != digests[1]) {
      rep.problem("crowd session " + std::to_string(s) + " changes with telemetry");
    }
    on_digest = fold_u64(on_digest, digests[0]);
    on_pass_s += median(on_s);
    off_pass_s += median(off_s);
  }

  // Traced pass.
  std::uint64_t syscalls = 0, outage_stalls = 0, spin_up_stalls = 0, sync_batches = 0;
  std::uint64_t sync_bytes = 0, transfers = 0, contended = 0, queue_waits = 0;
  double share_sum = 0.0;
  double queue_wait_s = 0.0;
  std::uint64_t digest = kDigestSeed;
  const auto t0 = Clock::now();
  for (std::size_t s = 0; s < n; ++s) {
    t.set_cell(static_cast<std::int64_t>(s));
    SessionRun run = run_session(*in, s, true, &ctx, rep);
    rep.attempted += run.unit.cells;
    rep.failed += run.unit.failed;
    digest = fold_u64(digest, run.unit.digest);
    for (const sim::SimResult& c : run.result.clients) {
      syscalls += c.syscalls;
      outage_stalls += c.wnic_counters.outage_stalls;
      spin_up_stalls += c.disk_counters.spin_up_stalls;
      sync_batches += c.sync_batches;
      sync_bytes += c.sync_bytes.value();
    }
    transfers += run.result.medium.transfers;
    contended += run.result.medium.contended_transfers;
    share_sum += run.result.medium.share_sum;
    queue_waits += run.result.server.queue_waits;
    queue_wait_s += run.result.server.queue_wait.value();
  }
  const double traced_s = std::chrono::duration<double>(Clock::now() - t0).count();
  t.set_cell(-1);
  if (digest != on_digest) rep.problem("crowd traced results differ from untraced results");
  std::printf("crowd-faulted traced: result digest %016llx\n",
              static_cast<unsigned long long>(digest));

  ctx.syscalls[kCrowdFaulted] = syscalls;
  const SpanTotal session = span_total(t, kCrowdFaulted, "medium.session");
  rep.add("faults.outage_stalls", static_cast<double>(outage_stalls), "count");
  rep.add("faults.spin_up_stalls", static_cast<double>(spin_up_stalls), "count");
  rep.add("hoard.sync_batches", static_cast<double>(sync_batches), "count");
  rep.add("hoard.sync_mb", static_cast<double>(sync_bytes) / (1024.0 * 1024.0), "MiB");
  rep.add("medium.session_ms",
          static_cast<double>(session.self_ns) / static_cast<double>(session.calls) / 1e6,
          "ms");
  rep.add("medium.contended_pct",
          100.0 * static_cast<double>(contended) / static_cast<double>(transfers), "%");
  rep.add("medium.mean_share", share_sum / static_cast<double>(transfers), "ratio");
  rep.add("server.queue_waits", static_cast<double>(queue_waits), "count");
  rep.add("server.queue_wait_s", queue_wait_s, "s");
  rep.add("telemetry.overhead_pct", 100.0 * (on_pass_s / off_pass_s - 1.0), "%");
  if (overhead) {
    const double cells = static_cast<double>(n * kClients);
    rep.add("bench.trace_overhead_pct", overhead_pct(cells / on_pass_s, cells / traced_s), "%");
  }
}

}  // namespace perfbench
