// A crowded café: four laptops share one rate-adapted 802.11 AP and a
// two-slot remote server. Client 0 arrives with a nearly empty battery
// and runs FlexFetch; its three neighbours stream everything over the
// WNIC (wnic-only — no history, no restraint). The example runs the same
// morning twice — once with plain FIFO server admission and once with
// the battery-aware policy that reserves a service slot for low-battery
// clients — and prints what the shared medium did to each client and
// what the reservation bought the low-battery one.
//
//   ./build/examples/crowded_cafe [seed]

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "medium/multi_client.hpp"
#include "policies/factory.hpp"
#include "workloads/scenarios.hpp"

using namespace flexfetch;

namespace {

medium::MultiClientResult run_cafe(const std::string& admission,
                                   std::uint64_t seed) {
  using Builder = workloads::ScenarioBundle (*)(std::uint64_t);
  const Builder builders[] = {
      workloads::scenario_grep_make, workloads::scenario_mplayer,
      workloads::scenario_thunderbird, workloads::scenario_forced_spinup};

  medium::MultiClientConfig config;
  config.server.capacity = 2;
  config.server.reserved_slots = 1;
  config.server.low_battery_threshold = 0.30;
  config.server.admission = admission;

  std::vector<workloads::ScenarioBundle> bundles;
  std::vector<std::unique_ptr<sim::Policy>> policies;
  std::vector<medium::ClientSpec> specs;
  for (int i = 0; i < 4; ++i) {
    bundles.push_back(builders[i](seed + static_cast<std::uint64_t>(i)));
  }
  for (int i = 0; i < 4; ++i) {
    const workloads::ScenarioBundle& b = bundles[static_cast<std::size_t>(i)];
    // The star of the show adapts; the neighbours hammer the AP.
    policies.push_back(policies::make_policy(i == 0 ? "flexfetch" : "wnic-only",
                                             b.profiles, &b.oracle_future,
                                             0.25));
    medium::ClientSpec spec;
    spec.name = b.name;
    spec.programs = b.programs;
    spec.policy = policies.back().get();
    // The cafe AP has rate-adapted down to a 5.5 Mb/s PHY (~3 Mb/s MAC
    // goodput) — the same crowded-cell preset `ffbench contention` uses, and
    // the regime where contention genuinely moves FlexFetch's decisions.
    spec.config.wnic = spec.config.wnic.with_bandwidth_mbps(3.0);
    spec.link_quality = 1.0 - 0.05 * static_cast<double>(i);  // Seat draw.
    spec.battery.initial_fraction = i == 0 ? 0.15 : 0.80;
    specs.push_back(std::move(spec));
  }

  medium::MultiClientSim sim(config, std::move(specs));
  return sim.run();
}

void print_run(const char* label, const medium::MultiClientResult& r) {
  std::printf("--- %s admission ---\n", label);
  std::printf("%-14s %10s %10s %12s %12s %8s\n", "client", "energy[J]",
              "makespan", "net[MB]", "disk[MB]", "batt%");
  for (std::size_t i = 0; i < r.clients.size(); ++i) {
    const sim::SimResult& c = r.clients[i];
    std::printf("%-14s %10.1f %10.1f %12.1f %12.1f %8.1f\n",
                (std::string{i == 0 ? "*" : " "} + "client" +
                 std::to_string(i))
                    .c_str(),
                c.total_energy().value(), c.makespan.value(),
                c.net_bytes.as_double() / 1e6, c.disk_bytes.as_double() / 1e6,
                100.0 * r.battery_final[i]);
  }
  std::printf("medium: %llu transfers, %llu contended, mean share %.3f\n",
              static_cast<unsigned long long>(r.medium.transfers),
              static_cast<unsigned long long>(r.medium.contended_transfers),
              r.medium.mean_share());
  std::printf("server: %llu queue waits, %.2f s queued, max depth %llu, "
              "%llu reserved deferrals\n\n",
              static_cast<unsigned long long>(r.server.queue_waits),
              r.server.queue_wait.value(),
              static_cast<unsigned long long>(r.server.max_depth),
              static_cast<unsigned long long>(r.server.reserved_deferrals));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::uint64_t seed =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
    std::printf(
        "crowded cafe: one FlexFetch laptop (*) at 15%% battery, three "
        "wnic-only streamers,\none rate-adapted AP, a 2-slot server\n\n");
    const auto fifo = run_cafe("fifo", seed);
    print_run("fifo", fifo);
    const auto battery = run_cafe("battery", seed);
    print_run("battery-aware", battery);

    const double saved = fifo.clients[0].total_energy().value() -
                         battery.clients[0].total_energy().value();
    std::printf("battery-aware admission saved the low-battery client "
                "%.1f J (%.1f%%)\n",
                saved,
                100.0 * saved / fifo.clients[0].total_energy().value());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crowded_cafe: %s\n", e.what());
    return 1;
  }
}
