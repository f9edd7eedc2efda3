// The paper's evaluation artifacts: Figures 1-5 (Section 3.3, each an
// energy-vs-WNIC-latency and an energy-vs-bandwidth panel) and Tables 1-3
// (the device parameter tables and the trace inventory, plus derived
// quantities such as the disk break-even time).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/format.hpp"
#include "device/disk.hpp"
#include "device/wnic.hpp"
#include "experiments.hpp"
#include "harness.hpp"
#include "workloads/generators.hpp"

namespace flexfetch::bench {

namespace {

struct Figure {
  const char* name;
  const char* label;
  workloads::ScenarioBundle (*scenario)(std::uint64_t seed);
  std::vector<std::string> policies;
};

const Figure kFigures[] = {
    // Section 3.3.1, the programming scenario. Expected shape: at low
    // latency BlueFS > Disk-only > WNIC-only > FlexFetch; WNIC-only rises
    // steeply with latency and crosses Disk-only; FlexFetch converges
    // towards Disk-only at high latency.
    {"fig1", "Figure 1 (grep+make)", workloads::scenario_grep_make,
     {"flexfetch", "bluefs", "disk-only", "wnic-only"}},
    // Section 3.3.2, media streaming. FlexFetch tracks WNIC-only; BlueFS
    // wastes energy on both devices; in the bandwidth sweep FlexFetch
    // switches to the disk below ~2 Mbps and saves substantially versus
    // WNIC-only there.
    {"fig2", "Figure 2 (mplayer)", workloads::scenario_mplayer,
     {"flexfetch", "bluefs", "disk-only", "wnic-only"}},
    // Section 3.3.3, email search. Disk-only is expensive (sparse small
    // email reads thrash the spin-down timer); WNIC-only crosses above
    // Disk-only past ~15 ms latency; FlexFetch beats BlueFS by ~17% and
    // both adaptive schemes are insensitive to bandwidth.
    {"fig3", "Figure 3 (Thunderbird)", workloads::scenario_thunderbird,
     {"flexfetch", "bluefs", "disk-only", "wnic-only"}},
    // Section 3.3.4, forced disk spin-up: xmms plays MP3s stored only on
    // the local disk, keeping it spinning while the profiled programming
    // workload runs. FlexFetch observes the spin-up and rides the disk,
    // substantially beating FlexFetch-static at low latencies; the two
    // curves merge as rising latency pushes both onto the disk.
    {"fig4", "Figure 4 (grep+make / xmms)", workloads::scenario_forced_spinup,
     {"flexfetch", "flexfetch-static", "bluefs", "disk-only", "wnic-only"}},
    // Section 3.3.5, invalid profile: recorded over 2 MB PDFs at 25 s
    // intervals, replayed against 20 MB PDFs every 10 s. FlexFetch pays
    // one evaluation stage to discover the stale profile, then switches to
    // the disk — far better than FlexFetch-static, modestly worse than
    // BlueFS.
    {"fig5", "Figure 5 (Acroread, stale profile)",
     workloads::scenario_stale_acroread,
     {"flexfetch", "flexfetch-static", "bluefs", "disk-only", "wnic-only"}},
};

void print_table1() {
  const auto p = device::DiskParams::hitachi_dk23da();
  std::printf("=== Table 1: Hitachi DK23DA hard disk parameters ===\n");
  std::printf("  P_active    Active Power      %.2f W\n",
              p.active_power.value());
  std::printf("  P_idle      Idle Power        %.2f W\n", p.idle_power.value());
  std::printf("  P_standby   Standby Power     %.2f W\n",
              p.standby_power.value());
  std::printf("  E_spinup    Spin up Energy    %.2f J\n",
              p.spin_up_energy.value());
  std::printf("  E_spindown  Spin down Energy  %.2f J\n",
              p.spin_down_energy.value());
  std::printf("  T_spinup    Spin up Time      %.2f s\n",
              p.spin_up_time.value());
  std::printf("  T_spindown  Spin down Time    %.2f s\n",
              p.spin_down_time.value());
  std::printf("  bandwidth %.0f MB/s, avg seek %.0f ms, avg rotation %.0f ms, "
              "timeout %.0f s\n",
              p.bandwidth.value() / 1e6, p.avg_seek_time.value() * 1e3,
              p.avg_rotation_time.value() * 1e3,
              p.spin_down_timeout.value());
  std::printf("  derived break-even time: %.2f s\n\n",
              p.break_even_time().value());
}

void print_table2() {
  const auto p = device::WnicParams::cisco_aironet350();
  std::printf("=== Table 2: Cisco Aironet 350 WNIC parameters ===\n");
  std::printf("  PSM (idle/recv/send)       %.2f W / %.2f W / %.2f W\n",
              p.psm_idle_power.value(), p.psm_recv_power.value(),
              p.psm_send_power.value());
  std::printf("  CAM (idle/recv/send)       %.2f W / %.2f W / %.2f W\n",
              p.cam_idle_power.value(), p.cam_recv_power.value(),
              p.cam_send_power.value());
  std::printf("  CAM->PSM (delay/energy)    %.2f s / %.2f J\n",
              p.cam_to_psm_delay.value(), p.cam_to_psm_energy.value());
  std::printf("  PSM->CAM (delay/energy)    %.2f s / %.2f J\n",
              p.psm_to_cam_delay.value(), p.psm_to_cam_energy.value());
  std::printf("  PSM timeout %.1f s, bandwidth %.1f Mbps, latency %.1f ms\n\n",
              p.psm_timeout.value(), p.bandwidth.value() * 8.0 / 1e6,
              p.latency.value() * 1e3);
}

void print_table3() {
  std::printf("=== Table 3: trace inventory (synthetic reproductions) ===\n");
  std::printf("  %-12s %-24s %8s %10s %10s\n", "Name", "Description", "#File",
              "Size(MB)", "Span");
  struct Row {
    const char* name;
    const char* description;
    trace::Trace trace;
  };
  const Row rows[] = {
      {"Thunderbird", "an email client", workloads::thunderbird_trace()},
      {"make", "building Linux kernel", workloads::make_trace()},
      {"grep", "a text search tool", workloads::grep_trace()},
      {"xmms", "a mp3 player", workloads::xmms_trace()},
      {"mplayer", "a movie player", workloads::mplayer_trace()},
      {"Acroread", "a PDF file reader", workloads::acroread_trace()},
  };
  for (const auto& row : rows) {
    const auto s = row.trace.stats();
    std::printf("  %-12s %-24s %8zu %10.1f %10s\n", row.name, row.description,
                s.distinct_files, s.footprint.as_double() / 1e6,
                format_seconds(s.duration).c_str());
  }
  std::printf("\n");
}

}  // namespace

int run_figure(int argc, char** argv) {
  SweepSpec spec;
  ParsedFlags flags;
  flags.add("jobs", &spec.jobs, "N");
  flags.add("fault-seed", &spec.fault_seed, "S");
  flags.add("metrics", &spec.metrics);
  flags.add("trace-out", &spec.trace_out, "FILE");
  flags.parse(argc, argv);
  for (const Figure& f : kFigures) {
    if (std::strcmp(argv[0], f.name) != 0) continue;
    spec.policies = f.policies;
    return print_figure(f.label, f.scenario(1), spec) ? 0 : 1;
  }
  std::fprintf(stderr, "ffbench: no figure named '%s'\n", argv[0]);
  return 2;
}

int run_tables(int argc, char** argv) {
  ParsedFlags{}.parse(argc, argv);
  print_table1();
  print_table2();
  print_table3();
  return 0;
}

}  // namespace flexfetch::bench
