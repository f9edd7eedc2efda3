// ffperf: the FlexFetch simulator benchmark program.
//
//   ffperf --workload paper-grid|fleet-small|crowd-faulted --seed N
//          --seconds S --trace 0|1 [--out-dir DIR]
//
// Timed mode (--trace 0) builds the workload's inputs from the seed
// (repeated, and again between timed passes; setup_s is the fastest build),
// runs one warm-up pass, then timed passes for S seconds on this one
// thread, checks every cell, and prints the end-to-end metrics. Traced mode
// (--trace 1) runs all three workloads once with spans, policy timers, the
// audit and metrics-only telemetry on, writes the spans as Chrome trace JSON
// and a per-layer self-time table to DIR, and prints the per-layer metrics.
// The last stdout line is always one JSON object: {"correct", "attempted",
// "failed", "metrics"}.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common.hpp"

namespace perfbench {
namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ffperf: %s\nusage: ffperf --workload paper-grid|fleet-small|"
               "crowd-faulted --seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || value.empty() || !(opt.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      opt.trace = value == "1";
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const auto& names = workload_names();
  if (!have_workload || std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    usage("--workload must be one of paper-grid, fleet-small, crowd-faulted");
  }
  return opt;
}

/// Per-layer table of one workload: self time, calls and self ns per
/// simulated syscall for every span name and policy hook.
std::string layer_table(const TraceContext& ctx, std::uint32_t track) {
  struct Row {
    std::string name;
    std::uint64_t calls = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : ctx.tracer.spans()) {
    if (s.track != track) continue;
    Row& r = rows[s.name];
    r.name = s.name;
    ++r.calls;
    r.self_ns += s.self_ns();
  }
  const auto pt = ctx.policy_times.find(track);
  if (pt != ctx.policy_times.end()) {
    for (const auto& [policy, times] : pt->second) {
      const std::pair<const char*, const HookTime*> hooks[] = {
          {"select", &times.select}, {"on_syscall", &times.on_syscall},
          {"observe", &times.observe}};
      for (const auto& [hook, h] : hooks) {
        const std::string name = "policies." + policy + "." + hook;
        rows[name] = Row{name, h->calls, h->ns};
      }
    }
  }
  std::vector<Row> sorted;
  std::int64_t total = 0;
  for (auto& [name, r] : rows) {
    total += r.self_ns;
    sorted.push_back(r);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Row& a, const Row& b) { return a.self_ns > b.self_ns; });
  const auto sc = ctx.syscalls.find(track);
  const double syscalls = sc == ctx.syscalls.end() ? 0.0 : static_cast<double>(sc->second);
  std::ostringstream os;
  char line[200];
  std::snprintf(line, sizeof line, "%s: %.0f simulated syscalls in the traced pass\n",
                workload_names()[track].c_str(), syscalls);
  os << line;
  std::snprintf(line, sizeof line, "  %-34s %10s %12s %8s %14s\n", "span or timer", "calls",
                "self_ms", "self_%", "ns_per_syscall");
  os << line;
  for (const Row& r : sorted) {
    std::snprintf(line, sizeof line, "  %-34s %10" PRIu64 " %12.3f %8.2f %14.1f\n",
                  r.name.c_str(), r.calls, static_cast<double>(r.self_ns) / 1e6,
                  100.0 * static_cast<double>(r.self_ns) / static_cast<double>(total),
                  syscalls > 0 ? static_cast<double>(r.self_ns) / syscalls : 0.0);
    os << line;
  }
  return os.str();
}

void run_traced(const Options& opt, Report& report) {
  TraceContext ctx;
  ctx.report = &report;
  trace_paper_grid(opt, ctx, opt.workload == "paper-grid");
  trace_fleet_small(opt, ctx, opt.workload == "fleet-small");
  trace_crowd_faulted(opt, ctx, opt.workload == "crowd-faulted");

  const std::string stem =
      opt.out_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed);
  write_chrome_trace(stem + ".trace.json", ctx.tracer.spans(), workload_names());
  std::ofstream table(stem + ".layers.txt");
  for (std::uint32_t track = 0; track < workload_names().size(); ++track) {
    const std::string t = layer_table(ctx, track);
    std::fputs(t.c_str(), stdout);
    table << t;
  }
  std::printf("bench.trace_overhead_pct %.2f %% (traced mode: spans, policy timers, "
              "audit and metrics on, vs timed mode, on %s)\n",
              report.metrics["bench.trace_overhead_pct"].value, opt.workload.c_str());
  std::printf("wrote %s.trace.json (%zu spans) and %s.layers.txt\n", stem.c_str(),
              ctx.tracer.spans().size(), stem.c_str());
}

void print_json(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct && report.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char value[64];
  for (const auto& [name, m] : report.metrics) {
    std::snprintf(value, sizeof value, "%.17g", m.value);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  Report report;
  try {
    if (opt.trace) {
      run_traced(opt, report);
    } else {
      if (opt.workload == "paper-grid") run_paper_grid(opt, report);
      if (opt.workload == "fleet-small") run_fleet_small(opt, report);
      if (opt.workload == "crowd-faulted") run_crowd_faulted(opt, report);
      report.add("peak_rss_mb", peak_rss_mib(), "MiB");
      report.add("ok_cells_pct",
                 100.0 * (1.0 - static_cast<double>(report.failed) /
                                    static_cast<double>(report.attempted)),
                 "%");
      for (const auto& [name, m] : report.metrics) {
        std::printf("%-22s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ffperf: %s\n", e.what());
    return 1;
  }
  std::fflush(stdout);
  print_json(report);
  return 0;
}
