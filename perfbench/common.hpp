// Shared pieces of the ffperf benchmark program: the run report, the timed pass
// loop, the per-cell correctness check and the traced-run context.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/results.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "workloads/scenarios.hpp"
#include "tracing.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything a run prints: its metrics, how many cells it attempted and
/// how many failed, and any correctness problem found along the way.
struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a correctness problem (printed to stderr) and clears `correct`.
  void problem(const std::string& what);
};

/// FNV-1a fold of one 64-bit value, the digest step used everywhere here.
std::uint64_t fold_u64(std::uint64_t digest, std::uint64_t v);
std::uint64_t fold_string(std::uint64_t digest, const std::string& s);
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

/// Per-cell correctness check: total energy finite and positive and equal
/// to disk + WNIC, and every syscall of the cell's traces replayed.
/// Returns an empty string when the cell is correct, else the reason.
std::string check_cell(const flexfetch::sim::SimResult& r,
                       std::uint64_t expected_syscalls);

/// Total syscalls of a program list (what a correct run replays).
std::uint64_t trace_length(const std::vector<flexfetch::sim::ProgramSpec>& programs);

/// Outcome of one unit of work (a cell, a fleet block, a session).
struct UnitResult {
  std::uint64_t cells = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = kDigestSeed;
};
using UnitFn = std::function<UnitResult(std::size_t unit)>;

struct PassStats {
  std::uint64_t passes = 0;     ///< Timed passes (the warm-up excluded).
  std::uint64_t cells_per_pass = 0;
  double robust_pass_s = 0.0;   ///< Sum over units of the fastest unit time.
  std::uint64_t digest = 0;     ///< Result digest of the warm-up pass.
  double cells_per_s() const {
    return robust_pass_s > 0.0
               ? static_cast<double>(cells_per_pass) / robust_pass_s
               : 0.0;
  }
};

/// Runs one untimed warm-up pass over `units` with `warm`, then timed
/// passes with `timed` until `seconds` have elapsed (at least `min_passes`),
/// calling `between` (if set) after each timed pass, outside the timing.
/// Every pass must reproduce the warm-up pass's digest. Throughput comes
/// from the sum over units of each unit's fastest time across passes: on a
/// shared host, slowdowns come from other tenants and only ever add time,
/// so the best of many passes is the steadiest estimate of the program's
/// own cost.
PassStats run_passes(std::size_t units, double seconds, std::uint64_t min_passes,
                     const UnitFn& warm, const UnitFn& timed, Report& report,
                     const std::function<void()>& between = {});

/// Median of a non-empty sample.
double median(std::vector<double> v);

/// Peak resident set size of this process, in MiB.
double peak_rss_mib();

/// Times repeated builds of a workload's inputs. setup_s is the fastest
/// build, for the reason run_passes takes each unit's fastest time: the
/// median of builds made back to back moved with the host's drift by up to
/// half its value from run to run. Builds are made before the timed passes
/// and again between them, so the fastest is drawn from the whole run.
template <typename Build>
class SetupTimer {
 public:
  using Inputs = decltype(std::declval<Build&>()());

  explicit SetupTimer(Build build) : build_(std::move(build)) {}

  /// Builds at least 11 times, then on until a second of building or 101
  /// builds, and returns the last build. Earlier builds are destroyed
  /// outside the timed region.
  Inputs initial() {
    Inputs keep{};
    double spent = 0.0;
    while (s_.size() < 11 || (spent < 1.0 && s_.size() < 101)) {
      keep = timed_build();
      spent += s_.back();
    }
    return keep;
  }
  /// The builds made after each timed pass, a few percent of a pass; each
  /// is destroyed.
  void between_passes() {
    for (int i = 0; i < 2; ++i) (void)timed_build();
  }
  double fastest_s() const { return *std::min_element(s_.begin(), s_.end()); }

 private:
  Inputs timed_build() {
    const auto t0 = Clock::now();
    Inputs built = build_();
    s_.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    return built;
  }

  Build build_;
  std::vector<double> s_;
};

/// The five paper scenarios at full scale with their paper-calibrated seed
/// (1), in all_scenarios() order. With a tracer, each build is a "workloads.bundle_build" span followed by a
/// "trace.compile" span that recompiles the bundle's traces from outside
/// (the scenario functions compile internally, where no span can reach).
std::vector<flexfetch::workloads::ScenarioBundle> build_bundles(Tracer* tracer);

/// State of the traced run shared by the three workloads.
struct TraceContext {
  Tracer tracer;
  /// Policy hook timers, by workload track then policy name.
  std::map<std::uint32_t, std::map<std::string, PolicyTimes>> policy_times;
  /// Simulated syscalls per workload track (the ns-per-syscall divisor).
  std::map<std::uint32_t, std::uint64_t> syscalls;
  /// Per-layer metrics, keyed by the names in BENCHMARK.json.
  Report* report = nullptr;
};

/// Sum of self time and count of the spans named `name` on `track`.
struct SpanTotal {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  double mean_total_ns() const {
    return calls > 0 ? static_cast<double>(total_ns) / static_cast<double>(calls)
                     : 0.0;
  }
};
SpanTotal span_total(const Tracer& tracer, std::uint32_t track,
                     const std::string& name);

struct TracedCell {
  flexfetch::sim::SimResult result;
  std::uint64_t events = 0;    ///< Simulator::step() calls that ran an event.
  std::int64_t loop_ns = 0;    ///< start() + every step(), policy time included.
};

/// Runs one sweep cell as sim::run_cell does, with the audit on (and
/// metrics-only telemetry if `metrics`), the policy wrapped in TimedPolicy
/// and spans around policy construction and the Simulator's constructor,
/// event loop and finish — all on the tracer's current track and cell.
TracedCell run_traced_cell(const flexfetch::sim::SweepCell& cell,
                           TraceContext& ctx, std::uint32_t track, bool metrics);

/// Per-workload ids (the Chrome trace thread of each workload).
enum Track : std::uint32_t { kPaperGrid = 0, kFleetSmall = 1, kCrowdFaulted = 2 };
inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper-grid", "fleet-small",
                                                 "crowd-faulted"};
  return names;
}

// The three workloads. `run_*` is the timed mode: it fills the end-to-end
// metrics. `trace_*` runs the workload once more with spans, policy timers,
// audit and metrics-only telemetry on, and fills the per-layer metrics of
// the layers it is home to; with `overhead` set it also times untraced
// passes and reports bench.trace_overhead_pct.
void run_paper_grid(const Options& opt, Report& report);
void run_fleet_small(const Options& opt, Report& report);
void run_crowd_faulted(const Options& opt, Report& report);
void trace_paper_grid(const Options& opt, TraceContext& ctx, bool overhead);
void trace_fleet_small(const Options& opt, TraceContext& ctx, bool overhead);
void trace_crowd_faulted(const Options& opt, TraceContext& ctx, bool overhead);

/// Untraced vs traced throughput, in percent of the traced rate.
inline double overhead_pct(double untraced_cps, double traced_cps) {
  return traced_cps > 0.0 ? 100.0 * (untraced_cps / traced_cps - 1.0) : 0.0;
}

}  // namespace perfbench
