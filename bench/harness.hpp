// Shared harness of the ffbench experiments: the paper-figure sweep over
// WNIC latency and bandwidth, strict command-line flags, and the small
// helpers (CSV lists, result equality, Chrome traces, metrics summaries,
// host wall time and RSS) that several experiments record with. The grid
// is fanned out across worker threads by the sweep engine (sim/sweep.hpp);
// results are deterministic and printed in grid order.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "workloads/scenarios.hpp"

namespace flexfetch::bench {

/// Sweep axes used throughout the paper's evaluation (Section 3.3): WNIC
/// latency at fixed 11 Mbps, and the 802.11b bandwidths at fixed 1 ms.
struct SweepSpec {
  std::vector<double> latencies_ms = {0.0,  1.0,  3.0,  5.0,  7.0,  9.0, 12.0,
                                      15.0, 20.0, 30.0, 50.0, 70.0, 100.0};
  std::vector<double> bandwidths_mbps = {1.0, 2.0, 5.5, 11.0};
  /// Policy factory names (see policies::make_policy).
  std::vector<std::string> policies;
  /// Worker threads; <= 0 resolves FF_JOBS then hardware_concurrency().
  int jobs = 0;
  /// Collect per-cell telemetry metrics (metrics-only mode, no event
  /// buffers) and print a merged per-policy summary after the figure.
  bool metrics = false;
  /// If non-empty, record full events for the figure's first cell and
  /// write them there as Chrome trace_event JSON (chrome://tracing).
  std::string trace_out;
  /// Non-zero: inject the deterministic fault schedule generated from this
  /// seed (WNIC outages/degradations + disk spin-up stalls) into every
  /// cell. Zero (default) leaves the grid fault-free.
  std::uint64_t fault_seed = 0;
};

/// Builds the figure's (a) latency-panel and (b) bandwidth-panel cells, in
/// the row-major order print_figure prints them.
std::vector<sim::SweepCell> figure_cells(
    const workloads::ScenarioBundle& scenario, const SweepSpec& spec);

/// Prints "(a) energy vs latency" and "(b) energy vs bandwidth" tables for
/// the scenario — the two panels of each figure in Section 3.3. Cells run
/// in parallel per `spec.jobs`. Returns false when `spec.trace_out` is set
/// and cannot be written.
[[nodiscard]] bool print_figure(const std::string& figure_label,
                                const workloads::ScenarioBundle& scenario,
                                const SweepSpec& spec);

/// Turns on metrics-only telemetry in every cell when `metrics` is set or
/// a trace is requested, and full event capture in cell 0 when `trace_out`
/// is non-empty (event capture is a per-cell opt-in).
void enable_telemetry(std::vector<sim::SweepCell>& cells, bool metrics,
                      const std::string& trace_out);

/// Merges each policy's per-cell telemetry metrics and prints one
/// "[policy]" block per policy, then a blank line. The caller prints the
/// heading that says what was merged.
void print_metrics_by_policy(const std::vector<std::string>& policies,
                             const std::vector<sim::SweepCell>& cells,
                             const std::vector<sim::SimResult>& results);

/// Writes `result`'s captured events (with its metrics) as Chrome
/// trace_event JSON to `path` and reports it as cell 0 of the run on
/// stdout. Returns false, after saying so on stderr, when `path` cannot be
/// opened.
[[nodiscard]] bool write_cell_trace(const std::string& path,
                                    const sim::SweepCell& cell,
                                    const sim::SimResult& result);

/// Bit-equality of every numeric field the bench records carry (time,
/// energy split, request and byte counts). The policy name is not
/// compared: an adaptive spec and its static twin legitimately differ
/// there.
bool numerically_identical(const sim::SimResult& a, const sim::SimResult& b);

/// Splits "a,b,c" at every comma; empty fields are kept.
std::vector<std::string> split_csv(const std::string& s);

/// Parses all of `text` as a base-10 T (int, std::uint64_t or double).
/// Returns false, leaving `out` alone, on an empty token, trailing junk, a
/// sign on an unsigned type, an out-of-range value or a non-finite double.
template <typename T>
bool parse_number(std::string_view text, T& out);

/// Declarative command-line flag table. Each experiment registers the
/// flags it honours (`add`), then calls `parse` once: anything else —
/// an unknown flag, a missing value or a value that does not parse in
/// full — prints a generated usage message and exits with status 2, so
/// no argument is ever silently ignored or turned into 0. Spelling
/// variants (`--flag VALUE` and `--flag=VALUE`), the per-flag usage
/// listing and `--help`/`-h` all come for free.
class ParsedFlags {
 public:
  /// Bare boolean flag: `--name` sets *target to true.
  void add(std::string name, bool* target);
  /// Integer flag: `--name N` or `--name=N`.
  void add(std::string name, int* target, std::string value_name);
  /// Unsigned 64-bit flag (seeds, counts).
  void add(std::string name, std::uint64_t* target, std::string value_name);
  /// Finite floating-point flag.
  void add(std::string name, double* target, std::string value_name);
  /// String flag.
  void add(std::string name, std::string* target, std::string value_name);

  /// Parses argv[1..argc); argv[0] is the experiment name, used in the
  /// messages.
  void parse(int argc, char** argv) const;

 private:
  struct Flag {
    std::string name;           // Including the leading "--".
    std::string value_name;     // Empty for booleans.
    bool* bool_target = nullptr;
    int* int_target = nullptr;
    std::uint64_t* u64_target = nullptr;
    double* double_target = nullptr;
    std::string* string_target = nullptr;
  };
  /// One line per registered flag, plus --help.
  void print_flag_list(std::FILE* to) const;
  [[noreturn]] void usage_and_exit(const char* experiment,
                                   const std::string& complaint) const;
  std::vector<Flag> flags_;
};

/// Host wall time since `start`, in seconds.
double seconds_since(std::chrono::steady_clock::time_point start);

/// Peak resident set size of this process so far, in bytes (getrusage
/// ru_maxrss). Experiments record it into their JSON artifacts so
/// memory-boundedness claims (--cells=off, fleet shards) are checkable
/// from the record. Lives in bench/, not src/: it is a host measurement,
/// like wall clocks.
std::uint64_t peak_rss_bytes();

}  // namespace flexfetch::bench
