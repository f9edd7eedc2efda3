// Parallel sweep engine for the paper's evaluation grids.
//
// The whole Section 3.3 evaluation is a grid of independent trace-driven
// simulations: (scenario, policy, WNIC parameters) cells. Each cell
// constructs its own Simulator and policy from a shared *read-only*
// ScenarioBundle, so cells can run concurrently on a thread pool without
// any synchronisation beyond the task queue.
//
// Thread-safety contract: run_sweep may read each ScenarioBundle from many
// threads at once, so bundles must not be mutated for the duration of the
// call (they are only read through const references; ScenarioBundle has no
// mutable members or lazily-populated caches, and every RNG in the stack is
// an explicitly seeded, per-simulator instance — see DESIGN.md).
//
// Determinism guarantee: results are returned in grid (submission) order
// and each cell's SimResult is bit-identical whether the grid runs on one
// worker or many — scheduling affects only wall-clock time.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/results.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "workloads/scenarios.hpp"

namespace flexfetch::sim {

/// One cell of an evaluation grid. `scenario` must outlive the sweep call.
struct SweepCell {
  const workloads::ScenarioBundle* scenario = nullptr;
  /// Policy factory name (see policies::make_policy).
  std::string policy;
  device::WnicParams wnic;
  /// Base simulator configuration; its `wnic` member is replaced by the
  /// cell's `wnic` above.
  SimConfig config;
  /// Maximum tolerable performance loss rate handed to the policy factory
  /// (FlexFetch variants and Oracle; ignored by the fixed policies).
  double loss_rate = 0.25;
  /// Optional sweep-axis annotation carried through to the JSON emitter
  /// (e.g. axis = "latency_ms", axis_value = 5.0).
  std::string axis;
  double axis_value = 0.0;
};

struct SweepOptions {
  /// Worker count. <= 0 resolves via the FF_JOBS environment variable,
  /// falling back to hardware_concurrency(); 1 runs inline on the calling
  /// thread (the serial baseline).
  int jobs = 0;
};

/// Resolves an effective worker count: `requested` if positive, else
/// FF_JOBS if set to a positive integer, else hardware concurrency.
int resolve_jobs(int requested);

/// How a worker count was arrived at — recorded in sweep artifacts so a
/// benchmark JSON says both what was asked for and what actually ran.
struct JobsResolution {
  int requested = 0;  ///< The --jobs flag value; 0 = auto.
  int effective = 1;  ///< What resolve_jobs() settled on.
  bool from_env = false;  ///< Effective count came from FF_JOBS.
};

/// resolve_jobs with provenance: unset (<= 0) requests clamp to the
/// host's hardware_concurrency (via FF_JOBS if set).
JobsResolution resolve_jobs_detail(int requested);

/// Runs one cell: builds the policy and a fresh Simulator, returns the
/// result. This is the unit of work the engine fans out.
SimResult run_cell(const SweepCell& cell);

/// Runs every cell and returns results in grid order (results[i] is
/// cells[i]). Cells fan out across resolve_jobs(options.jobs) workers;
/// the first cell failure is rethrown after in-flight cells finish.
std::vector<SimResult> run_sweep(const std::vector<SweepCell>& cells,
                                 const SweepOptions& options = {});

/// Cartesian-grid helper: one cell per (scenario, policy, wnic), wnics
/// innermost — the row-major order the figure tables print in.
std::vector<SweepCell> make_grid(
    const std::vector<const workloads::ScenarioBundle*>& scenarios,
    const std::vector<std::string>& policies,
    const std::vector<device::WnicParams>& wnics, const SimConfig& base = {});

/// Streaming per-cell delivery: called once per cell, in strict grid
/// order (index 0, 1, 2...), with the result moved in so the engine can
/// release it immediately — aggregate consumers never hold more than a
/// bounded window of SimResults in memory.
using CellSink =
    std::function<void(std::size_t index, const SweepCell& cell,
                       SimResult&& result)>;

/// Runs every cell like run_sweep, but hands each result to `sink` as
/// soon as it (and all its predecessors) completed, instead of
/// accumulating a results vector. Workers stay at most a bounded reorder
/// window ahead of the in-order emission point, so peak memory is
/// O(jobs), not O(cells). The sink is invoked serially (never
/// concurrently with itself) and sees bit-identical results in identical
/// order whatever the worker count. The first cell failure is rethrown
/// after in-flight cells finish; cells after a failed one are not
/// delivered.
void run_sweep_streaming(const std::vector<SweepCell>& cells,
                         const SweepOptions& options, const CellSink& sink);

/// Streaming (Welford) mean/variance accumulator with exact merge — the
/// scalar counterpart of telemetry::Histogram for sweep aggregation.
class RunningStat {
 public:
  void add(double x);
  /// Chan et al. parallel combination: merging partials is exact in the
  /// same sense as sequential accumulation (no second pass over data).
  void merge(const RunningStat& other);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Population variance (M2 / n).
  double variance() const {
    return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
  }
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }

  /// Raw second central moment (M2), exposed — with from_raw below — so
  /// checkpoints can round-trip a partial exactly (fleet shard summaries
  /// must merge to bit-identical aggregates after a save/load cycle).
  double m2() const { return m2_; }

  /// Reconstructs a stat from its serialized raw fields. The inverse of
  /// reading (count, mean, m2, min, max): feeding the values back yields
  /// a stat whose merge behaviour is bit-identical to the original.
  static RunningStat from_raw(std::uint64_t n, double mean, double m2,
                              double min, double max) {
    RunningStat s;
    s.n_ = n;
    s.mean_ = mean;
    s.m2_ = m2;
    s.min_ = min;
    s.max_ = max;
    return s;
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Aggregate over one stratum of a sweep (one scenario x policy pair):
/// running stats over the headline scalars plus the merged metrics
/// registry (counters add, histograms merge bucket-wise).
struct StratumAggregate {
  std::uint64_t cells = 0;
  RunningStat energy_j;
  RunningStat disk_energy_j;
  RunningStat wnic_energy_j;
  RunningStat makespan_s;
  RunningStat io_time_s;
  telemetry::MetricsRegistry metrics;

  void add(const SimResult& result);

  /// Folds another partial in: Chan-merge on every stat, metric-kind-wise
  /// merge on the registry. The fleet merge contract (see
  /// src/fleet/runner.hpp) is built on this being a pure function of the
  /// two operands — merging the same partials in the same order always
  /// reproduces the same bits.
  void merge(const StratumAggregate& other);
};

/// Upper edge of the first histogram bucket whose cumulative count reaches
/// q * count — a conservative (over-estimating by at most one power of
/// two) quantile. q <= 0 returns the first populated bucket's edge; an
/// empty histogram has no quantiles and returns 0.0.
double histogram_quantile(const telemetry::Histogram& h, double q);

/// Folds streamed cell results into per-stratum aggregates. Feed it from
/// a CellSink: strata keys are "scenario/policy", kept sorted, and since
/// the sink runs in grid order the aggregate is deterministic and
/// identical for any worker count.
class SweepAggregator {
 public:
  void add(const SweepCell& cell, const SimResult& result);

  /// Folds a whole partial aggregator in, stratum by stratum (new keys
  /// are inserted, existing ones Chan-merged). This is the shard-merge
  /// step of the fleet runner: parent folds worker partials in a fixed
  /// (block-index) order, so the result is independent of which process
  /// computed which partial and of completion order.
  void merge(const SweepAggregator& other);

  /// Inserts/merges one externally reconstructed stratum partial; its
  /// cells count toward cells_seen().
  void merge_stratum(const std::string& key, const StratumAggregate& partial);

  /// Checkpoint-restore: inserts a reconstructed stratum verbatim. The
  /// key must not already exist (ConfigError otherwise). Unlike
  /// merge_stratum, no arithmetic touches the partial — counters merged
  /// into a default-zero stratum would go through `0.0 + v`, which is
  /// not the identity for every double — so a parsed checkpoint block
  /// is bit-identical to the aggregator that was written.
  void restore_stratum(std::string key, StratumAggregate partial);

  std::uint64_t cells_seen() const { return cells_seen_; }
  const std::map<std::string, StratumAggregate>& strata() const {
    return strata_;
  }

 private:
  std::uint64_t cells_seen_ = 0;
  std::map<std::string, StratumAggregate> strata_;
};

/// Order-sensitive FNV-1a fold of every scalar write_sweep_json records
/// for a cell (bit patterns, not rounded text). Two passes over the same
/// grid produce equal digests iff every cell result is bit-identical —
/// the O(1)-memory determinism gate behind `ffbench sweep --cells=off`,
/// where the per-cell results vector is never materialized.
std::uint64_t fold_result_digest(std::uint64_t digest, const SimResult& result);

/// Seed for fold_result_digest chains (FNV-1a offset basis).
inline constexpr std::uint64_t kResultDigestSeed = 0xcbf29ce484222325ULL;

/// Timing metadata recorded alongside the per-cell results.
struct SweepRunInfo {
  int jobs = 1;
  /// The worker count asked for (0 = auto) before clamping/resolution.
  int jobs_requested = 0;
  /// Host cores at measurement time (contextualises the speedup; a 1-core
  /// host cannot show one). Filled by write_sweep_json if left at 0.
  unsigned hardware_concurrency = 0;
  double wall_seconds = 0.0;
  /// Wall-clock of a jobs=1 reference run of the same grid, if one was
  /// taken (<= 0 means not measured).
  double serial_wall_seconds = 0.0;
  /// The run already was serial (effective jobs == 1), so no separate
  /// jobs=1 baseline pass was taken — the single pass is its own
  /// baseline and no speedup is measurable.
  bool serial_fallback = false;
  /// Peak resident set size of the measuring process (getrusage
  /// ru_maxrss), measured by the bench harness just before emission;
  /// 0 = not measured. Makes memory-boundedness claims checkable from
  /// the JSON record instead of asserted.
  std::uint64_t peak_rss_bytes = 0;

  double speedup() const {
    return (serial_wall_seconds > 0.0 && wall_seconds > 0.0)
               ? serial_wall_seconds / wall_seconds
               : 0.0;
  }
};

/// Emits the machine-readable sweep record: run metadata plus one JSON
/// object per cell (scenario, policy, wnic point, energy/time). Keys are
/// stable across PRs so perf trajectories can be diffed.
void write_sweep_json(std::ostream& os, const std::vector<SweepCell>& cells,
                      const std::vector<SimResult>& results,
                      const SweepRunInfo& info);

/// Emits the aggregate sweep record: run metadata plus one JSON object
/// per stratum with mean/stddev/min/max of the headline scalars, the
/// merged scalar metrics, and bucket-quantile summaries of the merged
/// histograms. Constant-size output however many cells streamed through.
void write_aggregate_json(std::ostream& os, const SweepAggregator& agg,
                          const SweepRunInfo& info);

/// Emits just the `"strata": [...]` key/value pair of the aggregate
/// record at the given indent depth (no trailing comma or newline) —
/// shared by write_aggregate_json, the cells-off sweep record, and
/// BENCH_fleet.json so all three stay schema-aligned.
void write_strata_json(std::ostream& os, const SweepAggregator& agg,
                       int indent);

/// Cells-off sweep record: the run metadata of write_sweep_json plus the
/// per-stratum aggregates and the streaming determinism digest — but no
/// cells[] array, so output size and memory are bounded by strata count
/// however large the grid was (`ffbench sweep --cells=off`).
void write_sweep_summary_json(std::ostream& os, const SweepAggregator& agg,
                              const SweepRunInfo& info,
                              std::uint64_t cell_count,
                              std::uint64_t cells_digest);

}  // namespace flexfetch::sim
