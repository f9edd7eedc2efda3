// Block-structured fleet execution with an exact merge contract.
//
// The naive way to shard a million-user sweep — each worker Welford-folds
// its own users, parent Chan-merges the worker partials — is NOT
// bit-identical across worker counts: floating-point merge is exact in
// the statistical sense but not bitwise-associative, so 2 workers and 4
// workers round differently. The fleet runner fixes the aggregation tree
// structurally instead:
//
//   * The population is partitioned into fixed-size BLOCKS of consecutive
//     users (block b = users [b*B, min((b+1)*B, N))). Block size is part
//     of the run's configuration, independent of worker count.
//   * A block's aggregate is the sequential fold of its users in index
//     order — the same bits whoever computes it, because user cells are
//     themselves deterministic (see population.hpp).
//   * The global aggregate is the fold of block aggregates in BLOCK INDEX
//     order. Workers own interleaved blocks (block % workers == shard)
//     and emit per-block summaries; the merge sorts by block index and
//     folds. The tree shape — and therefore every rounding step — is a
//     function of (N, B) alone, so ANY worker count, completion order, or
//     kill/resume partitioning reproduces the one-thread bits.
//
// That last property is what the fleet bench gates on: fingerprint(merge
// of the shard files) must equal fingerprint(in-memory one-thread fold)
// exactly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <set>
#include <string>
#include <vector>

#include "fleet/catalog.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/population.hpp"
#include "sim/sweep.hpp"

namespace flexfetch::fleet {

struct FleetConfig {
  PopulationSpec population;
  /// Base scenario tuning. Fleet runs default to scaled-down workloads
  /// (~1 ms of simulated I/O per user) so 100k+ users stay tractable;
  /// think_scale stays 1.0 here because the population's per-user think
  /// buckets multiply on top of it.
  workloads::ScenarioTuning tuning{1.0, 0.15};
  std::uint64_t users = 1000;
  /// Users per aggregation block. Part of the determinism contract:
  /// changing it changes the fold tree and therefore the low-order bits
  /// of the aggregate (every run being compared must share it).
  std::uint64_t block_size = 256;
  /// Worker shards, one pool thread each in run_shards (blocks are dealt
  /// round-robin: block % workers).
  int workers = 1;
  /// Run every cell with metrics-only telemetry on (histograms ride the
  /// checkpoint format exactly).
  bool telemetry = false;
};

/// ceil(users / block_size); validates both are nonzero.
std::uint64_t block_count(const FleetConfig& config);

/// Builds user u's sweep cell against the catalog's shared bundle. The
/// bundle reference must outlive the returned cell (it holds a pointer).
sim::SweepCell cell_for(const UserParams& u, const PopulationGenerator& gen,
                        const workloads::ScenarioBundle& bundle,
                        const FleetConfig& config);

/// Runs one block start to finish: regenerates its users, simulates each
/// in index order, folds into a fresh aggregator. Pure function of
/// (config, block) — the catalog is only a cache.
BlockSummary run_block(const FleetConfig& config,
                       const PopulationGenerator& gen,
                       ScenarioCatalog& catalog, std::uint64_t block);

/// What a shard actually executed (blocks already in `done` are skipped,
/// so a resumed shard reports only its new work).
struct ShardRunStats {
  std::uint64_t blocks = 0;
  std::uint64_t users = 0;
  /// Host wall time of the shard; set by run_shards when given a clock.
  double wall_seconds = 0.0;
};

/// Runs every block of `shard` (block % workers == shard) not already in
/// `done`, appending one checkpoint line per block to `out` (flushed per
/// line, so a kill loses at most the in-flight block).
ShardRunStats run_shard(const FleetConfig& config,
                        const PopulationGenerator& gen,
                        ScenarioCatalog& catalog, int shard,
                        const std::set<std::uint64_t>& done,
                        std::ostream& out);

/// Runs the whole fleet into `checkpoint_dir` (created if missing) on a
/// ThreadPool of config.workers threads, one task per shard. Each shard
/// owns its ScenarioCatalog and appends to its own shard_file_name(k)
/// through run_shard, skipping every block already durable in the
/// directory — so a rerun over a killed run's files executes only the
/// missing blocks, whatever its worker count. Requires 1 <= workers <=
/// block_count. Returns shard k's stats at index k; if a shard throws, the
/// others still finish and the lowest shard's exception is rethrown.
/// `now` is an optional host clock in seconds for the per-shard
/// wall_seconds (src/ itself reads only simulated time).
std::vector<ShardRunStats> run_shards(const FleetConfig& config,
                                      const PopulationGenerator& gen,
                                      const std::string& checkpoint_dir,
                                      double (*now)() = nullptr);

/// Folds recovered block summaries in block-index order into the global
/// aggregate. Throws ConfigError unless `blocks` covers every block of
/// the run exactly (no gaps — a partial checkpoint cannot masquerade as
/// a finished run).
sim::SweepAggregator merge_blocks(
    const FleetConfig& config,
    const std::map<std::uint64_t, BlockSummary>& blocks);

/// The one-thread reference: runs every block in order and folds
/// directly (no serialization). The sharded path must
/// reproduce this bit-for-bit; benches fingerprint both.
sim::SweepAggregator run_monolithic(const FleetConfig& config,
                                    const PopulationGenerator& gen,
                                    ScenarioCatalog& catalog);

}  // namespace flexfetch::fleet
