// Fleet-scale population sweep driver: N synthetic users sharded across
// worker THREADS, with an automated bit-identity gate against the
// one-thread reference.
//
//   ./build/bench/ffbench fleet [--users N] [--block-size B] [--workers W]
//                               [--seed S] [--policies a,b,c]
//                               [--workload-scale X] [--telemetry]
//                               [--checkpoint-dir DIR] [--resume]
//                               [--no-baseline] [--out FILE]
//
// The driver first runs the whole population on one thread (the
// monolithic baseline) and fingerprints the aggregate, then runs W shards
// on a thread pool (fleet::run_shards). Each shard runs its interleaved
// block set and appends exact (hexfloat) per-block summaries to
// DIR/shard-k, flushed per block. The driver merges every recovered block
// in block-index order and GATES on fingerprint equality with the
// baseline: the sharded aggregate must be bit-identical to the one-thread
// one, whatever the worker count or completion order (see
// src/fleet/runner.hpp for why that holds). BENCH_fleet.json records
// throughput (users/sec), the sharded speedup over the baseline, peak RSS,
// per-shard wall times, and the per-stratum aggregates.
//
// --resume keeps existing checkpoint lines and runs only the missing
// blocks — kill the run, rerun with --resume (any --workers), and the
// merged result is bit-identical to an uninterrupted one (the per-block
// lines already flushed are reused verbatim; a torn trailing line is
// dropped by the loader and that block simply reruns).

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/population.hpp"
#include "fleet/runner.hpp"
#include "experiments.hpp"
#include "harness.hpp"
#include "sim/sweep.hpp"

namespace flexfetch::bench {

namespace {

struct FleetFlags {
  std::uint64_t users = 1000;
  std::uint64_t block_size = 0;  // 0 = FleetConfig default
  int workers = 2;
  std::uint64_t seed = 1;
  std::string policies_csv;
  double workload_scale = fleet::FleetConfig{}.tuning.workload_scale;
  bool telemetry = false;
  std::string checkpoint_dir = "BENCH_fleet.ckpt";
  bool resume = false;
  bool no_baseline = false;
  std::string out_path = "BENCH_fleet.json";
};

fleet::FleetConfig config_from(const FleetFlags& f) {
  fleet::FleetConfig config;
  config.population.master_seed = f.seed;
  config.population.scenario_seed = f.seed;
  if (!f.policies_csv.empty()) {
    config.population.policies = split_csv(f.policies_csv);
  }
  config.users = f.users;
  if (f.block_size > 0) config.block_size = f.block_size;
  config.workers = f.workers;
  config.telemetry = f.telemetry;
  config.tuning.workload_scale = f.workload_scale;
  return config;
}

void write_fleet_json(std::ostream& os, const fleet::FleetConfig& config,
                      const sim::SweepAggregator& agg,
                      const std::vector<fleet::ShardRunStats>& shards,
                      double wall_seconds, double baseline_wall_seconds,
                      bool baseline_ran, bool identical,
                      std::uint64_t resumed_blocks) {
  os << "{\n";
  os << "  \"users\": " << config.users << ",\n";
  os << "  \"block_size\": " << config.block_size << ",\n";
  os << "  \"blocks\": " << fleet::block_count(config) << ",\n";
  os << "  \"workers\": " << config.workers << ",\n";
  os << "  \"hardware_concurrency\": " << ThreadPool::default_concurrency()
     << ",\n";
  os << "  \"workload_scale\": " << config.tuning.workload_scale << ",\n";
  os << "  \"telemetry\": " << (config.telemetry ? "true" : "false") << ",\n";
  os << "  \"wall_seconds\": " << wall_seconds << ",\n";
  os << "  \"users_per_sec\": "
     << (wall_seconds > 0.0 ? static_cast<double>(config.users) / wall_seconds
                            : 0.0)
     << ",\n";
  os << "  \"baseline\": " << (baseline_ran ? "true" : "false") << ",\n";
  os << "  \"baseline_wall_seconds\": " << baseline_wall_seconds << ",\n";
  os << "  \"speedup\": "
     << (baseline_ran && wall_seconds > 0.0
             ? baseline_wall_seconds / wall_seconds
             : 0.0)
     << ",\n";
  os << "  \"aggregates_identical\": " << (identical ? "true" : "false")
     << ",\n";
  os << "  \"resumed_blocks\": " << resumed_blocks << ",\n";
  os << "  \"peak_rss_bytes\": " << peak_rss_bytes() << ",\n";
  os << "  \"shards\": [\n";
  for (std::size_t k = 0; k < shards.size(); ++k) {
    const fleet::ShardRunStats& st = shards[k];
    os << "    {\"shard\": " << k << ", \"wall_seconds\": " << st.wall_seconds
       << ", \"users\": " << st.users << ", \"blocks\": " << st.blocks << "}"
       << (k + 1 < shards.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"cells\": " << agg.cells_seen() << ",\n";
  sim::write_strata_json(os, agg, 2);
  os << "\n}\n";
}

int run_sharded(const FleetFlags& f, const fleet::FleetConfig& config,
                std::uint64_t n_blocks) {
  const fleet::PopulationGenerator gen(config.population);
  std::printf("fleet: %llu users in %llu blocks of %llu, %d workers\n",
              static_cast<unsigned long long>(config.users),
              static_cast<unsigned long long>(n_blocks),
              static_cast<unsigned long long>(config.block_size),
              config.workers);

  namespace fs = std::filesystem;
  fs::create_directories(f.checkpoint_dir);
  std::uint64_t resumed_blocks = 0;
  if (f.resume) {
    resumed_blocks =
        fleet::load_checkpoint_dir(f.checkpoint_dir).blocks.size();
    std::printf("resume: %llu blocks already durable\n",
                static_cast<unsigned long long>(resumed_blocks));
  } else {
    // Fresh run: clear this run's own scratch files (and nothing else).
    for (const auto& entry : fs::directory_iterator(f.checkpoint_dir)) {
      const std::string name = entry.path().filename().string();
      if (entry.is_regular_file() && name.rfind("shard-", 0) == 0) {
        fs::remove(entry.path());
      }
    }
  }

  // One-thread reference: same block fold, no serialization.
  double baseline_wall = 0.0;
  std::string baseline_fp;
  if (!f.no_baseline) {
    fleet::ScenarioCatalog catalog(config.population.scenario_seed,
                                   config.population.think_scales,
                                   config.tuning);
    const auto t0 = std::chrono::steady_clock::now();
    const sim::SweepAggregator mono =
        fleet::run_monolithic(config, gen, catalog);
    baseline_wall = seconds_since(t0);
    baseline_fp = fleet::fingerprint(mono);
    std::printf("baseline (1 thread): %.2f s, %.0f users/s\n", baseline_wall,
                static_cast<double>(config.users) / baseline_wall);
  }

  // Sharded pass: one pool thread per shard, all concurrent.
  const auto t1 = std::chrono::steady_clock::now();
  const std::vector<fleet::ShardRunStats> shards =
      fleet::run_shards(config, gen, f.checkpoint_dir, [] {
        return seconds_since(std::chrono::steady_clock::time_point{});
      });
  const double wall = seconds_since(t1);
  std::printf("sharded (%d threads): %.2f s, %.0f users/s\n", config.workers,
              wall, static_cast<double>(config.users) / wall);

  // Merge and gate.
  const fleet::CheckpointState state =
      fleet::load_checkpoint_dir(f.checkpoint_dir);
  const sim::SweepAggregator merged = fleet::merge_blocks(config, state.blocks);
  bool identical = false;
  if (!f.no_baseline) {
    identical = fleet::fingerprint(merged) == baseline_fp;
    if (!identical) {
      std::fprintf(stderr,
                   "BIT-IDENTITY VIOLATION: sharded merge differs from the "
                   "one-thread aggregate\n");
      return 1;
    }
    std::printf("bit-identity: sharded merge == one-thread aggregate "
                "(%llu blocks, %d workers)\n",
                static_cast<unsigned long long>(n_blocks), config.workers);
  }

  std::ofstream os(f.out_path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", f.out_path.c_str());
    return 1;
  }
  write_fleet_json(os, config, merged, shards, wall, baseline_wall,
                   !f.no_baseline, identical, resumed_blocks);
  std::printf("wrote %s (%zu strata)\n", f.out_path.c_str(),
              merged.strata().size());
  return 0;
}

}  // namespace

int run_fleet(int argc, char** argv) {
  FleetFlags f;
  ParsedFlags flags;
  flags.add("users", &f.users, "N");
  flags.add("block-size", &f.block_size, "B");
  flags.add("workers", &f.workers, "W");
  flags.add("seed", &f.seed, "S");
  flags.add("policies", &f.policies_csv, "a,b,c");
  flags.add("workload-scale", &f.workload_scale, "X");
  flags.add("telemetry", &f.telemetry);
  flags.add("checkpoint-dir", &f.checkpoint_dir, "DIR");
  flags.add("resume", &f.resume);
  flags.add("no-baseline", &f.no_baseline);
  flags.add("out", &f.out_path, "FILE");
  flags.parse(argc, argv);
  if (!(f.workload_scale > 0.0)) {
    std::fprintf(stderr, "ffbench fleet: --workload-scale must be > 0\n");
    return 2;
  }
  const fleet::FleetConfig config = config_from(f);
  const std::uint64_t n_blocks = fleet::block_count(config);
  if (f.workers < 1 || static_cast<std::uint64_t>(f.workers) > n_blocks) {
    std::fprintf(stderr,
                 "ffbench fleet: --workers must be in [1, %llu] (the block "
                 "count)\n",
                 static_cast<unsigned long long>(n_blocks));
    return 2;
  }
  return run_sharded(f, config, n_blocks);
}

}  // namespace flexfetch::bench
