// fleet::run_shards, the thread-pool shard runner declared in runner.hpp.
// It has its own translation unit so that programs which only fold blocks
// (run_block, merge_blocks) do not link the pool, file and directory code;
// linking it into the one-thread benchmark binary measurably slowed that
// binary's simulator cells.
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "fleet/runner.hpp"

namespace flexfetch::fleet {

namespace {

/// Opens a shard file for append. A run killed mid-write leaves a torn
/// last line without its newline; a resumed shard starts a fresh line so
/// its first record is not glued onto the torn one.
std::ofstream open_shard_file(const std::filesystem::path& path) {
  bool torn = false;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (in && in.tellg() > 0) {
      in.seekg(-1, std::ios::end);
      torn = in.get() != '\n';
    }
  }
  std::ofstream out(path, std::ios::app);
  FF_REQUIRE(out.good(), "fleet: cannot open " + path.string());
  if (torn) out << '\n';
  return out;
}

}  // namespace

std::vector<ShardRunStats> run_shards(const FleetConfig& config,
                                      const PopulationGenerator& gen,
                                      const std::string& checkpoint_dir,
                                      double (*now)()) {
  FF_REQUIRE(config.workers >= 1 &&
                 static_cast<std::uint64_t>(config.workers) <=
                     block_count(config),
             "fleet: workers must be in [1, block count]");
  std::filesystem::create_directories(checkpoint_dir);
  std::set<std::uint64_t> done;
  for (const auto& [index, summary] :
       load_checkpoint_dir(checkpoint_dir).blocks) {
    done.insert(index);
  }

  std::vector<ShardRunStats> stats(static_cast<std::size_t>(config.workers));
  ThreadPool pool(static_cast<unsigned>(config.workers));
  parallel_for(pool, stats.size(), [&](std::size_t k) {
    const double t0 = now != nullptr ? now() : 0.0;
    const int shard = static_cast<int>(k);
    ScenarioCatalog catalog(config.population.scenario_seed,
                            config.population.think_scales, config.tuning);
    std::ofstream out = open_shard_file(std::filesystem::path(checkpoint_dir) /
                                        shard_file_name(shard));
    stats[k] = run_shard(config, gen, catalog, shard, done, out);
    FF_REQUIRE(out.good(), "fleet: write failed on shard " +
                               std::to_string(shard));
    if (now != nullptr) stats[k].wall_seconds = now() - t0;
  });
  return stats;
}

}  // namespace flexfetch::fleet
