// Lazy per-shard cache of tuned scenario bundles.
//
// A fleet cell needs a ScenarioBundle for (scenario index, think bucket).
// Building a bundle is the expensive part of a cell (trace generation +
// compilation), so the catalog builds each distinct combination at most
// once per catalog and hands out stable const pointers — SweepCell holds
// a raw pointer into the catalog, which therefore must outlive every
// cell built from it. With the default 3 think buckets that is at most
// 15 bundles per shard however many users stream through.
//
// Not thread-safe: each fleet shard (or the single-thread baseline loop)
// owns its own catalog and runs cells sequentially.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "workloads/scenarios.hpp"

namespace flexfetch::fleet {

class ScenarioCatalog {
 public:
  /// `think_scales` are the population's quantisation buckets; a bundle
  /// for bucket b is built with tuning.think_scale = base.think_scale *
  /// think_scales[b] (workload_scale passes through unchanged).
  ScenarioCatalog(std::uint64_t scenario_seed,
                  std::vector<double> think_scales,
                  workloads::ScenarioTuning base_tuning);

  /// The bundle for (scenario, bucket), built on first use. The returned
  /// reference stays valid for the catalog's lifetime.
  const workloads::ScenarioBundle& bundle(std::size_t scenario,
                                          std::size_t think_bucket);

  std::size_t bundles_built() const { return built_; }

 private:
  std::uint64_t seed_;
  std::vector<double> think_scales_;
  workloads::ScenarioTuning base_;
  std::vector<std::unique_ptr<workloads::ScenarioBundle>> cache_;
  std::size_t built_ = 0;
};

/// Builds one paper scenario by all_scenarios() index (0 = grep+make ...
/// 4 = stale acroread). Throws ConfigError on an out-of-range index.
workloads::ScenarioBundle make_scenario(std::size_t index, std::uint64_t seed,
                                        const workloads::ScenarioTuning& t);

}  // namespace flexfetch::fleet
