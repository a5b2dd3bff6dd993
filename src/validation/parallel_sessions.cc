#include "src/validation/parallel_sessions.h"

#include <string>
#include <utility>

namespace dmtl {

std::vector<WorkloadConfig> ShardConfigs(const WorkloadConfig& base,
                                         int num_shards) {
  std::vector<WorkloadConfig> shards;
  if (num_shards <= 0) return shards;
  shards.reserve(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    WorkloadConfig config = base;
    config.name = base.name + "-shard" + std::to_string(i);
    // Disjoint seeds give every shard its own accounts and order flow; the
    // stride keeps neighboring shards' streams uncorrelated.
    config.seed = base.seed + static_cast<uint64_t>(i) * 0x9E3779B9u + 1;
    shards.push_back(std::move(config));
  }
  return shards;
}

}  // namespace dmtl
