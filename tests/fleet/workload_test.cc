#include "src/fleet/workload.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace dmtl {
namespace {

WorkloadConfig SmallBase() {
  WorkloadConfig base;
  base.name = "shardtest";
  base.num_events = 24;
  base.num_trades = 5;
  base.duration_s = 600;
  base.seed = 7;
  return base;
}

TEST(ShardConfigsTest, ProducesDistinctNamedShards) {
  std::vector<WorkloadConfig> shards = ShardConfigs(SmallBase(), 4);
  ASSERT_EQ(shards.size(), 4u);
  std::set<std::string> names;
  std::set<uint64_t> seeds;
  for (const WorkloadConfig& shard : shards) {
    names.insert(shard.name);
    seeds.insert(shard.seed);
    EXPECT_EQ(shard.num_events, 24);
    EXPECT_EQ(shard.num_trades, 5);
  }
  EXPECT_EQ(names.size(), 4u);
  EXPECT_EQ(seeds.size(), 4u);
  EXPECT_TRUE(ShardConfigs(SmallBase(), 0).empty());
}

}  // namespace
}  // namespace dmtl
