#ifndef DMTL_VALIDATION_PARALLEL_SESSIONS_H_
#define DMTL_VALIDATION_PARALLEL_SESSIONS_H_

#include <vector>

#include "src/chain/workload.h"

namespace dmtl {

// The "millions of users" scaling axis: trading sessions are independent of
// one another (every contract predicate is keyed by account, and accounts
// never interact across sessions), so a fleet of account-sharded sessions
// materializes embarrassingly parallel. FleetServer is the driver that runs
// them across cores; this derives the shard workloads it is fed.

// Derives `num_shards` independent account-sharded session configs from a
// base config: same shape and volume, disjoint seeds, suffixed names.
std::vector<WorkloadConfig> ShardConfigs(const WorkloadConfig& base,
                                         int num_shards);

}  // namespace dmtl

#endif  // DMTL_VALIDATION_PARALLEL_SESSIONS_H_
