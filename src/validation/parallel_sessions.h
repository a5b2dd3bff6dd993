#ifndef DMTL_VALIDATION_PARALLEL_SESSIONS_H_
#define DMTL_VALIDATION_PARALLEL_SESSIONS_H_

// ShardConfigs lives in src/fleet/workload.h. This header only forwards to it
// for perfbench/fleet_drain.cc, which includes it under this name; it goes
// when that include does.
#include "src/fleet/workload.h"

#endif  // DMTL_VALIDATION_PARALLEL_SESSIONS_H_
