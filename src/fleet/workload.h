#ifndef DMTL_FLEET_WORKLOAD_H_
#define DMTL_FLEET_WORKLOAD_H_

#include <utility>
#include <vector>

#include "src/chain/events.h"
#include "src/chain/workload.h"
#include "src/storage/database.h"

namespace dmtl {

// One queued operation against a hosted session - the fleet server's unit
// of replay and the schedulable tail a warm restart re-runs. The vocabulary
// mirrors EngineSession: push a fact, step a channel, advance the
// watermark, slide the window.
struct FleetOp {
  enum class Kind { kPush, kStep, kAdvance, kSlide };

  Kind kind = Kind::kAdvance;
  Fact fact;                  // kPush: the fact to insert and log
  PredicateId predicate = 0;  // kStep: the channel predicate
  Tuple args;                 // kStep: the channel value
  Rational t;                 // kStep: step time; kAdvance: target
                              // watermark; kSlide: new window minimum

  static FleetOp Push(Fact fact) {
    FleetOp op;
    op.kind = Kind::kPush;
    op.fact = std::move(fact);
    return op;
  }
  static FleetOp Step(PredicateId pred, Tuple args, const Rational& t) {
    FleetOp op;
    op.kind = Kind::kStep;
    op.predicate = pred;
    op.args = std::move(args);
    op.t = t;
    return op;
  }
  static FleetOp Advance(const Rational& t) {
    FleetOp op;
    op.kind = Kind::kAdvance;
    op.t = t;
    return op;
  }
  static FleetOp Slide(const Rational& new_min) {
    FleetOp op;
    op.kind = Kind::kSlide;
    op.t = new_min;
    return op;
  }
};

// Compiles a trading session into the exact operation sequence
// ReplaySessionStream drives interactively: window marks and initial state
// first, then - per distinct chain time t, in order - the price step and
// method calls at t followed by an advance to t, and a final advance to the
// session end. Feeding these ops to any EngineSession yields the same
// coverage a batch run over SessionToDatabase(session) derives; the fleet
// workload generator builds its per-session queues from this.
std::vector<FleetOp> SessionToOps(const Session& session);

// Derives `num_shards` independent account-sharded session configs from a
// base config: same shape and volume, disjoint seeds, suffixed names.
// Trading sessions are independent of one another (every contract predicate
// is keyed by account, and accounts never interact across sessions), so a
// fleet of such shards is the engine's parallel axis.
std::vector<WorkloadConfig> ShardConfigs(const WorkloadConfig& base,
                                         int num_shards);

}  // namespace dmtl

#endif  // DMTL_FLEET_WORKLOAD_H_
