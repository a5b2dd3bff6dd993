#include "src/fleet/workload.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

namespace dmtl {

std::vector<FleetOp> SessionToOps(const Session& session) {
  std::vector<FleetOp> ops;
  Rational start(session.start_time);
  Rational end(session.end_time);

  ops.push_back(FleetOp::Push(
      Fact::Make("start", {}, Interval::Point(start))));
  ops.push_back(FleetOp::Push(
      Fact::Make("marketEnd", {}, Interval::Point(end))));
  ops.push_back(FleetOp::Push(
      Fact::Make("skew", {Value::Double(session.initial_skew)},
                 Interval::Point(start))));
  ops.push_back(FleetOp::Push(
      Fact::Make("frs", {Value::Double(0.0)}, Interval::Point(start))));

  // Distinct chain event times, ascending - exactly the advance schedule
  // ReplaySessionStream runs.
  std::vector<int64_t> times;
  times.reserve(session.prices.size() + session.events.size());
  for (const PricePoint& p : session.prices) times.push_back(p.time);
  for (const MarketEvent& e : session.events) times.push_back(e.time);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  const PredicateId price = InternPredicate("price");
  size_t pi = 0;
  size_t ei = 0;
  for (int64_t t : times) {
    Rational rt(t);
    for (; pi < session.prices.size() && session.prices[pi].time == t; ++pi) {
      ops.push_back(FleetOp::Step(
          price, {Value::Double(session.prices[pi].price)}, rt));
    }
    for (; ei < session.events.size() && session.events[ei].time == t; ++ei) {
      const MarketEvent& e = session.events[ei];
      Interval at = Interval::Point(rt);
      Value account = Value::Symbol(e.account);
      switch (e.kind) {
        case EventKind::kTransferMargin:
          ops.push_back(FleetOp::Push(Fact::Make(
              "tranM", {account, Value::Double(e.amount)}, at)));
          break;
        case EventKind::kWithdraw:
          ops.push_back(
              FleetOp::Push(Fact::Make("withdraw", {account}, at)));
          break;
        case EventKind::kModifyPosition:
          ops.push_back(FleetOp::Push(Fact::Make(
              "modPos", {account, Value::Double(e.amount)}, at)));
          break;
        case EventKind::kClosePosition:
          ops.push_back(
              FleetOp::Push(Fact::Make("closePos", {account}, at)));
          break;
      }
    }
    ops.push_back(FleetOp::Advance(rt));
  }
  const Rational last = times.empty() ? start : Rational(times.back());
  if (last < end) ops.push_back(FleetOp::Advance(end));
  return ops;
}

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
