// Snapshot round-trip property: a session serialized mid-stream at a
// checkpoint, decoded fresh, and continued over the same schedule must end
// byte-identical - database text, Series() output, and provenance coverage
// - to an uninterrupted twin, and match the checkpointed session right
// after the restore. Enforced with and without a sliding window in play,
// and across the encode/decode text codec (not just the in-memory struct).
// A degraded restore (a different deadline and interval budget than the
// twin) must not change a single byte either.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/chain/workload.h"
#include "src/contracts/eth_perp_program.h"
#include "src/engine/reasoner.h"
#include "src/engine/session.h"
#include "src/fleet/workload.h"
#include "src/parser/parser.h"
#include "src/storage/serialize.h"
#include "src/storage/snapshot.h"

namespace dmtl {
namespace {

std::string ProvenanceCoverage(const std::vector<DerivationRecord>& records) {
  std::map<std::string, IntervalSet> coverage;
  for (const DerivationRecord& r : records) {
    coverage[PredicateName(r.predicate) + TupleToString(r.tuple)].UnionWith(
        IntervalSet(r.piece));
  }
  std::ostringstream out;
  for (const auto& [key, set] : coverage) {
    out << key << " @ " << set.ToString() << "\n";
  }
  return out.str();
}

std::string SeriesText(const Database& db, std::string_view pred) {
  std::ostringstream out;
  for (const auto& [t, tuple] : Reasoner::Series(db, pred)) {
    out << t << " " << TupleToString(tuple) << "\n";
  }
  return out.str();
}

Status Apply(EngineSession* s, const FleetOp& op) {
  switch (op.kind) {
    case FleetOp::Kind::kPush:
      return s->Push(op.fact);
    case FleetOp::Kind::kStep:
      return s->PushStep(op.predicate, op.args, op.t);
    case FleetOp::Kind::kAdvance:
      return s->Advance(op.t);
    case FleetOp::Kind::kSlide:
      return s->Slide(op.t);
  }
  return Status::Internal("unknown op");
}

// Runs the interrupted/uninterrupted comparison: drive `ops` through one
// session straight, and through another that is snapshotted at `cut`,
// round-tripped through the text codec, restored under `restore_options`,
// and continued. Both must land on identical bytes.
void ExpectRestartIsInvisible(const Program& program,
                              const std::vector<FleetOp>& ops, size_t cut,
                              const SessionOptions& options,
                              const SessionOptions& restore_options,
                              std::string_view series_pred,
                              const std::string& label) {
  auto twin = EngineSession::Create(program, options);
  ASSERT_TRUE(twin.ok()) << label << ": " << twin.status();
  for (const FleetOp& op : ops) {
    ASSERT_TRUE(Apply(twin->get(), op).ok()) << label;
  }

  auto first = EngineSession::Create(program, options);
  ASSERT_TRUE(first.ok()) << label << ": " << first.status();
  for (size_t i = 0; i < cut; ++i) {
    ASSERT_TRUE(Apply(first->get(), ops[i]).ok()) << label;
  }
  auto snap = (*first)->Snapshot();
  ASSERT_TRUE(snap.ok()) << label << ": " << snap.status();
  // Through the codec: what restarts see is the decoded text, never the
  // live struct.
  auto decoded = DecodeSnapshot(EncodeSnapshot(*snap));
  ASSERT_TRUE(decoded.ok()) << label << ": " << decoded.status();

  auto restored = EngineSession::Restore(program, restore_options, *decoded);
  ASSERT_TRUE(restored.ok()) << label << ": " << restored.status();
  // The restore itself re-derives the checkpointed state: same bytes,
  // same provenance coverage, before any continuation.
  EXPECT_EQ(SerializeDatabase((*restored)->db()),
            SerializeDatabase((*first)->db()))
      << label << ": database differs right after restore";
  EXPECT_EQ(ProvenanceCoverage((*restored)->provenance()),
            ProvenanceCoverage((*first)->provenance()))
      << label << ": provenance coverage differs right after restore";
  for (size_t i = cut; i < ops.size(); ++i) {
    ASSERT_TRUE(Apply(restored->get(), ops[i]).ok()) << label;
  }

  EXPECT_EQ(SerializeDatabase((*restored)->db()),
            SerializeDatabase((*twin)->db()))
      << label << ": database diverged after warm restart";
  EXPECT_EQ(SeriesText((*restored)->db(), series_pred),
            SeriesText((*twin)->db(), series_pred))
      << label << ": Series() diverged after warm restart";
  EXPECT_EQ(ProvenanceCoverage((*restored)->provenance()),
            ProvenanceCoverage((*twin)->provenance()))
      << label << ": provenance coverage diverged after warm restart";
  EXPECT_EQ((*restored)->watermark(), (*twin)->watermark()) << label;
  EXPECT_EQ((*restored)->window_min(), (*twin)->window_min()) << label;
}

// Interval budget of the contract runs below, in pieces: about 4x the
// largest passing run (12,790), so a kernel or chain-walk fault that
// over-derives fails fast on ResourceExhausted instead of growing the store
// until the machine runs out of memory.
constexpr size_t kContractIntervalBudget = 52'000;

TEST(SnapshotRestoreTest, EthPerpMidStreamRestart) {
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok()) << program.status();
  WorkloadConfig config;
  config.name = "restore-unit";
  config.duration_s = 600;
  config.num_events = 24;
  config.num_trades = 6;
  config.seed = 7;
  auto session = GenerateSession(config);
  ASSERT_TRUE(session.ok()) << session.status();
  std::vector<FleetOp> ops = SessionToOps(*session);
  ASSERT_GT(ops.size(), 8u);

  SessionOptions options;
  options.start_time = Rational(session->start_time);
  options.engine.max_intervals = kContractIntervalBudget;
  for (size_t cut : {ops.size() / 3, ops.size() / 2, ops.size() - 1}) {
    ExpectRestartIsInvisible(program.value(), ops, cut, options, options,
                             "frs", "eth-perp cut=" + std::to_string(cut));
  }
}

TEST(SnapshotRestoreTest, DegradedRestoreIsStillByteIdentical) {
  // The eviction path restores with conservative engine knobs; bytes must
  // not care.
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok()) << program.status();
  WorkloadConfig config;
  config.name = "restore-degraded";
  config.duration_s = 600;
  config.num_events = 16;
  config.num_trades = 4;
  config.seed = 11;
  auto session = GenerateSession(config);
  ASSERT_TRUE(session.ok()) << session.status();
  std::vector<FleetOp> ops = SessionToOps(*session);

  SessionOptions fast;
  fast.start_time = Rational(session->start_time);
  fast.engine.max_intervals = kContractIntervalBudget;
  fast.engine.deadline = std::chrono::minutes(10);
  // As the fleet's degraded retry does: no deadline. The interval budget
  // differs too; neither trips, so neither may show in the bytes.
  SessionOptions degraded = fast;
  degraded.engine.deadline.reset();
  degraded.engine.max_intervals = 2 * kContractIntervalBudget;
  ExpectRestartIsInvisible(program.value(), ops, ops.size() / 2, fast,
                           degraded, "frs", "degraded restore");
}

TEST(SnapshotRestoreTest, SlidingWindowRestartRetainsRetraction) {
  // Snapshot after the window has slid: the restored session must keep the
  // clamped log and retracted coverage, and keep sliding identically.
  auto unit = Parser::Parse(
      "q(X) :- diamondminus[0,2] p(X) .\n"
      "r(X) :- boxminus[1,1] q(X), not p(X) .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();

  std::vector<FleetOp> ops;
  for (int t = 1; t <= 12; ++t) {
    ops.push_back(FleetOp::Push(Fact::Make(
        "p", {Value::Symbol(t % 2 == 0 ? "a" : "b")},
        Interval::Closed(Rational(t), Rational(t + 1)))));
    // Advance only to t: each push stays strictly above the watermark.
    ops.push_back(FleetOp::Advance(Rational(t)));
  }

  SessionOptions options;
  options.start_time = Rational(0);
  options.horizon = Rational(4);  // auto-slide: retraction in play
  for (size_t cut : {size_t{7}, size_t{15}, ops.size() - 2}) {
    ExpectRestartIsInvisible(unit->program, ops, cut, options, options, "q",
                             "sliding cut=" + std::to_string(cut));
  }
}

TEST(SnapshotRestoreTest, PreAdvanceRestoreDerivesNothingEarly) {
  // Before the first advance a session has derived nothing, and pushes may
  // still land at the window start. A restore that derived there early
  // would hold r(a)@0, which the later push of p(a)@0 must block.
  auto unit = Parser::Parse("r(X) :- s(X), not p(X) .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  std::vector<FleetOp> ops = {
      FleetOp::Push(
          Fact::Make("s", {Value::Symbol("a")}, Interval::Point(Rational(0)))),
      FleetOp::Push(
          Fact::Make("p", {Value::Symbol("a")}, Interval::Point(Rational(0)))),
      FleetOp::Advance(Rational(1)),
  };
  SessionOptions options;
  options.start_time = Rational(0);
  ExpectRestartIsInvisible(unit->program, ops, 1, options, options, "r",
                           "pre-advance");
}

TEST(SnapshotRestoreTest, PointStreamRoundTripsAtEveryCut) {
  // One point per step, advanced as it arrives: p and its shift r are
  // stored as point runs that grow at the frontier, and q fills the
  // gaps to one interval. A restore re-derives them by a cold run over
  // the log; at every cut the continued session must match its twin.
  auto unit = Parser::Parse(
      "q(X) :- diamondminus[0,2] p(X) .\n"
      "r(X) :- diamondminus[1,1] p(X) .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  std::vector<FleetOp> ops;
  for (int t = 1; t <= 6; ++t) {
    ops.push_back(FleetOp::Push(
        Fact::Make("p", {Value::Symbol("a")}, Interval::Point(Rational(t)))));
    ops.push_back(FleetOp::Advance(Rational(t)));
  }
  SessionOptions options;
  options.start_time = Rational(0);

  auto straight = EngineSession::Create(unit->program, options);
  ASSERT_TRUE(straight.ok()) << straight.status();
  for (const FleetOp& op : ops) {
    ASSERT_TRUE(Apply(straight->get(), op).ok());
  }
  for (std::string_view pred : {"p", "r"}) {
    const Relation* rel = (*straight)->db().Find(pred);
    ASSERT_NE(rel, nullptr) << pred;
    const IntervalSet* set = rel->Find(Tuple{Value::Symbol("a")});
    ASSERT_NE(set, nullptr) << pred;
    ASSERT_EQ(set->num_components(), 1u) << pred << " @ " << set->ToString();
    EXPECT_TRUE(set->components()[0].is_run())
        << pred << " @ " << set->ToString();
  }

  for (size_t cut = 1; cut < ops.size(); ++cut) {
    for (std::string_view pred : {"q", "r"}) {
      ExpectRestartIsInvisible(
          unit->program, ops, cut, options, options, pred,
          "point stream " + std::string(pred) + " cut=" + std::to_string(cut));
    }
  }
}

}  // namespace
}  // namespace dmtl
