// Streaming correctness contract: after any sequence of pushes, advances
// and window slides, the live session's database, Series() output, and
// per-tuple provenance coverage must be byte-identical to one cold batch
// materialization over the same logged inputs and window - at every
// checkpoint. The fuzz lane drives randomized
// programs through randomized streams with a slide after every advance;
// the fault tests prove a failed advance or slide heals transparently.

#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <cstdlib>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/chain/replayer.h"
#include "src/chain/workload.h"
#include "src/common/fault_injector.h"
#include "src/contracts/eth_perp_program.h"
#include "src/engine/reasoner.h"
#include "src/engine/session.h"
#include "src/eval/compiled_program.h"
#include "src/fleet/workload.h"
#include "src/parser/parser.h"
#include "src/storage/serialize.h"
#include "src/storage/snapshot.h"

namespace dmtl {
namespace {

// Canonical per-tuple provenance coverage: the records' pieces unioned and
// printed per (predicate, tuple). Streaming and cold runs derive through
// different rule/round schedules, so the record lists differ - but the
// coverage union is part of the equivalence contract.
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

void ExpectMatchesColdReplay(const EngineSession& session,
                             std::string_view series_pred,
                             const std::string& label) {
  auto cold = session.ColdReplay();
  ASSERT_TRUE(cold.ok()) << label << ": " << cold.status();
  EXPECT_EQ(SerializeDatabase(session.db()), SerializeDatabase(cold->db))
      << label << ": database diverged from cold replay";
  EXPECT_EQ(SeriesText(session.db(), series_pred),
            SeriesText(cold->db, series_pred))
      << label << ": Series() diverged from cold replay";
  EXPECT_EQ(ProvenanceCoverage(session.provenance()),
            ProvenanceCoverage(cold->provenance))
      << label << ": provenance coverage diverged from cold replay";
}

SessionOptions Opts(int64_t start) {
  SessionOptions options;
  options.start_time = Rational(start);
  return options;
}

TEST(StreamingSessionTest, IncrementalAdvanceMatchesColdReplay) {
  auto unit = Parser::Parse(
      "q(X) :- diamondminus[0,2] p(X) .\n"
      "r(X) :- boxminus[1,1] q(X), not p(X) .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto session = EngineSession::Create(unit->program, Opts(0));
  ASSERT_TRUE(session.ok()) << session.status();
  EngineSession& s = **session;

  ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("a")},
                                Interval::Closed(Rational(1), Rational(3))))
                  .ok());
  ASSERT_TRUE(s.Advance(Rational(4)).ok());
  EXPECT_EQ(s.watermark(), Rational(4));
  EXPECT_EQ(s.window_min(), Rational(0));
  ExpectMatchesColdReplay(s, "q", "after first advance");

  // q extends 2 past p's end; the advance band must pick that up with no
  // new inputs at all.
  ASSERT_TRUE(s.Advance(Rational(6)).ok());
  ExpectMatchesColdReplay(s, "q", "advance without fresh input");

  ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("b")},
                                Interval::Point(Rational(7))))
                  .ok());
  ASSERT_TRUE(s.Advance(Rational(9)).ok());
  ExpectMatchesColdReplay(s, "q", "after second fact");
}

TEST(StreamingSessionTest, RecursiveChainStreamsAcrossAdvances) {
  // A chain rule extends one step per round; streamed advances must keep
  // extending it across watermark boundaries exactly as a batch run would.
  auto unit = Parser::Parse(
      "d(X) :- p(X) .\n"
      "d(X) :- diamondminus[2,2] d(X), not stop(X) .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto session = EngineSession::Create(unit->program, Opts(0));
  ASSERT_TRUE(session.ok()) << session.status();
  EngineSession& s = **session;

  ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("a")},
                                Interval::Point(Rational(1))))
                  .ok());
  for (int64_t t = 2; t <= 20; t += 3) {
    ASSERT_TRUE(s.Advance(Rational(t)).ok()) << "advance to " << t;
    ExpectMatchesColdReplay(s, "d", "chain at t=" + std::to_string(t));
  }
}

TEST(StreamingSessionTest, SlideRetractsAndRederives) {
  auto unit = Parser::Parse(
      "q(X) :- diamondminus[0,3] p(X) .\n"
      "r(X) :- boxminus[1,2] q(X) .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto session = EngineSession::Create(unit->program, Opts(0));
  ASSERT_TRUE(session.ok()) << session.status();
  EngineSession& s = **session;

  ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("a")},
                                Interval::Closed(Rational(1), Rational(2))))
                  .ok());
  ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("b")},
                                Interval::Point(Rational(6))))
                  .ok());
  ASSERT_TRUE(s.Advance(Rational(10)).ok());
  ExpectMatchesColdReplay(s, "q", "before slide");

  ASSERT_TRUE(s.Slide(Rational(4)).ok());
  EXPECT_EQ(s.window_min(), Rational(4));
  // p(a)'s coverage is gone from the log; q/r derived from it must be gone
  // from the store, including the parts above the new minimum.
  ExpectMatchesColdReplay(s, "q", "after slide");

  ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("c")},
                                Interval::Point(Rational(11))))
                  .ok());
  ASSERT_TRUE(s.Advance(Rational(12)).ok());
  ExpectMatchesColdReplay(s, "q", "advance after slide");
}

TEST(StreamingSessionTest, HorizonAutoSlides) {
  auto unit = Parser::Parse("q(X) :- diamondminus[0,1] p(X) .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  SessionOptions options = Opts(0);
  options.horizon = Rational(5);
  auto session = EngineSession::Create(unit->program, options);
  ASSERT_TRUE(session.ok()) << session.status();
  EngineSession& s = **session;

  for (int64_t t = 1; t <= 12; ++t) {
    ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("a")},
                                  Interval::Point(Rational(t))))
                    .ok());
    ASSERT_TRUE(s.Advance(Rational(t)).ok());
    if (t > 5) {
      EXPECT_EQ(s.window_min(), Rational(t - 5)) << "at t=" << t;
    }
  }
  ExpectMatchesColdReplay(s, "q", "horizon steady state");
}

TEST(StreamingSessionTest, StepChannelsMatchBatchStepFunctions) {
  auto unit = Parser::Parse("q(X) :- diamondminus[0,2] price(X) .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto session = EngineSession::Create(unit->program, Opts(0));
  ASSERT_TRUE(session.ok()) << session.status();
  EngineSession& s = **session;

  ASSERT_TRUE(s.PushStep("price", {Value::Double(10.0)}, Rational(0)).ok());
  ASSERT_TRUE(s.Advance(Rational(3)).ok());
  ExpectMatchesColdReplay(s, "q", "open channel at first watermark");

  // Same value steps again: the channel just continues.
  ASSERT_TRUE(s.PushStep("price", {Value::Double(10.0)}, Rational(4)).ok());
  ASSERT_TRUE(s.PushStep("price", {Value::Double(12.5)}, Rational(5)).ok());
  ASSERT_TRUE(s.Advance(Rational(7)).ok());
  ExpectMatchesColdReplay(s, "q", "after value change");

  // The closed step's coverage is exactly ClosedOpen(0, 5).
  const Relation* price = s.db().Find("price");
  ASSERT_NE(price, nullptr);
  const IntervalSet* old_step = price->Find({Value::Double(10.0)});
  ASSERT_NE(old_step, nullptr);
  EXPECT_EQ(*old_step,
            IntervalSet(Interval::ClosedOpen(Rational(0), Rational(5))));

  // Out-of-order steps are refused.
  EXPECT_FALSE(s.PushStep("price", {Value::Double(9.0)}, Rational(6)).ok());
}

TEST(StreamingSessionTest, FlushDisciplineAndWatermarkChecks) {
  auto unit = Parser::Parse("q(X) :- p(X) .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto session = EngineSession::Create(unit->program, Opts(0));
  ASSERT_TRUE(session.ok()) << session.status();
  EngineSession& s = **session;

  // Before the first advance, facts anywhere (even sub-window) are fine.
  ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("a")},
                                Interval::Point(Rational(0))))
                  .ok());
  ASSERT_TRUE(s.Advance(Rational(5)).ok());
  // At or below the watermark: refused (it would change final coverage).
  EXPECT_FALSE(s.Push(Fact::Make("p", {Value::Symbol("b")},
                                 Interval::Point(Rational(5))))
                   .ok());
  EXPECT_FALSE(s.Push(Fact::Make("p", {Value::Symbol("b")},
                                 Interval::Closed(Rational(3), Rational(9))))
                   .ok());
  // Strictly above: accepted, including an open start at the watermark.
  ASSERT_TRUE(
      s.Push(Fact{InternPredicate("p"),
                  {Value::Symbol("b")},
                  *Interval::Make(Bound::Open(Rational(5)),
                                  Bound::Closed(Rational(6)))})
          .ok());
  // Advances cannot go backwards; slides cannot pass the watermark.
  EXPECT_FALSE(s.Advance(Rational(4)).ok());
  EXPECT_FALSE(s.Slide(Rational(9)).ok());
  EXPECT_FALSE(s.Slide(Rational(0)).ok());
}

TEST(StreamingSessionTest, IneligibleProgramsAreRefusedAtCreate) {
  for (const char* text : {
           // future operator
           "q(X) :- diamondplus[0,2] p(X) .\n",
           // since / until
           "q(X) :- p(X) since[0,3] r(X) .\n",
           // no positive relational atom
           "q(X) :- not p(X), X = 1 .\n",
       }) {
    auto unit = Parser::Parse(text);
    if (!unit.ok()) continue;  // parser-level rejection also acceptable
    auto session = EngineSession::Create(unit->program, Opts(0));
    EXPECT_FALSE(session.ok()) << "accepted ineligible program:\n" << text;
  }
}

TEST(StreamingSessionTest, IneligibleProgramsAreRefusedOnEveryBranch) {
  // A fresh session and a restore must both refuse what compiling the
  // program and then its streaming eligibility check refuse, with the same
  // first error: safety, stratification and rule-walk failures alike (the
  // later cases fail two checks, so the order shows).
  for (const char* text : {
           "q(X) :- diamondplus[0,2] p(X) .\n",
           "q(X) :- p(X) since[0,3] r(X) .\n",
           "q(X) :- not p(X), X = 1 .\n",
           "q(X, Y) :- p(X) .\n",
           "q(X, Y) :- diamondplus[0,1] p(X) .\n",
           "q(X) :- p(X), not q(X) .\nr(X) :- boxplus[0,1] q(X) .\n",
       }) {
    SCOPED_TRACE(text);
    auto unit = Parser::Parse(text);
    ASSERT_TRUE(unit.ok()) << unit.status();
    SessionOptions options = Opts(0);
    Status reference = [&]() -> Status {
      DMTL_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledProgram> compiled,
                            CompiledProgram::Create(unit->program));
      return compiled->streaming_status();
    }();
    ASSERT_FALSE(reference.ok());

    SessionSnapshot snapshot;
    snapshot.program_fingerprint = ProgramFingerprint(unit->program);
    snapshot.watermark = Rational(2);
    snapshot.advanced = true;
    snapshot.input_log.push_back(
        Fact::Make("p", {Value::Symbol("a")}, Interval::Point(Rational(1))));
    auto fresh = EngineSession::Create(unit->program, options);
    ASSERT_FALSE(fresh.ok());
    EXPECT_EQ(fresh.status().ToString(), reference.ToString());
    auto restored = EngineSession::Restore(unit->program, options, snapshot);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().ToString(), reference.ToString());
  }
}

TEST(StreamingSessionTest, FailedAdvanceHealsTransparently) {
  auto unit = Parser::Parse(
      "q(X) :- diamondminus[0,2] p(X) .\n"
      "r(X) :- boxminus[1,1] q(X) .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto session = EngineSession::Create(unit->program, Opts(0));
  ASSERT_TRUE(session.ok()) << session.status();
  EngineSession& s = **session;

  ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("a")},
                                Interval::Closed(Rational(1), Rational(3))))
                  .ok());
  ASSERT_TRUE(s.Advance(Rational(4)).ok());

  ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("b")},
                                Interval::Point(Rational(6))))
                  .ok());
  FaultInjector::Arm("seminaive.round", 1,
                     Status::Internal("injected round failure"));
  Status failed = s.Advance(Rational(8));
  FaultInjector::Reset();
  EXPECT_FALSE(failed.ok());
  // The watermark did not move; the store rolled back to the barrier.
  EXPECT_EQ(s.watermark(), Rational(4));
  // The next operation heals (cold rebuild) and completes normally.
  ASSERT_TRUE(s.Advance(Rational(8)).ok());
  ExpectMatchesColdReplay(s, "q", "after heal");
}

// Interval budget of the contract runs below, in pieces: about 4x the
// largest passing run (100,596), so a kernel or chain-walk fault that
// over-derives fails fast on ResourceExhausted instead of growing the store
// until the machine runs out of memory.
constexpr size_t kContractIntervalBudget = 400'000;

TEST(StreamingSessionTest, EthPerpSessionStreamMatchesBatchReplay) {
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok()) << program.status();
  WorkloadConfig config;
  config.name = "stream-unit";
  config.duration_s = 600;
  config.num_events = 24;
  config.num_trades = 6;
  config.seed = 7;
  auto generated = GenerateSession(config);
  ASSERT_TRUE(generated.ok()) << generated.status();
  Session chain_session = *generated;

  SessionOptions options;
  options.start_time = Rational(chain_session.start_time);
  options.engine.max_intervals = kContractIntervalBudget;
  auto session = EngineSession::Create(*program, options);
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE(ReplaySessionStream(chain_session, session->get()).ok());

  Database batch = SessionToDatabase(chain_session);
  EngineStats stats;
  EngineOptions batch_options = SessionEngineOptions(chain_session);
  batch_options.max_intervals = kContractIntervalBudget;
  ASSERT_TRUE(Materialize(*program, &batch, batch_options, &stats).ok());
  EXPECT_EQ(SerializeDatabase((*session)->db()), SerializeDatabase(batch))
      << "streamed ETH-PERP session diverged from the batch replay";
  ExpectMatchesColdReplay(**session, "frs", "eth-perp final checkpoint");
}

// The per-session counters one advance reports.
struct RunCounts {
  size_t indexes_built = 0;
  size_t index_probes = 0;
  size_t vm_recompiles = 0;
  size_t bulk_merges = 0;
  std::vector<double> rule_plan_cost;

  bool operator==(const RunCounts&) const = default;
};

// Feeds `ops` to `session` and returns each advance's counters. With
// `sync` set, waits there before every op, so a twin fed the same ops on
// another thread runs each of its advances alongside this one's.
std::vector<RunCounts> DriveCounting(EngineSession* session,
                                     const std::vector<FleetOp>& ops,
                                     std::barrier<>* sync) {
  std::vector<RunCounts> out;
  for (const FleetOp& op : ops) {
    if (sync != nullptr) sync->arrive_and_wait();
    Status status = Status::Ok();
    switch (op.kind) {
      case FleetOp::Kind::kPush:
        status = session->Push(op.fact);
        break;
      case FleetOp::Kind::kStep:
        status = session->PushStep(op.predicate, op.args, op.t);
        break;
      case FleetOp::Kind::kAdvance: {
        EngineStats stats;
        status = session->Advance(op.t, &stats);
        out.push_back({stats.planner_indexes_built, stats.planner_index_probes,
                       stats.vm_recompiles, stats.bulk_merges,
                       stats.rule_plan_cost});
        break;
      }
      case FleetOp::Kind::kSlide:
        status = session->Slide(op.t);
        break;
    }
    EXPECT_TRUE(status.ok()) << status;
  }
  return out;
}

// Runs `ops` on one session alone, then on two sessions of `program` at
// once on two threads, each op of one alongside the same op of the other,
// and expects every concurrent advance to report the counts of the lone
// one, and both databases to end equal to the lone session's. Returns the
// lone session's counts.
std::vector<RunCounts> ExpectConcurrentCountsMatchAlone(
    const std::shared_ptr<const CompiledProgram>& program,
    const SessionOptions& options, const std::vector<FleetOp>& ops) {
  auto alone = EngineSession::Create(program, options);
  EXPECT_TRUE(alone.ok()) << alone.status();
  if (!alone.ok()) return {};
  const std::vector<RunCounts> expected =
      DriveCounting(alone->get(), ops, nullptr);

  auto first = EngineSession::Create(program, options);
  auto second = EngineSession::Create(program, options);
  EXPECT_TRUE(first.ok() && second.ok());
  if (!first.ok() || !second.ok()) return {};
  std::barrier<> sync(2);
  std::vector<RunCounts> seen[2];
  std::thread other(
      [&] { seen[1] = DriveCounting(second->get(), ops, &sync); });
  seen[0] = DriveCounting(first->get(), ops, &sync);
  other.join();
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(seen[i].size(), expected.size());
    for (size_t k = 0; k < expected.size() && k < seen[i].size(); ++k) {
      EXPECT_TRUE(seen[i][k] == expected[k])
          << "session " << i << ", advance " << k << ": indexes_built "
          << seen[i][k].indexes_built << " vs " << expected[k].indexes_built
          << ", index_probes " << seen[i][k].index_probes << " vs "
          << expected[k].index_probes << ", vm_recompiles "
          << seen[i][k].vm_recompiles << " vs " << expected[k].vm_recompiles
          << ", bulk_merges " << seen[i][k].bulk_merges << " vs "
          << expected[k].bulk_merges;
    }
  }
  EXPECT_EQ(SerializeDatabase((*first)->db()),
            SerializeDatabase((*alone)->db()));
  EXPECT_EQ(SerializeDatabase((*second)->db()),
            SerializeDatabase((*alone)->db()));
  return expected;
}

TEST(StreamingSessionTest, SharedProgramKeepsPlannerCountersPerSession) {
  // Two sessions of one compiled program, advancing at the same time on two
  // threads, must each count only their own planner work.
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok()) << program.status();
  auto compiled = CompiledProgram::Create(*program);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  WorkloadConfig config;
  config.name = "shared-planner";
  config.duration_s = 600;
  config.num_events = 24;
  config.num_trades = 6;
  config.seed = 11;
  auto generated = GenerateSession(config);
  ASSERT_TRUE(generated.ok()) << generated.status();
  SessionOptions options;
  options.start_time = Rational(generated->start_time);
  options.track_provenance = false;

  const std::vector<RunCounts> expected = ExpectConcurrentCountsMatchAlone(
      *compiled, options, SessionToOps(*generated));
  ASSERT_FALSE(expected.empty());
  size_t probes = 0, built = 0;
  for (const RunCounts& c : expected) {
    probes += c.index_probes;
    built += c.indexes_built;
  }
  EXPECT_GT(probes, 0u) << "the schedule never probes an index";
  EXPECT_GT(built, 0u) << "the schedule never builds an index";
}

TEST(StreamingSessionTest, ConcurrentSessionsCountOwnBulkMerges) {
  // The same for EngineStats::bulk_merges. Every advance pushes three
  // points per tuple, three apart, so the rule emits three-piece extents
  // onto tuples already stored: each advance makes bulk merges.
  auto unit = Parser::Parse(
      "q(X) :- diamondminus[0,1] p(X) .\n"
      "r(X) :- boxminus[0,1] q(X), not s(X) .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto compiled = CompiledProgram::Create(unit->program);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  std::vector<FleetOp> ops;
  for (int64_t band = 1; band <= 24; ++band) {
    for (int k = 0; k < 48; ++k) {
      const Value c = Value::Symbol("c" + std::to_string(k));
      for (int64_t j = 0; j < 3; ++j) {
        ops.push_back(FleetOp::Push(Fact::Make(
            "p", {c}, Interval::Point(Rational(band * 10 + 3 * j + 1)))));
      }
      if (k % 3 == 0) {
        ops.push_back(FleetOp::Push(
            Fact::Make("s", {c}, Interval::Point(Rational(band * 10 + 5)))));
      }
    }
    ops.push_back(FleetOp::Advance(Rational(band * 10 + 10)));
  }
  SessionOptions options = Opts(10);
  options.track_provenance = false;

  const std::vector<RunCounts> expected =
      ExpectConcurrentCountsMatchAlone(*compiled, options, ops);
  ASSERT_EQ(expected.size(), 24u);
  for (size_t k = 1; k < expected.size(); ++k) {
    EXPECT_GT(expected[k].bulk_merges, 0u) << "advance " << k;
  }
}

TEST(StreamingSessionTest, EthPerpLiveWindowKeepsSuffixAndMatchesColdReplay) {
  // One hour of ETH-PERP chain time (15 s oracle ticks plus method calls,
  // about 300 advances) with a 30-minute window slid after every advance -
  // the live-window shape. Most slides must keep the stored suffix (the
  // cut-off band agrees); every 16th is checked against a cold replay.
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok()) << program.status();
  WorkloadConfig config;
  config.name = "live-window-unit";
  config.duration_s = 3600;
  config.num_events = 60;
  config.num_trades = 12;
  config.seed = 11;
  auto generated = GenerateSession(config);
  ASSERT_TRUE(generated.ok()) << generated.status();
  const Session& chain = *generated;
  const Rational window(1800);

  SessionOptions options;
  options.start_time = Rational(chain.start_time);
  options.track_provenance = true;
  options.engine.max_intervals = kContractIntervalBudget;
  auto created = EngineSession::Create(*program, options);
  ASSERT_TRUE(created.ok()) << created.status();
  EngineSession& s = **created;
  const Rational start(chain.start_time);
  ASSERT_TRUE(s.Push(Fact::Make("start", {}, Interval::Point(start))).ok());
  ASSERT_TRUE(s.Push(Fact::Make("marketEnd", {},
                                Interval::Point(Rational(chain.end_time))))
                  .ok());
  ASSERT_TRUE(s.Push(Fact::Make("skew", {Value::Double(chain.initial_skew)},
                                Interval::Point(start)))
                  .ok());
  ASSERT_TRUE(
      s.Push(Fact::Make("frs", {Value::Double(0.0)}, Interval::Point(start)))
          .ok());

  std::vector<int64_t> times;
  for (const PricePoint& p : chain.prices) times.push_back(p.time);
  for (const MarketEvent& e : chain.events) times.push_back(e.time);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  EXPECT_GE(times.size(), 250u);

  size_t pi = 0, ei = 0;
  int slides = 0, kept = 0;
  for (int64_t t : times) {
    const Rational rt(t);
    for (; pi < chain.prices.size() && chain.prices[pi].time == t; ++pi) {
      ASSERT_TRUE(
          s.PushStep("price", {Value::Double(chain.prices[pi].price)}, rt)
              .ok());
    }
    for (; ei < chain.events.size() && chain.events[ei].time == t; ++ei) {
      const MarketEvent& e = chain.events[ei];
      const Value account = Value::Symbol(e.account);
      const Interval at = Interval::Point(rt);
      Fact fact;
      switch (e.kind) {
        case EventKind::kTransferMargin:
          fact = Fact::Make("tranM", {account, Value::Double(e.amount)}, at);
          break;
        case EventKind::kWithdraw:
          fact = Fact::Make("withdraw", {account}, at);
          break;
        case EventKind::kModifyPosition:
          fact = Fact::Make("modPos", {account, Value::Double(e.amount)}, at);
          break;
        case EventKind::kClosePosition:
          fact = Fact::Make("closePos", {account}, at);
          break;
      }
      ASSERT_TRUE(s.Push(fact).ok());
    }
    ASSERT_TRUE(s.Advance(rt).ok()) << "advance to " << t;
    const Rational new_min = rt - window;
    if (!(s.window_min() < new_min)) continue;
    EngineStats stats;
    Status slid = s.Slide(new_min, &stats);
    ASSERT_TRUE(slid.ok()) << slid;
    ++slides;
    if (stats.retract_suffix_kept) ++kept;
    if (slides % 16 == 0) {
      ExpectMatchesColdReplay(s, "frs",
                              "eth-perp slide " + std::to_string(slides));
    }
  }
  ExpectMatchesColdReplay(s, "frs", "eth-perp live window final");
  EXPECT_GE(slides, 100);
  EXPECT_GT(kept * 4, slides * 3)
      << kept << " of " << slides << " slides kept the stored suffix";
}

TEST(StreamingSessionTest, PersistenceChainRootedBelowWindowHeals) {
  // d persists one step at a time from p's only fact, so after the slide
  // the cold window holds no d at all while the store carries it up to
  // the watermark: the cut-off band disagrees and the slide rebuilds.
  auto unit = Parser::Parse(
      "d(X) :- p(X) .\n"
      "d(X) :- diamondminus[1,1] d(X) .\n"
      "e(X) :- d(X), not q(X) .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  SessionOptions options = Opts(0);
  options.track_provenance = true;
  auto session = EngineSession::Create(unit->program, options);
  ASSERT_TRUE(session.ok()) << session.status();
  EngineSession& s = **session;

  ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("a")},
                                Interval::Point(Rational(1))))
                  .ok());
  ASSERT_TRUE(s.Push(Fact::Make("q", {Value::Symbol("a")},
                                Interval::Closed(Rational(4), Rational(6))))
                  .ok());
  ASSERT_TRUE(s.Advance(Rational(20)).ok());
  ASSERT_NE(s.db().Find("d"), nullptr);

  EngineStats stats;
  ASSERT_TRUE(s.Slide(Rational(5), &stats).ok());
  EXPECT_FALSE(stats.retract_suffix_kept);
  ExpectMatchesColdReplay(s, "d", "after the healing slide");
  EXPECT_EQ(s.db().Find("d"), nullptr);

  ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("b")},
                                Interval::Point(Rational(21))))
                  .ok());
  ASSERT_TRUE(s.Advance(Rational(24)).ok());
  ExpectMatchesColdReplay(s, "d", "advance after the healing slide");
}

TEST(StreamingSessionTest, NegatedLookBackWidensTheCutOffBand) {
  // No positive literal looks back at all, but n reads q six steps into
  // the past. Sliding past q(a)@3 makes n(a) true at 8 in the cold window
  // while the store says false: the cut-off band must be sized by the
  // negated look-back (C = 6, band [10, 16]) so the re-derived prefix
  // covers 8. A band sized by positive reach (0) would compare only time
  // 4, agree, and keep the stale n(a)@8.
  auto unit = Parser::Parse("n(X) :- p(X), not diamondminus[0,6] q(X) .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  SessionOptions options = Opts(0);
  options.track_provenance = true;
  auto session = EngineSession::Create(unit->program, options);
  ASSERT_TRUE(session.ok()) << session.status();
  EngineSession& s = **session;

  ASSERT_TRUE(s.Push(Fact::Make("q", {Value::Symbol("a")},
                                Interval::Point(Rational(3))))
                  .ok());
  ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("a")},
                                Interval::Point(Rational(8))))
                  .ok());
  ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("a")},
                                Interval::Point(Rational(18))))
                  .ok());
  ASSERT_TRUE(s.Advance(Rational(20)).ok());
  EXPECT_FALSE(s.db().Holds("n", {Value::Symbol("a")}, Rational(8)));

  EngineStats stats;
  ASSERT_TRUE(s.Slide(Rational(4), &stats).ok());
  EXPECT_TRUE(stats.retract_suffix_kept);
  EXPECT_TRUE(s.db().Holds("n", {Value::Symbol("a")}, Rational(8)));
  ExpectMatchesColdReplay(s, "n", "after sliding past the look-back");
}

TEST(StreamingSessionTest, KeptSuffixClipsStraddlingProvenance) {
  // q(a) is derived in one piece over [0, 19]. After the slide, that record
  // straddles the cut-off (y = 4 here: no literal looks back) and must
  // keep only its part above y, or provenance would still cover the
  // expired [0, 4).
  auto unit = Parser::Parse("q(X) :- p(X) .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  SessionOptions options = Opts(0);
  options.track_provenance = true;
  auto session = EngineSession::Create(unit->program, options);
  ASSERT_TRUE(session.ok()) << session.status();
  EngineSession& s = **session;

  ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("a")},
                                Interval::Closed(Rational(0), Rational(19))))
                  .ok());
  ASSERT_TRUE(s.Advance(Rational(20)).ok());
  EngineStats stats;
  ASSERT_TRUE(s.Slide(Rational(4), &stats).ok());
  EXPECT_TRUE(stats.retract_suffix_kept);
  ExpectMatchesColdReplay(s, "q", "after the slide");
  EXPECT_EQ(ProvenanceCoverage(s.provenance()), "q(a) @ {[4,19]}\n");
}

TEST(StreamingSessionTest, FailedSlideHealsOnNextAdvance) {
  auto unit = Parser::Parse(
      "q(X) :- diamondminus[0,2] p(X) .\n"
      "r(X) :- boxminus[1,1] q(X), not s(X) .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  SessionOptions options = Opts(0);
  options.track_provenance = true;
  auto session = EngineSession::Create(unit->program, options);
  ASSERT_TRUE(session.ok()) << session.status();
  EngineSession& s = **session;

  for (int64_t t = 1; t <= 20; t += 2) {
    ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("a")},
                                  Interval::Point(Rational(t))))
                    .ok());
  }
  ASSERT_TRUE(s.Push(Fact::Make("s", {Value::Symbol("a")},
                                Interval::Closed(Rational(2), Rational(3))))
                  .ok());
  ASSERT_TRUE(s.Advance(Rational(20)).ok());

  // The cut-off run is the slide's first fixpoint round; fail it.
  FaultInjector::Arm("seminaive.round", 1,
                     Status::Internal("injected round failure"));
  Status failed = s.Slide(Rational(6));
  FaultInjector::Reset();
  EXPECT_EQ(failed.code(), StatusCode::kInternal) << failed;
  EXPECT_EQ(s.window_min(), Rational(6));
  // The streaming store is suspect until the next operation heals it.
  EXPECT_FALSE(s.Snapshot().ok());

  ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("b")},
                                Interval::Point(Rational(21))))
                  .ok());
  ASSERT_TRUE(s.Advance(Rational(22)).ok());
  ExpectMatchesColdReplay(s, "r", "advance after the failed slide");
}

// One fixpoint driver serves every run of a session: the advances run it
// on the session store, a slide's cut-off run on a scratch database, and a
// heal on the cleared store. The compiled rule programs cache relation
// pointers, so each switch of database must drop them. Here b's delta
// variant for `a` is compiled during the first advance and reads g through
// diamondminus[0,3]; the cut-off run after sliding to 5 must not read the
// store's expired g(a)@3 through it, or it derives b(a)@6 and a(a)@7, which
// the kept-suffix splice would then install. The second slide expires
// q(a)@8 under a persistence chain, so it heals.
TEST(StreamingSessionTest, OneDriverServesAdvancesSlidesAndHeal) {
  auto unit = Parser::Parse(
      "a(X) :- p(X) .\n"
      "b(X) :- boxminus[1,1] a(X), diamondminus[0,3] g(X) .\n"
      "a(X) :- boxminus[1,1] b(X) .\n"
      "c(X) :- q(X) .\n"
      "c(X) :- diamondminus[1,1] c(X) .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  SessionOptions options = Opts(0);
  options.track_provenance = true;
  auto session = EngineSession::Create(unit->program, options);
  ASSERT_TRUE(session.ok()) << session.status();
  EngineSession& s = **session;
  const Value a = Value::Symbol("a");

  ASSERT_TRUE(s.Push(Fact::Make("g", {a}, Interval::Point(Rational(3)))).ok());
  ASSERT_TRUE(
      s.Push(Fact::Make("p", {a}, Interval::Closed(Rational(4), Rational(6))))
          .ok());
  ASSERT_TRUE(s.Push(Fact::Make("q", {a}, Interval::Point(Rational(8)))).ok());
  ASSERT_TRUE(s.Advance(Rational(20)).ok());
  ExpectMatchesColdReplay(s, "a", "after the advance");
  EXPECT_TRUE(s.db().Holds("b", {a}, Rational(6)));

  EngineStats kept;
  ASSERT_TRUE(s.Slide(Rational(5), &kept).ok());
  EXPECT_TRUE(kept.retract_suffix_kept);
  ExpectMatchesColdReplay(s, "a", "after the slide that keeps the suffix");
  EXPECT_EQ(s.db().Find("b"), nullptr);
  EXPECT_FALSE(s.db().Holds("a", {a}, Rational(7)));

  EngineStats healed;
  ASSERT_TRUE(s.Slide(Rational(9), &healed).ok());
  EXPECT_FALSE(healed.retract_suffix_kept);
  ExpectMatchesColdReplay(s, "c", "after the slide that heals");
  EXPECT_EQ(s.db().Find("c"), nullptr);

  ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("b")},
                                Interval::Point(Rational(22))))
                  .ok());
  ASSERT_TRUE(s.Advance(Rational(24)).ok());
  ExpectMatchesColdReplay(s, "a", "advance after both slides");
  auto cold = s.ColdReplay();
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(SerializeDatabase(s.db()), SerializeDatabase(cold->db));
}

// ---------------------------------------------------------------------------
// Retraction-equivalence fuzz lane: random eligible programs, random fact
// streams. Every third advance is a checkpoint compared byte-for-byte
// against a cold replay, and past the warm-up every advance is followed by
// a slide, itself checked the same way.
// ---------------------------------------------------------------------------

// Same safe fragment the scale-invariance/differential suites fuzz -
// stratified boxminus/diamondminus recursion with negated guards - which is
// exactly the streaming-eligible fragment, plus one non-recursive head
// behind a negated look-back literal.
class StreamFuzzer {
 public:
  explicit StreamFuzzer(uint64_t seed) : rng_(seed) {}

  std::string GenerateProgram() {
    std::ostringstream out;
    int num_edb = 2 + Pick(2);
    int num_derived = 2 + Pick(3);
    for (int d = 0; d < num_derived; ++d) {
      out << "d" << d << "(X) :- " << LowerAtom(d, num_edb) << Guard(num_edb)
          << " .\n";
      int step = 1 + Pick(2);
      const char* op = Pick(2) == 0 ? "boxminus" : "diamondminus";
      out << "d" << d << "(X) :- " << op << "[" << step << "," << step
          << "] d" << d << "(X), not p0(X) .\n";
      if (Pick(2) == 0) {
        out << "d" << d << "(X) :- diamondminus[0," << (1 + Pick(3)) << "] "
            << LowerAtom(d, num_edb) << " .\n";
      }
    }
    // Non-recursive, so a slide changes it only near the window start
    // (below the cut-off band: the stored suffix is kept while the prefix
    // differs). Its negated look-back of 7-9 reaches further than twice
    // any positive literal's (at most 3): a cut-off band sized by positive
    // reach alone can keep a suffix that still differs.
    out << "n(X) :- p" << Pick(num_edb) << "(X), not diamondminus[0,"
        << (7 + Pick(3)) << "] p" << Pick(num_edb) << "(X) .\n";
    return out.str();
  }

  std::vector<Fact> GenerateStream(int horizon) {
    std::vector<Fact> facts;
    int num_facts = 8 + Pick(10);
    for (int f = 0; f < num_facts; ++f) {
      int lo = 1 + Pick(horizon - 1);
      int hi = lo + Pick(4);
      facts.push_back(Fact::Make(
          "p" + std::to_string(Pick(3)),
          {Value::Symbol("c" + std::to_string(Pick(3)))},
          Interval::Closed(Rational(lo), Rational(hi))));
    }
    std::sort(facts.begin(), facts.end(), [](const Fact& a, const Fact& b) {
      return a.interval.lo().value < b.interval.lo().value;
    });
    return facts;
  }

  int Pick(int n) { return static_cast<int>(rng_() % n); }

 private:
  std::string LowerAtom(int d, int num_edb) {
    if (d > 0 && Pick(2) == 0) {
      return "d" + std::to_string(Pick(d)) + "(X)";
    }
    return "p" + std::to_string(Pick(num_edb)) + "(X)";
  }

  std::string Guard(int num_edb) {
    switch (Pick(3)) {
      case 0:
        return "";
      case 1:
        return ", not p" + std::to_string(Pick(num_edb)) + "(X)";
      default:
        return ", diamondminus[0,2] p" + std::to_string(Pick(num_edb)) +
               "(X)";
    }
  }

  std::mt19937_64 rng_;
};

class StreamingFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingFuzzTest, CheckpointsMatchColdReplay) {
  StreamFuzzer fuzzer(GetParam());
  const int kHorizon = 30;
  // Slides keep the window 20-22 wide: wider than twice the largest
  // generated reach (9), so the cut-off band fits below the watermark.
  const int kWindow = 20;
  std::string text = fuzzer.GenerateProgram();
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status() << "\nprogram:\n" << text;
  std::vector<Fact> stream = fuzzer.GenerateStream(kHorizon);

  // Three advance/slide schedules over the same program and stream.
  for (uint64_t schedule : {1, 2, 8}) {
    SessionOptions options = Opts(0);
    options.track_provenance = true;
    auto session = EngineSession::Create(unit->program, options);
    ASSERT_TRUE(session.ok()) << session.status() << "\nprogram:\n" << text;
    EngineSession& s = **session;

    // Deterministic per-schedule RNG for advance strides and slide points.
    std::mt19937_64 rng(GetParam() * 977 + schedule);
    size_t next = 0;
    int advances = 0;
    int64_t watermark = 0;
    while (watermark < kHorizon + kWindow) {
      watermark += 1 + static_cast<int>(rng() % 4);
      while (next < stream.size() &&
             stream[next].interval.lo().value <= Rational(watermark)) {
        Status pushed = s.Push(stream[next]);
        ASSERT_TRUE(pushed.ok()) << pushed << "\nprogram:\n" << text;
        ++next;
      }
      Status advanced = s.Advance(Rational(watermark));
      ASSERT_TRUE(advanced.ok()) << advanced << "\nprogram:\n" << text;
      ++advances;
      std::string label = "seed=" + std::to_string(GetParam()) +
                          " schedule=" + std::to_string(schedule) +
                          " watermark=" + std::to_string(watermark);
      if (advances % 3 == 0) {
        ExpectMatchesColdReplay(s, "d0", label + " (checkpoint)");
      }
      // Past the warm-up, a slide after every advance (skipped only when
      // the jittered minimum would not move forward).
      if (watermark > kWindow + 2) {
        Rational new_min(watermark - kWindow - static_cast<int>(rng() % 3));
        if (s.window_min() < new_min) {
          Status slide = s.Slide(new_min);
          ASSERT_TRUE(slide.ok()) << slide << "\nprogram:\n" << text;
          ExpectMatchesColdReplay(s, "d0", label + " (post-slide)");
        }
      }
    }
    ExpectMatchesColdReplay(s, "d0",
                            "seed=" + std::to_string(GetParam()) +
                                " schedule=" + std::to_string(schedule) +
                                " (final)");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingFuzzTest,
                         ::testing::Range<uint64_t>(1, 41));

// Metamorphic property: the order of the Push calls among facts that share
// a start time is invisible. A session fed every same-time group in a
// seeded random order stays byte-identical to the session fed the stream's
// own order, and to its cold replay, after every operation: each group of
// pushes, each advance, and one slide.
class StreamingPushOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingPushOrderTest, SameTimePushOrderIsInvisible) {
  StreamFuzzer fuzzer(GetParam());
  std::string text = fuzzer.GenerateProgram();
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status() << "\nprogram:\n" << text;
  // Forty facts on eight start times (1, 4, ..., 22): every group holds
  // several facts.
  std::vector<Fact> stream;
  for (int f = 0; f < 40; ++f) {
    const int lo = 1 + 3 * fuzzer.Pick(8);
    stream.push_back(Fact::Make(
        "p" + std::to_string(fuzzer.Pick(3)),
        {Value::Symbol("c" + std::to_string(fuzzer.Pick(4)))},
        Interval::Closed(Rational(lo), Rational(lo + fuzzer.Pick(5)))));
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Fact& a, const Fact& b) {
                     return a.interval.lo().value < b.interval.lo().value;
                   });
  std::vector<Fact> permuted = stream;
  std::mt19937_64 rng(GetParam() * 7919);
  for (size_t b = 0; b < permuted.size();) {
    size_t e = b + 1;
    const Rational& lo = permuted[b].interval.lo().value;
    while (e < permuted.size() && permuted[e].interval.lo().value == lo) ++e;
    std::shuffle(permuted.begin() + b, permuted.begin() + e, rng);
    b = e;
  }

  SessionOptions options = Opts(0);
  auto in_order = EngineSession::Create(unit->program, options);
  auto shuffled = EngineSession::Create(unit->program, options);
  ASSERT_TRUE(in_order.ok()) << in_order.status();
  ASSERT_TRUE(shuffled.ok()) << shuffled.status();
  EngineSession& a = **in_order;
  EngineSession& b = **shuffled;
  auto expect_identical = [&](const std::string& label) {
    const std::string want = SerializeDatabase(a.db());
    EXPECT_EQ(SerializeDatabase(b.db()), want)
        << label << ": push order changed the database\nprogram:\n"
        << text;
    auto cold = b.ColdReplay();
    ASSERT_TRUE(cold.ok()) << label << ": " << cold.status();
    EXPECT_EQ(SerializeDatabase(cold->db), want)
        << label << ": diverged from cold replay\nprogram:\n" << text;
  };

  size_t next = 0;
  for (int64_t watermark = 3; watermark <= 30; watermark += 3) {
    const std::string label = "seed=" + std::to_string(GetParam()) +
                              " watermark=" + std::to_string(watermark);
    for (; next < stream.size() &&
           stream[next].interval.lo().value < Rational(watermark);
         ++next) {
      ASSERT_TRUE(a.Push(stream[next]).ok());
      ASSERT_TRUE(b.Push(permuted[next]).ok());
    }
    expect_identical(label + " (pushes)");
    ASSERT_TRUE(a.Advance(Rational(watermark)).ok());
    ASSERT_TRUE(b.Advance(Rational(watermark)).ok());
    expect_identical(label + " (advance)");
    if (watermark == 18) {
      ASSERT_TRUE(a.Slide(Rational(8)).ok());
      ASSERT_TRUE(b.Slide(Rational(8)).ok());
      expect_identical(label + " (slide)");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingPushOrderTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace dmtl
