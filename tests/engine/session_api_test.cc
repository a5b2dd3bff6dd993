// Session API contract: an EngineSession agrees with a cold batch replay
// of its inputs, its convenience overloads and snapshots work, and option
// conflicts fail loudly.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/engine/session.h"
#include "src/parser/parser.h"
#include "src/storage/serialize.h"

namespace dmtl {
namespace {

Program TestProgram() {
  auto unit = Parser::Parse("q(X) :- diamondminus[0,2] p(X) .\n");
  EXPECT_TRUE(unit.ok()) << unit.status();
  return unit->program;
}

SessionOptions Opts(int64_t start) {
  SessionOptions options;
  options.start_time = Rational(start);
  return options;
}

TEST(EngineSessionTest, StreamingAndBatchShapesAgreeByteForByte) {
  // The incremental session and one cold batch Materialize over its input
  // log (ColdReplay) agree after pushes, advances and a slide.
  Program program = TestProgram();
  auto session = EngineSession::Create(program, Opts(0));
  ASSERT_TRUE(session.ok()) << session.status();
  EngineSession& s = **session;
  EXPECT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("a")},
                                Interval::Closed(Rational(1), Rational(3))))
                  .ok());
  EXPECT_TRUE(s.Advance(Rational(4)).ok());
  EXPECT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("b")},
                                Interval::Point(Rational(6))))
                  .ok());
  EXPECT_TRUE(s.Advance(Rational(8)).ok());
  EXPECT_TRUE(s.Slide(Rational(2)).ok());
  EXPECT_EQ(s.watermark(), Rational(8));
  EXPECT_EQ(s.window_min(), Rational(2));
  auto cold = s.ColdReplay();
  ASSERT_TRUE(cold.ok()) << cold.status();
  std::string streamed = SerializeDatabase(s.db());
  EXPECT_EQ(streamed, SerializeDatabase(cold->db));
  EXPECT_NE(streamed.find("q(a)"), std::string::npos);
  EXPECT_NE(streamed.find("q(b)"), std::string::npos);
}

TEST(EngineSessionTest, StringPushStepConvenienceOverloadWorks) {
  Program program = TestProgram();
  auto session = EngineSession::Create(program, Opts(0));
  ASSERT_TRUE(session.ok()) << session.status();
  EngineSession& s = **session;
  ASSERT_TRUE(s.PushStep("p", {Value::Symbol("a")}, Rational(1)).ok());
  ASSERT_TRUE(s.Advance(Rational(3)).ok());
  EXPECT_NE(SerializeDatabase(s.db()).find("q(a)"), std::string::npos);
}

TEST(EngineSessionTest, ManagedEngineWindowOptionsAreRejected) {
  Program program = TestProgram();
  SessionOptions with_min = Opts(0);
  with_min.engine.min_time = Rational(1);
  EXPECT_FALSE(EngineSession::Create(program, with_min).ok());

  SessionOptions with_max = Opts(0);
  with_max.engine.max_time = Rational(10);
  EXPECT_FALSE(EngineSession::Create(program, with_max).ok());

  std::vector<DerivationRecord> records;
  SessionOptions with_prov = Opts(0);
  with_prov.engine.provenance = &records;
  EXPECT_FALSE(EngineSession::Create(program, with_prov).ok());

  SessionOptions bad_horizon = Opts(0);
  bad_horizon.horizon = Rational(0);
  EXPECT_FALSE(EngineSession::Create(program, bad_horizon).ok());
}

TEST(EngineSessionTest, SnapshotRestoreThroughTheFacade) {
  Program program = TestProgram();
  auto session = EngineSession::Create(program, Opts(0));
  ASSERT_TRUE(session.ok()) << session.status();
  EngineSession& s = **session;
  ASSERT_TRUE(s.Push(Fact::Make("p", {Value::Symbol("a")},
                                Interval::Closed(Rational(1), Rational(3))))
                  .ok());
  ASSERT_TRUE(s.Advance(Rational(4)).ok());
  auto snap = s.Snapshot();
  ASSERT_TRUE(snap.ok()) << snap.status();

  auto restored = EngineSession::Restore(program, Opts(0), *snap);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(SerializeDatabase((*restored)->db()), SerializeDatabase(s.db()));
  EXPECT_EQ((*restored)->watermark(), s.watermark());

  // A snapshot never restores against a different rule set.
  auto other = Parser::Parse("q(X) :- diamondminus[0,3] p(X) .\n");
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(EngineSession::Restore(other->program, Opts(0), *snap).ok());
}

}  // namespace
}  // namespace dmtl
