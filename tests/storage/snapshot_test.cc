// Snapshot codec contract: EncodeSnapshot/DecodeSnapshot round-trip every
// v2 field bit-exactly, refuse foreign, v1, future, and corrupt inputs
// loudly, hold one line per channel and per log fact (so size follows the
// input log, not the database), never crash on mutated input, and the file
// wrappers behave like the in-memory codec.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/chain/workload.h"
#include "src/contracts/eth_perp_program.h"
#include "src/engine/session.h"
#include "src/fleet/workload.h"
#include "src/parser/parser.h"
#include "src/storage/serialize.h"
#include "src/storage/snapshot.h"
#include "tests/testing/temp_path.h"

namespace dmtl {
namespace {

Program TestProgram() {
  auto unit = Parser::Parse("q(X) :- diamondminus[0,2] p(X) .\n");
  EXPECT_TRUE(unit.ok()) << unit.status();
  return unit->program;
}

SessionSnapshot TestSnapshot(const Program& program) {
  SessionSnapshot snap;
  snap.program_fingerprint = ProgramFingerprint(program);
  snap.watermark = Rational(7, 2);
  snap.window_min = Rational(-3);
  snap.horizon = Rational(10);
  snap.advanced = true;
  snap.track_provenance = true;
  snap.channels.push_back(SessionSnapshot::Channel{
      InternPredicate("price"), {Value::Double(1310.5)}, Rational(3)});
  snap.input_log.push_back(Fact::Make(
      "p", {Value::Symbol("a")}, Interval::Closed(Rational(1), Rational(3))));
  snap.input_log.push_back(
      Fact::Make("p", {Value::Symbol("b")},
                 Interval::ClosedOpen(Rational(2), Rational(7, 2))));
  return snap;
}

void ExpectSnapshotsEqual(const SessionSnapshot& a, const SessionSnapshot& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.program_fingerprint, b.program_fingerprint);
  EXPECT_EQ(a.watermark, b.watermark);
  EXPECT_EQ(a.window_min, b.window_min);
  ASSERT_EQ(a.horizon.has_value(), b.horizon.has_value());
  if (a.horizon.has_value()) {
    EXPECT_EQ(*a.horizon, *b.horizon);
  }
  EXPECT_EQ(a.advanced, b.advanced);
  EXPECT_EQ(a.track_provenance, b.track_provenance);
  ASSERT_EQ(a.channels.size(), b.channels.size());
  for (size_t i = 0; i < a.channels.size(); ++i) {
    EXPECT_EQ(a.channels[i].predicate, b.channels[i].predicate);
    EXPECT_EQ(a.channels[i].args, b.channels[i].args);
    EXPECT_EQ(a.channels[i].logged_hi, b.channels[i].logged_hi);
  }
  ASSERT_EQ(a.input_log.size(), b.input_log.size());
  for (size_t i = 0; i < a.input_log.size(); ++i) {
    EXPECT_EQ(a.input_log[i].predicate, b.input_log[i].predicate);
    EXPECT_EQ(a.input_log[i].args, b.input_log[i].args);
    EXPECT_EQ(a.input_log[i].interval.ToString(),
              b.input_log[i].interval.ToString());
  }
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

// An ETH-PERP trading session checkpointed halfway through its schedule:
// an open price channel, the logged inputs, and a database several times
// the snapshot's size.
struct MidStream {
  std::unique_ptr<EngineSession> session;
  SessionSnapshot snapshot;
};

// Interval budget of the contract runs below, in pieces: about 4x the
// largest passing run (6,064), so a kernel or chain-walk fault that
// over-derives fails fast on ResourceExhausted instead of growing the store
// until the machine runs out of memory.
constexpr size_t kContractIntervalBudget = 25'000;

MidStream EthPerpMidStream() {
  MidStream out;
  auto program = EthPerpProgram();
  EXPECT_TRUE(program.ok()) << program.status();
  WorkloadConfig config;
  config.name = "snapshot-codec";
  config.duration_s = 600;
  config.num_events = 24;
  config.num_trades = 6;
  config.seed = 7;
  auto trading = GenerateSession(config);
  EXPECT_TRUE(trading.ok()) << trading.status();
  std::vector<FleetOp> ops = SessionToOps(*trading);
  SessionOptions options;
  options.start_time = Rational(trading->start_time);
  options.engine.max_intervals = kContractIntervalBudget;
  auto session = EngineSession::Create(program.value(), options);
  EXPECT_TRUE(session.ok()) << session.status();
  out.session = std::move(session).value();
  for (size_t i = 0; i < ops.size() / 2; ++i) {
    const FleetOp& op = ops[i];
    Status s = Status::Ok();
    switch (op.kind) {
      case FleetOp::Kind::kPush:
        s = out.session->Push(op.fact);
        break;
      case FleetOp::Kind::kStep:
        s = out.session->PushStep(op.predicate, op.args, op.t);
        break;
      case FleetOp::Kind::kAdvance:
        s = out.session->Advance(op.t);
        break;
      case FleetOp::Kind::kSlide:
        s = out.session->Slide(op.t);
        break;
    }
    EXPECT_TRUE(s.ok()) << s;
  }
  auto snap = out.session->Snapshot();
  EXPECT_TRUE(snap.ok()) << snap.status();
  out.snapshot = snap.value();
  return out;
}

TEST(SnapshotCodecTest, EncodeDecodeRoundTripsEveryField) {
  Program program = TestProgram();
  SessionSnapshot snap = TestSnapshot(program);
  std::string text = EncodeSnapshot(snap);
  auto decoded = DecodeSnapshot(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectSnapshotsEqual(snap, *decoded);
  // The codec is deterministic: re-encoding the decode is byte-identical.
  EXPECT_EQ(text, EncodeSnapshot(*decoded));
}

TEST(SnapshotCodecTest, MinimalSnapshotRoundTrips) {
  SessionSnapshot snap;
  snap.program_fingerprint = 1;
  snap.track_provenance = false;
  auto decoded = DecodeSnapshot(EncodeSnapshot(snap));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectSnapshotsEqual(snap, *decoded);
}

TEST(SnapshotCodecTest, FingerprintIsStableAndProgramSensitive) {
  Program program = TestProgram();
  EXPECT_EQ(ProgramFingerprint(program), ProgramFingerprint(program));
  auto other = Parser::Parse("q(X) :- diamondminus[0,3] p(X) .\n");
  ASSERT_TRUE(other.ok());
  EXPECT_NE(ProgramFingerprint(program), ProgramFingerprint(other->program));
}

TEST(SnapshotCodecTest, BadMagicIsParseError) {
  auto decoded = DecodeSnapshot("NOT-A-SNAPSHOT v1\n");
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(SnapshotCodecTest, FutureVersionIsRefusedNotMisread) {
  SessionSnapshot snap;
  std::string text = EncodeSnapshot(snap);
  size_t pos = text.find("v2");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 2, "v3");
  auto decoded = DecodeSnapshot(text);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotCodecTest, V1SnapshotIsRefusedNamingV1) {
  // v1 carried the database and provenance; v2 re-derives both and keeps
  // no v1 reader.
  const std::string v1 =
      "DMTL-SNAPSHOT v1\n"
      "program 00000000000000ff\n"
      "watermark 4\n"
      "window_min 0\n"
      "horizon none\n"
      "advanced 1\n"
      "provenance 1\n"
      "channels 0\n"
      "log 1\n"
      "p(a)@[1, 3] .\n"
      "db 2\n"
      "p(a)@[1, 3] .\n"
      "q(a)@[1, 4] .\n"
      "prov 1\n"
      "0 1 q(a)@[1, 4] .\n";
  auto decoded = DecodeSnapshot(v1);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("v1"), std::string::npos)
      << decoded.status();
}

TEST(SnapshotCodecTest, CorruptLogLineIsRejected) {
  std::vector<std::string> lines = Lines(EncodeSnapshot(TestSnapshot(
      TestProgram())));
  ASSERT_EQ(lines.back().rfind("p(b)", 0), 0u) << lines.back();
  lines.back() = "this is not a fact line";
  auto decoded = DecodeSnapshot(JoinLines(lines));
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(SnapshotCodecTest, TrailingDataIsRejected) {
  std::string text = EncodeSnapshot(TestSnapshot(TestProgram()));
  auto decoded = DecodeSnapshot(text + "q(a)@[1, 7/2] .\n");
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(SnapshotCodecTest, TruncatedInputIsRejected) {
  SessionSnapshot snap = TestSnapshot(TestProgram());
  std::string text = EncodeSnapshot(snap);
  auto decoded = DecodeSnapshot(text.substr(0, text.size() / 2));
  EXPECT_FALSE(decoded.ok());
}

TEST(SnapshotCodecTest, SizeFollowsTheLogNotTheDatabase) {
  MidStream mid = EthPerpMidStream();
  const SessionSnapshot& snap = mid.snapshot;
  ASSERT_TRUE(snap.advanced);
  ASSERT_FALSE(snap.channels.empty());
  ASSERT_FALSE(snap.input_log.empty());
  EXPECT_EQ(snap.input_log.size(), mid.session->input_log().size());

  std::string text = EncodeSnapshot(snap);
  // Header, program, watermark, window_min, horizon, advanced, provenance,
  // the channel count and the log count: nine fixed lines, then one line
  // per channel and per log fact - no database or provenance section.
  const size_t kFixedLines = 9;
  EXPECT_EQ(Lines(text).size(),
            kFixedLines + snap.channels.size() + snap.input_log.size());
  const std::string db_text = SerializeDatabase(mid.session->db());
  EXPECT_LT(text.size() * 4, db_text.size())
      << "snapshot " << text.size() << " B vs database " << db_text.size()
      << " B";

  auto decoded = DecodeSnapshot(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectSnapshotsEqual(snap, *decoded);
  EXPECT_EQ(EncodeSnapshot(*decoded), text);
}

TEST(SnapshotCodecTest, MutatedSnapshotsDecodeOrFailCleanly) {
  // Seeded mutation sweep over a real mid-stream snapshot, ~1k mutants.
  // Structural mutants - truncation at and inside every line, every line
  // dropped, every line duplicated - break the line structure the section
  // counts pin, so each must be refused. Random byte flips may land on a
  // value and still decode. Every decode must return a clean Status or a
  // snapshot, never crash or throw, and an accepted mutant must re-encode
  // to a stable canonical form.
  const std::string text = EncodeSnapshot(EthPerpMidStream().snapshot);
  const std::vector<std::string> lines = Lines(text);
  ASSERT_GT(lines.size(), 20u);

  std::vector<std::string> structural;
  size_t offset = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    structural.push_back(text.substr(0, offset));
    structural.push_back(text.substr(0, offset + lines[i].size() / 2));
    offset += lines[i].size() + 1;
    std::vector<std::string> dropped = lines;
    dropped.erase(dropped.begin() + i);
    structural.push_back(JoinLines(dropped));
    std::vector<std::string> duplicated = lines;
    duplicated.insert(duplicated.begin() + i, lines[i]);
    structural.push_back(JoinLines(duplicated));
  }
  std::vector<std::string> flipped;
  std::mt19937_64 rng(20230328);
  std::uniform_int_distribution<size_t> pos(0, text.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  while (structural.size() + flipped.size() < 1000) {
    std::string mutant = text;
    const size_t flips = 1 + flipped.size() % 3;
    for (size_t f = 0; f < flips; ++f) {
      mutant[pos(rng)] = static_cast<char>(byte(rng));
    }
    flipped.push_back(std::move(mutant));
  }

  auto check = [](const std::string& mutant, const std::string& label) {
    auto decoded = DecodeSnapshot(mutant);
    if (!decoded.ok()) {
      const StatusCode code = decoded.status().code();
      EXPECT_TRUE(code == StatusCode::kParseError ||
                  code == StatusCode::kInvalidArgument)
          << label << ": " << decoded.status();
      return false;
    }
    const std::string canonical = EncodeSnapshot(*decoded);
    auto again = DecodeSnapshot(canonical);
    EXPECT_TRUE(again.ok()) << label << ": " << again.status();
    if (again.ok()) {
      EXPECT_EQ(EncodeSnapshot(*again), canonical) << label;
    }
    return true;
  };
  for (size_t m = 0; m < structural.size(); ++m) {
    EXPECT_FALSE(check(structural[m], "structural mutant " +
                                          std::to_string(m)))
        << "structural mutant " << m << " was accepted";
  }
  for (size_t m = 0; m < flipped.size(); ++m) {
    check(flipped[m], "flip mutant " + std::to_string(m));
  }
}

TEST(SnapshotCodecTest, FileRoundTrip) {
  Program program = TestProgram();
  SessionSnapshot snap = TestSnapshot(program);
  std::string path = TestTempPath("dmtl_snapshot").string() + ".snap";
  ASSERT_TRUE(WriteSnapshotFile(snap, path).ok());
  auto decoded = ReadSnapshotFile(path);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectSnapshotsEqual(snap, *decoded);
  std::remove(path.c_str());
  EXPECT_FALSE(ReadSnapshotFile(path).ok());
}

}  // namespace
}  // namespace dmtl
