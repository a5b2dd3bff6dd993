#include "src/tools/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tests/testing/temp_path.h"

namespace dmtl {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestTempPath("dmtl_cli_test");
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string WriteFile(const std::string& name, const std::string& text) {
    std::string path = (dir_ / name).string();
    std::ofstream f(path);
    f << text;
    return path;
  }

  // Returns (status, stdout).
  std::pair<Status, std::string> Run(std::vector<std::string> args) {
    std::ostringstream out;
    std::ostringstream err;
    Status status = RunCli(args, out, err);
    return {status, out.str()};
  }

  // Returns (status, stderr).
  std::pair<Status, std::string> RunErr(std::vector<std::string> args) {
    std::ostringstream out;
    std::ostringstream err;
    Status status = RunCli(args, out, err);
    return {status, err.str()};
  }

  std::filesystem::path dir_;
};

TEST_F(CliTest, RunMaterializesAndPrints) {
  std::string path = WriteFile("p.dmtl",
                               "q(X) :- p(X) .\n"
                               "p(a)@[1,3] .\n");
  auto [status, out] = Run({"run", path});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(out, "p(a)@[1, 3] .\nq(a)@[1, 3] .\n");
}

TEST_F(CliTest, RunWithHorizonAndQuery) {
  std::string path = WriteFile("chain.dmtl",
                               "open(A) :- deposit(A) .\n"
                               "open(A) :- boxminus open(A) .\n"
                               "deposit(x)@2 .\n");
  auto [status, out] =
      Run({"run", path, "--min", "0", "--max", "4", "--query", "open"});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(out,
            "open(x)@[2, 2] .\nopen(x)@[3, 3] .\nopen(x)@[4, 4] .\n");
}

TEST_F(CliTest, RunAtTimePoint) {
  std::string path = WriteFile("p.dmtl",
                               "q(X) :- p(X) .\n"
                               "p(a)@[1,3] . p(b)@[5,9] .\n");
  auto [status, out] = Run({"run", path, "--at", "2"});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(out, "p(a)\nq(a)\n");
  auto [status2, out2] = Run({"run", path, "--query", "q", "--at", "7"});
  ASSERT_TRUE(status2.ok());
  EXPECT_EQ(out2, "q(b)@7\n");
}

TEST_F(CliTest, ThreadsIsAFleetOnlyFlag) {
  // Every engine run is sequential; --threads sizes the fleet scheduler and
  // is a usage error anywhere else.
  std::string path = WriteFile("p.dmtl", "q(X) :- p(X) .\n p(a)@1 .\n");
  auto [plain, plain_out] = Run({"run", path, "--threads", "2"});
  EXPECT_EQ(plain.code(), StatusCode::kInvalidArgument) << plain;
  EXPECT_EQ(ExitCodeForStatus(plain), 2);
  EXPECT_NE(plain.message().find("--fleet"), std::string::npos) << plain;
  EXPECT_TRUE(plain_out.empty());

  auto [fleet, fleet_out] = Run({"run", "--fleet", "2", "--threads", "2"});
  ASSERT_TRUE(fleet.ok()) << fleet;
  EXPECT_NE(fleet_out.find("\"workers\":2"), std::string::npos) << fleet_out;

  auto [bad, bad_out] = Run({"run", "--fleet", "2", "--threads", "lots"});
  EXPECT_FALSE(bad.ok());
  auto [neg, neg_out] = Run({"run", "--fleet", "2", "--threads", "-2"});
  EXPECT_FALSE(neg.ok());
}

TEST_F(CliTest, RunStatsAndOutputFile) {
  std::string path = WriteFile("p.dmtl", "q(X) :- p(X) .\n p(a)@1 .\n");
  std::string out_path = (dir_ / "out.dmtl").string();
  auto [status, out] =
      Run({"run", path, "--stats", "--output", out_path});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("% strata="), std::string::npos);
  std::ifstream written(out_path);
  ASSERT_TRUE(written.good());
  std::stringstream buffer;
  buffer << written.rdbuf();
  EXPECT_NE(buffer.str().find("q(a)@[1, 1] ."), std::string::npos);
}

TEST_F(CliTest, MultipleInputFilesMerge) {
  std::string rules = WriteFile("rules.dmtl", "q(X) :- p(X) .\n");
  std::string facts = WriteFile("facts.dmtl", "p(a)@1 .\n");
  auto [status, out] = Run({"run", rules, facts, "--query", "q"});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(out, "q(a)@[1, 1] .\n");
}

TEST_F(CliTest, CheckReportsStrata) {
  std::string path = WriteFile("p.dmtl",
                               "a(X) :- base(X) .\n"
                               "b(X) :- base(X), not a(X) .\n");
  auto [status, out] = Run({"check", path});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("2 rules"), std::string::npos);
  EXPECT_NE(out.find("2 strata"), std::string::npos);
  EXPECT_NE(out.find("stratum 1: b"), std::string::npos);
}

TEST_F(CliTest, CheckRejectsBadPrograms) {
  std::string unsafe = WriteFile("bad.dmtl", "p(X, Y) :- q(X) .\n");
  auto [status, out] = Run({"check", unsafe});
  EXPECT_EQ(status.code(), StatusCode::kUnsafeRule);
}

TEST_F(CliTest, DotEmitsGraph) {
  std::string path = WriteFile("p.dmtl", "b(X) :- a(X), not c(X) .\n");
  auto [status, out] = Run({"dot", path});
  ASSERT_TRUE(status.ok());
  EXPECT_NE(out.find("digraph"), std::string::npos);
  EXPECT_NE(out.find("style=dashed"), std::string::npos);
}

TEST_F(CliTest, FmtPrettyPrints) {
  std::string path =
      WriteFile("p.dmtl", "q(X):-boxminus[1,1]p(X).\np(a)@1 .\n");
  auto [status, out] = Run({"fmt", path});
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(out, "q(X) :- boxminus[1,1] p(X) .\np(a)@[1, 1] .\n");
}

TEST_F(CliTest, ExplainNamesTheDerivingRule) {
  std::string path = WriteFile("p.dmtl",
                               "q(X) :- p(X) .\n"
                               "r(X) :- q(X), not s(X) .\n"
                               "p(a)@[1,4] . s(a)@3 .\n");
  auto [status, out] =
      Run({"run", path, "--explain", "r(a)@[1,2] ."});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("r(a)@[1,2]:"), std::string::npos);
  EXPECT_NE(out.find("r(X) :- q(X), not s(X) ."), std::string::npos);
  // Input facts have no derivation records.
  auto [status2, out2] = Run({"run", path, "--explain", "p(a)@2 ."});
  ASSERT_TRUE(status2.ok());
  EXPECT_NE(out2.find("no derivation"), std::string::npos);
}

TEST_F(CliTest, UsageErrors) {
  EXPECT_EQ(Run({}).first.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Run({"explode", "x"}).first.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Run({"run"}).first.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Run({"run", "nope", "--min"}).first.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Run({"run", "--bogus", "f"}).first.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Run({"run", "/nonexistent/file.dmtl"}).first.code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CliTest, DeadlineFlagTripsOnDivergentProgram) {
  // No horizon: the chain rule propagates forever, so only the deadline
  // stops the run. The seed is an interval, so the coverage grows by one
  // coalesced pass at a time (a punctual seed's grid is emitted as point
  // runs that reach the default interval budget within milliseconds). The
  // failure must carry the stop diagnostics on stderr.
  std::string path = WriteFile("divergent.dmtl",
                               "open(A) :- deposit(A) .\n"
                               "open(A) :- boxminus open(A) .\n"
                               "deposit(x)@[2,3] .\n");
  auto [status, err] = RunErr({"run", path, "--deadline-ms", "50"});
  ASSERT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(err.find("stop_reason=deadline"), std::string::npos) << err;

  auto [bad, bad_err] = RunErr({"run", path, "--deadline-ms", "soon"});
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

TEST_F(CliTest, DeadlineFlagIsHarmlessOnFastRuns) {
  std::string path = WriteFile("p.dmtl", "q(X) :- p(X) .\n p(a)@1 .\n");
  auto [status, out] = Run({"run", path, "--deadline-ms", "60000"});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("q(a)@[1, 1] ."), std::string::npos);
}

TEST_F(CliTest, ExitCodesDistinguishFailureClasses) {
  EXPECT_EQ(ExitCodeForStatus(Status::Ok()), 0);
  EXPECT_EQ(ExitCodeForStatus(Status::InvalidArgument("x")), 2);
  EXPECT_EQ(ExitCodeForStatus(Status::ParseError("x")), 2);
  EXPECT_EQ(ExitCodeForStatus(Status::UnsafeRule("x")), 2);
  EXPECT_EQ(ExitCodeForStatus(Status::NotStratifiable("x")), 2);
  EXPECT_EQ(ExitCodeForStatus(Status::DeadlineExceeded("x")), 3);
  EXPECT_EQ(ExitCodeForStatus(Status::Cancelled("x")), 4);
  EXPECT_EQ(ExitCodeForStatus(Status::ResourceExhausted("x")), 5);
  EXPECT_EQ(ExitCodeForStatus(Status::EvalError("x")), 1);
  EXPECT_EQ(ExitCodeForStatus(Status::Internal("x")), 1);
  EXPECT_EQ(ExitCodeForStatus(Status::NotFound("x")), 1);
}

// The rule VM is the only executor: the flags that once switched to the
// AST walker are unknown options (a usage error), and the default run
// still derives the join.
TEST_F(CliTest, RemovedExecutorFlagsAreRejected) {
  std::string path = WriteFile("join.dmtl",
                               "r(X, Z) :- p(X, Y), q(Y, Z) .\n"
                               "p(a, b)@[0,4] . p(a, c)@[10,12] .\n"
                               "q(b, d)@[1,2] . q(c, e)@[50,60] .\n");
  auto [status, out] = Run({"run", path});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("r(a, d)@[1, 2] ."), std::string::npos) << out;
  for (const char* flag : {"--no-plan", "--no-compile", "--naive",
                           "--no-accel"}) {
    auto [flag_status, flag_out] = Run({"run", path, flag});
    EXPECT_EQ(ExitCodeForStatus(flag_status), 2) << flag;
  }
}

TEST_F(CliTest, ExplainPlanPrintsJoinOrderAndCounters) {
  std::string path = WriteFile("join.dmtl",
                               "r(X, Z) :- p(X, Y), q(Y, Z) .\n"
                               "p(a, b)@[0,4] . p(a, c)@[10,12] .\n"
                               "q(b, d)@[1,2] . q(c, e)@[50,60] .\n");
  auto [status, out] = Run({"run", path, "--explain-plan"});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.find("% join plans"), std::string::npos) << out;
  EXPECT_NE(out.find("% rule 0:"), std::string::npos) << out;
  EXPECT_NE(out.find("est_cost"), std::string::npos) << out;
  EXPECT_NE(out.find("% planner:"), std::string::npos) << out;
  // The plan output is comment-prefixed: every line of the section starts
  // with '%', so the overall output stays loadable as a program.
  EXPECT_NE(out.find("p(a, b)@[0, 4] ."), std::string::npos) << out;
}

TEST_F(CliTest, EthPerpArtifactThroughCli) {
  if (!std::filesystem::exists("programs/eth_perp.dmtl")) {
    GTEST_SKIP() << "artifact not found (run from repo root)";
  }
  std::string facts = WriteFile("session.dmtl",
                                "start()@0 . skew(0.0)@0 . frs(0.0)@0 .\n"
                                "price(100.0)@[0, 20] .\n"
                                "tranM(abc, 1000.0)@2 .\n"
                                "modPos(abc, 2.0)@4 .\n"
                                "closePos(abc)@8 .\n");
  auto [status, out] = Run({"run", "programs/eth_perp.dmtl", facts, "--min",
                            "0", "--max", "12", "--query", "pnl"});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(out, "pnl(abc, 0.0)@[8, 8] .\n");
}

TEST_F(CliTest, StreamModeEmitsNdjsonPerEvent) {
  std::string prog = WriteFile("s.dmtl",
                               "q(X) :- diamondminus[0,2] p(X) .\n"
                               "p(a)@[1,3] .\n");
  std::string stream = WriteFile("s.stream",
                                 "% comment lines are skipped\n"
                                 "@advance 4\n"
                                 "@checkpoint\n"
                                 "@step price(10.0)@5 .\n"
                                 "p(b)@6 .\n"
                                 "@advance 7\n"
                                 "@slide 3\n"
                                 "@checkpoint\n");
  auto [status, out] = Run({"run", prog, "--stream", stream, "--stats"});
  ASSERT_TRUE(status.ok()) << status << "\n" << out;
  std::istringstream lines(out);
  std::string line;
  std::vector<std::string> events;
  while (std::getline(lines, line)) events.push_back(line);
  ASSERT_EQ(events.size(), 7u) << out;
  EXPECT_NE(events[0].find("\"op\":\"advance\""), std::string::npos);
  EXPECT_NE(events[0].find("\"watermark\":\"4\""), std::string::npos);
  EXPECT_NE(events[0].find("\"latency_us\":"), std::string::npos);
  EXPECT_NE(events[0].find("\"delta_intervals\":"), std::string::npos);
  EXPECT_NE(events[0].find("\"rounds\":"), std::string::npos);
  EXPECT_NE(events[1].find("\"op\":\"checkpoint\""), std::string::npos);
  EXPECT_NE(events[1].find("\"match\":true"), std::string::npos);
  EXPECT_NE(events[2].find("\"op\":\"step\""), std::string::npos);
  EXPECT_NE(events[3].find("\"op\":\"push\""), std::string::npos);
  EXPECT_NE(events[5].find("\"op\":\"slide\""), std::string::npos);
  EXPECT_NE(events[5].find("\"window_min\":\"3\""), std::string::npos);
  EXPECT_NE(events[6].find("\"match\":true"), std::string::npos);
}

TEST_F(CliTest, StreamModeRejectsBadInput) {
  std::string prog = WriteFile("s.dmtl", "q(X) :- p(X) .\n");
  // --max conflicts with the session-managed horizon.
  std::string stream = WriteFile("ok.stream", "@advance 1\n");
  auto [max_status, max_out] =
      Run({"run", prog, "--stream", stream, "--max", "9"});
  EXPECT_EQ(ExitCodeForStatus(max_status), 2);
  // Unknown directives name the offending line.
  std::string bad = WriteFile("bad.stream", "@advance 1\n@bogus 2\n");
  auto [status, out] = Run({"run", prog, "--stream", bad});
  EXPECT_EQ(ExitCodeForStatus(status), 2);
  EXPECT_NE(status.message().find(":2:"), std::string::npos) << status;
  // A fact at or below the watermark violates the flush discipline.
  std::string late = WriteFile("late.stream", "@advance 5\np(a)@2 .\n");
  auto [late_status, late_out] = Run({"run", prog, "--stream", late});
  EXPECT_FALSE(late_status.ok());
}

TEST_F(CliTest, StreamSnapshotThenRestoreMatchesStraightRun) {
  const std::string rules = "q(X) :- diamondminus[0,2] p(X) .\n";
  std::string prog = WriteFile("r.dmtl", rules + "p(a)@[1,3] .\n");
  std::string rules_only = WriteFile("rules.dmtl", rules);
  std::string snap = (dir_ / "mid.snap").string();
  const std::string head = "@advance 4\n@step price(10.0)@5 .\np(b)@6 .\n"
                           "@advance 7\n";
  const std::string tail = "@step price(11.0)@8 .\np(c)@9 .\n@advance 10\n"
                           "@slide 5\n@checkpoint\n";

  std::string straight_db = (dir_ / "straight.dmtl").string();
  auto [straight, straight_out] =
      Run({"run", prog, "--stream", WriteFile("all.stream", head + tail),
           "--output", straight_db});
  ASSERT_TRUE(straight.ok()) << straight << "\n" << straight_out;

  auto [first, first_out] =
      Run({"run", prog, "--stream",
           WriteFile("head.stream", head + "@snapshot " + snap + "\n")});
  ASSERT_TRUE(first.ok()) << first << "\n" << first_out;
  std::string resumed_db = (dir_ / "resumed.dmtl").string();
  auto [resumed, resumed_out] =
      Run({"run", rules_only, "--restore", snap, "--stream",
           WriteFile("tail.stream", tail), "--output", resumed_db});
  ASSERT_TRUE(resumed.ok()) << resumed << "\n" << resumed_out;
  EXPECT_NE(resumed_out.find("\"match\":true"), std::string::npos)
      << resumed_out;

  auto slurp = [](const std::string& path) {
    std::ifstream f(path);
    std::stringstream buffer;
    buffer << f.rdbuf();
    return buffer.str();
  };
  EXPECT_FALSE(slurp(straight_db).empty());
  EXPECT_EQ(slurp(resumed_db), slurp(straight_db));

  // A v1 snapshot (it carried the database) is refused, naming the version.
  std::string v1 = WriteFile("old.snap",
                             "DMTL-SNAPSHOT v1\nprogram 0000000000000001\n");
  auto [old, old_out] = Run({"run", rules_only, "--restore", v1, "--stream",
                             WriteFile("none.stream", "")});
  EXPECT_EQ(ExitCodeForStatus(old), 2) << old;
  EXPECT_NE(old.message().find("v1"), std::string::npos) << old;
}

}  // namespace
}  // namespace dmtl
