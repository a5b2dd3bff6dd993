// Fleet subsystem contract: the work-stealing scheduler runs every item's
// slices exactly once with single-owner execution; SessionToOps reproduces
// the interactive replay schedule; the FleetServer drains thousands of
// shared-nothing sessions to the same bytes a per-session batch
// materialization derives, isolates per-session failures, and warm-restarts
// evicted sessions from their snapshots.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "src/chain/replayer.h"
#include "src/chain/workload.h"
#include "src/common/fault_injector.h"
#include "src/common/thread_pool.h"
#include "src/contracts/eth_perp_program.h"
#include "src/fleet/scheduler.h"
#include "src/fleet/server.h"
#include "src/fleet/workload.h"
#include "src/storage/serialize.h"
#include "src/streaming/session.h"

namespace dmtl {
namespace {

// Small deterministic trading windows: the fleet's scale axis is session
// count, so each hosted session is deliberately tiny.
WorkloadConfig SmallConfig() {
  WorkloadConfig config;
  config.name = "fleet-test";
  config.duration_s = 600;
  config.num_events = 8;
  config.num_trades = 2;
  config.price.update_interval_s = 60;
  return config;
}

// The batch twin: one cold materialization over the session's database and
// window - the target every hosted session must hit byte-for-byte.
std::string BatchText(const Program& program, const Session& session) {
  Database db = SessionToDatabase(session);
  EngineOptions engine = SessionEngineOptions(session);
  Status run = Materialize(program, &db, engine);
  EXPECT_TRUE(run.ok()) << run;
  return SerializeDatabase(db);
}

TEST(WorkStealingSchedulerTest, RunsEverySliceWithSingleOwnerExecution) {
  const size_t kItems = 64;
  const size_t kWorkers = 8;
  // Skewed slice counts: item i needs i%7+1 slices, so deques drain at
  // different rates and stealing must kick in to finish.
  std::vector<std::atomic<int>> remaining(kItems);
  std::vector<std::atomic<bool>> in_flight(kItems);
  for (size_t i = 0; i < kItems; ++i) {
    remaining[i] = static_cast<int>(i % 7) + 1;
    in_flight[i] = false;
  }
  std::atomic<size_t> slices{0};

  WorkStealingScheduler scheduler(kItems, kWorkers);
  ThreadPool pool(kWorkers);
  scheduler.Run(&pool, [&](size_t item, size_t worker) {
    EXPECT_LT(worker, kWorkers);
    // The shared-nothing guarantee: no item is ever executed by two
    // workers at once.
    EXPECT_FALSE(in_flight[item].exchange(true));
    slices.fetch_add(1);
    bool more = remaining[item].fetch_sub(1) > 1;
    in_flight[item].store(false);
    return more;
  });

  size_t expected = 0;
  for (size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(remaining[i].load(), 0) << "item " << i;
    expected += i % 7 + 1;
  }
  EXPECT_EQ(slices.load(), expected);
}

TEST(WorkStealingSchedulerTest, InlineWhenSequential) {
  std::vector<int> hits(5, 0);
  WorkStealingScheduler scheduler(hits.size(), 1);
  scheduler.Run(nullptr, [&](size_t item, size_t worker) {
    EXPECT_EQ(worker, 0u);
    ++hits[item];
    return hits[item] < 2;
  });
  for (int h : hits) EXPECT_EQ(h, 2);
}

TEST(FleetWorkloadTest, SessionToOpsMatchesInteractiveReplay) {
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok()) << program.status();
  auto session = GenerateSession(SmallConfig());
  ASSERT_TRUE(session.ok()) << session.status();

  // The reference: ReplaySessionStream driving a streaming session.
  SessionOptions sopts;
  sopts.start_time = Rational(session->start_time);
  sopts.track_provenance = false;
  auto replayed = StreamingSession::Create(program.value(), sopts);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  ASSERT_TRUE(ReplaySessionStream(*session, replayed->get()).ok());

  // The same session compiled to FleetOps and fed op-by-op.
  auto driven = StreamingSession::Create(program.value(), sopts);
  ASSERT_TRUE(driven.ok()) << driven.status();
  EngineSession& s = **driven;
  for (const FleetOp& op : SessionToOps(*session)) {
    switch (op.kind) {
      case FleetOp::Kind::kPush:
        ASSERT_TRUE(s.Push(op.fact).ok());
        break;
      case FleetOp::Kind::kStep:
        ASSERT_TRUE(s.PushStep(op.predicate, op.args, op.t).ok());
        break;
      case FleetOp::Kind::kAdvance:
        ASSERT_TRUE(s.Advance(op.t).ok());
        break;
      case FleetOp::Kind::kSlide:
        ASSERT_TRUE(s.Slide(op.t).ok());
        break;
    }
  }
  EXPECT_EQ(SerializeDatabase(s.db()),
            SerializeDatabase((*replayed)->db()));
  EXPECT_EQ(s.watermark(), (*replayed)->watermark());
}

TEST(FleetServerTest, DrainMatchesPerSessionBatchMaterialization) {
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok()) << program.status();

  FleetOptions fopts;
  fopts.num_threads = 4;
  fopts.snapshot_every_advances = 4;
  auto server = FleetServer::Create(fopts);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)->RegisterProgram("eth-perp", program.value()).ok());

  const int kSessions = 12;
  std::vector<Session> sessions;
  std::vector<SessionKey> keys;
  for (const WorkloadConfig& config : ShardConfigs(SmallConfig(), kSessions)) {
    auto session = GenerateSession(config);
    ASSERT_TRUE(session.ok()) << session.status();
    SessionKey key{"eth-perp", 0, config.name};
    ASSERT_TRUE(
        (*server)->Open(key, Rational(session->start_time)).ok());
    ASSERT_TRUE((*server)->Enqueue(key, SessionToOps(*session)).ok());
    sessions.push_back(*std::move(session));
    keys.push_back(key);
  }
  ASSERT_EQ((*server)->num_sessions(), static_cast<size_t>(kSessions));

  auto reports = (*server)->Drain();
  ASSERT_TRUE(reports.ok()) << reports.status();
  ASSERT_EQ(reports->size(), static_cast<size_t>(kSessions));
  for (int i = 0; i < kSessions; ++i) {
    const SessionReport& report = (*reports)[i];
    ASSERT_TRUE(report.ok()) << keys[i].ToString() << ": " << report.status;
    EXPECT_FALSE(report.retried);
    EXPECT_GT(report.advances, 0u);
    EXPECT_GE(report.snapshots_taken, 2u);  // initial + cadence
    EXPECT_EQ(report.advance_latencies_us.size(), report.advances);

    const EngineSession* hosted = (*server)->Find(keys[i]);
    ASSERT_NE(hosted, nullptr);
    EXPECT_EQ(SerializeDatabase(hosted->db()),
              BatchText(program.value(), sessions[i]))
        << keys[i].ToString() << " diverged from its batch twin";
  }
}

TEST(FleetServerTest, PassivationReleasesAndReactivatesWarm) {
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok());
  auto session = GenerateSession(SmallConfig());
  ASSERT_TRUE(session.ok());
  std::vector<FleetOp> ops = SessionToOps(*session);
  ASSERT_GT(ops.size(), 4u);

  FleetOptions fopts;
  fopts.num_threads = 1;
  fopts.passivate_drained = true;
  auto server = FleetServer::Create(fopts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->RegisterProgram("eth-perp", program.value()).ok());
  SessionKey key{"eth-perp", 0, "parked"};
  ASSERT_TRUE((*server)->Open(key, Rational(session->start_time)).ok());

  // Half the schedule, then drain: the queue empties and the live engine
  // is released behind a checkpoint.
  size_t half = ops.size() / 2;
  ASSERT_TRUE(
      (*server)
          ->Enqueue(key, std::vector<FleetOp>(ops.begin(), ops.begin() + half))
          .ok());
  auto first = (*server)->Drain();
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE((*first)[0].ok()) << (*first)[0].status;
  EXPECT_EQ((*server)->Find(key), nullptr)
      << "a drained session should be passivated";

  // The rest of the schedule reactivates it warm from the snapshot - no
  // eviction, no replay (the passivation checkpoint covers the whole log).
  ASSERT_TRUE(
      (*server)
          ->Enqueue(key, std::vector<FleetOp>(ops.begin() + half, ops.end()))
          .ok());
  auto second = (*server)->Drain();
  ASSERT_TRUE(second.ok()) << second.status();
  const SessionReport& report = (*second)[0];
  ASSERT_TRUE(report.ok()) << report.status;
  EXPECT_FALSE(report.retried);
  EXPECT_EQ(report.ops_replayed, 0u);
  EXPECT_EQ(report.ops_executed, ops.size());

  // The exported checkpoint restores to the batch twin's bytes: parking
  // and waking the session twice changed nothing.
  auto checkpoint = (*server)->Checkpoint(key);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
  SessionOptions sopts;
  sopts.start_time = Rational(session->start_time);
  auto restored = EngineSession::Restore(program.value(), sopts, *checkpoint);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(SerializeDatabase((*restored)->db()),
            BatchText(program.value(), *session))
      << "passivated fleet session diverged from its batch twin";
}

TEST(FleetServerTest, RegistrationAndAdmissionErrors) {
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok());

  FleetOptions bad;
  bad.engine.min_time = Rational(0);
  EXPECT_FALSE(FleetServer::Create(bad).ok());
  std::vector<DerivationRecord> records;
  FleetOptions bad_prov;
  bad_prov.engine.provenance = &records;
  EXPECT_FALSE(FleetServer::Create(bad_prov).ok());

  auto server = FleetServer::Create(FleetOptions{});
  ASSERT_TRUE(server.ok());
  FleetServer& fleet = **server;
  ASSERT_TRUE(fleet.RegisterProgram("p", program.value()).ok());
  EXPECT_FALSE(fleet.RegisterProgram("p", program.value()).ok());

  SessionKey unknown{"nope", 0, "s0"};
  EXPECT_FALSE(fleet.Open(unknown, Rational(0)).ok());
  EXPECT_FALSE(fleet.Enqueue(unknown, {}).ok());
  EXPECT_EQ(fleet.Find(unknown), nullptr);

  SessionKey key{"p", 0, "s0"};
  ASSERT_TRUE(fleet.Open(key, Rational(0)).ok());
  EXPECT_FALSE(fleet.Open(key, Rational(0)).ok());
  // Open but never drained: no live session yet.
  EXPECT_EQ(fleet.Find(key), nullptr);
}

class FleetFaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Reset(); }
};

TEST_F(FleetFaultInjectionTest, EvictedSessionWarmRestartsByteIdentical) {
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok());
  auto session = GenerateSession(SmallConfig());
  ASSERT_TRUE(session.ok());

  FleetOptions fopts;
  fopts.num_threads = 1;
  fopts.snapshot_every_advances = 4;
  auto server = FleetServer::Create(fopts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->RegisterProgram("eth-perp", program.value()).ok());
  SessionKey key{"eth-perp", 0, "faulted"};
  ASSERT_TRUE(
      (*server)->Open(key, Rational(session->start_time)).ok());
  ASSERT_TRUE((*server)->Enqueue(key, SessionToOps(*session)).ok());

  // Fail one mid-stream fixpoint round: the session is evicted, restored
  // from its last snapshot, and replays its op tail.
  FaultInjector::Arm("seminaive.round", 40,
                     Status::Internal("injected round fault"));
  auto reports = (*server)->Drain();
  ASSERT_TRUE(reports.ok()) << reports.status();
  ASSERT_EQ(reports->size(), 1u);
  const SessionReport& report = (*reports)[0];
  ASSERT_TRUE(report.ok()) << report.status;
  EXPECT_TRUE(report.retried);
  EXPECT_EQ(report.first_attempt_status.code(), StatusCode::kInternal);
  EXPECT_GT(report.ops_replayed, 0u);

  const EngineSession* hosted = (*server)->Find(key);
  ASSERT_NE(hosted, nullptr);
  EXPECT_EQ(SerializeDatabase(hosted->db()),
            BatchText(program.value(), *session))
      << "warm-restarted session diverged from its batch twin";
}

TEST_F(FleetFaultInjectionTest, CancellationIsNeverRetried) {
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok());
  auto session = GenerateSession(SmallConfig());
  ASSERT_TRUE(session.ok());

  FleetOptions fopts;
  fopts.num_threads = 1;
  auto server = FleetServer::Create(fopts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->RegisterProgram("eth-perp", program.value()).ok());
  SessionKey key{"eth-perp", 0, "cancelled"};
  ASSERT_TRUE(
      (*server)->Open(key, Rational(session->start_time)).ok());
  ASSERT_TRUE((*server)->Enqueue(key, SessionToOps(*session)).ok());

  FaultInjector::Arm("seminaive.round", 10,
                     Status::Cancelled("caller stopped the run"));
  auto reports = (*server)->Drain();
  ASSERT_TRUE(reports.ok()) << reports.status();
  const SessionReport& report = (*reports)[0];
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status.code(), StatusCode::kCancelled);
  EXPECT_FALSE(report.retried);
}

TEST_F(FleetFaultInjectionTest, SecondFaultIsFinalAndIsolated) {
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok());

  // The injected fault is one-shot, so a retried session would recover; to
  // observe a *final* failure plus isolation, disable retries and check
  // that exactly one of two sequentially drained sessions fails.
  FleetOptions fopts;
  fopts.num_threads = 1;
  fopts.retry_evicted = false;
  auto strict = FleetServer::Create(fopts);
  ASSERT_TRUE(strict.ok());
  ASSERT_TRUE((*strict)->RegisterProgram("eth-perp", program.value()).ok());
  std::vector<SessionKey> keys;
  for (const WorkloadConfig& config : ShardConfigs(SmallConfig(), 2)) {
    auto session = GenerateSession(config);
    ASSERT_TRUE(session.ok());
    SessionKey key{"eth-perp", 0, config.name};
    ASSERT_TRUE(
        (*strict)->Open(key, Rational(session->start_time)).ok());
    ASSERT_TRUE((*strict)->Enqueue(key, SessionToOps(*session)).ok());
    keys.push_back(key);
  }
  FaultInjector::Arm("seminaive.round", 10,
                     Status::Internal("injected round fault"));
  auto reports = (*strict)->Drain();
  ASSERT_TRUE(reports.ok()) << reports.status();
  int failed = 0;
  for (const SessionReport& report : *reports) {
    if (!report.ok()) {
      ++failed;
      EXPECT_FALSE(report.retried);
      EXPECT_EQ(report.status.code(), StatusCode::kInternal);
    }
  }
  // Sequential drain: exactly the first session trips; its sibling is
  // untouched by the fault (isolation).
  EXPECT_EQ(failed, 1);
}

TEST_F(FleetFaultInjectionTest, FailedReactivationRetriesDegraded) {
  // Reactivation re-derives the passivated session's database under its
  // guard, so it can fault like an op. The faulted session gets the single
  // degraded retry and still lands on its batch twin's bytes; its siblings
  // never notice.
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok());

  FleetOptions fopts;
  fopts.num_threads = 1;  // sequential drain: session 0 reactivates first
  fopts.passivate_drained = true;
  auto server = FleetServer::Create(fopts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->RegisterProgram("eth-perp", program.value()).ok());
  std::vector<Session> sessions;
  std::vector<SessionKey> keys;
  std::vector<std::vector<FleetOp>> schedules;
  for (const WorkloadConfig& config : ShardConfigs(SmallConfig(), 3)) {
    auto session = GenerateSession(config);
    ASSERT_TRUE(session.ok());
    SessionKey key{"eth-perp", 0, config.name};
    ASSERT_TRUE((*server)->Open(key, Rational(session->start_time)).ok());
    std::vector<FleetOp> ops = SessionToOps(*session);
    ASSERT_GT(ops.size(), 4u);
    ASSERT_TRUE((*server)
                    ->Enqueue(key, std::vector<FleetOp>(
                                       ops.begin(), ops.begin() + ops.size() / 2))
                    .ok());
    sessions.push_back(*std::move(session));
    keys.push_back(key);
    schedules.push_back(std::move(ops));
  }

  // Round 1: every session drains half its schedule and is passivated.
  auto first = (*server)->Drain();
  ASSERT_TRUE(first.ok()) << first.status();
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE((*first)[i].ok()) << (*first)[i].status;
    EXPECT_EQ((*server)->Find(keys[i]), nullptr);
  }

  // Round 2: the very first fixpoint round is session 0's reactivation
  // rebuild; fail it.
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::vector<FleetOp>& ops = schedules[i];
    ASSERT_TRUE((*server)
                    ->Enqueue(keys[i], std::vector<FleetOp>(
                                           ops.begin() + ops.size() / 2,
                                           ops.end()))
                    .ok());
  }
  FaultInjector::Arm("seminaive.round", 1,
                     Status::Internal("injected reactivation fault"));
  auto second = (*server)->Drain();
  ASSERT_TRUE(second.ok()) << second.status();
  for (size_t i = 0; i < keys.size(); ++i) {
    const SessionReport& report = (*second)[i];
    ASSERT_TRUE(report.ok()) << keys[i].ToString() << ": " << report.status;
    EXPECT_EQ(report.retried, i == 0) << keys[i].ToString();
    EXPECT_EQ(report.ops_executed, schedules[i].size());
    if (i == 0) {
      EXPECT_EQ(report.first_attempt_status.code(), StatusCode::kInternal);
      EXPECT_NE(report.first_attempt_status.message().find("reactivation"),
                std::string::npos);
    }
    auto checkpoint = (*server)->Checkpoint(keys[i]);
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
    SessionOptions sopts;
    sopts.start_time = Rational(sessions[i].start_time);
    auto restored =
        EngineSession::Restore(program.value(), sopts, *checkpoint);
    ASSERT_TRUE(restored.ok()) << restored.status();
    EXPECT_EQ(SerializeDatabase((*restored)->db()),
              BatchText(program.value(), sessions[i]))
        << keys[i].ToString() << " diverged from its batch twin";
  }
}

TEST(FleetServerTest, DeadlineEvictionRecoversDegraded) {
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok());
  auto session = GenerateSession(SmallConfig());
  ASSERT_TRUE(session.ok());

  FleetOptions fopts;
  fopts.num_threads = 1;
  // Admission control that every advance must trip: a zero per-operation
  // deadline. The degraded warm restart drops the deadline, so the session
  // still completes - with retried=true telling the operator it was over
  // budget.
  fopts.session_deadline = std::chrono::milliseconds(0);
  auto server = FleetServer::Create(fopts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->RegisterProgram("eth-perp", program.value()).ok());
  SessionKey key{"eth-perp", 0, "over-budget"};
  ASSERT_TRUE(
      (*server)->Open(key, Rational(session->start_time)).ok());
  ASSERT_TRUE((*server)->Enqueue(key, SessionToOps(*session)).ok());

  auto reports = (*server)->Drain();
  ASSERT_TRUE(reports.ok()) << reports.status();
  const SessionReport& report = (*reports)[0];
  ASSERT_TRUE(report.ok()) << report.status;
  EXPECT_TRUE(report.retried);
  EXPECT_EQ(report.first_attempt_status.code(),
            StatusCode::kDeadlineExceeded);
  const EngineSession* hosted = (*server)->Find(key);
  ASSERT_NE(hosted, nullptr);
  EXPECT_EQ(SerializeDatabase(hosted->db()),
            BatchText(program.value(), *session));
}

}  // namespace
}  // namespace dmtl
