#ifndef DMTL_FLEET_SERVER_H_
#define DMTL_FLEET_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ast/program.h"
#include "src/common/status.h"
#include "src/engine/session.h"
#include "src/fleet/scheduler.h"
#include "src/fleet/workload.h"

namespace dmtl {

// Identity of a hosted session: which rule set it runs (a registered
// program), which market parameterization produced that program, and which
// account shard it serves. Sessions are shared-nothing across keys - the
// contract predicates are keyed by account and accounts never interact
// across shards - which is what lets the fleet multiplex thousands of them
// with no cross-session synchronization.
struct SessionKey {
  std::string program;     // name under which the program was registered
  uint64_t params_fp = 0;  // market-params fingerprint (0 = defaults)
  std::string shard;       // account shard / session name

  bool operator==(const SessionKey& other) const {
    return program == other.program && params_fp == other.params_fp &&
           shard == other.shard;
  }
  std::string ToString() const;
};

struct SessionKeyHash {
  size_t operator()(const SessionKey& key) const;
};

// Fleet-wide policy. The fleet's parallelism axis is *across* sessions -
// every engine run is sequential - which is both the scaling shape the
// workload has (many small independent contracts) and what keeps the
// scheduler's shared-nothing contract trivial.
struct FleetOptions {
  // Scheduler workers: 0 = hardware concurrency, 1 = sequential.
  int num_threads = 0;

  // Per-session engine knobs. min_time/max_time/provenance must be unset
  // (the sessions manage them), exactly like SessionOptions::engine.
  //
  // Admission control, reusing the engine's guard machinery: each operation
  // of each session runs under engine.deadline and engine.max_intervals. A
  // trip stops the operation at a round barrier (rollback included); the
  // server then evicts the session and warm-restarts it from its last
  // snapshot.
  EngineOptions engine;

  // Operations executed per scheduler slice before the session yields the
  // worker - the fairness quantum. Advances dominate slice cost.
  size_t ops_per_slice = 8;

  // Snapshot cadence: checkpoint after every N advances (round barriers).
  // 0 keeps only the post-creation snapshot, so an evicted session replays
  // its whole op history. Snapshots are what make eviction cheap: the warm
  // restart replays at most N advances.
  size_t snapshot_every_advances = 16;

  // Evict-and-retry policy: a session whose op or warm reactivation fails
  // is restored from its last snapshot with no deadline, and the op tail
  // is replayed once. A second failure (or retry_evicted = false, or a
  // cancellation) is final.
  bool retry_evicted = true;

  // Passivation: when a session's queue drains, checkpoint it and release
  // the live engine; new ops (or the next Drain) reactivate it warm from
  // the snapshot. This bounds resident engine state to the *active*
  // sessions instead of every open one - the difference between hosting
  // 10k sessions and holding 10k materializations in memory. Find()
  // returns nullptr for a passivated session. Off by default so small
  // fleets keep their sessions inspectable after a drain.
  bool passivate_drained = false;

  // Record provenance in every hosted session (expensive at fleet scale;
  // the snapshot round-trip tests turn it on).
  bool track_provenance = false;
};

// Outcome and measurements of one hosted session after a Drain.
struct SessionReport {
  SessionKey key;
  Status status = Status::Ok();

  // Whether the degraded warm restart ran, and what the first attempt hit.
  bool retried = false;
  Status first_attempt_status = Status::Ok();

  size_t ops_executed = 0;        // ops consumed from the queue
  size_t advances = 0;            // kAdvance ops among them
  size_t derived_intervals = 0;   // summed over this session's operations
  size_t snapshots_taken = 0;
  size_t ops_replayed = 0;        // warm-restart replay length (0 = none)
  // Wall-clock per advance (pushes between advances are attributed to the
  // advance that consumes them), for the fleet latency distribution.
  std::vector<double> advance_latencies_us;

  bool ok() const { return status.ok(); }
};

// A shared-nothing session server: hosts 1k-10k concurrent contract
// sessions, multiplexed over the existing ThreadPool by a work-stealing
// scheduler, with per-tenant admission control (guard deadline + interval
// budget per operation) and snapshot persistence so evicted sessions
// restart warm instead of cold-replaying.
//
// Lifecycle: RegisterProgram once per rule set, Open once per session key,
// Enqueue operation batches (SessionToOps compiles a trading session into
// one), then Drain to run the fleet idle. Sessions stay open across Drains
// - enqueue more ops and drain again to advance the fleet's windows.
//
// Thread contract: Open/Enqueue/Find/Checkpoint and Drain are
// caller-serialized (one thread drives the server); all parallelism is
// inside Drain, where the scheduler guarantees each session is touched by
// one worker at a time.
class FleetServer {
 public:
  explicit FleetServer(const FleetOptions& options = {});
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  // Validates fleet-wide options once (same rules as SessionOptions).
  static Result<std::unique_ptr<FleetServer>> Create(
      const FleetOptions& options = {});

  // Compiles a rule set once (CompiledProgram::Create) and registers it
  // under `name`; every session of the name shares the compiled program.
  // A program that fails to compile or is not streaming-eligible (see
  // CompiledProgram::streaming_status) is refused here, with that error, so
  // it never reaches Drain. Registering twice under one name is an error.
  Status RegisterProgram(const std::string& name, Program program);

  // Admits a session under `key` (whose key.program must be registered)
  // with the given window start and optional sliding horizon (positive).
  // The session itself is created lazily on its first Drain slice.
  Status Open(const SessionKey& key, const Rational& start_time,
              std::optional<Rational> horizon = std::nullopt);

  // Appends operations to the session's queue (they run on the next Drain).
  Status Enqueue(const SessionKey& key, std::vector<FleetOp> ops);

  // Runs every queued operation to completion across the scheduler and
  // returns one report per session in Open order. Failures are isolated: a
  // session that exhausts its budgets or faults is evicted (and retried
  // once, warm, when the policy allows); its siblings always run on. The
  // Result itself is an error only for setup problems.
  Result<std::vector<SessionReport>> Drain();

  // The live session hosted under `key` (nullptr before its first Drain
  // slice, after passivation, or for unknown keys). Const access for
  // checks and extraction.
  const EngineSession* Find(const SessionKey& key) const;

  // Exports the session's current state as a snapshot - fresh from the
  // live session when one is resident, decoded from the passivation
  // checkpoint otherwise (reactivating first if the checkpoint trails the
  // op log). The unit of persistence for moving sessions off-box.
  Result<SessionSnapshot> Checkpoint(const SessionKey& key);

  size_t num_sessions() const { return hosted_.size(); }

 private:
  struct Hosted;

  // One scheduler slice: up to ops_per_slice queued ops. Returns true while
  // the session has more queued work.
  bool RunSlice(Hosted* h);
  Status ExecuteOp(Hosted* h, const FleetOp& op, bool record);
  Status CreateSession(Hosted* h);
  // Warm restart from the last snapshot: decode, restore (degraded engine
  // knobs when this is an eviction rather than a reactivation), and replay
  // the op tail up to (not including) h->next_op.
  Status RestoreWarm(Hosted* h, bool degraded);
  // Handles a failed op or reactivation: the single degraded warm restart
  // when the retry policy allows it. Returns false (session marked failed)
  // when the failure is final.
  bool RetryDegraded(Hosted* h, const Status& failure);
  void TakeSnapshot(Hosted* h);
  SessionOptions BuildSessionOptions(const Hosted& h, bool degraded) const;

  FleetOptions options_;
  std::map<std::string, std::shared_ptr<const CompiledProgram>> programs_;
  std::vector<std::unique_ptr<Hosted>> hosted_;
  std::unordered_map<SessionKey, size_t, SessionKeyHash> registry_;
};

}  // namespace dmtl

#endif  // DMTL_FLEET_SERVER_H_
