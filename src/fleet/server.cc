#include "src/fleet/server.h"

#include <chrono>
#include <exception>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/storage/snapshot.h"

namespace dmtl {

namespace {

std::string HexU64(uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

}  // namespace

std::string SessionKey::ToString() const {
  std::string out = program;
  if (params_fp != 0) {
    out += '#';
    out += HexU64(params_fp);
  }
  out += '/';
  out += shard;
  return out;
}

size_t SessionKeyHash::operator()(const SessionKey& key) const {
  size_t h = std::hash<std::string>()(key.program);
  h ^= std::hash<uint64_t>()(key.params_fp) + 0x9E3779B97F4A7C15ull +
       (h << 6) + (h >> 2);
  h ^= std::hash<std::string>()(key.shard) + 0x9E3779B97F4A7C15ull + (h << 6) +
       (h >> 2);
  return h;
}

// Per-session server state: identity, the (lazily created) live session,
// the queued operation log, and the last encoded checkpoint plus the log
// position it covers - the warm-restart replay tail is ops[snapshot_op,
// next_op).
struct FleetServer::Hosted {
  SessionKey key;
  std::shared_ptr<const CompiledProgram> program;
  Rational start_time;
  std::optional<Rational> horizon;

  std::unique_ptr<EngineSession> session;
  bool failed = false;

  std::vector<FleetOp> ops;
  size_t next_op = 0;

  std::string snapshot;
  size_t snapshot_op = 0;
  size_t advances_since_snapshot = 0;

  SessionReport report;
};

FleetServer::FleetServer(const FleetOptions& options) : options_(options) {
  if (options_.ops_per_slice == 0) options_.ops_per_slice = 1;
}

FleetServer::~FleetServer() = default;

Result<std::unique_ptr<FleetServer>> FleetServer::Create(
    const FleetOptions& options) {
  if (options.engine.min_time.has_value() ||
      options.engine.max_time.has_value()) {
    return Status::InvalidArgument(
        "FleetOptions.engine min_time/max_time are managed by the hosted "
        "sessions; use Open's start_time and horizon");
  }
  if (options.engine.provenance != nullptr) {
    return Status::InvalidArgument(
        "FleetOptions.engine.provenance must be unset; use "
        "FleetOptions.track_provenance");
  }
  return std::unique_ptr<FleetServer>(new FleetServer(options));
}

Status FleetServer::RegisterProgram(const std::string& name, Program program) {
  if (name.empty()) {
    return Status::InvalidArgument("program name must be non-empty");
  }
  if (programs_.count(name) > 0) {
    return Status::InvalidArgument("program '" + name +
                                   "' is already registered");
  }
  DMTL_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledProgram> compiled,
                        CompiledProgram::Create(std::move(program)));
  DMTL_RETURN_IF_ERROR(compiled->streaming_status());
  programs_.emplace(name, std::move(compiled));
  return Status::Ok();
}

Status FleetServer::Open(const SessionKey& key, const Rational& start_time,
                         std::optional<Rational> horizon) {
  auto prog = programs_.find(key.program);
  if (prog == programs_.end()) {
    return Status::InvalidArgument("no program registered under '" +
                                   key.program + "'");
  }
  if (registry_.count(key) > 0) {
    return Status::InvalidArgument("session " + key.ToString() +
                                   " is already open");
  }
  if (horizon.has_value() && !(Rational(0) < *horizon)) {
    return Status::InvalidArgument("horizon must be positive");
  }
  auto hosted = std::make_unique<Hosted>();
  hosted->key = key;
  hosted->program = prog->second;
  hosted->start_time = start_time;
  hosted->horizon = std::move(horizon);
  hosted->report.key = key;
  registry_.emplace(key, hosted_.size());
  hosted_.push_back(std::move(hosted));
  return Status::Ok();
}

Status FleetServer::Enqueue(const SessionKey& key, std::vector<FleetOp> ops) {
  auto it = registry_.find(key);
  if (it == registry_.end()) {
    return Status::InvalidArgument("session " + key.ToString() +
                                   " is not open");
  }
  Hosted* h = hosted_[it->second].get();
  h->ops.insert(h->ops.end(), std::make_move_iterator(ops.begin()),
                std::make_move_iterator(ops.end()));
  return Status::Ok();
}

const EngineSession* FleetServer::Find(const SessionKey& key) const {
  auto it = registry_.find(key);
  if (it == registry_.end()) return nullptr;
  return hosted_[it->second]->session.get();
}

Result<SessionSnapshot> FleetServer::Checkpoint(const SessionKey& key) {
  auto it = registry_.find(key);
  if (it == registry_.end()) {
    return Status::InvalidArgument("session " + key.ToString() +
                                   " is not open");
  }
  Hosted* h = hosted_[it->second].get();
  if (h->failed) return h->report.status;
  if (h->session == nullptr) {
    if (h->snapshot.empty()) {
      return Status::InvalidArgument("session " + key.ToString() +
                                     " has no checkpoint yet: drain it "
                                     "first");
    }
    // Passivated with a current checkpoint: serve the stored bytes. When
    // the checkpoint trails the op log (its refresh was refused at
    // passivation), reactivate and snapshot live instead.
    if (h->snapshot_op == h->next_op) return DecodeSnapshot(h->snapshot);
    DMTL_RETURN_IF_ERROR(RestoreWarm(h, /*degraded=*/false));
  }
  return h->session->Snapshot();
}

SessionOptions FleetServer::BuildSessionOptions(const Hosted& h,
                                                bool degraded) const {
  SessionOptions so;
  so.engine = options_.engine;
  if (degraded) {
    // The degraded retry drops the deadline that may have tripped. The
    // interval budget stays: it bounds memory, and a session that exhausts
    // it degraded is genuinely over quota.
    so.engine.deadline.reset();
  }
  so.start_time = h.start_time;
  so.horizon = h.horizon;
  so.track_provenance = options_.track_provenance;
  return so;
}

Status FleetServer::CreateSession(Hosted* h) {
  DMTL_ASSIGN_OR_RETURN(
      h->session,
      EngineSession::Create(h->program, BuildSessionOptions(*h, false)));
  return Status::Ok();
}

void FleetServer::TakeSnapshot(Hosted* h) {
  // A refusal (mid-heal under-approximation) is not an error: the previous
  // checkpoint stays valid, the replay tail just stays longer.
  Result<SessionSnapshot> snap = h->session->Snapshot();
  if (!snap.ok()) return;
  h->snapshot = EncodeSnapshot(snap.value());
  h->snapshot_op = h->next_op;
  h->advances_since_snapshot = 0;
  ++h->report.snapshots_taken;
}

Status FleetServer::ExecuteOp(Hosted* h, const FleetOp& op, bool record) {
  try {
    switch (op.kind) {
      case FleetOp::Kind::kPush:
        return h->session->Push(op.fact);
      case FleetOp::Kind::kStep:
        return h->session->PushStep(op.predicate, op.args, op.t);
      case FleetOp::Kind::kAdvance: {
        EngineStats stats;
        auto t0 = std::chrono::steady_clock::now();
        Status s = h->session->Advance(op.t, &stats);
        if (s.ok() && record) {
          auto t1 = std::chrono::steady_clock::now();
          double us =
              std::chrono::duration<double, std::micro>(t1 - t0).count();
          ++h->report.advances;
          h->report.derived_intervals += stats.derived_intervals;
          h->report.advance_latencies_us.push_back(us);
        }
        return s;
      }
      case FleetOp::Kind::kSlide:
        return h->session->Slide(op.t);
    }
    return Status::Internal("unknown fleet op kind");
  } catch (const std::exception& e) {
    return Status::Internal(std::string("session aborted by exception: ") +
                            e.what());
  } catch (...) {
    return Status::Internal("session aborted by non-standard exception");
  }
}

Status FleetServer::RestoreWarm(Hosted* h, bool degraded) {
  DMTL_ASSIGN_OR_RETURN(SessionSnapshot snap, DecodeSnapshot(h->snapshot));
  DMTL_ASSIGN_OR_RETURN(
      h->session,
      EngineSession::Restore(h->program, BuildSessionOptions(*h, degraded),
                             snap));
  // Replay the op tail the checkpoint does not cover. Replayed work is not
  // re-counted in the throughput fields; ops_replayed carries its cost.
  for (size_t i = h->snapshot_op; i < h->next_op; ++i) {
    DMTL_RETURN_IF_ERROR(ExecuteOp(h, h->ops[i], /*record=*/false));
    ++h->report.ops_replayed;
  }
  return Status::Ok();
}

bool FleetServer::RetryDegraded(Hosted* h, const Status& failure) {
  // Warm-restart once unless the policy forbids it, the session already
  // used its retry, or the caller cancelled the run.
  if (!options_.retry_evicted || h->report.retried ||
      failure.code() == StatusCode::kCancelled || h->snapshot.empty()) {
    h->failed = true;
    h->report.status = failure;
    return false;
  }
  h->report.retried = true;
  h->report.first_attempt_status = failure;
  Status restored = RestoreWarm(h, /*degraded=*/true);
  if (!restored.ok()) {
    h->failed = true;
    h->report.status = restored;
    return false;
  }
  return true;
}

bool FleetServer::RunSlice(Hosted* h) {
  if (h->failed) return false;
  if (h->session == nullptr) {
    if (!h->snapshot.empty()) {
      // Passivated (or a prior Drain ended while checkpointed): reactivate
      // warm from the snapshot with the normal (non-degraded) knobs. The
      // restore re-derives the database under the session's guard, so it
      // can trip like an op and gets the same single degraded retry.
      Status woken = RestoreWarm(h, /*degraded=*/false);
      if (!woken.ok() && !RetryDegraded(h, woken)) return false;
    } else {
      Status created = CreateSession(h);
      if (!created.ok()) {
        // The program was validated at registration and the options at
        // Create and Open, so only an internal fault gets here; with no
        // snapshot to restore from, it is final.
        h->failed = true;
        h->report.status = created;
        return false;
      }
      // Checkpoint immediately (the database is empty, so this is cheap)
      // so every later eviction has a restore point.
      TakeSnapshot(h);
    }
  }
  size_t budget = options_.ops_per_slice;
  while (budget > 0 && h->next_op < h->ops.size()) {
    --budget;
    const FleetOp& op = h->ops[h->next_op];
    Status s = ExecuteOp(h, op, /*record=*/true);
    if (!s.ok()) {
      // Admission-control trip or fault: evict, then retry the tripped op
      // on the degraded session (next_op unchanged).
      if (!RetryDegraded(h, s)) return false;
      continue;
    }
    bool advanced = op.kind == FleetOp::Kind::kAdvance;
    ++h->next_op;
    ++h->report.ops_executed;
    if (advanced && options_.snapshot_every_advances > 0 &&
        ++h->advances_since_snapshot >= options_.snapshot_every_advances) {
      TakeSnapshot(h);
    }
  }
  if (h->next_op >= h->ops.size() && options_.passivate_drained &&
      h->session != nullptr) {
    // Queue drained: checkpoint and release the live engine, so resident
    // state tracks the active sessions rather than every open one. If the
    // fresh checkpoint is refused the previous one still covers the tail;
    // only a session with no snapshot at all (post-create checkpoint
    // refused) must stay live.
    if (h->snapshot_op < h->next_op) TakeSnapshot(h);
    if (!h->snapshot.empty()) h->session.reset();
  }
  return h->next_op < h->ops.size();
}

Result<std::vector<SessionReport>> FleetServer::Drain() {
  std::vector<SessionReport> reports;
  reports.reserve(hosted_.size());
  if (!hosted_.empty()) {
    size_t workers = ThreadPool::ResolveThreads(options_.num_threads);
    if (workers > hosted_.size()) workers = hosted_.size();
    WorkStealingScheduler scheduler(hosted_.size(), workers);
    auto runner = [this](size_t item, size_t /*worker*/) -> bool {
      return RunSlice(hosted_[item].get());
    };
    if (workers <= 1) {
      scheduler.Run(nullptr, runner);
    } else {
      ThreadPool pool(workers);
      scheduler.Run(&pool, runner);
    }
  }
  for (const auto& h : hosted_) reports.push_back(h->report);
  return reports;
}

}  // namespace dmtl
