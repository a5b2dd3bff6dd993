#ifndef DMTL_ENGINE_SESSION_H_
#define DMTL_ENGINE_SESSION_H_

#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "src/ast/program.h"
#include "src/common/status.h"
#include "src/eval/compiled_program.h"
#include "src/eval/incremental.h"
#include "src/eval/seminaive.h"
#include "src/storage/database.h"
#include "src/storage/snapshot.h"

namespace dmtl {

// Configuration of one session.
struct SessionOptions {
  // Engine knobs: budgets, deadline, cancellation.
  // min_time / max_time / provenance are managed by the session and must be
  // left unset.
  EngineOptions engine;

  // Initial window minimum and watermark: the session derives nothing below
  // this time, and the first Advance must not precede it.
  Rational start_time;

  // Sliding-window length. When set, Advance(t) automatically slides the
  // window minimum up to t - *horizon, retracting expired coverage. When
  // unset, the window only moves via explicit Slide calls.
  std::optional<Rational> horizon;

  // Record DerivationRecord provenance (required for Explain and for the
  // checkpoint provenance-coverage checks; retraction prunes it).
  bool track_provenance = true;
};

// A cold batch run over a session's current inputs - the oracle the
// session tests compare against, byte for byte.
struct ReplayResult {
  Database db;
  std::vector<DerivationRecord> provenance;
  EngineStats stats;
};

// A live, long-lived materialization session: chain events arrive one at a
// time through Push / PushStep, Advance(t) raises the watermark and
// incrementally derives the new consequences, and Slide (or the horizon
// option) expires old coverage out the back of the window.
//
//   Create / Restore  -> Result<std::unique_ptr<EngineSession>>
//   Push / Advance / Slide -> Status
//   Snapshot          -> Result<SessionSnapshot>
//
// A persistent IncrementalMaterializer (src/eval/incremental.h) derives
// only the new band per advance. The cli, the benches and the fleet server
// (src/fleet/, which holds one session per contract) all program against
// this class. A session runs a shared CompiledProgram: sessions of one
// program - the fleet's thousands of account shards - validate, stratify,
// plan and fingerprint it once between them.
//
// Invariant (checked by the session and snapshot tests): after any
// operation sequence, db() is byte-identical to ColdReplay().db - one cold
// Materialize over input_log() with min_time = window_min() and max_time =
// watermark().
//
// Step channels. Chain feeds like the price oracle are step functions: the
// pushed value holds until the next update, whose time is unknown when the
// value arrives. PushStep models that without violating watermark finality:
// the session keeps one open channel per predicate and logs the step's
// coverage lazily - a point at the step time, an extension piece up to each
// watermark the channel lives through, and a closing piece when the next
// step arrives. The logged pieces union to exactly the ClosedOpen step
// intervals a batch loader would write.
class EngineSession {
 public:
  // Builds a fresh session at options.start_time. The program must be
  // streaming-eligible (see IncrementalMaterializer::Create).
  static Result<std::unique_ptr<EngineSession>> Create(
      std::shared_ptr<const CompiledProgram> program,
      const SessionOptions& options);
  // Compiles `program` (CompiledProgram::Create) for this session alone.
  static Result<std::unique_ptr<EngineSession>> Create(
      const Program& program, const SessionOptions& options);

  // Rebuilds a session from a checkpoint (see src/storage/snapshot.h):
  // window position, input log, and open step channels are reinstated, and
  // the database and provenance are re-derived by one cold materialization
  // of the log. The restored database is byte-identical to its
  // uninterrupted twin's under any continuation schedule, and provenance
  // covers the same facts. The snapshot's program fingerprint must match
  // `program`. The snapshot's window/horizon/provenance settings take
  // precedence over `options`; the engine knobs come from `options`, so a
  // restore may run degraded (without the deadline that tripped) and still
  // be byte-identical.
  static Result<std::unique_ptr<EngineSession>> Restore(
      std::shared_ptr<const CompiledProgram> program,
      const SessionOptions& options, const SessionSnapshot& snapshot);
  // Compiles `program` (CompiledProgram::Create) for this session alone.
  static Result<std::unique_ptr<EngineSession>> Restore(
      const Program& program, const SessionOptions& options,
      const SessionSnapshot& snapshot);

  ~EngineSession();

  EngineSession(const EngineSession&) = delete;
  EngineSession& operator=(const EngineSession&) = delete;

  // Logs and inserts one input fact. After the first Advance, the fact's
  // interval must lie strictly above the watermark.
  Status Push(const Fact& fact);

  // Steps the predicate's channel to `args` at time `t` (strictly after the
  // channel's previous step / extension). Pushing the same args again is a
  // no-op: the step simply continues.
  Status PushStep(PredicateId pred, Tuple args, const Rational& t);
  Status PushStep(std::string_view pred, Tuple args, const Rational& t) {
    return PushStep(InternPredicate(pred), std::move(args), t);
  }

  // Extends all open step channels through `t`, raises the watermark to `t`
  // and derives every consequence in the new band. With `horizon` set, then
  // slides the window minimum up to t - *horizon. Per-operation engine
  // stats (this event's work only) land in `stats` when given.
  Status Advance(const Rational& t, EngineStats* stats = nullptr);

  // Slides the window minimum up to `new_min` (window_min < new_min <=
  // watermark): expired coverage is retracted, its consequences un-derived,
  // provenance pruned, and the boundary region re-derived.
  Status Slide(const Rational& new_min, EngineStats* stats = nullptr);

  // Checkpoints the session state a cold replay cannot rebuild (window
  // position, input log, step channels) at the current round barrier.
  // Refused while the database is an under-approximation after a failed
  // operation (the next operation heals first).
  Result<SessionSnapshot> Snapshot() const;

  // Runs a cold batch materialization over input_log() in a fresh database
  // - the byte-identity oracle for the current checkpoint.
  Result<ReplayResult> ColdReplay() const;

  const Database& db() const { return db_; }
  const std::vector<DerivationRecord>& provenance() const {
    return provenance_;
  }
  const Rational& watermark() const { return inc_->watermark(); }
  const Rational& window_min() const { return inc_->window_min(); }
  // The logged inputs, clamped by past slides (step channels appear as
  // their logged pieces).
  const std::vector<Fact>& input_log() const { return inc_->input_log(); }

 private:
  EngineSession();

  struct Channel {
    Tuple args;
    Rational logged_hi;  // time through which coverage has been logged
  };

  static Result<std::unique_ptr<EngineSession>> Build(
      std::shared_ptr<const CompiledProgram> program,
      const SessionOptions& options, const SessionSnapshot* snapshot);

  Status ExtendChannels(const Rational& t);

  std::shared_ptr<const CompiledProgram> program_;
  SessionOptions options_;
  Database db_;
  std::vector<DerivationRecord> provenance_;
  std::unique_ptr<IncrementalMaterializer> inc_;

  // Ordered so channel extensions log in a deterministic order.
  std::map<PredicateId, Channel> channels_;
};

}  // namespace dmtl

#endif  // DMTL_ENGINE_SESSION_H_
