#ifndef DMTL_STREAMING_SESSION_H_
#define DMTL_STREAMING_SESSION_H_

#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/ast/program.h"
#include "src/common/status.h"
#include "src/engine/session.h"
#include "src/eval/incremental.h"
#include "src/eval/seminaive.h"
#include "src/storage/database.h"
#include "src/storage/snapshot.h"

namespace dmtl {

// A cold batch run over a session's current inputs - the oracle the
// streaming tests compare against, byte for byte.
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
// This is the engine's implementation of the unified EngineSession surface
// (src/engine/session.h); it provides both session shapes behind that API:
//
//  * streaming (default): the persistent IncrementalMaterializer derives
//    only the new band per advance;
//  * batch (engine.enable_streaming = false, or DMTL_DISABLE_STREAMING=1):
//    the identical external contract, re-derived by a cold batch
//    materialization per operation - the equivalence lane for CI.
//
// Invariant (checked by the streaming tests at every checkpoint): after any
// sequence of operations, db() is byte-identical to ColdReplay().db - one
// batch Materialize over input_log() with min_time = window_min() and
// max_time = watermark().
//
// Step channels. Chain feeds like the price oracle are step functions: the
// pushed value holds until the next update, whose time is unknown when the
// value arrives. PushStep models that without violating watermark finality:
// the session keeps one open channel per predicate and logs the step's
// coverage lazily - a point at the step time, an extension piece up to each
// watermark the channel lives through, and a closing piece when the next
// step arrives. The logged pieces union to exactly the ClosedOpen step
// intervals a batch loader would write.
class StreamingSession : public EngineSession {
 public:
  // Validates the program for streaming eligibility (see
  // IncrementalMaterializer::Create) and builds the persistent engine
  // state. Eligibility is enforced even in batch mode so both lanes accept
  // the same programs.
  static Result<std::unique_ptr<StreamingSession>> Create(
      const Program& program, const SessionOptions& options);

  // Rebuilds a session warm from a checkpoint; see EngineSession::Restore
  // for the precedence and byte-identity contract.
  static Result<std::unique_ptr<StreamingSession>> Restore(
      const Program& program, const SessionOptions& options,
      const SessionSnapshot& snapshot);

  ~StreamingSession() override;

  // Logs and inserts one input fact. After the first Advance, the fact's
  // interval must lie strictly above the watermark.
  Status Push(const Fact& fact) override;

  // Steps the predicate's channel to `args` at time `t` (strictly after the
  // channel's previous step / extension). Pushing the same args again is a
  // no-op: the step simply continues.
  Status PushStep(PredicateId pred, Tuple args, const Rational& t) override;
  using EngineSession::PushStep;

  // Extends all open step channels through `t`, raises the watermark to `t`
  // and derives every consequence in the new band. With `horizon` set, then
  // slides the window minimum up to t - *horizon. Per-operation engine
  // stats (this event's work only) land in `stats` when given.
  Status Advance(const Rational& t, EngineStats* stats = nullptr) override;

  // Slides the window minimum up to `new_min` (window_min < new_min <=
  // watermark): expired coverage is retracted, its consequences un-derived,
  // provenance pruned, and the boundary region re-derived.
  Status Slide(const Rational& new_min, EngineStats* stats = nullptr) override;

  // Checkpoints the session at the current round barrier; refused after a
  // failed operation until the next operation heals the store.
  Result<SessionSnapshot> Snapshot() const override;

  // Runs a cold batch materialization over input_log() in a fresh database
  // - the byte-identity oracle for the current checkpoint.
  Result<ReplayResult> ColdReplay() const;

  const Database& db() const override { return db_; }
  const std::vector<DerivationRecord>& provenance() const override {
    return provenance_;
  }
  const Rational& watermark() const override;
  const Rational& window_min() const override;
  // The logged inputs, clamped by past slides (step channels appear as
  // their logged pieces).
  const std::vector<Fact>& input_log() const override;
  // False when the resolved options selected the batch (cold-replay) shape.
  bool streaming_enabled() const { return streaming_; }

 private:
  StreamingSession();

  struct Channel {
    Tuple args;
    Rational logged_hi;  // time through which coverage has been logged
  };

  static Result<std::unique_ptr<StreamingSession>> Build(
      const Program& program, const SessionOptions& options,
      const SessionSnapshot* snapshot);

  Status PushFact(const Fact& fact);
  Status ExtendChannels(const Rational& t);
  Status RebuildBatch(EngineStats* stats);  // batch path
  uint64_t Fingerprint() const;
  bool needs_rebuild() const {
    return streaming_ && inc_->needs_rebuild();
  }

  Program program_;
  // ProgramFingerprint(program_), printed and hashed on first use (the
  // restore check or the first Snapshot) and reused by every later
  // Snapshot; a session that never checkpoints never pays for it.
  mutable std::optional<uint64_t> fingerprint_;
  SessionOptions options_;
  Database db_;
  std::vector<DerivationRecord> provenance_;
  std::unique_ptr<IncrementalMaterializer> inc_;
  bool streaming_ = true;

  // Ordered so channel extensions log in a deterministic order.
  std::map<PredicateId, Channel> channels_;

  // Batch-mode state (streaming_ == false); the incremental engine owns
  // the equivalents otherwise.
  std::vector<Fact> log_;
  Rational window_min_;
  Rational watermark_;
  bool advanced_any_ = false;
};

}  // namespace dmtl

#endif  // DMTL_STREAMING_SESSION_H_
