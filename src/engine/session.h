#ifndef DMTL_ENGINE_SESSION_H_
#define DMTL_ENGINE_SESSION_H_

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/ast/program.h"
#include "src/common/status.h"
#include "src/eval/seminaive.h"
#include "src/storage/database.h"
#include "src/storage/snapshot.h"

namespace dmtl {

// Configuration shared by every session shape.
struct SessionOptions {
  // Engine knobs (chain acceleration, budgets...).
  // min_time / max_time / provenance are managed by the session and must be
  // left unset. enable_streaming = false (or DMTL_DISABLE_STREAMING=1)
  // selects the batch shape: the identical external contract, re-derived by
  // a cold batch materialization per operation.
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

// The unified session surface: one vocabulary for every long-lived
// materialization shape the engine offers.
//
//   Create / Restore  -> Result<std::unique_ptr<EngineSession>>
//   Push / Advance / Slide -> Status
//   Snapshot          -> Result<SessionSnapshot>
//
// Batch one-shot sessions (cold re-materialization per operation),
// incremental streaming sessions, and fleet-hosted sessions (src/fleet/)
// all implement it, so callers - cli, benches, the fleet server - program
// against one API instead of the three shapes that existed before.
//
// Invariant (shared by every implementation, checked by the streaming and
// snapshot tests): after any operation sequence, db() is byte-identical to
// one cold Materialize over input_log() with min_time = window_min() and
// max_time = watermark().
class EngineSession {
 public:
  // Builds a fresh session at options.start_time. The implementation is
  // chosen by the resolved options (see SessionOptions::engine): streaming
  // by default, batch when streaming is disabled.
  static Result<std::unique_ptr<EngineSession>> Create(
      const Program& program, const SessionOptions& options);

  // Rebuilds a session from a checkpoint (see src/storage/snapshot.h):
  // window position, input log, and open step channels are reinstated, and
  // the database and provenance are re-derived by one cold materialization
  // of the log. The restored database is byte-identical to its
  // uninterrupted twin's under any continuation schedule, and provenance
  // covers the same facts. The snapshot's program fingerprint must match
  // `program`. The snapshot's window/horizon/provenance settings take
  // precedence over `options` (engine knobs - budgets,
  // acceleration - come from `options`, so a restore may run degraded).
  static Result<std::unique_ptr<EngineSession>> Restore(
      const Program& program, const SessionOptions& options,
      const SessionSnapshot& snapshot);

  virtual ~EngineSession() = default;

  EngineSession(const EngineSession&) = delete;
  EngineSession& operator=(const EngineSession&) = delete;

  // Logs and inserts one input fact. After the first Advance, the fact's
  // interval must lie strictly above the watermark.
  virtual Status Push(const Fact& fact) = 0;

  // Steps the predicate's channel to `args` at time `t` (strictly after the
  // channel's previous step / extension). Pushing the same args again is a
  // no-op: the step simply continues.
  virtual Status PushStep(PredicateId pred, Tuple args,
                          const Rational& t) = 0;
  Status PushStep(std::string_view pred, Tuple args, const Rational& t) {
    return PushStep(InternPredicate(pred), std::move(args), t);
  }

  // Extends all open step channels through `t`, raises the watermark to `t`
  // and derives every consequence in the new band. With `horizon` set, then
  // slides the window minimum up to t - *horizon. Per-operation engine
  // stats (this event's work only) land in `stats` when given.
  virtual Status Advance(const Rational& t, EngineStats* stats = nullptr) = 0;

  // Slides the window minimum up to `new_min` (window_min < new_min <=
  // watermark): expired coverage is retracted, its consequences un-derived,
  // provenance pruned, and the boundary region re-derived.
  virtual Status Slide(const Rational& new_min,
                       EngineStats* stats = nullptr) = 0;

  // Checkpoints the session state a cold replay cannot rebuild (window
  // position, input log, step channels) at the current round barrier.
  // Refused while the database is an under-approximation after a failed
  // operation (the next operation heals first).
  virtual Result<SessionSnapshot> Snapshot() const = 0;

  virtual const Database& db() const = 0;
  virtual const std::vector<DerivationRecord>& provenance() const = 0;
  virtual const Rational& watermark() const = 0;
  virtual const Rational& window_min() const = 0;
  // The logged inputs, clamped by past slides (step channels appear as
  // their logged pieces).
  virtual const std::vector<Fact>& input_log() const = 0;

 protected:
  EngineSession() = default;
};

}  // namespace dmtl

#endif  // DMTL_ENGINE_SESSION_H_
