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
#include "src/eval/fixpoint.h"
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
// The cli, the benches and the fleet server (src/fleet/, which holds one
// session per contract) all program against this class. A session runs a
// shared CompiledProgram: sessions of one program - the fleet's thousands
// of account shards - validate, stratify, plan and fingerprint it once
// between them. Each session keeps one FixpointDriver (its rule VMs) for
// its lifetime.
//
// The lifecycle is watermark-driven. The session owns a watermark W (the
// time up to which the database is fully derived) and a window minimum m
// (the time below which coverage has been retracted). Invariant (checked by
// the session and snapshot tests): after any operation sequence, db() is
// byte-identical to ColdReplay().db - one cold Materialize over
// input_log() with min_time = m and max_time = W.
//
//   Push(fact)      log + insert one input fact; its interval must lie
//                   strictly above W (facts at or below the watermark would
//                   change already-final coverage). Before the first
//                   Advance any interval is accepted - the window clamp
//                   makes sub-window portions inert.
//   Advance(t)      raise W to t and derive every consequence in (W, t].
//                   Only rules with support near the boundary or among the
//                   fresh inputs re-run, not the whole program.
//   Slide(m')       raise the window minimum to m': re-derive a short
//                   prefix of the new window and keep the stored suffix
//                   when the two converge, else rebuild the window cold.
//
// Why this is sound (sketch; docs/ENGINE.md "Streaming & retraction" has
// the full argument):
//
//  * A session only accepts past-directed programs
//    (CompiledProgram::streaming_status: boxminus / diamondminus with
//    finite non-negative lower bounds, no head operators, no since/until,
//    a positive relational atom in every rule). For those, coverage at
//    time t depends only on input coverage at times <= t, so everything
//    derived at or below W is final: advancing the watermark never changes
//    it, which is what makes "derive only the new band" correct.
//  * A derivation landing in (W, t] needs every positive support atom
//    within R of its own time, where R is the program's maximal forward
//    reach (the summed upper range bounds of the deepest operator path).
//    Seeding the semi-naive delta with the stored coverage in (W - R, W]
//    plus the fresh inputs therefore reaches every new derivation.
//  * A slide uses a convergence cut-off. Let C be the largest summed upper
//    range bound on any body literal's operator path, negated literals
//    included. An atom at time t then depends only on atoms in [t - C, t]
//    plus the inputs, so two runs over the same inputs above m' that agree
//    on [y - C, y] agree at every time above y. A slide runs one cold
//    batch fixpoint over the log clipped to [m', y], y = m' + 2C (by
//    finality, exactly the target below y), and compares it with the store
//    on [y - C, y]. If they agree, the store's prefix up to y is replaced
//    by the cut-off run's and the suffix is kept; otherwise - or when y
//    reaches W, C is unbounded, or nothing was derived yet - the window is
//    rebuilt cold. EngineStats::retract_suffix_kept says which.
//
// Failure handling inherits the engine's round-barrier guarantee: a guard
// trip or budget exhaustion mid-operation rolls the round back, leaves the
// database a sound under-approximation, and flags the session; the next
// operation transparently heals by a full cold rebuild from the input log.
// Single-threaded (like Database): one operation at a time, evaluated on
// the calling thread.
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
  // streaming-eligible (CompiledProgram::streaming_status).
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
  // interval must lie strictly above the watermark (flush discipline: all
  // facts at time t are pushed before the Advance that derives t).
  Status Push(const Fact& fact);

  // Steps the predicate's channel to `args` at time `t` (strictly after the
  // channel's previous step / extension). Pushing the same args again is a
  // no-op: the step simply continues.
  Status PushStep(PredicateId pred, Tuple args, const Rational& t);
  Status PushStep(std::string_view pred, Tuple args, const Rational& t) {
    return PushStep(InternPredicate(pred), std::move(args), t);
  }

  // Extends all open step channels through `t` (>= the watermark; equal is
  // a no-op unless fresh inputs are pending), raises the watermark to `t`
  // and derives every consequence in the new band. With `horizon` set, then
  // slides the window minimum up to t - *horizon. Per-operation engine
  // stats (this event's work only) land in `stats` when given.
  Status Advance(const Rational& t, EngineStats* stats = nullptr);

  // Slides the window minimum up to `new_min` (window_min < new_min <=
  // watermark): expired coverage is retracted, its consequences un-derived,
  // provenance pruned, and the boundary region re-derived (the cut-off
  // above). The input log is clamped to the new window. If the cut-off run
  // fails, the window minimum has still moved, the status is returned, and
  // the next operation heals.
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
  const Rational& watermark() const { return watermark_; }
  const Rational& window_min() const { return window_min_; }
  // The logged inputs, clamped by past slides (step channels appear as
  // their logged pieces).
  const std::vector<Fact>& input_log() const { return input_log_; }

 private:
  struct Channel {
    Tuple args;
    Rational logged_hi;  // time through which coverage has been logged
  };

  EngineSession(std::shared_ptr<const CompiledProgram> program,
                const SessionOptions& options);

  static Result<std::unique_ptr<EngineSession>> Build(
      std::shared_ptr<const CompiledProgram> program,
      SessionOptions options, const SessionSnapshot* snapshot);

  Status ExtendChannels(const Rational& t);

  std::vector<DerivationRecord>* recorded_provenance() {
    return options_.track_provenance ? &provenance_ : nullptr;
  }

  // Full cold rebuild from the input log into the cleared store. The
  // rebuild run's engine counters land in `stats` when given.
  Status Heal(EngineStats* stats = nullptr);
  // Drops the driver's compiled state and the band cache after an edit of
  // the store made outside a run.
  void InvalidateCaches();
  // The store half of Slide, after the log clamp: the cut-off run, the
  // band comparison and the splice, or a heal.
  Status SlideStore(EngineStats* stats);
  // True when `scratch` and the store hold exactly the same coverage on
  // `band`, tuple for tuple, over every predicate.
  bool AgreesOn(const Database& scratch, const Interval& band) const;
  // Keeps only the (t, +inf) portions of the pending inputs.
  void TrimPendingAbove(const Rational& t);
  void ClampLogTo(const Rational& new_min);

  std::shared_ptr<const CompiledProgram> program_;
  SessionOptions options_;
  Database db_;
  std::vector<DerivationRecord> provenance_;
  FixpointDriver driver_;  // runs program_'s rules for every operation
  Rational window_min_;
  Rational watermark_;

  std::vector<Fact> input_log_;  // clamped by slides
  Database pending_fresh_;       // input fresh portions above the watermark
  // Stored coverage clipped to (watermark - R, watermark]: the seed band
  // for the next advance, snapshotted from the previous advance's carry so
  // steady-state advances never scan the whole store. Invalid after a slide
  // or heal (those change coverage outside any carry).
  Database band_cache_;
  bool band_cache_valid_ = false;
  bool advanced_ = false;       // the first Advance has run
  bool needs_rebuild_ = false;  // a failed operation left an
                                // under-approximation; the next one heals

  // Ordered so channel extensions log in a deterministic order.
  std::map<PredicateId, Channel> channels_;
};

}  // namespace dmtl

#endif  // DMTL_ENGINE_SESSION_H_
