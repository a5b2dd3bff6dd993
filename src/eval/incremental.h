#ifndef DMTL_EVAL_INCREMENTAL_H_
#define DMTL_EVAL_INCREMENTAL_H_

#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/eval/compiled_program.h"
#include "src/eval/seminaive.h"
#include "src/storage/database.h"

namespace dmtl {

// Incremental counterpart of Materialize(): a long-lived evaluator that
// keeps one database materialized while inputs arrive over time and the
// horizon window moves forward.
//
// The lifecycle is watermark-driven. The evaluator owns a watermark W (the
// time up to which the database is fully derived) and a window minimum m
// (the time below which coverage has been retracted). Between the two, the
// database is byte-identical to what one cold
//   Materialize(program, inputs, {min_time = m, max_time = W})
// over the logged inputs would produce - the invariant every operation
// preserves and the streaming tests check checkpoint-by-checkpoint.
//
//   Push(fact)      log + insert one input fact; its interval must lie
//                   strictly above W (facts at or below the watermark would
//                   change already-final coverage). Before the first
//                   Advance any interval is accepted - the window clamp
//                   makes sub-window portions inert.
//   Advance(t)      raise W to t and derive every consequence in (W, t].
//                   Incremental: only rules with support near the boundary
//                   or among the fresh inputs re-run (see the band seeding
//                   note below), not the whole program.
//   Retract(m')     raise the window minimum to m' (sliding-window expiry):
//                   re-derive a short prefix of the new window and keep
//                   the stored suffix when the two converge (see the
//                   cut-off note below), else rebuild the window cold.
//
// Why this is sound (sketch; docs/ENGINE.md "Streaming & retraction" has
// the full argument):
//
//  * The evaluator only accepts past-directed programs (boxminus /
//    diamondminus, no head operators, no since/until). For those, coverage
//    at time t depends only on input coverage at times <= t, so everything
//    derived at or below W is final: advancing the watermark never changes
//    it, which is what makes "derive only the new band" correct.
//  * A derivation landing in (W, t] needs every positive support atom
//    within R of its own time, where R is the program's maximal forward
//    reach (the summed upper range bounds of the deepest operator path).
//    Seeding the semi-naive delta with the stored coverage in (W - R, W]
//    plus the fresh inputs therefore reaches every new derivation.
//  * Retraction uses a convergence cut-off. Let C be the largest summed
//    upper range bound on any body literal's operator path, negated
//    literals included. An atom at time t then depends only on atoms in
//    [t - C, t] plus the inputs, so two runs over the same inputs above m'
//    that agree on [y - C, y] agree at every time above y. Retract runs
//    one cold batch fixpoint over the log clipped to [m', y], y = m' + 2C
//    (by finality, exactly the target below y), and compares it with the
//    store on [y - C, y]. If they agree, the store's prefix up to y is
//    replaced by the cut-off run's and the suffix is kept; otherwise - or
//    when y reaches W, C is unbounded, or nothing was derived yet - the
//    window is rebuilt cold. EngineStats::retract_suffix_kept says which.
//
// Failure handling inherits the engine's round-barrier guarantee: a guard
// trip or budget exhaustion mid-operation rolls the round back, leaves the
// database a sound under-approximation, and flags the evaluator; the next
// operation transparently heals by a full cold rebuild from the input log.
//
// Single-threaded (like Database): one operation at a time, evaluated on
// the calling thread.
class IncrementalMaterializer {
 public:
  // Checks the options, then the compiled program's streaming eligibility
  // (CompiledProgram::streaming_status: every body operator past-directed
  // with finite non-negative lower range bounds, no head operators, no
  // since/until, and at least one positive relational atom per rule).
  // `options.min_time` must be set (the initial window minimum and
  // watermark); `options.max_time` must be unset (the evaluator
  // manages the horizon). `db` must outlive the evaluator and start empty -
  // all input arrives through Push. If `options.provenance` is set, records
  // accumulate there and are pruned on retraction, preserving the batch
  // invariant: provenance coverage per predicate unions to exactly the
  // derived-minus-input coverage. The evaluator shares `program` with
  // every other run of it and keeps only its own state.
  static Result<std::unique_ptr<IncrementalMaterializer>> Create(
      std::shared_ptr<const CompiledProgram> program, Database* db,
      const EngineOptions& options);

  // Rebuilds a live evaluator from checkpointed session state (see
  // src/storage/snapshot.h). As with Create, `db` must start empty;
  // `options.min_time` is the restored window minimum, `watermark` the
  // restored watermark, and `advanced` whether the checkpointed session had
  // executed its first Advance (it gates the push-above-watermark finality
  // check). `input_log` is the snapshot's clamped log: Restore fills `db`
  // (and `options.provenance`) by the same cold rebuild a failed operation
  // heals with, and reseeds the pending band from it, so the database is
  // byte-identical to the uninterrupted session's, operation for
  // operation, and provenance covers the same facts. The rebuild runs under
  // the options' deadline and cancellation token, so Restore can fail like
  // any operation.
  static Result<std::unique_ptr<IncrementalMaterializer>> Restore(
      std::shared_ptr<const CompiledProgram> program, Database* db,
      const EngineOptions& options, std::vector<Fact> input_log,
      const Rational& watermark, bool advanced);

  ~IncrementalMaterializer();

  IncrementalMaterializer(const IncrementalMaterializer&) = delete;
  IncrementalMaterializer& operator=(const IncrementalMaterializer&) = delete;

  // Logs and inserts one input fact. After the first Advance, the fact's
  // interval must lie strictly above the watermark (flush discipline: all
  // facts at time t are pushed before the Advance that derives t).
  Status Push(const Fact& fact);

  // Advances the watermark to `t` (must be >= the current watermark; equal
  // is a no-op unless fresh inputs are pending) and derives all
  // consequences in the new band. Per-operation stats land in `stats`
  // (optional): counters are this operation's own work, not session
  // cumulative.
  Status Advance(const Rational& t, EngineStats* stats = nullptr);

  // Slides the window minimum up to `new_min` (window_min < new_min <=
  // watermark), retracting expired coverage and its consequences along
  // with their provenance records (the cut-off above). The input log is
  // clamped to the new window so later rebuilds and cold replays see the
  // same inputs. If the cut-off run fails, the window minimum has still
  // moved, the status is returned, and the next operation heals.
  Status Retract(const Rational& new_min, EngineStats* stats = nullptr);

  const Rational& watermark() const;
  const Rational& window_min() const;

  // The logged inputs (clamped by past retractions). A cold
  // Materialize(program, these inputs, {min_time = window_min, max_time =
  // watermark}) reproduces db() byte-for-byte - the streaming oracle.
  const std::vector<Fact>& input_log() const;

  // True when a failed operation left the database an under-approximation;
  // the next Push/Advance/Retract heals by a cold rebuild first.
  bool needs_rebuild() const;

  // True once the first Advance has run (checkpointed with the session and
  // reinstated by Restore).
  bool advanced() const;

  // The program's maximal forward reach R (band width); unbounded when some
  // operator range has an infinite upper bound - legal, but every advance
  // then re-seeds from all stored coverage.
  bool reach_unbounded() const;
  const Rational& forward_reach() const;

 private:
  IncrementalMaterializer();

  class Impl;  // lives in incremental.cc; runs a FixpointDriver
  std::unique_ptr<Impl> impl_;
};

}  // namespace dmtl

#endif  // DMTL_EVAL_INCREMENTAL_H_
