#include "src/eval/incremental.h"

#include <chrono>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/execution_guard.h"
#include "src/eval/fixpoint.h"

namespace dmtl {

namespace {

// The option half of streaming eligibility.
Status CheckStreamingOptions(const EngineOptions& options) {
  if (!options.min_time.has_value()) {
    return Status::InvalidArgument(
        "streaming requires min_time (the initial window start)");
  }
  if (options.max_time.has_value()) {
    return Status::InvalidArgument(
        "max_time is managed by the watermark; leave it unset");
  }
  return Status::Ok();
}

}  // namespace

// ===========================================================================
// IncrementalMaterializer: the streaming engine. Keeps one FixpointDriver -
// its rule VMs over the shared compiled program - alive across watermark
// advances and seeds each advance's run with the boundary band and the
// fresh inputs.
// ===========================================================================

class IncrementalMaterializer::Impl {
 public:
  // `program` must be streaming-eligible and `options` checked.
  Impl(std::shared_ptr<const CompiledProgram> program, Database* db,
       const EngineOptions& options)
      : program_(std::move(program)),
        reach_(program_->streaming_reach()),
        driver_(*program_, options),
        db_(db),
        options_(options),
        cur_min_(options.min_time.value_or(Rational(0))),
        watermark_(cur_min_),
        provenance_(options.provenance) {}

  Status Push(const Fact& fact) {
    if (needs_rebuild_) DMTL_RETURN_IF_ERROR(Heal());
    if (advanced_any_) {
      const Bound& lo = fact.interval.lo();
      const bool above =
          !lo.infinite &&
          (watermark_ < lo.value || (lo.value == watermark_ && lo.open));
      if (!above) {
        return Status::InvalidArgument(
            "streamed fact " + fact.ToString() +
            " reaches at or below the watermark " + watermark_.ToString() +
            "; push every fact at time t before advancing to t");
      }
    }
    inputs_.push_back(fact);
    IntervalSet fresh =
        db_->InsertSet(fact.predicate, fact.args, IntervalSet(fact.interval));
    if (!fresh.IsEmpty()) {
      pending_fresh_.InsertSet(fact.predicate, fact.args, fresh);
    }
    return Status::Ok();
  }

  Status Advance(const Rational& t, EngineStats* stats_out) {
    EngineStats local;
    EngineStats* stats = stats_out != nullptr ? stats_out : &local;
    *stats = EngineStats();
    auto start_time = std::chrono::steady_clock::now();
    if (needs_rebuild_) DMTL_RETURN_IF_ERROR(Heal());
    if (t < watermark_) {
      return Status::InvalidArgument("advance to " + t.ToString() +
                                     " precedes the watermark " +
                                     watermark_.ToString());
    }
    ExecutionGuard guard(options_.deadline, options_.cancel_token);
    const ExecutionGuard* gptr = guard.enabled() ? &guard : nullptr;

    // Seed delta: the boundary band of stored coverage plus the pending
    // input fresh portions. Any derivation landing in (W, t] has every
    // positive support atom above t - R > W - R, so each one is either old
    // (in the band) or new (pending / derived this advance) - which makes
    // occurrence-restricted evaluation against this seed complete.
    Database carry;
    if (watermark_ < t) {
      std::optional<Interval> band;
      if (reach_.reach_inf) {
        band = Interval::AtMost(watermark_);
      } else if (Rational(0) < reach_.reach) {
        band = Interval::Make(Bound::Open(watermark_ - reach_.reach),
                              Bound::Closed(watermark_));
      }
      if (band.has_value()) {
        if (band_cache_valid_) {
          // Steady state: every stored piece intersecting the band was in
          // the previous advance's carry (seed or fresh), so the cached
          // band snapshot - a few live tuples - replaces a full-store scan.
          for (const auto& [pred, rel] : band_cache_.relations()) {
            for (const Relation::ScanEntry& row : rel.Rows()) {
              IntervalSet part = row.extent->Intersect(*band);
              if (!part.IsEmpty()) carry.InsertSet(pred, *row.tuple, part);
            }
          }
        } else {
          for (const auto& [pred, rel] : db_->relations()) {
            for (const Relation::ScanEntry& row : rel.Rows()) {
              if (row.extent->IsEmpty()) continue;
              // Tuples whose coverage ended before the band - the common
              // case once the stream has history - fail on one bound
              // compare instead of a full intersection.
              const Bound hi = row.extent->Hull().hi();
              if (!band->lo().infinite && !hi.infinite &&
                  !(band->lo().value < hi.value)) {
                continue;
              }
              IntervalSet part = row.extent->Intersect(*band);
              if (!part.IsEmpty()) carry.InsertSet(pred, *row.tuple, part);
            }
          }
        }
      }
    }
    carry.MergeFrom(pending_fresh_);

    // Evaluate only over [W, t]: the fixpoint below the watermark is final
    // (no future operators, stratified negation, pointwise aggregates), so
    // every piece of coverage this advance can add lies at or above W.
    // Heads that straddle W merge with their stored prefix on insert, and
    // negation complements / chain guard-allowed sets shrink from
    // O(history) to O(band) per event.
    Interval window = Interval::Closed(watermark_, t);
    Status status =
        driver_.Run(db_, window, &carry, provenance_, stats, gptr);
    FinalizeOpStats(start_time, guard, status, stats);
    if (!status.ok()) {
      // The store sits at a sound round barrier, but no longer matches a
      // cold run at the watermark; the next operation rebuilds from the log.
      needs_rebuild_ = true;
      return status;
    }

    // Snapshot the next advance's band from this advance's carry. Every
    // stored piece that can intersect (t - R, t] was either seeded into
    // `carry` (it intersected the old band, whose lower bound is no higher),
    // pushed (pending), or derived this run (the barrier merges fresh
    // coverage back into the carry) - so the snapshot replaces the
    // full-store scan above on the next advance. Unbounded reach keeps the
    // scan: its band has no finite lower edge to snapshot against.
    if (!reach_.reach_inf && Rational(0) < reach_.reach) {
      std::optional<Interval> next_band =
          Interval::Make(Bound::Open(t - reach_.reach), Bound::Closed(t));
      if (next_band.has_value()) {
        if (watermark_ < t) band_cache_.Clear();
        bool snapshot_complete = watermark_ < t || band_cache_valid_;
        for (const auto& [pred, rel] : carry.relations()) {
          for (const Relation::ScanEntry& row : rel.Rows()) {
            IntervalSet part = row.extent->Intersect(*next_band);
            if (!part.IsEmpty()) band_cache_.InsertSet(pred, *row.tuple, part);
          }
        }
        band_cache_valid_ = snapshot_complete;
      }
    }

    watermark_ = t;
    advanced_any_ = true;
    TrimPendingAbove(t);
    return Status::Ok();
  }

  Status Retract(const Rational& new_min, EngineStats* stats_out) {
    EngineStats local;
    EngineStats* stats = stats_out != nullptr ? stats_out : &local;
    *stats = EngineStats();
    auto start_time = std::chrono::steady_clock::now();
    if (needs_rebuild_) DMTL_RETURN_IF_ERROR(Heal());
    if (!(cur_min_ < new_min)) {
      return Status::InvalidArgument("window minimum must increase (" +
                                     cur_min_.ToString() + " -> " +
                                     new_min.ToString() + ")");
    }
    if (watermark_ < new_min) {
      return Status::InvalidArgument(
          "cannot slide the window past the watermark " +
          watermark_.ToString());
    }
    // Clamp the input log so the cut-off run, rebuilds and cold replays
    // all see the post-slide inputs. cur_min_ moves first: a failure past
    // this point heals into the new window.
    ClampLogTo(new_min);
    cur_min_ = new_min;
    Status status = SlideStore(stats);
    stats->intervals_at_stop = db_->NumIntervals();
    stats->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_time)
            .count();
    return status;
  }

  // Reinstates checkpointed session state right after Init: installs the
  // log and watermark, reseeds the pending band so the next operation
  // behaves exactly as in the uninterrupted session, and rebuilds the
  // (empty) store with Heal. Over-seeding pending coverage is sound (the
  // delta union is idempotent and the sink only records newly covered
  // pieces); the band cache stays invalid, so the first post-restore
  // advance falls back to the full-store scan.
  Status AdoptState(std::vector<Fact> log, const Rational& watermark,
                    bool advanced) {
    if (watermark < cur_min_) {
      return Status::InvalidArgument(
          "snapshot watermark " + watermark.ToString() +
          " precedes the window minimum " + cur_min_.ToString());
    }
    inputs_ = std::move(log);
    watermark_ = watermark;
    advanced_any_ = advanced;
    pending_fresh_ = Database();
    auto above = Interval::Make(Bound::Open(watermark_), Bound::Infinite());
    for (const Fact& f : inputs_) {
      if (advanced_any_) {
        // Post-advance sessions only have pending input above the
        // watermark; everything at or below it is already derived-final.
        std::optional<Interval> part;
        if (above.has_value()) part = f.interval.Intersect(*above);
        if (part.has_value()) {
          pending_fresh_.InsertSet(f.predicate, f.args, IntervalSet(*part));
        }
      } else {
        // Before the first advance, pushed facts may lie anywhere; they all
        // must seed the first band.
        pending_fresh_.InsertSet(f.predicate, f.args,
                                 IntervalSet(f.interval));
      }
    }
    return Heal();
  }

  const Rational& watermark() const { return watermark_; }
  const Rational& window_min() const { return cur_min_; }
  const std::vector<Fact>& input_log() const { return inputs_; }
  bool advanced() const { return advanced_any_; }
  bool needs_rebuild() const { return needs_rebuild_; }
  bool reach_unbounded() const { return reach_.reach_inf; }
  const Rational& forward_reach() const { return reach_.reach; }

 private:
  // Full cold rebuild from the input log: run before the next operation
  // after a mid-operation failure left the store at a round barrier, by
  // AdoptState to re-derive a restored session, and by a slide whose
  // cut-off band disagrees. Before the first advance a session has derived
  // nothing, so its store is the raw log. A failed rebuild leaves the flag
  // set, so the next operation tries again. The rebuild's engine counters
  // land in `stats` when given.
  Status Heal(EngineStats* stats = nullptr) {
    needs_rebuild_ = true;
    db_->Clear();
    if (provenance_ != nullptr) provenance_->clear();
    InvalidateCaches();
    for (const Fact& f : inputs_) {
      db_->InsertSet(f.predicate, f.args, IntervalSet(f.interval));
    }
    if (advanced_any_) {
      EngineStats heal_stats;
      DMTL_RETURN_IF_ERROR(RunBatch(db_, Interval::Closed(cur_min_, watermark_),
                                    provenance_,
                                    stats != nullptr ? stats : &heal_stats));
    }
    needs_rebuild_ = false;
    return Status::Ok();
  }

  // VM compiled state holds relation and index pointers, and the band
  // snapshot copies stored coverage: a store edit made outside a run (heal,
  // slide) leaves both suspect, so the next advance recompiles and starts
  // from a full-store scan.
  void InvalidateCaches() {
    driver_.InvalidateCompiledState();
    band_cache_ = Database();
    band_cache_valid_ = false;
  }

  // One batch run of the driver under a fresh guard: the cold rebuild and
  // the slide's cut-off run.
  Status RunBatch(Database* db, const Interval& window,
                  std::vector<DerivationRecord>* provenance,
                  EngineStats* stats) {
    ExecutionGuard guard(options_.deadline, options_.cancel_token);
    Status status = driver_.Run(db, window, nullptr, provenance, stats,
                                 guard.enabled() ? &guard : nullptr);
    stats->guard_checks += guard.checks();
    RecordStopReason(status, stats);
    return status;
  }

  // The store half of Retract, after the log clamp. The convergence
  // cut-off: in a past-directed program every atom at time t > y reads
  // only atoms in [t - C, t] plus the inputs, where C (reach_.cutoff) is
  // the largest summed upper range bound over every body literal, negated
  // ones included. The live store and the target (a cold run over the
  // clamped log on [cur_min_, W]) see the same inputs above cur_min_, so
  // once they agree on [y - C, y] they agree at every later time. One cold
  // run over the short window [cur_min_, y] with y = cur_min_ + 2C yields
  // the target below y (finality: a later max_time never changes earlier
  // coverage); when it matches the store on the band, only the prefix up
  // to y is replaced and the stored suffix is kept. Any disagreement -
  // a persistence chain rooted in the expired region that still reaches
  // the band - falls back to one cold rebuild of the whole window.
  Status SlideStore(EngineStats* stats) {
    const Rational y = cur_min_ + reach_.cutoff + reach_.cutoff;
    if (!advanced_any_ || reach_.cutoff_inf || !(y < watermark_)) {
      return Heal(stats);
    }
    Database scratch;
    const Interval prefix = Interval::AtMost(y);
    for (const Fact& f : inputs_) {
      std::optional<Interval> part = f.interval.Intersect(prefix);
      if (part.has_value()) {
        scratch.InsertSet(f.predicate, f.args, IntervalSet(*part));
      }
    }
    std::vector<DerivationRecord> scratch_provenance;
    Status status = RunBatch(
        &scratch, Interval::Closed(cur_min_, y),
        provenance_ != nullptr ? &scratch_provenance : nullptr, stats);
    if (!status.ok()) {
      needs_rebuild_ = true;
      return status;
    }
    if (!AgreesOn(scratch, Interval::Closed(y - reach_.cutoff, y))) {
      return Heal(stats);
    }

    // Splice: drop the whole stored prefix (expired coverage included) and
    // put the cut-off run's in its place. Extents straddling y re-coalesce
    // on insert, exactly as one run over the whole window stores them.
    // RemoveRegion erases relations it empties: collect the keys first.
    const IntervalSet wipe(prefix);
    std::vector<PredicateId> preds;
    preds.reserve(db_->relations().size());
    for (const auto& [pred, rel] : db_->relations()) preds.push_back(pred);
    for (PredicateId pred : preds) {
      stats->rolled_back_intervals += db_->RemoveRegion(pred, wipe);
    }
    db_->MergeFrom(scratch);
    if (provenance_ != nullptr) {
      // Same split for the records: those wholly at or below y go, those
      // straddling it keep their suffix piece, the cut-off run's records
      // cover the new prefix.
      const Interval suffix =
          *Interval::Make(Bound::Open(y), Bound::Infinite());
      std::vector<DerivationRecord>& records = *provenance_;
      size_t kept = 0;
      for (size_t i = 0; i < records.size(); ++i) {
        std::optional<Interval> part = records[i].piece.Intersect(suffix);
        if (!part.has_value()) continue;
        records[i].piece = *part;
        if (kept != i) records[kept] = std::move(records[i]);
        ++kept;
      }
      records.resize(kept);
      records.insert(records.end(),
                     std::make_move_iterator(scratch_provenance.begin()),
                     std::make_move_iterator(scratch_provenance.end()));
    }
    InvalidateCaches();
    stats->retract_suffix_kept = true;
    return Status::Ok();
  }

  // True when `scratch` and the store hold exactly the same coverage on
  // `band`, tuple for tuple, over every predicate.
  bool AgreesOn(const Database& scratch, const Interval& band) const {
    size_t matched = 0;
    for (const auto& [pred, rel] : scratch.relations()) {
      const Relation* live = db_->Find(pred);
      for (const Relation::ScanEntry& row : rel.Rows()) {
        IntervalSet part = row.extent->Intersect(band);
        if (part.IsEmpty()) continue;
        const IntervalSet* stored =
            live != nullptr ? live->Find(*row.tuple) : nullptr;
        if (stored == nullptr || stored->Intersect(band) != part) return false;
        ++matched;
      }
    }
    // Every scratch row on the band matched a distinct stored row; the
    // store agrees when it has no further rows there.
    size_t stored_rows = 0;
    for (const auto& [pred, rel] : db_->relations()) {
      for (const Relation::ScanEntry& row : rel.Rows()) {
        if (!row.extent->IsEmpty() && row.extent->Hull().Overlaps(band) &&
            !row.extent->Intersect(band).IsEmpty() &&
            ++stored_rows > matched) {
          return false;
        }
      }
    }
    return true;
  }

  // Keeps only the (t, +inf) portions pending: everything at or below the
  // new watermark was consumed by the advance that just completed.
  void TrimPendingAbove(const Rational& t) {
    auto above = Interval::Make(Bound::Open(t), Bound::Infinite());
    Database kept;
    for (const auto& [pred, rel] : pending_fresh_.relations()) {
      for (const auto& [tuple, set] : rel.data()) {
        IntervalSet part = set.Intersect(*above);
        if (!part.IsEmpty()) kept.InsertSet(pred, tuple, part);
      }
    }
    pending_fresh_ = std::move(kept);
  }

  void ClampLogTo(const Rational& new_min) {
    std::vector<Fact> kept;
    kept.reserve(inputs_.size());
    for (const Fact& f : inputs_) {
      auto part = f.interval.Intersect(Interval::AtLeast(new_min));
      if (!part.has_value()) continue;
      Fact clamped = f;
      clamped.interval = *part;
      kept.push_back(std::move(clamped));
    }
    inputs_ = std::move(kept);
  }

  void FinalizeOpStats(std::chrono::steady_clock::time_point start_time,
                       const ExecutionGuard& guard, const Status& status,
                       EngineStats* stats) {
    stats->guard_checks = guard.checks();
    stats->intervals_at_stop = db_->NumIntervals();
    stats->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_time)
            .count();
    RecordStopReason(status, stats);
  }

  std::shared_ptr<const CompiledProgram> program_;
  const StreamingReach& reach_;  // the program's
  FixpointDriver driver_;
  Database* db_ = nullptr;
  EngineOptions options_;  // as given at Create (min/max untouched)
  Rational cur_min_;
  Rational watermark_;

  std::vector<Fact> inputs_;  // the log; clamped by retractions
  Database pending_fresh_;    // input fresh portions above the watermark
  // Stored coverage clipped to (watermark - reach, watermark]: the seed
  // band for the next advance, snapshotted from the previous advance's
  // carry so steady-state advances never scan the whole store. Invalid
  // after retraction or heal (those mutate coverage outside any carry).
  Database band_cache_;
  bool band_cache_valid_ = false;
  bool advanced_any_ = false;
  bool needs_rebuild_ = false;
  std::vector<DerivationRecord>* provenance_;
};

IncrementalMaterializer::IncrementalMaterializer() = default;
IncrementalMaterializer::~IncrementalMaterializer() = default;

Result<std::unique_ptr<IncrementalMaterializer>>
IncrementalMaterializer::Create(std::shared_ptr<const CompiledProgram> program,
                                Database* db, const EngineOptions& options) {
  if (db == nullptr) {
    return Status::InvalidArgument("streaming requires a database");
  }
  DMTL_RETURN_IF_ERROR(CheckStreamingOptions(options));
  DMTL_RETURN_IF_ERROR(program->streaming_status());
  std::unique_ptr<IncrementalMaterializer> out(new IncrementalMaterializer());
  out->impl_ = std::make_unique<Impl>(std::move(program), db, options);
  return out;
}

Result<std::unique_ptr<IncrementalMaterializer>>
IncrementalMaterializer::Restore(
    std::shared_ptr<const CompiledProgram> program, Database* db,
    const EngineOptions& options, std::vector<Fact> input_log,
    const Rational& watermark, bool advanced) {
  DMTL_ASSIGN_OR_RETURN(std::unique_ptr<IncrementalMaterializer> out,
                        Create(std::move(program), db, options));
  DMTL_RETURN_IF_ERROR(
      out->impl_->AdoptState(std::move(input_log), watermark, advanced));
  return out;
}

Status IncrementalMaterializer::Push(const Fact& fact) {
  return impl_->Push(fact);
}
Status IncrementalMaterializer::Advance(const Rational& t,
                                        EngineStats* stats) {
  return impl_->Advance(t, stats);
}
Status IncrementalMaterializer::Retract(const Rational& new_min,
                                        EngineStats* stats) {
  return impl_->Retract(new_min, stats);
}
const Rational& IncrementalMaterializer::watermark() const {
  return impl_->watermark();
}
const Rational& IncrementalMaterializer::window_min() const {
  return impl_->window_min();
}
const std::vector<Fact>& IncrementalMaterializer::input_log() const {
  return impl_->input_log();
}
bool IncrementalMaterializer::advanced() const { return impl_->advanced(); }
bool IncrementalMaterializer::needs_rebuild() const {
  return impl_->needs_rebuild();
}
bool IncrementalMaterializer::reach_unbounded() const {
  return impl_->reach_unbounded();
}
const Rational& IncrementalMaterializer::forward_reach() const {
  return impl_->forward_reach();
}

}  // namespace dmtl
