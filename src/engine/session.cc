#include "src/engine/session.h"

#include <chrono>
#include <iterator>
#include <string>
#include <utility>

namespace dmtl {

EngineSession::EngineSession(std::shared_ptr<const CompiledProgram> program,
                             const SessionOptions& options)
    : program_(std::move(program)),
      options_(options),
      driver_(*program_, options.engine),
      window_min_(options.start_time),
      watermark_(options.start_time) {}

EngineSession::~EngineSession() = default;

Result<std::unique_ptr<EngineSession>> EngineSession::Build(
    std::shared_ptr<const CompiledProgram> program, SessionOptions options,
    const SessionSnapshot* snapshot) {
  if (options.engine.min_time.has_value() ||
      options.engine.max_time.has_value()) {
    return Status::InvalidArgument(
        "engine min_time/max_time are managed by the session; use "
        "start_time and the watermark");
  }
  if (options.engine.provenance != nullptr) {
    return Status::InvalidArgument(
        "provenance storage is owned by the session; use track_provenance");
  }
  if (options.horizon.has_value() && !(Rational(0) < *options.horizon)) {
    return Status::InvalidArgument("horizon must be positive");
  }
  if (snapshot != nullptr) {
    if (snapshot->program_fingerprint != program->fingerprint()) {
      return Status::InvalidArgument(
          "snapshot was taken against a different program (fingerprint "
          "mismatch); restoring it would silently diverge");
    }
    // Window position, horizon, and provenance tracking come from the
    // checkpoint - they are session state, not tuning. Engine knobs stay
    // the caller's, so a restore may run degraded (without a deadline) and
    // still be byte-identical.
    options.start_time = snapshot->window_min;
    options.horizon = snapshot->horizon;
    options.track_provenance = snapshot->track_provenance;
  }
  DMTL_RETURN_IF_ERROR(program->streaming_status());
  std::unique_ptr<EngineSession> out(
      new EngineSession(std::move(program), options));
  if (snapshot == nullptr) return out;

  if (snapshot->watermark < out->window_min_) {
    return Status::InvalidArgument(
        "snapshot watermark " + snapshot->watermark.ToString() +
        " precedes the window minimum " + out->window_min_.ToString());
  }
  for (const SessionSnapshot::Channel& ch : snapshot->channels) {
    out->channels_[ch.predicate] = Channel{ch.args, ch.logged_hi};
  }
  out->input_log_ = snapshot->input_log;
  out->watermark_ = snapshot->watermark;
  out->advanced_ = snapshot->advanced;
  // Reseed the pending band so the next operation behaves exactly as in
  // the uninterrupted session: after the first advance only input above the
  // watermark is pending (everything at or below it is derived-final);
  // before it, every pushed fact is. Over-seeding pending coverage is sound
  // (the delta union is idempotent and the sink only records newly covered
  // pieces); the band cache stays invalid, so the first post-restore
  // advance falls back to the full-store scan.
  const Interval pending =
      out->advanced_
          ? *Interval::Make(Bound::Open(out->watermark_), Bound::Infinite())
          : Interval::All();
  for (const Fact& f : out->input_log_) {
    std::optional<Interval> part = f.interval.Intersect(pending);
    if (part.has_value()) {
      out->pending_fresh_.InsertSet(f.predicate, f.args, IntervalSet(*part));
    }
  }
  DMTL_RETURN_IF_ERROR(out->Heal());
  return out;
}

Result<std::unique_ptr<EngineSession>> EngineSession::Create(
    std::shared_ptr<const CompiledProgram> program,
    const SessionOptions& options) {
  return Build(std::move(program), options, nullptr);
}

Result<std::unique_ptr<EngineSession>> EngineSession::Create(
    const Program& program, const SessionOptions& options) {
  DMTL_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledProgram> compiled,
                        CompiledProgram::Create(program));
  return Build(std::move(compiled), options, nullptr);
}

Result<std::unique_ptr<EngineSession>> EngineSession::Restore(
    std::shared_ptr<const CompiledProgram> program,
    const SessionOptions& options, const SessionSnapshot& snapshot) {
  return Build(std::move(program), options, &snapshot);
}

Result<std::unique_ptr<EngineSession>> EngineSession::Restore(
    const Program& program, const SessionOptions& options,
    const SessionSnapshot& snapshot) {
  DMTL_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledProgram> compiled,
                        CompiledProgram::Create(program));
  return Build(std::move(compiled), options, &snapshot);
}

Status EngineSession::Push(const Fact& fact) {
  if (needs_rebuild_) DMTL_RETURN_IF_ERROR(Heal());
  if (advanced_) {
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
  input_log_.push_back(fact);
  IntervalSet fresh =
      db_.InsertSet(fact.predicate, fact.args, IntervalSet(fact.interval));
  if (!fresh.IsEmpty()) {
    pending_fresh_.InsertSet(fact.predicate, fact.args, fresh);
  }
  return Status::Ok();
}

Status EngineSession::PushStep(PredicateId pred, Tuple args,
                               const Rational& t) {
  auto it = channels_.find(pred);
  if (it != channels_.end()) {
    Channel& ch = it->second;
    if (!(ch.logged_hi < t)) {
      return Status::InvalidArgument(
          "step channel " + std::string(PredicateName(pred)) +
          " already logged through " + ch.logged_hi.ToString() +
          "; steps must advance in time");
    }
    if (ch.args == args) return Status::Ok();  // same value: step continues
    // Close the outgoing step: its coverage past the last logged piece is
    // (logged_hi, t) - open at t, where the new value takes over.
    auto closing =
        Interval::Make(Bound::Open(ch.logged_hi), Bound::Open(t));
    if (closing.has_value()) {
      DMTL_RETURN_IF_ERROR(Push(Fact{pred, ch.args, *closing}));
    }
  }
  DMTL_RETURN_IF_ERROR(Push(Fact{pred, args, Interval::Point(t)}));
  channels_[pred] = Channel{std::move(args), t};
  return Status::Ok();
}

Status EngineSession::ExtendChannels(const Rational& t) {
  for (auto& [pred, ch] : channels_) {
    if (!(ch.logged_hi < t)) continue;
    auto piece = Interval::Make(Bound::Open(ch.logged_hi), Bound::Closed(t));
    DMTL_RETURN_IF_ERROR(Push(Fact{pred, ch.args, *piece}));
    ch.logged_hi = t;
  }
  return Status::Ok();
}

Status EngineSession::Advance(const Rational& t, EngineStats* stats_out) {
  if (t < watermark_) {
    return Status::InvalidArgument("advance to " + t.ToString() +
                                   " precedes the watermark " +
                                   watermark_.ToString());
  }
  DMTL_RETURN_IF_ERROR(ExtendChannels(t));
  EngineStats local;
  EngineStats* stats = stats_out != nullptr ? stats_out : &local;
  *stats = EngineStats();
  const auto start_time = std::chrono::steady_clock::now();
  if (needs_rebuild_) {
    // A failed heal stops the operation: its stats report that run.
    Status healed = Heal(stats);
    if (!healed.ok()) {
      FinishRun(healed, db_, start_time, stats);
      return healed;
    }
  }

  // Seed delta: the boundary band of stored coverage plus the pending
  // input fresh portions. Any derivation landing in (W, t] has every
  // positive support atom above t - R > W - R, so each one is either old
  // (in the band) or new (pending / derived this advance) - which makes
  // occurrence-restricted evaluation against this seed complete.
  const StreamingReach& reach = program_->streaming_reach();
  Database carry;
  if (watermark_ < t) {
    std::optional<Interval> band;
    if (reach.reach_inf) {
      band = Interval::AtMost(watermark_);
    } else if (Rational(0) < reach.reach) {
      band = Interval::Make(Bound::Open(watermark_ - reach.reach),
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
        for (const auto& [pred, rel] : db_.relations()) {
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
  Status status = driver_.Run(&db_, Interval::Closed(watermark_, t), &carry,
                              recorded_provenance(), stats, start_time);
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
  if (!reach.reach_inf && Rational(0) < reach.reach) {
    std::optional<Interval> next_band =
        Interval::Make(Bound::Open(t - reach.reach), Bound::Closed(t));
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
  advanced_ = true;
  TrimPendingAbove(t);
  if (options_.horizon.has_value()) {
    Rational new_min = t - *options_.horizon;
    if (window_min_ < new_min) {
      DMTL_RETURN_IF_ERROR(Slide(new_min));
    }
  }
  return Status::Ok();
}

Status EngineSession::Slide(const Rational& new_min, EngineStats* stats_out) {
  EngineStats local;
  EngineStats* stats = stats_out != nullptr ? stats_out : &local;
  *stats = EngineStats();
  const auto start_time = std::chrono::steady_clock::now();
  if (needs_rebuild_) {
    // A failed heal stops the operation: its stats report that run.
    Status healed = Heal(stats);
    if (!healed.ok()) {
      FinishRun(healed, db_, start_time, stats);
      return healed;
    }
  }
  if (!(window_min_ < new_min)) {
    return Status::InvalidArgument("window minimum must increase (" +
                                   window_min_.ToString() + " -> " +
                                   new_min.ToString() + ")");
  }
  if (watermark_ < new_min) {
    return Status::InvalidArgument(
        "cannot slide the window past the watermark " +
        watermark_.ToString());
  }
  // Clamp the input log so the cut-off run, rebuilds and cold replays
  // all see the post-slide inputs. The window minimum moves first: a
  // failure past this point heals into the new window.
  ClampLogTo(new_min);
  window_min_ = new_min;
  Status status = SlideStore(stats);
  FinishRun(status, db_, start_time, stats);
  return status;
}

// Run before the next operation after a mid-operation failure left the
// store at a round barrier, by Restore to re-derive a restored session,
// and by a slide whose cut-off band disagrees. Before the first advance a
// session has derived nothing, so its store is the raw log. A failed
// rebuild leaves the flag set, so the next operation tries again.
Status EngineSession::Heal(EngineStats* stats) {
  needs_rebuild_ = true;
  db_.Clear();
  provenance_.clear();
  InvalidateCaches();
  for (const Fact& f : input_log_) {
    db_.InsertSet(f.predicate, f.args, IntervalSet(f.interval));
  }
  if (advanced_) {
    EngineStats heal_stats;
    DMTL_RETURN_IF_ERROR(driver_.Run(
        &db_, Interval::Closed(window_min_, watermark_), nullptr,
        recorded_provenance(), stats != nullptr ? stats : &heal_stats));
  }
  needs_rebuild_ = false;
  return Status::Ok();
}

// VM compiled state holds relation and index pointers, and the band
// snapshot copies stored coverage: a store edit made outside a run (heal,
// slide) leaves both suspect, so the next advance recompiles and starts
// from a full-store scan.
void EngineSession::InvalidateCaches() {
  driver_.InvalidateCompiledState();
  band_cache_ = Database();
  band_cache_valid_ = false;
}

// The convergence cut-off: in a past-directed program every atom at time
// t > y reads only atoms in [t - C, t] plus the inputs, where C
// (StreamingReach::cutoff) is the largest summed upper range bound over
// every body literal, negated ones included. The live store and the target
// (a cold run over the clamped log on [window_min, W]) see the same inputs
// above window_min, so once they agree on [y - C, y] they agree at every
// later time. One cold run over the short window [window_min, y] with
// y = window_min + 2C yields the target below y (finality: a later
// max_time never changes earlier coverage); when it matches the store on
// the band, only the prefix up to y is replaced and the stored suffix is
// kept. Any disagreement - a persistence chain rooted in the expired
// region that still reaches the band - falls back to one cold rebuild of
// the whole window.
Status EngineSession::SlideStore(EngineStats* stats) {
  const StreamingReach& reach = program_->streaming_reach();
  const Rational y = window_min_ + reach.cutoff + reach.cutoff;
  if (!advanced_ || reach.cutoff_inf || !(y < watermark_)) {
    return Heal(stats);
  }
  Database scratch;
  const Interval prefix = Interval::AtMost(y);
  for (const Fact& f : input_log_) {
    std::optional<Interval> part = f.interval.Intersect(prefix);
    if (part.has_value()) {
      scratch.InsertSet(f.predicate, f.args, IntervalSet(*part));
    }
  }
  std::vector<DerivationRecord> scratch_provenance;
  Status status = driver_.Run(
      &scratch, Interval::Closed(window_min_, y), nullptr,
      options_.track_provenance ? &scratch_provenance : nullptr, stats);
  if (!status.ok()) {
    needs_rebuild_ = true;
    return status;
  }
  if (!AgreesOn(scratch, Interval::Closed(y - reach.cutoff, y))) {
    return Heal(stats);
  }

  // Splice: drop the whole stored prefix (expired coverage included) and
  // put the cut-off run's in its place. Extents straddling y re-coalesce
  // on insert, exactly as one run over the whole window stores them.
  // RemoveRegion erases relations it empties: collect the keys first.
  const IntervalSet wipe(prefix);
  std::vector<PredicateId> preds;
  preds.reserve(db_.relations().size());
  for (const auto& [pred, rel] : db_.relations()) preds.push_back(pred);
  for (PredicateId pred : preds) {
    stats->rolled_back_intervals += db_.RemoveRegion(pred, wipe);
  }
  db_.MergeFrom(scratch);
  if (options_.track_provenance) {
    // Same split for the records: those wholly at or below y go, those
    // straddling it keep their suffix piece, the cut-off run's records
    // cover the new prefix.
    const Interval suffix =
        *Interval::Make(Bound::Open(y), Bound::Infinite());
    size_t kept = 0;
    for (size_t i = 0; i < provenance_.size(); ++i) {
      std::optional<Interval> part = provenance_[i].piece.Intersect(suffix);
      if (!part.has_value()) continue;
      provenance_[i].piece = *part;
      if (kept != i) provenance_[kept] = std::move(provenance_[i]);
      ++kept;
    }
    provenance_.resize(kept);
    provenance_.insert(provenance_.end(),
                       std::make_move_iterator(scratch_provenance.begin()),
                       std::make_move_iterator(scratch_provenance.end()));
  }
  InvalidateCaches();
  stats->retract_suffix_kept = true;
  return Status::Ok();
}

bool EngineSession::AgreesOn(const Database& scratch,
                             const Interval& band) const {
  size_t matched = 0;
  for (const auto& [pred, rel] : scratch.relations()) {
    const Relation* live = db_.Find(pred);
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
  for (const auto& [pred, rel] : db_.relations()) {
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

// Everything at or below the new watermark was consumed by the advance
// that just completed.
void EngineSession::TrimPendingAbove(const Rational& t) {
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

void EngineSession::ClampLogTo(const Rational& new_min) {
  std::vector<Fact> kept;
  kept.reserve(input_log_.size());
  for (const Fact& f : input_log_) {
    auto part = f.interval.Intersect(Interval::AtLeast(new_min));
    if (!part.has_value()) continue;
    Fact clamped = f;
    clamped.interval = *part;
    kept.push_back(std::move(clamped));
  }
  input_log_ = std::move(kept);
}

Result<SessionSnapshot> EngineSession::Snapshot() const {
  if (needs_rebuild_) {
    return Status::InvalidArgument(
        "snapshot refused: a failed operation left the database an "
        "under-approximation; the next operation heals it first");
  }
  SessionSnapshot snap;
  snap.program_fingerprint = program_->fingerprint();
  snap.watermark = watermark_;
  snap.window_min = window_min_;
  snap.horizon = options_.horizon;
  snap.advanced = advanced_;
  snap.track_provenance = options_.track_provenance;
  for (const auto& [pred, ch] : channels_) {
    snap.channels.push_back(
        SessionSnapshot::Channel{pred, ch.args, ch.logged_hi});
  }
  snap.input_log = input_log_;
  return snap;
}

Result<ReplayResult> EngineSession::ColdReplay() const {
  ReplayResult out;
  for (const Fact& f : input_log_) {
    out.db.InsertSet(f.predicate, f.args, IntervalSet(f.interval));
  }
  EngineOptions o = options_.engine;
  o.min_time = window_min_;
  o.max_time = watermark_;
  o.provenance = options_.track_provenance ? &out.provenance : nullptr;
  DMTL_RETURN_IF_ERROR(Materialize(*program_, &out.db, o, &out.stats));
  return out;
}

}  // namespace dmtl
