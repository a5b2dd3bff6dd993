#include "src/streaming/session.h"

#include <utility>

namespace dmtl {

StreamingSession::StreamingSession() = default;
StreamingSession::~StreamingSession() = default;

Result<std::unique_ptr<StreamingSession>> StreamingSession::Build(
    const Program& program, const SessionOptions& options,
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
  std::unique_ptr<StreamingSession> out(new StreamingSession());
  out->program_ = program;
  out->options_ = options;
  // The one env override point: DMTL_DISABLE_STREAMING folds into the
  // resolved options here, selecting the batch (cold-replay) shape.
  out->streaming_ = options.engine.WithEnvOverrides().enable_streaming;

  if (snapshot != nullptr) {
    if (snapshot->program_fingerprint != out->Fingerprint()) {
      return Status::InvalidArgument(
          "snapshot was taken against a different program (fingerprint "
          "mismatch); restoring it would silently diverge");
    }
    // Window position, horizon, and provenance tracking come from the
    // checkpoint - they are session state, not tuning. Engine knobs stay
    // the caller's, so a restore may run degraded (no acceleration) and
    // still be byte-identical.
    out->options_.start_time = snapshot->window_min;
    out->options_.horizon = snapshot->horizon;
    out->options_.track_provenance = snapshot->track_provenance;
    out->window_min_ = snapshot->window_min;
    out->watermark_ = snapshot->watermark;
    out->advanced_any_ = snapshot->advanced;
    out->log_ = snapshot->input_log;
    for (const SessionSnapshot::Channel& ch : snapshot->channels) {
      out->channels_[ch.predicate] = Channel{ch.args, ch.logged_hi};
    }
  } else {
    out->window_min_ = options.start_time;
    out->watermark_ = options.start_time;
  }

  EngineOptions engine = out->options_.engine;
  engine.min_time = out->options_.start_time;
  engine.provenance =
      out->options_.track_provenance ? &out->provenance_ : nullptr;
  // The batch branches check streaming eligibility (past-directed
  // operators, no head ops, no since/until...) without building an
  // evaluator: it must not depend on the lane.
  if (snapshot == nullptr) {
    if (out->streaming_) {
      DMTL_ASSIGN_OR_RETURN(out->inc_, IncrementalMaterializer::Create(
                                           program, &out->db_, engine));
    } else {
      DMTL_RETURN_IF_ERROR(
          IncrementalMaterializer::CheckEligible(program, engine));
    }
  } else if (out->streaming_) {
    DMTL_ASSIGN_OR_RETURN(
        out->inc_,
        IncrementalMaterializer::Restore(program, &out->db_, engine,
                                         snapshot->input_log,
                                         snapshot->watermark,
                                         snapshot->advanced));
  } else {
    DMTL_RETURN_IF_ERROR(
        IncrementalMaterializer::CheckEligible(program, engine));
    DMTL_RETURN_IF_ERROR(out->RebuildBatch(nullptr));
  }
  return out;
}

Result<std::unique_ptr<StreamingSession>> StreamingSession::Create(
    const Program& program, const SessionOptions& options) {
  return Build(program, options, nullptr);
}

Result<std::unique_ptr<StreamingSession>> StreamingSession::Restore(
    const Program& program, const SessionOptions& options,
    const SessionSnapshot& snapshot) {
  return Build(program, options, &snapshot);
}

Status StreamingSession::PushFact(const Fact& fact) {
  if (streaming_) return inc_->Push(fact);
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
  log_.push_back(fact);
  // Visible at once, as in the incremental engine.
  db_.InsertSet(fact.predicate, fact.args, IntervalSet(fact.interval));
  return Status::Ok();
}

Status StreamingSession::Push(const Fact& fact) { return PushFact(fact); }

Status StreamingSession::PushStep(PredicateId pred, Tuple args,
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
      DMTL_RETURN_IF_ERROR(PushFact(Fact{pred, ch.args, *closing}));
    }
  }
  DMTL_RETURN_IF_ERROR(PushFact(Fact{pred, args, Interval::Point(t)}));
  channels_[pred] = Channel{std::move(args), t};
  return Status::Ok();
}

Status StreamingSession::ExtendChannels(const Rational& t) {
  for (auto& [pred, ch] : channels_) {
    if (!(ch.logged_hi < t)) continue;
    auto piece = Interval::Make(Bound::Open(ch.logged_hi), Bound::Closed(t));
    DMTL_RETURN_IF_ERROR(PushFact(Fact{pred, ch.args, *piece}));
    ch.logged_hi = t;
  }
  return Status::Ok();
}

Status StreamingSession::Advance(const Rational& t, EngineStats* stats) {
  if (t < watermark()) {
    return Status::InvalidArgument("advance to " + t.ToString() +
                                   " precedes the watermark " +
                                   watermark().ToString());
  }
  DMTL_RETURN_IF_ERROR(ExtendChannels(t));
  if (streaming_) {
    DMTL_RETURN_IF_ERROR(inc_->Advance(t, stats));
  } else {
    watermark_ = t;
    advanced_any_ = true;
    DMTL_RETURN_IF_ERROR(RebuildBatch(stats));
  }
  if (options_.horizon.has_value()) {
    Rational new_min = t - *options_.horizon;
    if (window_min() < new_min) {
      DMTL_RETURN_IF_ERROR(Slide(new_min));
    }
  }
  return Status::Ok();
}

Status StreamingSession::Slide(const Rational& new_min, EngineStats* stats) {
  if (streaming_) return inc_->Retract(new_min, stats);
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
  std::vector<Fact> kept;
  kept.reserve(log_.size());
  for (const Fact& f : log_) {
    auto part = f.interval.Intersect(Interval::AtLeast(new_min));
    if (!part.has_value()) continue;
    Fact clamped = f;
    clamped.interval = *part;
    kept.push_back(std::move(clamped));
  }
  log_ = std::move(kept);
  window_min_ = new_min;
  return RebuildBatch(stats);
}

Result<SessionSnapshot> StreamingSession::Snapshot() const {
  if (needs_rebuild()) {
    return Status::InvalidArgument(
        "snapshot refused: a failed operation left the database an "
        "under-approximation; the next operation heals it first");
  }
  SessionSnapshot snap;
  snap.program_fingerprint = Fingerprint();
  snap.watermark = watermark();
  snap.window_min = window_min();
  snap.horizon = options_.horizon;
  snap.advanced = streaming_ ? inc_->advanced() : advanced_any_;
  snap.track_provenance = options_.track_provenance;
  for (const auto& [pred, ch] : channels_) {
    snap.channels.push_back(
        SessionSnapshot::Channel{pred, ch.args, ch.logged_hi});
  }
  snap.input_log = input_log();
  return snap;
}

uint64_t StreamingSession::Fingerprint() const {
  if (!fingerprint_.has_value()) fingerprint_ = ProgramFingerprint(program_);
  return *fingerprint_;
}

Status StreamingSession::RebuildBatch(EngineStats* stats) {
  db_.Clear();
  provenance_.clear();
  for (const Fact& f : log_) {
    db_.InsertSet(f.predicate, f.args, IntervalSet(f.interval));
  }
  if (!advanced_any_) return Status::Ok();  // nothing derived yet
  EngineOptions o = options_.engine;
  o.min_time = window_min_;
  o.max_time = watermark_;
  o.provenance = options_.track_provenance ? &provenance_ : nullptr;
  EngineStats local;
  return Materialize(program_, &db_, o, stats != nullptr ? stats : &local);
}

Result<ReplayResult> StreamingSession::ColdReplay() const {
  ReplayResult out;
  for (const Fact& f : input_log()) {
    out.db.InsertSet(f.predicate, f.args, IntervalSet(f.interval));
  }
  EngineOptions o = options_.engine;
  o.min_time = window_min();
  o.max_time = watermark();
  o.provenance = options_.track_provenance ? &out.provenance : nullptr;
  DMTL_RETURN_IF_ERROR(Materialize(program_, &out.db, o, &out.stats));
  return out;
}

const Rational& StreamingSession::watermark() const {
  return streaming_ ? inc_->watermark() : watermark_;
}

const Rational& StreamingSession::window_min() const {
  return streaming_ ? inc_->window_min() : window_min_;
}

const std::vector<Fact>& StreamingSession::input_log() const {
  return streaming_ ? inc_->input_log() : log_;
}

}  // namespace dmtl
