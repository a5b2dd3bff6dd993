#include "src/engine/session.h"

#include <string>
#include <utility>

namespace dmtl {

EngineSession::EngineSession() = default;
EngineSession::~EngineSession() = default;

Result<std::unique_ptr<EngineSession>> EngineSession::Build(
    std::shared_ptr<const CompiledProgram> program,
    const SessionOptions& options, const SessionSnapshot* snapshot) {
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
  std::unique_ptr<EngineSession> out(new EngineSession());
  out->program_ = std::move(program);
  out->options_ = options;

  if (snapshot != nullptr) {
    if (snapshot->program_fingerprint != out->program_->fingerprint()) {
      return Status::InvalidArgument(
          "snapshot was taken against a different program (fingerprint "
          "mismatch); restoring it would silently diverge");
    }
    // Window position, horizon, and provenance tracking come from the
    // checkpoint - they are session state, not tuning. Engine knobs stay
    // the caller's, so a restore may run degraded (without a deadline) and
    // still be byte-identical.
    out->options_.start_time = snapshot->window_min;
    out->options_.horizon = snapshot->horizon;
    out->options_.track_provenance = snapshot->track_provenance;
    for (const SessionSnapshot::Channel& ch : snapshot->channels) {
      out->channels_[ch.predicate] = Channel{ch.args, ch.logged_hi};
    }
  }

  EngineOptions engine = out->options_.engine;
  engine.min_time = out->options_.start_time;
  engine.provenance =
      out->options_.track_provenance ? &out->provenance_ : nullptr;
  if (snapshot == nullptr) {
    DMTL_ASSIGN_OR_RETURN(out->inc_, IncrementalMaterializer::Create(
                                         out->program_, &out->db_, engine));
  } else {
    DMTL_ASSIGN_OR_RETURN(
        out->inc_,
        IncrementalMaterializer::Restore(out->program_, &out->db_, engine,
                                         snapshot->input_log,
                                         snapshot->watermark,
                                         snapshot->advanced));
  }
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

Status EngineSession::Push(const Fact& fact) { return inc_->Push(fact); }

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
      DMTL_RETURN_IF_ERROR(inc_->Push(Fact{pred, ch.args, *closing}));
    }
  }
  DMTL_RETURN_IF_ERROR(inc_->Push(Fact{pred, args, Interval::Point(t)}));
  channels_[pred] = Channel{std::move(args), t};
  return Status::Ok();
}

Status EngineSession::ExtendChannels(const Rational& t) {
  for (auto& [pred, ch] : channels_) {
    if (!(ch.logged_hi < t)) continue;
    auto piece = Interval::Make(Bound::Open(ch.logged_hi), Bound::Closed(t));
    DMTL_RETURN_IF_ERROR(inc_->Push(Fact{pred, ch.args, *piece}));
    ch.logged_hi = t;
  }
  return Status::Ok();
}

Status EngineSession::Advance(const Rational& t, EngineStats* stats) {
  if (t < watermark()) {
    return Status::InvalidArgument("advance to " + t.ToString() +
                                   " precedes the watermark " +
                                   watermark().ToString());
  }
  DMTL_RETURN_IF_ERROR(ExtendChannels(t));
  DMTL_RETURN_IF_ERROR(inc_->Advance(t, stats));
  if (options_.horizon.has_value()) {
    Rational new_min = t - *options_.horizon;
    if (window_min() < new_min) {
      DMTL_RETURN_IF_ERROR(Slide(new_min));
    }
  }
  return Status::Ok();
}

Status EngineSession::Slide(const Rational& new_min, EngineStats* stats) {
  return inc_->Retract(new_min, stats);
}

Result<SessionSnapshot> EngineSession::Snapshot() const {
  if (inc_->needs_rebuild()) {
    return Status::InvalidArgument(
        "snapshot refused: a failed operation left the database an "
        "under-approximation; the next operation heals it first");
  }
  SessionSnapshot snap;
  snap.program_fingerprint = program_->fingerprint();
  snap.watermark = watermark();
  snap.window_min = window_min();
  snap.horizon = options_.horizon;
  snap.advanced = inc_->advanced();
  snap.track_provenance = options_.track_provenance;
  for (const auto& [pred, ch] : channels_) {
    snap.channels.push_back(
        SessionSnapshot::Channel{pred, ch.args, ch.logged_hi});
  }
  snap.input_log = input_log();
  return snap;
}

Result<ReplayResult> EngineSession::ColdReplay() const {
  ReplayResult out;
  for (const Fact& f : input_log()) {
    out.db.InsertSet(f.predicate, f.args, IntervalSet(f.interval));
  }
  EngineOptions o = options_.engine;
  o.min_time = window_min();
  o.max_time = watermark();
  o.provenance = options_.track_provenance ? &out.provenance : nullptr;
  DMTL_RETURN_IF_ERROR(Materialize(*program_, &out.db, o, &out.stats));
  return out;
}

}  // namespace dmtl
