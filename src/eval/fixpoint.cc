#include "src/eval/fixpoint.h"

#include <chrono>
#include <set>
#include <string>

#include "src/common/fault_injector.h"

namespace dmtl {

namespace {

// Sink emissions between guard checks. Covers every unbounded emission
// loop, so a divergent rule observes a deadline within ~256 emissions.
constexpr uint64_t kSinkGuardStrideMask = 255;

bool AnyCoverage(const std::set<PredicateId>& preds, const Database& db) {
  for (PredicateId p : preds) {
    const Relation* rel = db.Find(p);
    if (rel != nullptr && !rel->IsEmpty()) return true;
  }
  return false;
}

// Exceptions become a clean kInternal: a run never throws.
template <typename Fn>
Status RunProtected(Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("evaluation aborted by exception: ") +
                            e.what());
  } catch (...) {
    return Status::Internal("evaluation aborted by non-standard exception");
  }
}

}  // namespace

// Inserts derived extents (clamped to the window) and accumulates newly
// covered portions into the round delta. The only path by which rule
// evaluation mutates the store.
class FixpointDriver::Sink {
 public:
  Sink(Database* db, Database* next_delta, const Interval& window,
       std::vector<DerivationRecord>* provenance, size_t max_intervals,
       EngineStats* stats, const ExecutionGuard* guard)
      : db_(db),
        next_delta_(next_delta),
        window_(window),
        provenance_(provenance),
        max_intervals_(max_intervals),
        stats_(stats),
        guard_(guard) {}

  // Bulk emission: one window clamp, one coalescing merge into the store,
  // one delta append - no per-interval IntervalSet temporaries. Most
  // extents already lie inside the window (rule bodies read clamped
  // coverage), and those go to the store as they are, without the clip's
  // copy.
  Status Emit(PredicateId pred, const Tuple& tuple,
              const IntervalSet& extent) {
    if (extent.IsEmpty()) return Status::Ok();
    if (window_.Contains(extent.Hull())) {
      return Record(pred, tuple, db_->InsertSet(pred, tuple, extent));
    }
    IntervalSet clamped = extent.Intersect(window_);
    if (clamped.IsEmpty()) return Status::Ok();
    return Record(pred, tuple, db_->InsertSet(pred, tuple, clamped));
  }

  // Provenance context: which rule is emitting, in which round.
  void SetContext(size_t rule_index, size_t round) {
    current_rule_ = rule_index;
    current_round_ = round;
  }

 private:
  // Accounts the newly covered portion of an insertion: stats, next-round
  // delta, provenance, then guard/budget checks. The delta is recorded
  // *before* any check can fail so the rollback (SubtractCoverage of the
  // round delta) always covers exactly what reached the store. The store
  // contains the round delta and `fresh` is disjoint from the store as it
  // was before this insert, so `fresh` is disjoint from the delta too and
  // joins it by a plain append.
  Status Record(PredicateId pred, const Tuple& tuple,
                const IntervalSet& fresh) {
    if (fresh.IsEmpty()) return Status::Ok();
    stats_->derived_intervals += fresh.size();
    try {
      next_delta_->InsertDisjoint(pred, tuple, fresh);
    } catch (...) {
      // The paired store insert already happened; undo it so the round
      // delta stays an exact record of the store's round growth.
      db_->SubtractCoverage(pred, tuple, fresh);
      throw;
    }
    if (provenance_ != nullptr) {
      for (const Interval& piece : fresh) {
        provenance_->push_back(
            {pred, tuple, piece, current_rule_, current_round_});
      }
    }
    if (guard_ != nullptr && (++emissions_ & kSinkGuardStrideMask) == 0) {
      DMTL_RETURN_IF_ERROR(guard_->Check());
    }
    if (db_->approx_intervals() > max_intervals_) {
      return Status::ResourceExhausted(
          "materialization exceeded max_intervals=" +
          std::to_string(max_intervals_));
    }
    return Status::Ok();
  }

  Database* db_;
  Database* next_delta_;
  Interval window_;
  std::vector<DerivationRecord>* provenance_;
  size_t max_intervals_;
  EngineStats* stats_;
  const ExecutionGuard* guard_;
  size_t current_rule_ = 0;
  size_t current_round_ = 0;
  uint64_t emissions_ = 0;
};

FixpointDriver::FixpointDriver(const CompiledProgram& program,
                               const EngineOptions& options)
    : program_(program), options_(options) {
  vms_.reserve(program.rules().size());
  for (const CompiledProgram::CompiledRule& rule : program.rules()) {
    vms_.emplace_back(rule);
  }
}

void FixpointDriver::InvalidateCompiledState() {
  for (RuleVm& vm : vms_) vm.InvalidateCompiledState();
  bound_db_ = nullptr;
}

FixpointDriver::Counters FixpointDriver::Snapshot() const {
  Counters c;
  for (const RuleVm& vm : vms_) {
    const PlannerStats& ps = vm.planner_stats();
    c.idx_built += ps.indexes_built;
    c.probes += ps.index_probes;
    c.probe_hits += ps.index_probe_hits;
    c.pruned += ps.envelope_pruned;
    c.candidates += ps.scan_candidates;
    c.vm_disp += vm.dispatches();
    c.vm_comp += vm.compiles();
  }
  c.bulk = IntervalSet::BulkMergeCount();
  return c;
}

Status FixpointDriver::Run(Database* db, const Interval& window,
                           Database* seeds,
                           std::vector<DerivationRecord>* provenance,
                           EngineStats* stats,
                           std::chrono::steady_clock::time_point start) {
  ExecutionGuard run_guard(options_.deadline, options_.cancel_token);
  const ExecutionGuard* guard = run_guard.enabled() ? &run_guard : nullptr;
  if (db != bound_db_) {
    InvalidateCompiledState();
    bound_db_ = db;
  }
  // Chain guard-allowed sets are only stable within one run: guard
  // predicates grow between runs.
  for (RuleVm& vm : vms_) vm.ClearChainCache();
  const Counters base = Snapshot();
  const int num_strata = program_.stratification().num_strata;
  stats->num_strata = num_strata;
  stats->compiled_rules = vms_.size();
  stats->stratum_wall_seconds.resize(num_strata, 0.0);

  Status status = Status::Ok();
  for (int s = 0; s < num_strata && status.ok(); ++s) {
    status = RunStratum(s, db, window, seeds, provenance, stats, guard);
  }

  const Counters now = Snapshot();
  stats->planner_indexes_built += now.idx_built - base.idx_built;
  stats->planner_index_probes += now.probes - base.probes;
  stats->planner_probe_hits += now.probe_hits - base.probe_hits;
  stats->planner_pruned_tuples += now.pruned - base.pruned;
  stats->scan_candidates += now.candidates - base.candidates;
  stats->vm_dispatches += now.vm_disp - base.vm_disp;
  stats->vm_recompiles += now.vm_comp - base.vm_comp;
  stats->bulk_merges += now.bulk - base.bulk;
  stats->rule_plan_cost.clear();
  for (const RuleVm& vm : vms_) {
    stats->rule_plan_cost.push_back(vm.planner_stats().last_plan_cost);
  }
  stats->guard_checks += run_guard.checks();
  FinishRun(status, *db, start, stats);
  return status;
}

Status FixpointDriver::RunStratum(int s, Database* db, const Interval& window,
                                  Database* seeds,
                                  std::vector<DerivationRecord>* provenance,
                                  EngineStats* stats,
                                  const ExecutionGuard* guard) {
  auto stratum_start = std::chrono::steady_clock::now();
  const std::vector<size_t>& rule_ids =
      program_.stratification().rule_strata[s];
  if (rule_ids.empty()) return Status::Ok();
  // A seeded stratum can only derive something when some positive body
  // predicate carries seed coverage. This is what keeps steady-state event
  // latency flat: most strata never wake up for a quiet tick.
  if (seeds != nullptr &&
      !AnyCoverage(program_.stratum_body_preds(s), *seeds)) {
    return Status::Ok();
  }

  Database delta;
  Database next_delta;
  Sink sink(db, &next_delta, window, provenance, options_.max_intervals,
            stats, guard);
  // Failure handling: every round runs inside RunProtected, and any round
  // failure goes through fail_round, which subtracts the round's delta
  // from the store. next_delta holds exactly the coverage inserted since
  // the last barrier, and freshly covered portions are disjoint from
  // everything stored before, so the subtraction restores the barrier
  // state precisely - whether the round died mid-rule or mid-chain-walk.
  size_t prov_mark = provenance != nullptr ? provenance->size() : 0;
  auto fail_round = [&](Status status, size_t round) -> Status {
    stats->rolled_back_intervals += next_delta.NumIntervals();
    db->SubtractCoverage(next_delta);
    if (provenance != nullptr && provenance->size() > prov_mark) {
      provenance->resize(prov_mark);
    }
    stats->stopped_stratum = s;
    stats->stopped_round = round;
    return status;
  };

  for (size_t round = 0;; ++round) {
    if (round > 0) {
      const size_t delta_size = delta.NumIntervals();
      if (delta_size == 0) break;
      if (round > options_.max_rounds) {
        stats->stop_reason = StopReason::kMaxRounds;
        return fail_round(
            Status::ResourceExhausted("stratum " + std::to_string(s) +
                                      " exceeded max_rounds=" +
                                      std::to_string(options_.max_rounds)),
            round);
      }
      ++stats->rounds;
      stats->delta_intervals += delta_size;
    }
    // Round 0 reads the seeds (batch: nothing), later rounds the previous
    // round's fresh coverage. The round deltas only ever hold this
    // stratum's heads, so matching occurrences by delta contents is the
    // stratum filter.
    const Database& round_delta =
        round == 0 && seeds != nullptr ? *seeds : delta;
    Status round_status = RunProtected([&]() -> Status {
      if (guard != nullptr) DMTL_RETURN_IF_ERROR(guard->Check());
      DMTL_RETURN_IF_ERROR(FaultInjector::Fire("seminaive.round"));
      std::vector<RoundTask> tasks;
      for (size_t id : rule_ids) {
        const CompiledProgram::CompiledRule& c = program_.rules()[id];
        RuleVm& vm = vms_[id];
        if (c.agg.has_value()) {
          // Aggregates run once, before round 0's plain rules: their
          // inputs are strictly below this stratum, so one evaluation is
          // complete, and the stratum's plain rules may read their output
          // in round 0.
          if (round > 0) continue;
          if (seeds != nullptr && !AnyCoverage(c.positive_preds, *seeds)) {
            continue;
          }
          ++stats->rule_evaluations;
          sink.SetContext(id, 0);
          std::vector<WitnessRow> witnesses;
          DMTL_RETURN_IF_ERROR(vm.Evaluate(
              *db, nullptr, -1,
              [&witnesses](const Tuple& tuple,
                           const IntervalSet& extent) -> Status {
                witnesses.emplace_back(tuple, extent);
                return Status::Ok();
              },
              guard));
          const PredicateId head = c.rule().head.predicate;
          DMTL_RETURN_IF_ERROR(c.agg->Evaluate(
              witnesses, [&sink, head](const Tuple& tuple,
                                       const IntervalSet& extent) -> Status {
                return sink.Emit(head, tuple, extent);
              }));
          continue;
        }
        RoundTask t;
        t.rule_id = id;
        if (round == 0 && seeds == nullptr) {
          t.initial = true;
        } else if (vm.has_chain()) {
          if (round == 0 && !AnyCoverage(c.positive_preds, *seeds)) {
            continue;
          }
          t.chain = true;
        } else {
          t.delta_occurrences = DeltaOccurrences(id, round_delta);
          if (t.delta_occurrences.empty()) continue;
        }
        tasks.push_back(std::move(t));
      }
      DMTL_RETURN_IF_ERROR(
          RunRound(tasks, *db, round_delta, window, round, &sink, stats,
                   guard));
      // Round-end check: a guard trip observed mid-round by a truncating
      // path (operator scans return partial unions) latches; catching it
      // here guarantees the round is discarded even if every Status path
      // happened to pass in between.
      return guard != nullptr ? guard->Check() : Status::Ok();
    });
    if (!round_status.ok()) return fail_round(std::move(round_status), round);
    if (seeds != nullptr) seeds->MergeFrom(next_delta);
    delta = std::move(next_delta);
    next_delta = Database();
    prov_mark = provenance != nullptr ? provenance->size() : 0;
  }
  stats->stratum_wall_seconds[s] +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    stratum_start)
          .count();
  return Status::Ok();
}

std::vector<int> FixpointDriver::DeltaOccurrences(
    size_t id, const Database& delta) const {
  std::vector<int> occurrences;
  std::vector<const RelationalAtom*> all_atoms;
  for (const BodyLiteral& lit : program_.rules()[id].rule().body) {
    if (lit.kind != BodyLiteral::Kind::kMetric || lit.negated) continue;
    lit.metric.CollectRelationalAtoms(&all_atoms);
  }
  for (size_t occ = 0; occ < all_atoms.size(); ++occ) {
    const Relation* changed = delta.Find(all_atoms[occ]->predicate);
    if (changed == nullptr || changed->IsEmpty()) continue;
    occurrences.push_back(static_cast<int>(occ));
  }
  return occurrences;
}

// Runs one round's tasks in order against the live store. Every emission
// goes through `sink` straight away, so a later task of the round already
// reads what an earlier one derived; the semi-naive positions stay those of
// the round-start `delta`.
Status FixpointDriver::RunRound(const std::vector<RoundTask>& tasks,
                                const Database& db, const Database& delta,
                                const Interval& window, size_t round,
                                Sink* sink, EngineStats* stats,
                                const ExecutionGuard* guard) {
  for (const RoundTask& t : tasks) {
    RuleVm& vm = vms_[t.rule_id];
    const PredicateId head = vm.rule().head.predicate;
    if (guard != nullptr) DMTL_RETURN_IF_ERROR(guard->Check());
    sink->SetContext(t.rule_id, round);
    stats->rule_evaluations +=
        t.initial || t.chain ? 1 : t.delta_occurrences.size();
    auto emit = [sink, head](const Tuple& tuple,
                             const IntervalSet& extent) -> Status {
      return sink->Emit(head, tuple, extent);
    };
    if (t.chain) {
      size_t extensions = 0;
      DMTL_RETURN_IF_ERROR(
          vm.ExtendChain(db, delta, window, emit, guard, &extensions));
      stats->chain_extensions += extensions;
    } else if (t.initial) {
      DMTL_RETURN_IF_ERROR(vm.Evaluate(db, nullptr, -1, emit, guard));
    } else {
      for (int occ : t.delta_occurrences) {
        DMTL_RETURN_IF_ERROR(vm.Evaluate(db, &delta, occ, emit, guard));
      }
    }
  }
  return Status::Ok();
}

void FinishRun(const Status& status, const Database& db,
               std::chrono::steady_clock::time_point start,
               EngineStats* stats) {
  stats->intervals_at_stop = db.NumIntervals();
  stats->wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (status.ok() || stats->stop_reason != StopReason::kCompleted) return;
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      stats->stop_reason = StopReason::kDeadline;
      break;
    case StatusCode::kCancelled:
      stats->stop_reason = StopReason::kCancelled;
      break;
    case StatusCode::kResourceExhausted:
      stats->stop_reason = StopReason::kMaxIntervals;
      break;
    default:
      stats->stop_reason = StopReason::kError;
      break;
  }
}

}  // namespace dmtl
