#include "src/eval/seminaive.h"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <variant>

#include "src/analysis/safety.h"
#include "src/analysis/stratifier.h"
#include "src/common/fault_injector.h"
#include "src/eval/aggregate_eval.h"
#include "src/eval/chain_accel.h"
#include "src/eval/incremental.h"
#include "src/eval/op_memo.h"
#include "src/eval/operators.h"
#include "src/eval/rule_eval.h"
#include "src/eval/vm.h"

namespace dmtl {

namespace {

// Sink emissions between guard checks. Covers every unbounded emission
// loop - notably chain-accelerator walks, which emit point-by-point through
// EmitOne - so a divergent rule observes a deadline within ~256 emissions.
constexpr uint64_t kSinkGuardStrideMask = 255;

// One compiled rule: either a plain evaluator (with an optional chain
// acceleration description) or an aggregate evaluator.
struct CompiledRule {
  std::variant<RuleEvaluator, AggregateEvaluator> eval;
  std::optional<ChainAccelerator::ChainInfo> chain;

  bool is_aggregate() const {
    return std::holds_alternative<AggregateEvaluator>(eval);
  }
  const Rule& rule() const {
    return is_aggregate() ? std::get<AggregateEvaluator>(eval).rule()
                          : std::get<RuleEvaluator>(eval).rule();
  }
};

// Inserts derived extents (clamped to the horizon window) and accumulates
// newly covered portions into the delta. The only path by which rule
// evaluation mutates the store.
class Sink {
 public:
  Sink(Database* db, Database* next_delta, const Interval& window,
       const EngineOptions& options, EngineStats* stats,
       const ExecutionGuard* guard)
      : db_(db),
        next_delta_(next_delta),
        window_(window),
        options_(options),
        stats_(stats),
        guard_(guard) {}

  // Bulk emission: one window clamp (the horizon is a single interval, so
  // the clip is the fast Intersect(Interval) overload), one coalescing
  // merge into the store, one delta recording - no per-interval
  // IntervalSet temporaries.
  Status Emit(PredicateId pred, const Tuple& tuple,
              const IntervalSet& extent) {
    IntervalSet clamped = extent.Intersect(window_);
    if (clamped.IsEmpty()) return Status::Ok();
    return Record(pred, tuple, db_->InsertSet(pred, tuple, clamped));
  }

  Result<bool> EmitOne(PredicateId pred, const Tuple& tuple,
                       const Interval& iv) {
    // Two intervals intersect to at most one interval: clip without any
    // IntervalSet temporary.
    auto part = iv.Intersect(window_);
    if (!part.has_value()) return false;
    IntervalSet fresh = db_->Insert(pred, tuple, *part);
    bool any_new = !fresh.IsEmpty();
    DMTL_RETURN_IF_ERROR(Record(pred, tuple, fresh));
    return any_new;
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
  // round delta) always covers exactly what reached the store.
  Status Record(PredicateId pred, const Tuple& tuple,
                const IntervalSet& fresh) {
    if (fresh.IsEmpty()) return Status::Ok();
    stats_->derived_intervals += fresh.size();
    try {
      next_delta_->InsertSet(pred, tuple, fresh);
    } catch (...) {
      // The paired store insert already happened; undo it so the round
      // delta stays an exact record of the store's round growth.
      db_->SubtractCoverage(pred, tuple, fresh);
      throw;
    }
    if (options_.provenance != nullptr) {
      for (const Interval& piece : fresh) {
        options_.provenance->push_back(
            {pred, tuple, piece, current_rule_, current_round_});
      }
    }
    if (guard_ != nullptr && (++emissions_ & kSinkGuardStrideMask) == 0) {
      DMTL_RETURN_IF_ERROR(guard_->Check());
    }
    if (db_->approx_intervals() > options_.max_intervals) {
      return Status::ResourceExhausted(
          "materialization exceeded max_intervals=" +
          std::to_string(options_.max_intervals));
    }
    return Status::Ok();
  }

  Database* db_;
  Database* next_delta_;
  Interval window_;
  const EngineOptions& options_;
  EngineStats* stats_;
  const ExecutionGuard* guard_;
  size_t current_rule_ = 0;
  size_t current_round_ = 0;
  uint64_t emissions_ = 0;
};

// Every evaluation of one rule within a round. Task lists are built from
// round-start state in rule-index order, so a round's emission order is
// fixed.
struct RoundTask {
  size_t rule_id = 0;
  bool initial = false;                // full (non-delta) evaluation
  bool chain = false;                  // use the chain accelerator
  std::vector<int> delta_occurrences;  // semi-naive positions to re-evaluate
};

Interval HorizonWindow(const EngineOptions& options) {
  Bound lo = options.min_time.has_value() ? Bound::Closed(*options.min_time)
                                          : Bound::Infinite();
  Bound hi = options.max_time.has_value() ? Bound::Closed(*options.max_time)
                                          : Bound::Infinite();
  auto window = Interval::Make(lo, hi);
  // Empty windows are a caller error caught at option validation below.
  return window.value_or(Interval::All());
}

// The semi-naive dispatch decision for one fixpoint round: which positive
// occurrences of `rule` must be re-evaluated against `delta`.
std::vector<int> DeltaOccurrences(const CompiledRule& c,
                                  const RuleEvaluator& eval,
                                  const std::set<PredicateId>& stratum_preds,
                                  const Database& delta) {
  std::vector<int> occurrences;
  std::vector<const RelationalAtom*> all_atoms;
  for (const BodyLiteral& lit : c.rule().body) {
    if (lit.kind != BodyLiteral::Kind::kMetric || lit.negated) continue;
    lit.metric.CollectRelationalAtoms(&all_atoms);
  }
  for (int occ = 0; occ < eval.num_positive_occurrences(); ++occ) {
    PredicateId pred = all_atoms[occ]->predicate;
    if (!stratum_preds.count(pred)) continue;
    const Relation* changed = delta.Find(pred);
    if (changed == nullptr || changed->IsEmpty()) continue;
    occurrences.push_back(occ);
  }
  return occurrences;
}

// Runs one round's tasks in order against the live store. Every emission
// goes through `sink` straight away, so a later task of the round already
// reads what an earlier one derived; the semi-naive positions stay those of
// the round-start `delta`.
Status RunRound(const std::vector<RoundTask>& tasks,
                const std::vector<CompiledRule>& compiled,
                const std::vector<std::unique_ptr<RuleVm>>& vms,
                const std::vector<std::unique_ptr<OperatorMemo>>& memos,
                const Database& db, const Database& delta,
                const Interval& window,
                std::unordered_map<size_t, ChainAccelerator::AllowedCache>*
                    chain_caches,
                size_t round, Sink* sink, EngineStats* stats,
                const ExecutionGuard* guard) {
  for (const RoundTask& t : tasks) {
    const CompiledRule& c = compiled[t.rule_id];
    const PredicateId head = c.rule().head.predicate;
    OperatorMemo* memo = memos.empty() ? nullptr : memos[t.rule_id].get();
    RuleVm* vm = vms.empty() ? nullptr : vms[t.rule_id].get();
    if (guard != nullptr) DMTL_RETURN_IF_ERROR(guard->Check());
    sink->SetContext(t.rule_id, round);
    stats->rule_evaluations +=
        t.initial || t.chain ? 1 : t.delta_occurrences.size();
    auto emit = [sink, head](const Tuple& tuple,
                             const IntervalSet& extent) -> Status {
      return sink->Emit(head, tuple, extent);
    };
    if (t.chain) {
      if (vm != nullptr && vm->has_chain()) {
        size_t extensions = 0;
        DMTL_RETURN_IF_ERROR(
            vm->ExtendChain(db, delta, window, emit, guard, &extensions));
        stats->chain_extensions += extensions;
        continue;
      }
      DMTL_RETURN_IF_ERROR(ChainAccelerator::Extend(
          c.rule(), *c.chain, db, delta, window, &(*chain_caches)[t.rule_id],
          [&](const Tuple& tuple, const Interval& iv) -> Result<bool> {
            ++stats->chain_extensions;
            return sink->EmitOne(head, tuple, iv);
          }));
      continue;
    }
    const auto& eval = std::get<RuleEvaluator>(c.eval);
    if (t.initial) {
      DMTL_RETURN_IF_ERROR(
          vm != nullptr ? vm->Evaluate(db, nullptr, -1, emit, memo, guard)
                        : eval.Evaluate(db, nullptr, -1, emit, memo, guard));
      continue;
    }
    for (int occ : t.delta_occurrences) {
      DMTL_RETURN_IF_ERROR(
          vm != nullptr ? vm->Evaluate(db, &delta, occ, emit, memo, guard)
                        : eval.Evaluate(db, &delta, occ, emit, memo, guard));
    }
  }
  return Status::Ok();
}

}  // namespace

std::string DerivationRecord::ToString(const Program& program) const {
  std::string out = PredicateName(predicate) + TupleToString(tuple) + "@" +
                    piece.ToString() + " by rule #" +
                    std::to_string(rule_index);
  if (rule_index < program.rules().size()) {
    out += " [" + program.rules()[rule_index].ToString() + "]";
  }
  out += " (round " + std::to_string(round) + ")";
  return out;
}

EngineOptions EngineOptions::WithEnvOverrides() const {
  EngineOptions out = *this;
  if (std::getenv("DMTL_DISABLE_RULE_COMPILE") != nullptr) {
    out.enable_rule_compile = false;
  }
  if (std::getenv("DMTL_DISABLE_STREAMING") != nullptr) {
    out.enable_streaming = false;
  }
  return out;
}

EngineOptions EngineOptions::FromEnv() {
  return EngineOptions().WithEnvOverrides();
}

const char* StopReasonToString(StopReason reason) {
  switch (reason) {
    case StopReason::kCompleted:
      return "completed";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kCancelled:
      return "cancelled";
    case StopReason::kMaxIntervals:
      return "max_intervals";
    case StopReason::kMaxRounds:
      return "max_rounds";
    case StopReason::kError:
      return "error";
  }
  return "unknown";
}

std::string EngineStats::StopDiagnostics() const {
  std::string out = std::string("stop_reason=") +
                    StopReasonToString(stop_reason) +
                    " stratum=" + std::to_string(stopped_stratum) +
                    " round=" + std::to_string(stopped_round) +
                    " intervals=" + std::to_string(intervals_at_stop);
  if (rolled_back_intervals > 0) {
    out += " rolled_back=" + std::to_string(rolled_back_intervals);
  }
  out += " wall_seconds=" + std::to_string(wall_seconds);
  return out;
}

std::string EngineStats::ToString() const {
  std::string out = "strata=" + std::to_string(num_strata) +
                    " rounds=" + std::to_string(rounds) +
                    " rule_evals=" + std::to_string(rule_evaluations) +
                    " derived_intervals=" + std::to_string(derived_intervals) +
                    " chain_extensions=" + std::to_string(chain_extensions) +
                    " wall_seconds=" + std::to_string(wall_seconds);
  if (compiled_rules + vm_dispatches + vm_fallbacks > 0) {
    out += " compiled_rules=" + std::to_string(compiled_rules) +
           " vm_dispatches=" + std::to_string(vm_dispatches) +
           " vm_recompiles=" + std::to_string(vm_recompiles) +
           " vm_fallbacks=" + std::to_string(vm_fallbacks);
  }
  if (memo_hits + memo_misses + memo_refreshes + memo_invalidations > 0) {
    out += " memo_hits=" + std::to_string(memo_hits) +
           " memo_misses=" + std::to_string(memo_misses) +
           " memo_refreshes=" + std::to_string(memo_refreshes) +
           " memo_invalidations=" + std::to_string(memo_invalidations);
  }
  if (memo_intersections > 0) {
    out += " memo_intersections=" + std::to_string(memo_intersections) +
           " memo_intersect_components=" +
           std::to_string(memo_intersect_components);
  }
  out += " delta_intervals=" + std::to_string(delta_intervals) +
         " bulk_merges=" + std::to_string(bulk_merges);
  if (planner_indexes_built + planner_index_probes + planner_pruned_tuples >
      0) {
    out += " planner_indexes=" + std::to_string(planner_indexes_built) +
           " planner_probes=" + std::to_string(planner_index_probes) +
           " planner_probe_hits=" + std::to_string(planner_probe_hits) +
           " planner_pruned=" + std::to_string(planner_pruned_tuples);
  }
  if (guard_checks > 0) {
    out += " guard_checks=" + std::to_string(guard_checks);
  }
  if (stop_reason != StopReason::kCompleted) {
    out += " " + StopDiagnostics();
  }
  return out;
}

namespace {

// The chase proper. The Materialize wrapper owns the guard and finalizes
// the stop diagnostics on every exit path.
Status MaterializeImpl(const Program& program, Database* db,
                       const EngineOptions& options, EngineStats* stats,
                       const ExecutionGuard* guard) {
  if (options.min_time.has_value() && options.max_time.has_value() &&
      *options.max_time < *options.min_time) {
    return Status::InvalidArgument("max_time precedes min_time");
  }

  DMTL_RETURN_IF_ERROR(program.CheckArities());
  DMTL_RETURN_IF_ERROR(CheckSafety(program));
  DMTL_ASSIGN_OR_RETURN(Stratification strat, Stratify(program));
  stats->num_strata = strat.num_strata;

  // Compile rules.
  std::vector<CompiledRule> compiled;
  compiled.reserve(program.rules().size());
  for (const Rule& rule : program.rules()) {
    if (rule.head.aggregate.has_value()) {
      DMTL_ASSIGN_OR_RETURN(
          AggregateEvaluator agg,
          AggregateEvaluator::Create(rule, options.enable_join_planning));
      compiled.push_back(CompiledRule{
          std::variant<RuleEvaluator, AggregateEvaluator>(std::move(agg)),
          std::nullopt});
    } else {
      DMTL_ASSIGN_OR_RETURN(
          RuleEvaluator eval,
          RuleEvaluator::Create(rule, options.enable_join_planning));
      std::optional<ChainAccelerator::ChainInfo> chain;
      if (options.enable_chain_acceleration) {
        chain = ChainAccelerator::Detect(rule, strat.predicate_stratum);
      }
      compiled.push_back(CompiledRule{
          std::variant<RuleEvaluator, AggregateEvaluator>(std::move(eval)),
          std::move(chain)});
    }
  }

  // Lower each rule's plan to a flat bytecode program run by the dispatch
  // loop. Declined rules (aggregate heads handled by AggregateEvaluator are
  // not counted; see RuleCompiler::Declines for the rest) keep the AST
  // walker - both executors emit identical derivations, so they can be
  // mixed freely within one run. DMTL_DISABLE_RULE_COMPILE in the
  // environment forces the interpreter everywhere (folded into the options
  // by Materialize's WithEnvOverrides resolution) - the hook CI's
  // compile-off lane uses to re-run the whole suite against the walker
  // without touching call sites.
  std::vector<std::unique_ptr<RuleVm>> vms;
  const bool compile_rules = options.enable_rule_compile;
  if (compile_rules) {
    vms.resize(compiled.size());
    for (size_t i = 0; i < compiled.size(); ++i) {
      if (compiled[i].is_aggregate()) continue;
      std::string why;
      vms[i] = RuleVm::Create(std::get<RuleEvaluator>(compiled[i].eval),
                              compiled[i].chain, &why);
      if (vms[i] != nullptr) {
        ++stats->compiled_rules;
      } else {
        ++stats->vm_fallbacks;
      }
    }
  }

  Interval window = HorizonWindow(options);

  // Interval-delta propagation: one operator memo per rule. The memo hook
  // sits in the join planner's unary-chain fast path, so it is only
  // effective with planning.
  std::vector<std::unique_ptr<OperatorMemo>> memos;
  if (options.enable_interval_deltas && options.enable_join_planning) {
    memos.resize(compiled.size());
    for (size_t i = 0; i < compiled.size(); ++i) {
      memos[i] = std::make_unique<OperatorMemo>();
    }
  }
  uint64_t bulk_merges_at_start = IntervalSet::BulkMergeCount();

  stats->stratum_wall_seconds.assign(strat.num_strata, 0.0);
  for (int s = 0; s < strat.num_strata; ++s) {
    auto stratum_start = std::chrono::steady_clock::now();
    const std::vector<size_t>& rule_ids = strat.rule_strata[s];
    if (rule_ids.empty()) continue;

    // Head predicates of this stratum: the only relations that change while
    // the stratum runs, hence the only delta positions worth re-evaluating.
    std::set<PredicateId> stratum_preds;
    for (size_t id : rule_ids) {
      stratum_preds.insert(compiled[id].rule().head.predicate);
    }

    Database delta;
    Database next_delta;
    Sink sink(db, &next_delta, window, options, stats, guard);
    // Guard-allowed caches for chain rules live for the whole stratum.
    std::unordered_map<size_t, ChainAccelerator::AllowedCache> chain_caches;
    auto emit_for = [&](PredicateId pred) {
      return [&sink, pred](const Tuple& tuple,
                           const IntervalSet& extent) -> Status {
        return sink.Emit(pred, tuple, extent);
      };
    };

    // Round-barrier memo maintenance: for every grounding that grew this
    // round, refresh (or invalidate) each rule's memoized operator-path
    // outputs with just the newly covered intervals. Runs after the round's
    // merges and before the delta swap, so memo values always equal the
    // operator applied to the round-start snapshot of each leaf.
    auto refresh_memos = [&](const Database& fresh_round) {
      if (memos.empty()) return;
      for (const auto& [pred, rel] : fresh_round.relations()) {
        const Relation* live = db->Find(pred);
        if (live == nullptr) continue;
        for (const auto& [tuple, fresh] : rel.data()) {
          const IntervalSet* leaf = live->Find(tuple);
          if (leaf == nullptr) continue;
          for (size_t id : rule_ids) {
            if (memos[id] != nullptr) memos[id]->OnLeafChanged(leaf, fresh);
          }
        }
      }
    };

    // Failure handling: every round runs inside run_protected (exceptions
    // become a clean kInternal - Materialize never throws), and any round
    // failure goes through fail_round, which subtracts the round's delta
    // from the store. next_delta holds exactly the coverage inserted since
    // the last barrier, and freshly covered portions are disjoint from
    // everything stored before, so the subtraction restores the barrier
    // state precisely - whether the round died mid-rule or mid-chain-walk.
    size_t prov_mark =
        options.provenance != nullptr ? options.provenance->size() : 0;
    auto run_protected = [](auto&& fn) -> Status {
      try {
        return fn();
      } catch (const std::exception& e) {
        return Status::Internal(
            std::string("evaluation aborted by exception: ") + e.what());
      } catch (...) {
        return Status::Internal(
            "evaluation aborted by non-standard exception");
      }
    };
    auto fail_round = [&](Status status, size_t round) -> Status {
      stats->rolled_back_intervals += next_delta.NumIntervals();
      db->SubtractCoverage(next_delta);
      if (options.provenance != nullptr &&
          options.provenance->size() > prov_mark) {
        options.provenance->resize(prov_mark);
      }
      stats->stopped_stratum = s;
      stats->stopped_round = round;
      return status;
    };

    // Round 0: aggregate rules, then the initial full round for plain
    // rules. Aggregates run first - their inputs are strictly below this
    // stratum, so one evaluation is complete, and the stratum's plain rules
    // may read their output in the initial round.
    Status round_status = run_protected([&]() -> Status {
      if (guard != nullptr) DMTL_RETURN_IF_ERROR(guard->Check());
      DMTL_RETURN_IF_ERROR(FaultInjector::Fire("seminaive.round"));
      std::vector<RoundTask> tasks;
      for (size_t id : rule_ids) {
        if (!compiled[id].is_aggregate()) {
          RoundTask t;
          t.rule_id = id;
          t.initial = true;
          tasks.push_back(std::move(t));
          continue;
        }
        ++stats->rule_evaluations;
        sink.SetContext(id, 0);
        const auto& agg = std::get<AggregateEvaluator>(compiled[id].eval);
        DMTL_RETURN_IF_ERROR(
            agg.Evaluate(*db, emit_for(compiled[id].rule().head.predicate),
                         memos.empty() ? nullptr : memos[id].get()));
      }
      DMTL_RETURN_IF_ERROR(RunRound(tasks, compiled, vms, memos, *db, delta,
                                    window, &chain_caches, 0, &sink, stats,
                                    guard));
      // Round-end check: a guard trip observed mid-round by a truncating
      // path (operator scans return partial unions) latches; catching it
      // here guarantees the round is discarded even if every Status path
      // happened to pass in between.
      return guard != nullptr ? guard->Check() : Status::Ok();
    });
    if (!round_status.ok()) return fail_round(std::move(round_status), 0);
    refresh_memos(next_delta);
    delta = std::move(next_delta);
    next_delta = Database();
    prov_mark = options.provenance != nullptr ? options.provenance->size() : 0;

    // Fixpoint rounds.
    size_t rounds = 0;
    size_t delta_size = delta.NumIntervals();
    while (delta_size > 0) {
      if (++rounds > options.max_rounds) {
        stats->stop_reason = StopReason::kMaxRounds;
        return fail_round(
            Status::ResourceExhausted("stratum " + std::to_string(s) +
                                      " exceeded max_rounds=" +
                                      std::to_string(options.max_rounds)),
            rounds);
      }
      ++stats->rounds;
      stats->delta_intervals += delta_size;

      round_status = run_protected([&]() -> Status {
        if (guard != nullptr) DMTL_RETURN_IF_ERROR(guard->Check());
        DMTL_RETURN_IF_ERROR(FaultInjector::Fire("seminaive.round"));
        std::vector<RoundTask> tasks;
        for (size_t id : rule_ids) {
          const CompiledRule& c = compiled[id];
          if (c.is_aggregate()) continue;
          RoundTask t;
          t.rule_id = id;
          if (c.chain.has_value()) {
            t.chain = true;
          } else if (options.naive_evaluation) {
            t.initial = true;
          } else {
            // Semi-naive: one pass per positive occurrence of a predicate
            // that changed last round.
            t.delta_occurrences = DeltaOccurrences(
                c, std::get<RuleEvaluator>(c.eval), stratum_preds, delta);
            if (t.delta_occurrences.empty()) continue;
          }
          tasks.push_back(std::move(t));
        }
        DMTL_RETURN_IF_ERROR(RunRound(tasks, compiled, vms, memos, *db, delta,
                                      window, &chain_caches, rounds, &sink,
                                      stats, guard));
        return guard != nullptr ? guard->Check() : Status::Ok();
      });
      if (!round_status.ok()) {
        return fail_round(std::move(round_status), rounds);
      }
      refresh_memos(next_delta);
      delta = std::move(next_delta);
      next_delta = Database();
      delta_size = delta.NumIntervals();
      prov_mark =
          options.provenance != nullptr ? options.provenance->size() : 0;
    }
    stats->stratum_wall_seconds[s] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      stratum_start)
            .count();
  }

  // Fold each rule's planner counters into the run stats.
  for (const CompiledRule& c : compiled) {
    const PlannerStats* ps =
        c.is_aggregate() ? std::get<AggregateEvaluator>(c.eval).planner_stats()
                         : std::get<RuleEvaluator>(c.eval).planner_stats();
    if (ps == nullptr) continue;
    stats->planner_indexes_built +=
        ps->indexes_built.load(std::memory_order_relaxed);
    stats->planner_index_probes +=
        ps->index_probes.load(std::memory_order_relaxed);
    stats->planner_probe_hits +=
        ps->index_probe_hits.load(std::memory_order_relaxed);
    stats->planner_pruned_tuples +=
        ps->envelope_pruned.load(std::memory_order_relaxed);
    stats->memo_intersections +=
        ps->memo_intersections.load(std::memory_order_relaxed);
    stats->memo_intersect_components +=
        ps->memo_intersect_components.load(std::memory_order_relaxed);
    stats->rule_plan_cost.push_back(
        ps->last_plan_cost.load(std::memory_order_relaxed));
  }

  for (const std::unique_ptr<RuleVm>& vm : vms) {
    if (vm == nullptr) continue;
    stats->vm_dispatches += vm->dispatches();
    stats->vm_recompiles += vm->compiles();
  }

  for (const std::unique_ptr<OperatorMemo>& memo : memos) {
    if (memo == nullptr) continue;
    stats->memo_hits += memo->stats().hits;
    stats->memo_misses += memo->stats().misses;
    stats->memo_refreshes += memo->stats().refreshes;
    stats->memo_invalidations += memo->stats().invalidations;
  }
  stats->bulk_merges = IntervalSet::BulkMergeCount() - bulk_merges_at_start;

  return Status::Ok();
}

}  // namespace

Status Materialize(const Program& program, Database* db,
                   const EngineOptions& options_in, EngineStats* stats) {
  auto start_time = std::chrono::steady_clock::now();
  EngineStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = EngineStats();

  // The DMTL_DISABLE_* lanes are resolved exactly here (and at session
  // creation for the incremental engine); everything downstream reads the
  // option fields only.
  const EngineOptions options = options_in.WithEnvOverrides();

  // The guard lives here (not in the impl) so every exit path - including
  // validation errors before evaluation starts - finalizes diagnostics the
  // same way.
  ExecutionGuard guard(options.deadline, options.cancel_token);
  const ExecutionGuard* gptr = guard.enabled() ? &guard : nullptr;

  Status status = MaterializeImpl(program, db, options, stats, gptr);

  stats->guard_checks = guard.checks();
  stats->intervals_at_stop = db->NumIntervals();
  stats->wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  if (!status.ok() && stats->stop_reason == StopReason::kCompleted) {
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
  return status;
}

// ===========================================================================
// IncrementalMaterializer: the streaming engine. Shares the file-local
// machinery above (Sink, RoundTask, RunRound) and keeps everything a batch
// run rebuilds per call - compiled rules, VMs, operator memos - alive across
// watermark advances.
// ===========================================================================

namespace {

// Contents-driven variant of DeltaOccurrences: re-evaluate every positive
// occurrence whose predicate has coverage in `delta`, regardless of
// stratum. The batch engine filters by stratum head predicates because only
// those can change mid-stratum; a streaming seed delta also carries input
// facts and lower-strata fresh coverage, which must trigger re-evaluation
// too.
std::vector<int> DeltaOccurrencesAny(const CompiledRule& c,
                                     const RuleEvaluator& eval,
                                     const Database& delta) {
  std::vector<int> occurrences;
  std::vector<const RelationalAtom*> all_atoms;
  for (const BodyLiteral& lit : c.rule().body) {
    if (lit.kind != BodyLiteral::Kind::kMetric || lit.negated) continue;
    lit.metric.CollectRelationalAtoms(&all_atoms);
  }
  for (int occ = 0; occ < eval.num_positive_occurrences(); ++occ) {
    const Relation* changed = delta.Find(all_atoms[occ]->predicate);
    if (changed == nullptr || changed->IsEmpty()) continue;
    occurrences.push_back(occ);
  }
  return occurrences;
}

}  // namespace

class IncrementalMaterializer::Impl {
 public:
  Impl(const Program& program, Database* db, const EngineOptions& options)
      : program_(program),
        db_(db),
        options_(options),
        cur_min_(options.min_time.value_or(Rational(0))),
        watermark_(cur_min_) {}

  Status Init() {
    // Env lanes resolve once per session, mirroring Materialize: the
    // DMTL_DISABLE_* variables are process-stable in every CI lane, so
    // latching at creation is equivalent to per-operation resolution.
    options_ = options_.WithEnvOverrides();
    if (!options_.min_time.has_value()) {
      return Status::InvalidArgument(
          "streaming requires min_time (the initial window start)");
    }
    if (options_.max_time.has_value()) {
      return Status::InvalidArgument(
          "max_time is managed by the watermark; leave it unset");
    }
    if (options_.naive_evaluation) {
      return Status::InvalidArgument(
          "naive evaluation re-derives everything and cannot run "
          "incrementally");
    }
    DMTL_RETURN_IF_ERROR(program_.CheckArities());
    DMTL_RETURN_IF_ERROR(CheckSafety(program_));
    DMTL_ASSIGN_OR_RETURN(strat_, Stratify(program_));

    const auto& rules = program_.rules();
    positive_preds_.resize(rules.size());
    for (size_t i = 0; i < rules.size(); ++i) {
      const Rule& rule = rules[i];
      if (!rule.head.ops.empty()) {
        return Status::InvalidArgument(
            "rule " + std::to_string(i) +
            ": head operators are not streaming-eligible (they derive "
            "outside the body match, breaking watermark finality)");
      }
      for (const BodyLiteral& lit : rule.body) {
        if (lit.kind != BodyLiteral::Kind::kMetric) continue;
        DMTL_RETURN_IF_ERROR(
            WalkMetric(lit.metric, Rational(0), false, !lit.negated, i));
      }
      if (positive_preds_[i].empty()) {
        return Status::InvalidArgument(
            "rule " + std::to_string(i) +
            ": no positive relational atom; its derivations could never be "
            "reached by a streaming delta");
      }
    }

    stratum_body_preds_.assign(strat_.num_strata, {});
    for (int s = 0; s < strat_.num_strata; ++s) {
      for (size_t id : strat_.rule_strata[s]) {
        stratum_body_preds_[s].insert(positive_preds_[id].begin(),
                                      positive_preds_[id].end());
      }
    }

    compiled_.reserve(rules.size());
    for (const Rule& rule : rules) {
      if (rule.head.aggregate.has_value()) {
        DMTL_ASSIGN_OR_RETURN(
            AggregateEvaluator agg,
            AggregateEvaluator::Create(rule, options_.enable_join_planning));
        compiled_.push_back(CompiledRule{
            std::variant<RuleEvaluator, AggregateEvaluator>(std::move(agg)),
            std::nullopt});
      } else {
        DMTL_ASSIGN_OR_RETURN(
            RuleEvaluator eval,
            RuleEvaluator::Create(rule, options_.enable_join_planning));
        std::optional<ChainAccelerator::ChainInfo> chain;
        if (options_.enable_chain_acceleration) {
          chain = ChainAccelerator::Detect(rule, strat_.predicate_stratum);
        }
        compiled_.push_back(CompiledRule{
            std::variant<RuleEvaluator, AggregateEvaluator>(std::move(eval)),
            std::move(chain)});
      }
    }

    const bool compile_rules = options_.enable_rule_compile;
    if (compile_rules) {
      vms_.resize(compiled_.size());
      for (size_t i = 0; i < compiled_.size(); ++i) {
        if (compiled_[i].is_aggregate()) continue;
        std::string why;
        vms_[i] = RuleVm::Create(std::get<RuleEvaluator>(compiled_[i].eval),
                                 compiled_[i].chain, &why);
        if (vms_[i] != nullptr) ++compiled_rule_count_;
        else ++vm_fallback_count_;
      }
    }
    if (options_.enable_interval_deltas && options_.enable_join_planning) {
      memos_.resize(compiled_.size());
      for (size_t i = 0; i < compiled_.size(); ++i) {
        memos_[i] = std::make_unique<OperatorMemo>();
      }
    }

    provenance_ = options_.provenance;
    return Status::Ok();
  }

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
    const CounterBaseline base = SnapshotCounters();
    stats->num_strata = strat_.num_strata;

    // Memo entries may cache operator outputs over leaves the pushed inputs
    // just grew; refresh them with exactly the fresh portions (re-refreshing
    // a portion kept pending from an earlier advance is a union no-op).
    RefreshMemosWith(pending_fresh_);
    // Chain guard-allowed sets are only stable within one run: guard
    // predicates grow across advances.
    for (auto& vm : vms_) {
      if (vm != nullptr) vm->ClearChainCache();
    }

    // Seed delta: the boundary band of stored coverage plus the pending
    // input fresh portions. Any derivation landing in (W, t] has every
    // positive support atom above t - R > W - R, so each one is either old
    // (in the band) or new (pending / derived this advance) - which makes
    // occurrence-restricted evaluation against this seed complete.
    Database carry;
    if (watermark_ < t) {
      std::optional<Interval> band;
      if (reach_inf_) {
        band = Interval::AtMost(watermark_);
      } else if (Rational(0) < reach_) {
        band = Interval::Make(Bound::Open(watermark_ - reach_),
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
              const Bound& hi =
                  (row.extent->begin() + (row.extent->size() - 1))->hi();
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
    Status status = RunStrata(window, &carry, stats, gptr);
    FinalizeOpStats(start_time, guard, status, base, stats);
    if (!status.ok()) return status;

    // Snapshot the next advance's band from this advance's carry. Every
    // stored piece that can intersect (t - R, t] was either seeded into
    // `carry` (it intersected the old band, whose lower bound is no higher),
    // pushed (pending), or derived this run (the barrier merges fresh
    // coverage back into the carry) - so the snapshot replaces the
    // full-store scan above on the next advance. Unbounded reach keeps the
    // scan: its band has no finite lower edge to snapshot against.
    if (!reach_inf_ && Rational(0) < reach_) {
      std::optional<Interval> next_band =
          Interval::Make(Bound::Open(t - reach_), Bound::Closed(t));
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
  bool reach_unbounded() const { return reach_inf_; }
  const Rational& forward_reach() const { return reach_; }

 private:
  // Session-cumulative counter totals across the persistent evaluators;
  // per-operation stats are deltas against a baseline taken at entry.
  struct CounterBaseline {
    uint64_t idx_built = 0, probes = 0, probe_hits = 0, pruned = 0;
    uint64_t memo_isect = 0, memo_isect_comps = 0;
    uint64_t vm_disp = 0, vm_comp = 0;
    size_t m_hits = 0, m_miss = 0, m_ref = 0, m_inv = 0;
    uint64_t bulk = 0;
  };

  // Walks one body literal's operator path, summing the upper range bounds
  // down to each relational atom: the atom's reach, i.e. how far into the
  // past a head at t reads it.
  Status WalkMetric(const MetricAtom& m, Rational hi, bool hi_inf,
                    bool positive, size_t rule_index) {
    switch (m.kind()) {
      case MetricAtom::Kind::kRelational: {
        // Memo refresh fans fresh leaves out to rule memos. Only a rule
        // whose body references the leaf's predicate can hold an entry for
        // it, so the refresh walks this index instead of probing every
        // rule's memo for every fresh tuple (the all-memos sweep was ~20%
        // of a steady advance at paper scale). Rules are walked in order,
        // so each list stays sorted and duplicate-free.
        auto& ids = refresh_rules_by_pred_[m.atom().predicate];
        if (ids.empty() || ids.back() != rule_index) ids.push_back(rule_index);
        if (hi_inf) cutoff_inf_ = true;
        else if (cutoff_reach_ < hi) cutoff_reach_ = hi;
        if (positive) {
          positive_preds_[rule_index].insert(m.atom().predicate);
          if (hi_inf) reach_inf_ = true;
          else if (reach_ < hi) reach_ = hi;
        }
        return Status::Ok();
      }
      case MetricAtom::Kind::kTruth:
      case MetricAtom::Kind::kFalsity:
        return Status::Ok();
      case MetricAtom::Kind::kUnary: {
        if (m.op() == MtlOp::kDiamondPlus || m.op() == MtlOp::kBoxPlus) {
          return Status::InvalidArgument(
              "rule " + std::to_string(rule_index) +
              ": future operators are not streaming-eligible (coverage "
              "below the watermark would not be final)");
        }
        const Interval& r = m.range();
        if (r.lo().infinite || r.lo().value < Rational(0)) {
          return Status::InvalidArgument(
              "rule " + std::to_string(rule_index) +
              ": operator range reaches into the future");
        }
        const bool ninf = hi_inf || r.hi().infinite;
        const Rational nhi = ninf ? hi : hi + r.hi().value;
        return WalkMetric(m.left(), nhi, ninf, positive, rule_index);
      }
      case MetricAtom::Kind::kBinary:
        return Status::InvalidArgument(
            "rule " + std::to_string(rule_index) +
            ": since/until are not streaming-eligible");
    }
    return Status::Internal("unknown metric atom kind");
  }

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
      EngineOptions o = options_;
      o.min_time = cur_min_;
      o.max_time = watermark_;
      o.provenance = provenance_;
      EngineStats heal_stats;
      DMTL_RETURN_IF_ERROR(dmtl::Materialize(
          program_, db_, o, stats != nullptr ? stats : &heal_stats));
    }
    needs_rebuild_ = false;
    return Status::Ok();
  }

  // Memo entries key on live leaf addresses, VM compiled state holds index
  // pointers, and the band snapshot copies stored coverage: a store edit
  // made outside a carry (heal, slide) leaves all three suspect, so the
  // next advance starts from a full-store scan.
  void InvalidateCaches() {
    for (auto& memo : memos_) {
      if (memo != nullptr) memo->Clear();
    }
    for (auto& vm : vms_) {
      if (vm != nullptr) {
        vm->InvalidateCompiledState();
        vm->ClearChainCache();
      }
    }
    band_cache_ = Database();
    band_cache_valid_ = false;
  }

  // The store half of Retract, after the log clamp. The convergence
  // cut-off: in a past-directed program every atom at time t > y reads
  // only atoms in [t - C, t] plus the inputs, where C (cutoff_reach_) is
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
    const Rational y = cur_min_ + cutoff_reach_ + cutoff_reach_;
    if (!advanced_any_ || cutoff_inf_ || !(y < watermark_)) {
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
    EngineOptions o = options_;
    o.min_time = cur_min_;
    o.max_time = y;
    o.provenance = provenance_ != nullptr ? &scratch_provenance : nullptr;
    Status status = dmtl::Materialize(program_, &scratch, o, stats);
    if (!status.ok()) {
      needs_rebuild_ = true;
      return status;
    }
    if (!AgreesOn(scratch, Interval::Closed(y - cutoff_reach_, y))) {
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

  void RefreshMemosWith(const Database& fresh) {
    if (memos_.empty()) return;
    for (const auto& [pred, rel] : fresh.relations()) {
      auto rules_it = refresh_rules_by_pred_.find(pred);
      if (rules_it == refresh_rules_by_pred_.end()) continue;
      const Relation* live = db_->Find(pred);
      if (live == nullptr) continue;
      for (const auto& [tuple, grown] : rel.data()) {
        const IntervalSet* leaf = live->Find(tuple);
        if (leaf == nullptr) continue;
        for (size_t id : rules_it->second) {
          if (memos_[id] != nullptr) memos_[id]->OnLeafChanged(leaf, grown);
        }
      }
    }
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

  CounterBaseline SnapshotCounters() const {
    CounterBaseline b;
    for (const CompiledRule& c : compiled_) {
      const PlannerStats* ps =
          c.is_aggregate()
              ? std::get<AggregateEvaluator>(c.eval).planner_stats()
              : std::get<RuleEvaluator>(c.eval).planner_stats();
      if (ps == nullptr) continue;
      b.idx_built += ps->indexes_built.load(std::memory_order_relaxed);
      b.probes += ps->index_probes.load(std::memory_order_relaxed);
      b.probe_hits += ps->index_probe_hits.load(std::memory_order_relaxed);
      b.pruned += ps->envelope_pruned.load(std::memory_order_relaxed);
      b.memo_isect += ps->memo_intersections.load(std::memory_order_relaxed);
      b.memo_isect_comps +=
          ps->memo_intersect_components.load(std::memory_order_relaxed);
    }
    for (const auto& vm : vms_) {
      if (vm == nullptr) continue;
      b.vm_disp += vm->dispatches();
      b.vm_comp += vm->compiles();
    }
    for (const auto& memo : memos_) {
      if (memo == nullptr) continue;
      b.m_hits += memo->stats().hits;
      b.m_miss += memo->stats().misses;
      b.m_ref += memo->stats().refreshes;
      b.m_inv += memo->stats().invalidations;
    }
    b.bulk = IntervalSet::BulkMergeCount();
    return b;
  }

  void FinalizeOpStats(std::chrono::steady_clock::time_point start_time,
                       const ExecutionGuard& guard, const Status& status,
                       const CounterBaseline& base, EngineStats* stats) {
    const CounterBaseline now = SnapshotCounters();
    stats->planner_indexes_built += now.idx_built - base.idx_built;
    stats->planner_index_probes += now.probes - base.probes;
    stats->planner_probe_hits += now.probe_hits - base.probe_hits;
    stats->planner_pruned_tuples += now.pruned - base.pruned;
    stats->memo_intersections += now.memo_isect - base.memo_isect;
    stats->memo_intersect_components +=
        now.memo_isect_comps - base.memo_isect_comps;
    stats->vm_dispatches += now.vm_disp - base.vm_disp;
    stats->vm_recompiles += now.vm_comp - base.vm_comp;
    stats->memo_hits += now.m_hits - base.m_hits;
    stats->memo_misses += now.m_miss - base.m_miss;
    stats->memo_refreshes += now.m_ref - base.m_ref;
    stats->memo_invalidations += now.m_inv - base.m_inv;
    stats->bulk_merges += now.bulk - base.bulk;
    stats->compiled_rules = compiled_rule_count_;
    stats->vm_fallbacks = vm_fallback_count_;
    stats->guard_checks = guard.checks();
    stats->intervals_at_stop = db_->NumIntervals();
    stats->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_time)
            .count();
    if (!status.ok() && stats->stop_reason == StopReason::kCompleted) {
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
  }

  // The streaming chase over all strata. `carry` is the seed delta (band +
  // fresh inputs) and accumulates every stratum's fresh coverage so later
  // strata see it.
  Status RunStrata(const Interval& window, Database* carry,
                   EngineStats* stats, const ExecutionGuard* guard) {
    // Sink holds a reference to its options; op_options_ outlives it.
    op_options_ = options_;
    op_options_.min_time = window.lo().infinite
                               ? std::optional<Rational>()
                               : std::optional<Rational>(window.lo().value);
    op_options_.max_time = window.hi().infinite
                               ? std::optional<Rational>()
                               : std::optional<Rational>(window.hi().value);

    stats->stratum_wall_seconds.assign(strat_.num_strata, 0.0);
    for (int s = 0; s < strat_.num_strata; ++s) {
      auto stratum_start = std::chrono::steady_clock::now();
      const std::vector<size_t>& rule_ids = strat_.rule_strata[s];
      if (rule_ids.empty()) continue;

      // Fast skip: a stratum can only derive something when some positive
      // body predicate carries seed coverage. This is what keeps
      // steady-state event latency flat: most strata never wake up for a
      // quiet tick.
      bool any_work = false;
      for (PredicateId p : stratum_body_preds_[s]) {
        const Relation* rel = carry->Find(p);
        if (rel != nullptr && !rel->IsEmpty()) {
          any_work = true;
          break;
        }
      }
      if (!any_work) continue;

      Database delta;
      Database next_delta;
      Sink sink(db_, &next_delta, window, op_options_, stats, guard);
      std::unordered_map<size_t, ChainAccelerator::AllowedCache> chain_caches;
      auto emit_for = [&](PredicateId pred) {
        return [&sink, pred](const Tuple& tuple,
                             const IntervalSet& extent) -> Status {
          return sink.Emit(pred, tuple, extent);
        };
      };
      auto refresh_all_memos = [&](const Database& fresh_round) {
        // Unlike the batch engine (which refreshes only the running
        // stratum's rules), every rule's memo gets the fresh coverage: a
        // higher-stratum rule may hold an entry for a leaf this stratum
        // just grew, and it will read that entry in a *later advance*.
        RefreshMemosWith(fresh_round);
      };

      size_t prov_mark =
          provenance_ != nullptr ? provenance_->size() : 0;
      auto run_protected = [](auto&& fn) -> Status {
        try {
          return fn();
        } catch (const std::exception& e) {
          return Status::Internal(
              std::string("evaluation aborted by exception: ") + e.what());
        } catch (...) {
          return Status::Internal(
              "evaluation aborted by non-standard exception");
        }
      };
      auto fail_round = [&](Status status, size_t round) -> Status {
        stats->rolled_back_intervals += next_delta.NumIntervals();
        db_->SubtractCoverage(next_delta);
        if (provenance_ != nullptr && provenance_->size() > prov_mark) {
          provenance_->resize(prov_mark);
        }
        stats->stopped_stratum = s;
        stats->stopped_round = round;
        // The store sits at a sound round barrier, but no longer matches a
        // cold run at the watermark, and the rollback may have dangled
        // cached addresses; the next operation rebuilds from the log.
        needs_rebuild_ = true;
        return status;
      };

      // Round 0': aggregates first (exactly like batch round 0), then the
      // seed round for plain rules - carry-driven
      // occurrence/chain evaluation.
      std::vector<RoundTask> seed_tasks;
      for (size_t id : rule_ids) {
        if (compiled_[id].is_aggregate()) continue;
        const CompiledRule& c = compiled_[id];
        RoundTask t;
        t.rule_id = id;
        if (c.chain.has_value()) {
          bool seeded = false;
          for (PredicateId p : positive_preds_[id]) {
            const Relation* rel = carry->Find(p);
            if (rel != nullptr && !rel->IsEmpty()) {
              seeded = true;
              break;
            }
          }
          if (!seeded) continue;
          t.chain = true;
        } else {
          const auto& eval = std::get<RuleEvaluator>(c.eval);
          t.delta_occurrences = DeltaOccurrencesAny(c, eval, *carry);
          if (t.delta_occurrences.empty()) continue;
        }
        seed_tasks.push_back(std::move(t));
      }

      Status round_status = run_protected([&]() -> Status {
        if (guard != nullptr) DMTL_RETURN_IF_ERROR(guard->Check());
        DMTL_RETURN_IF_ERROR(FaultInjector::Fire("seminaive.round"));
        for (size_t id : rule_ids) {
          if (!compiled_[id].is_aggregate()) continue;
          bool dirty = false;
          for (PredicateId p : positive_preds_[id]) {
            const Relation* rel = carry->Find(p);
            if (rel != nullptr && !rel->IsEmpty()) {
              dirty = true;
              break;
            }
          }
          if (!dirty) continue;
          ++stats->rule_evaluations;
          sink.SetContext(id, 0);
          const auto& agg = std::get<AggregateEvaluator>(compiled_[id].eval);
          DMTL_RETURN_IF_ERROR(
              agg.Evaluate(*db_, emit_for(compiled_[id].rule().head.predicate),
                           memos_.empty() ? nullptr : memos_[id].get()));
        }
        DMTL_RETURN_IF_ERROR(RunRound(seed_tasks, compiled_, vms_, memos_,
                                      *db_, *carry, window, &chain_caches, 0,
                                      &sink, stats, guard));
        return guard != nullptr ? guard->Check() : Status::Ok();
      });
      if (!round_status.ok()) return fail_round(std::move(round_status), 0);
      refresh_all_memos(next_delta);
      carry->MergeFrom(next_delta);
      delta = std::move(next_delta);
      next_delta = Database();
      prov_mark = provenance_ != nullptr ? provenance_->size() : 0;

      // Fixpoint rounds: standard semi-naive over this stratum's fresh
      // coverage (the round deltas only ever hold stratum heads, so the
      // contents filter coincides with the batch engine's stratum filter).
      size_t rounds = 0;
      size_t delta_size = delta.NumIntervals();
      while (delta_size > 0) {
        if (++rounds > op_options_.max_rounds) {
          stats->stop_reason = StopReason::kMaxRounds;
          return fail_round(
              Status::ResourceExhausted(
                  "stratum " + std::to_string(s) + " exceeded max_rounds=" +
                  std::to_string(op_options_.max_rounds)),
              rounds);
        }
        ++stats->rounds;
        stats->delta_intervals += delta_size;
        std::vector<RoundTask> tasks;
        for (size_t id : rule_ids) {
          if (compiled_[id].is_aggregate()) continue;
          const CompiledRule& c = compiled_[id];
          RoundTask t;
          t.rule_id = id;
          if (c.chain.has_value()) {
            t.chain = true;
          } else {
            const auto& eval = std::get<RuleEvaluator>(c.eval);
            t.delta_occurrences = DeltaOccurrencesAny(c, eval, delta);
            if (t.delta_occurrences.empty()) continue;
            }
          tasks.push_back(std::move(t));
        }
        round_status = run_protected([&]() -> Status {
          if (guard != nullptr) DMTL_RETURN_IF_ERROR(guard->Check());
          DMTL_RETURN_IF_ERROR(FaultInjector::Fire("seminaive.round"));
          DMTL_RETURN_IF_ERROR(RunRound(tasks, compiled_, vms_, memos_, *db_,
                                        delta, window, &chain_caches, rounds,
                                        &sink, stats, guard));
          return guard != nullptr ? guard->Check() : Status::Ok();
        });
        if (!round_status.ok()) {
          return fail_round(std::move(round_status), rounds);
        }
        refresh_all_memos(next_delta);
        carry->MergeFrom(next_delta);
        delta = std::move(next_delta);
        next_delta = Database();
        delta_size = delta.NumIntervals();
        prov_mark = provenance_ != nullptr ? provenance_->size() : 0;
      }
      stats->stratum_wall_seconds[s] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        stratum_start)
              .count();
    }
    return Status::Ok();
  }

  Program program_;
  Database* db_ = nullptr;
  EngineOptions options_;       // as given at Create (min/max untouched)
  EngineOptions op_options_;    // per-operation window; referenced by sinks
  Rational cur_min_;
  Rational watermark_;
  Stratification strat_;

  std::vector<CompiledRule> compiled_;
  std::vector<std::unique_ptr<RuleVm>> vms_;
  std::vector<std::unique_ptr<OperatorMemo>> memos_;
  size_t compiled_rule_count_ = 0;
  size_t vm_fallback_count_ = 0;

  // pred -> rules whose body references it; drives the memo refresh fan-out.
  std::unordered_map<PredicateId, std::vector<size_t>> refresh_rules_by_pred_;
  std::vector<std::set<PredicateId>> positive_preds_;
  std::vector<std::set<PredicateId>> stratum_body_preds_;
  Rational reach_;            // max forward reach R over positive atoms
  bool reach_inf_ = false;
  // The same maximum over every relational atom, negated ones included:
  // the retraction cut-off's band width (see SlideStore).
  Rational cutoff_reach_;
  bool cutoff_inf_ = false;

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
  std::vector<DerivationRecord>* provenance_ = nullptr;
};

IncrementalMaterializer::IncrementalMaterializer() = default;
IncrementalMaterializer::~IncrementalMaterializer() = default;

Result<std::unique_ptr<IncrementalMaterializer>>
IncrementalMaterializer::Create(const Program& program, Database* db,
                                const EngineOptions& options) {
  if (db == nullptr) {
    return Status::InvalidArgument("streaming requires a database");
  }
  std::unique_ptr<IncrementalMaterializer> out(new IncrementalMaterializer());
  out->impl_ = std::make_unique<Impl>(program, db, options);
  DMTL_RETURN_IF_ERROR(out->impl_->Init());
  return out;
}

Result<std::unique_ptr<IncrementalMaterializer>>
IncrementalMaterializer::Restore(const Program& program, Database* db,
                                 const EngineOptions& options,
                                 std::vector<Fact> input_log,
                                 const Rational& watermark, bool advanced) {
  DMTL_ASSIGN_OR_RETURN(std::unique_ptr<IncrementalMaterializer> out,
                        Create(program, db, options));
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
