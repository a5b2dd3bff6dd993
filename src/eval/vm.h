#ifndef DMTL_EVAL_VM_H_
#define DMTL_EVAL_VM_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/execution_guard.h"
#include "src/eval/bytecode.h"
#include "src/eval/compiled_program.h"
#include "src/eval/planner.h"

namespace dmtl {

// Dispatch-loop executor for compiled rule programs: the engine's one rule
// executor.
//
// One RuleVm per rule. Programs are compiled lazily per semi-naive delta
// occurrence on first dispatch and recompiled when a store-backed relation
// outgrows its compile-time size snapshot 4x (the plan's literal order is a
// function of relation sizes; correctness never depends on it). Execution is
// a depth-first walk over the flat program: variables bind into one register
// file and unbind on backtrack, with no per-candidate allocation. Every
// candidate passes the semi-naive delta restriction, envelope pruning and a
// guard poll every few thousand candidates.
//
// Chain-accelerated rules additionally get a batched closure kernel
// (ExtendChain): instead of one emit per grid point, it computes how many
// consecutive grid points stay inside guard-allowed time and ahead of
// already-derived coverage (exact rational arithmetic), and emits them as
// one point run per allowed stretch; a seed run on the walk's grid is taken
// whole. The derived coverage - and the chain_extensions count - are those
// of walking the grid one point at a time.
//
// The plan and the chain walk are the compiled program's, shared with
// every other VM of the rule; the VM's own state is what it compiles
// against its database (variants, the allowed-set cache) and its counters.
// Not thread-safe: a VM belongs to one engine run (or session), which
// drives it from one thread at a time.
class RuleVm {
 public:
  // A VM for one rule of a compiled program; `rule` must outlive it. A
  // chain rule's VM also runs ExtendChain.
  explicit RuleVm(const CompiledProgram::CompiledRule& rule);

  // Runs the rule once: every body binding, in the compiled plan's order,
  // with occurrence `delta_occurrence` (-1: none) restricted to `delta`.
  // Emits one (head tuple, extent) per binding after the enumeration is
  // done - for an aggregate rule, one witness row (AggregateEvaluator). A
  // non-null `guard` is polled every few thousand candidates; on a trip the
  // dispatch returns the guard's error.
  Status Evaluate(const Database& db, const Database* delta,
                  int delta_occurrence, const EmitFn& emit,
                  const ExecutionGuard* guard = nullptr);

  bool has_chain() const { return chain_ != nullptr; }

  // Extends every chain-predicate tuple in `delta` to its closure within
  // `window`. `extensions` is advanced by the number of grid points a
  // point-by-point walk would emit, counting the already-covered point
  // that stops a walk (interval seeds: by the pieces each shift-and-clip
  // pass emits). `emit` must insert into `db`: the walk reads the head's
  // derived coverage back from it at every batch boundary and every pass,
  // so its own emissions stop it where it rejoins derived coverage.
  Status ExtendChain(const Database& db, const Database& delta,
                     const Interval& window, const EmitFn& emit,
                     const ExecutionGuard* guard, size_t* extensions);

  // VM entries: Evaluate calls plus ExtendChain calls.
  uint64_t dispatches() const { return dispatches_; }
  // Variants (re)compiled, including adaptive replans.
  uint64_t compiles() const { return compiles_; }

  const Rule& rule() const { return planner_->rule(); }
  // This VM's planner counters (index builds, probes, last plan cost).
  const PlannerStats& planner_stats() const { return stats_; }

  // Compiles (if needed) and pretty-prints the full-evaluation variant
  // against `db`, plus the chain kernel when one exists.
  std::string DumpBytecode(const Database& db);

  // Between-run hooks. Within one run relations only gain coverage and
  // live at stable addresses, so a compiled variant's Relation/BoundIndex
  // pointers stay valid for the whole run. A run over another database, a
  // cleared store or a streaming retraction (RemoveRegion drops the
  // bound-signature indexes and may erase relations) breaks that, so the
  // fixpoint driver calls these between runs.
  //
  // Drops every compiled variant; the next dispatch recompiles against the
  // current store (counted in compiles(), like an adaptive replan). The
  // slots stay - EnsureCompiled indexes by occurrence into the size fixed
  // at Create.
  void InvalidateCompiledState() {
    for (Variant& v : variants_) v = Variant{};
  }
  // Drops the chain kernel's guard-allowed cache. Needed when a guard
  // predicate's coverage *changes* after the rule already ran - impossible
  // within one stratified run, routine across streaming advances.
  void ClearChainCache() { allowed_cache_.clear(); }

 private:
  struct RtAtom {
    const Relation* rel = nullptr;
    const Relation::BoundIndex* index = nullptr;
  };
  struct Variant {
    RuleProgram prog;
    std::vector<RtAtom> atoms;
    bool compiled = false;
  };

  Variant& EnsureCompiled(int delta_occurrence, const Database& db,
                          const Database* delta);

  // The dispatch loop: executes prog_->code[ip...] with `cur` as the row
  // extent accumulated so far.
  Status Exec(size_t ip, const IntervalSet& cur);

  Status WalkGrid(const Database& db, const Tuple& tuple,
                  const Rational& seed, const IntervalSet& allowed,
                  const EmitFn& emit, const ExecutionGuard* guard,
                  size_t* extensions);

  const RulePlanner* planner_;
  const ChainProgram* chain_;  // null unless a chain rule
  PlannerStats stats_;
  // Guard-allowed sets keyed by the head tuple's guard projection. Guards
  // live strictly below the rule's stratum, so entries stay valid for the
  // whole run (the rule only executes within its own stratum).
  std::unordered_map<Tuple, IntervalSet, TupleHash> allowed_cache_;
  std::vector<Variant> variants_;  // indexed by delta_occurrence + 1
  uint64_t dispatches_ = 0;
  uint64_t compiles_ = 0;

  // --- per-dispatch state (set up by Evaluate, read by Exec) --------------
  const Database* db_ = nullptr;
  const Database* delta_ = nullptr;
  const EmitFn* emit_ = nullptr;
  const ExecutionGuard* guard_ = nullptr;
  const RuleProgram* prog_ = nullptr;
  Variant* variant_ = nullptr;
  std::optional<Bindings> regs_;
  std::vector<IntervalSet> extents_;             // per instruction slot
  std::vector<std::optional<Interval>> windows_;  // per atom slot
  std::vector<const IntervalSet*> leaf_;          // per literal slot
  std::vector<std::vector<Rational>> ts_points_;  // per body index
  Tuple key_, head_, proj_key_;
  // Emissions buffered during the DFS and flushed after it returns. The DFS
  // interleaves enumeration with head derivation, and for a self-recursive
  // rule the sink would otherwise grow the posting list (or rehash the
  // relation) being walked.
  std::vector<std::pair<Tuple, IntervalSet>> out_;
  uint64_t guard_counter_ = 0;
  uint64_t probes_ = 0, hits_ = 0, pruned_ = 0;
};

}  // namespace dmtl

#endif  // DMTL_EVAL_VM_H_
