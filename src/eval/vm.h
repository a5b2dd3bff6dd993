#ifndef DMTL_EVAL_VM_H_
#define DMTL_EVAL_VM_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/execution_guard.h"
#include "src/eval/bytecode.h"
#include "src/eval/chain_accel.h"
#include "src/eval/rule_eval.h"

namespace dmtl {

// Dispatch-loop executor for compiled rule programs - the semi-naive
// engine's replacement for the AST walker (EngineOptions::enable_rule_compile).
//
// One RuleVm per rule. Programs are compiled lazily per semi-naive delta
// occurrence on first dispatch and recompiled when a store-backed relation
// outgrows its compile-time size snapshot 4x (the plan's literal order is a
// function of relation sizes; correctness never depends on it). Execution is
// a depth-first walk over the flat program: variables bind into one register
// file and unbind on backtrack, so the per-candidate Bindings copies and
// per-stage row vectors of the interpreter disappear. The DFS visits
// candidates in exactly the order the staged interpreter does for the same
// plan, and threads the same machinery - delta restriction, envelope
// pruning, and guard polls at the same candidate stride.
//
// Chain-accelerated rules additionally get a batched closure kernel
// (ExtendChain): instead of one emit per grid point, it computes how many
// consecutive grid points stay inside the guard-allowed component and ahead
// of already-derived coverage (exact rational arithmetic), and emits them as
// one set per batch. The derived coverage - and the interpreter-visible
// chain_extensions count - are identical to the point-by-point walk.
//
// Not thread-safe: a VM belongs to one engine run (or session), which
// drives it from one thread at a time.
class RuleVm {
 public:
  using EmitFn = RuleEvaluator::EmitFn;
  using EmitSetFn =
      std::function<Status(const Tuple& tuple, const IntervalSet& extent)>;

  // Builds a VM for `eval` (copying it; planner stats stay shared). Returns
  // nullptr - with the reason in `decline_reason` - for rule shapes the
  // compiler declines; the engine then keeps the AST walker for this rule.
  static std::unique_ptr<RuleVm> Create(
      const RuleEvaluator& eval,
      const std::optional<ChainAccelerator::ChainInfo>& chain,
      std::string* decline_reason);

  // Drop-in for RuleEvaluator::Evaluate with identical semantics: emits the
  // same (tuple, extent) sequence the interpreter would for the same plan.
  Status Evaluate(const Database& db, const Database* delta,
                  int delta_occurrence, const EmitFn& emit,
                  const ExecutionGuard* guard = nullptr);

  bool has_chain() const { return chain_.has_value(); }

  // Batched replacement for ChainAccelerator::Extend. `extensions` is
  // advanced by exactly the number of per-point emissions the point-by-point
  // walker performs (including the already-covered point that stops a walk).
  // `emit` must insert into `db`: the walk reads the head's derived
  // coverage back from it at every batch boundary, so its own emissions
  // stop it exactly where the point-by-point walker's freshness signal
  // would.
  Status ExtendChain(const Database& db, const Database& delta,
                     const Interval& window, const EmitSetFn& emit,
                     const ExecutionGuard* guard, size_t* extensions);

  // VM entries: Evaluate calls plus ExtendChain calls.
  uint64_t dispatches() const { return dispatches_; }
  // Variants (re)compiled, including adaptive replans.
  uint64_t compiles() const { return compiles_; }

  const Rule& rule() const { return eval_.rule(); }

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

  explicit RuleVm(const RuleEvaluator& eval) : eval_(eval) {}

  Variant& EnsureCompiled(int delta_occurrence, const Database& db,
                          const Database* delta);

  // The dispatch loop: executes prog_->code[ip...] with `cur` as the row
  // extent accumulated so far.
  Status Exec(size_t ip, const IntervalSet& cur);

  Status WalkGrid(const Database& db, const Tuple& tuple,
                  const Rational& seed, const IntervalSet& allowed,
                  const EmitSetFn& emit, const ExecutionGuard* guard,
                  size_t* extensions);

  RuleEvaluator eval_;  // private copy; planner stats shared with the engine
  std::optional<ChainProgram> chain_;
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
  // Emissions buffered during the DFS and flushed after it returns. The
  // staged interpreter only emits once every row has been enumerated, so
  // the relations it iterates never mutate under it; the DFS interleaves
  // enumeration with head derivation, and for a self-recursive rule the
  // sequential sink would otherwise grow the posting list (or rehash the
  // relation) being walked. Buffering restores the interpreter's
  // enumerate-then-emit discipline - and its exact emission order.
  std::vector<std::pair<Tuple, IntervalSet>> out_;
  std::vector<Interval> batch_;
  uint64_t guard_counter_ = 0;
  uint64_t probes_ = 0, hits_ = 0, pruned_ = 0, built_ = 0;
};

}  // namespace dmtl

#endif  // DMTL_EVAL_VM_H_
