#include "src/eval/vm.h"

#include <algorithm>

#include "src/common/fault_injector.h"
#include "src/eval/builtin_eval.h"
#include "src/eval/rule_compile.h"

namespace dmtl {

namespace {

// Candidates between guard checks inside a dispatch. Cheap enough that one
// huge join observes a deadline within milliseconds, rare enough to be
// invisible in profiles (an atomic load + clock read per 4096 candidates).
constexpr uint64_t kGuardStrideMask = 4095;

using Component = IntervalSet::Component;

// Upper bound on the grid points of one chain emission: a walk emits one
// point run per allowed stretch, cut at this length, which bounds how far
// it can run between guard polls and budget checks.
constexpr int64_t kChainRunPoints = int64_t{1} << 16;
// Chain walks poll the guard once per 256 emissions (grid walks) or
// frontier passes (interval seeds), the Sink's emission stride: a clock
// read on each of the many short walks that stop after one emission would
// show in the profile.
constexpr uint64_t kChainGuardStrideMask = 255;

// True when an upper bound ends strictly before time t.
inline bool UpperEndsBefore(const Bound& hi, const Rational& t) {
  if (hi.infinite) return false;
  return hi.open ? hi.value <= t : hi.value < t;
}

// True when a lower bound starts strictly after time t.
inline bool LowerStartsAfter(const Bound& lo, const Rational& t) {
  if (lo.infinite) return false;
  return lo.open ? lo.value >= t : lo.value > t;
}

// The component of `set` holding t, or nullptr. Binary search over the
// normalized (sorted, disjoint) component hulls.
const Component* FindComponent(const IntervalSet& set, const Rational& t) {
  const IntervalSet::ComponentVec& comps = set.components();
  const Component* it = std::partition_point(
      comps.begin(), comps.end(),
      [&](const Component& c) { return UpperEndsBefore(c.hull.hi(), t); });
  if (it == comps.end() || !it->Contains(t)) return nullptr;
  return it;
}

// Steps the cursor `comp` (a component of `allowed`) in walk direction to
// the component holding t, or nullptr when no component holds it. t must not
// lie behind `comp` in walk direction. Components with no grid point between
// two grid points are stepped over, as a fresh bisect would.
const Component* StepCursor(const IntervalSet& allowed, const Component* comp,
                            const Rational& t, bool fwd) {
  const IntervalSet::ComponentVec& comps = allowed.components();
  if (fwd) {
    while (comp != comps.end() && UpperEndsBefore(comp->hull.hi(), t)) ++comp;
    if (comp == comps.end()) return nullptr;
  } else {
    while (LowerStartsAfter(comp->hull.lo(), t)) {
      if (comp == comps.begin()) return nullptr;
      --comp;
    }
  }
  return comp->Contains(t) ? comp : nullptr;
}

// Largest k >= 0 such that t + k*step stays inside `comp` (t must be in
// comp); nullopt when comp is unbounded in the walk direction.
std::optional<int64_t> StepsWithin(const Component& comp, const Rational& t,
                                   const Rational& step) {
  // A walk whose step is not a whole number of the run's steps leaves the
  // run's grid right after t.
  if (comp.is_run() && !(Abs(step) / comp.step).is_integer()) return 0;
  const bool fwd = !step.is_negative();
  const Bound& b = fwd ? comp.hull.hi() : comp.hull.lo();
  if (b.infinite) return std::nullopt;
  Rational span = fwd ? b.value - t : t - b.value;
  Rational q = span / Abs(step);
  int64_t k = q.Floor();
  // An exact landing on an open bound is outside the component.
  if (b.open && q.is_integer()) --k;
  return k;
}

// Smallest k in [k, k_cap] with t + k*step in component `c`, where k is
// the first step that reaches c's near end; nullopt when there is none.
std::optional<int64_t> FirstStepInto(const Component& c, const Rational& t,
                                     const Rational& step, int64_t k,
                                     int64_t k_cap) {
  const Rational p = t + Rational(k) * step;
  const Rational mag = Abs(step);
  // On a dense component, or a run whose grid the walk's grid refines into
  // (every later walk point inside the hull shares p's phase), p decides.
  if (!c.is_run() || (mag / c.step).is_integer()) {
    if (c.Contains(p)) return k;
    return std::nullopt;
  }
  // Otherwise the walk meets the run at isolated points: test the run's
  // points in walk order from p on.
  const bool fwd = !step.is_negative();
  const Rational at = (p - c.first()) / c.step;  // p on the run's grid
  for (int64_t j = fwd ? std::max<int64_t>(0, at.Ceil())
                       : std::min(c.count - 1, at.Floor());
       j >= 0 && j < c.count; j += fwd ? 1 : -1) {
    const Rational q = (fwd ? c.At(j) - t : t - c.At(j)) / mag;
    if (Rational(k_cap) < q) return std::nullopt;
    if (q.is_integer()) return q.numerator();
  }
  return std::nullopt;
}

// Smallest k in [0, k_cap] with t + k*step covered by `s`, walking the
// normalized components in grid direction; nullopt when no grid point within
// the cap is covered.
std::optional<int64_t> FirstCoveredStep(const IntervalSet* s,
                                        const Rational& t,
                                        const Rational& step, int64_t k_cap) {
  if (s == nullptr || s->IsEmpty()) return std::nullopt;
  const IntervalSet::ComponentVec& comps = s->components();
  const Rational mag = Abs(step);
  const bool fwd = !step.is_negative();
  const Component* it =
      fwd ? std::partition_point(comps.begin(), comps.end(),
                                 [&](const Component& c) {
                                   return UpperEndsBefore(c.hull.hi(), t);
                                 })
          : std::partition_point(comps.begin(), comps.end(),
                                 [&](const Component& c) {
                                   return !LowerStartsAfter(c.hull.lo(), t);
                                 });
  while (fwd ? it != comps.end() : it != comps.begin()) {
    const Component& c = fwd ? *it++ : *--it;
    // The first step at or past the component's near end.
    const Bound& near = fwd ? c.hull.lo() : c.hull.hi();
    int64_t k = 0;
    if (!near.infinite) {
      const Rational gap = fwd ? near.value - t : t - near.value;
      if (!gap.is_negative() && !gap.is_zero()) {
        Rational q = gap / mag;
        k = q.Ceil();
        if (near.open && q.is_integer()) ++k;
      } else if (near.open && gap.is_zero()) {
        k = 1;
      }
    }
    // Components ascend in walk direction, so the candidate step only grows
    // from here.
    if (k > k_cap) return std::nullopt;
    if (auto hit = FirstStepInto(c, t, step, k, k_cap)) return hit;
  }
  return std::nullopt;
}

}  // namespace

RuleVm::RuleVm(const CompiledProgram::CompiledRule& rule)
    : planner_(&rule.planner),
      chain_(rule.chain.has_value() ? &*rule.chain : nullptr),
      variants_(rule.planner.num_positive_occurrences() + 1) {}

RuleVm::Variant& RuleVm::EnsureCompiled(int delta_occurrence,
                                        const Database& db,
                                        const Database* delta) {
  Variant& v = variants_[delta_occurrence + 1];
  bool need = !v.compiled;
  if (!need) {
    // Adaptive replan: the baked-in literal order was chosen against the
    // compile-time relation sizes; once a store-backed relation has grown
    // well past its snapshot (or appeared at all), re-derive the plan.
    // Purely a cost decision - results never depend on it.
    for (const AtomCode& a : v.prog.atoms) {
      if (a.is_delta) continue;
      const Relation* rel = db.Find(a.pred);
      size_t n = rel == nullptr ? 0 : rel->NumTuples();
      if (n >= std::max(RulePlanner::kMinTuplesForIndex,
                        4 * a.num_tuples_at_compile)) {
        need = true;
        break;
      }
    }
  }
  if (need) {
    v.prog = RuleCompiler::Compile(*planner_, db, delta, delta_occurrence,
                                    &stats_);
    v.atoms.assign(v.prog.atoms.size(), RtAtom{});
    v.compiled = true;
    ++compiles_;
  }
  return v;
}

Status RuleVm::Evaluate(const Database& db, const Database* delta,
                        int delta_occurrence, const EmitFn& emit,
                        const ExecutionGuard* guard) {
  ++dispatches_;
  Variant& v = EnsureCompiled(delta_occurrence, db, delta);
  const RuleProgram& prog = v.prog;

  uint64_t built = 0;
  // Prologue (kLoadIndex): refresh store-backed relation/index handles.
  // Relation pointers are node-stable for the database's lifetime and the
  // engine only grows relations between dispatches, so resolved handles are
  // kept; a null is retried (the relation/index may exist by now).
  for (size_t slot = 0; slot < prog.atoms.size(); ++slot) {
    const AtomCode& a = prog.atoms[slot];
    if (a.is_delta) continue;
    RtAtom& ra = v.atoms[slot];
    if (ra.rel == nullptr) ra.rel = db.Find(a.pred);
    if (ra.rel != nullptr && ra.index == nullptr && a.signature != 0 &&
        ra.rel->NumTuples() >= RulePlanner::kMinTuplesForIndex) {
      bool built_now = false;
      ra.index = ra.rel->GetIndex(a.signature, &built_now);
      if (built_now) ++built;
    }
  }

  db_ = &db;
  delta_ = delta;
  emit_ = &emit;
  guard_ = guard;
  prog_ = &prog;
  variant_ = &v;
  regs_.emplace(prog.num_vars);
  extents_.resize(prog.code.size());
  windows_.resize(prog.atoms.size());
  leaf_.assign(prog.literals.size(), nullptr);
  ts_points_.resize(planner_->rule().body.size());
  guard_counter_ = 0;
  probes_ = hits_ = pruned_ = 0;

  static const IntervalSet kAll{Interval::All()};
  out_.clear();
  Status status = Exec(prog.prologue, kAll);
  // Flush buffered derivations only now that enumeration is done (see out_
  // in vm.h). The fault site fires between flushed emissions, so an
  // injected failure lands with part of this dispatch's output already in
  // the sink - the round-barrier rollback must undo exactly that partial
  // flush.
  if (status.ok()) {
    for (const auto& [tuple, extent] : out_) {
      status = FaultInjector::Fire("vm.dispatch");
      if (!status.ok()) break;
      status = emit(tuple, extent);
      if (!status.ok()) break;
    }
  }
  out_.clear();

  stats_.indexes_built += built;
  stats_.index_probes += probes_;
  stats_.index_probe_hits += hits_;
  stats_.envelope_pruned += pruned_;
  return status;
}

Status RuleVm::Exec(size_t ip, const IntervalSet& cur) {
  const RuleProgram& prog = *prog_;
  const Instr instr = prog.code[ip];
  switch (instr.op) {
    case OpCode::kProbe: {
      const AtomCode& a = prog.atoms[instr.arg];
      const Relation* rel;
      const Relation::BoundIndex* index = nullptr;
      if (a.is_delta) {
        rel = delta_ == nullptr ? nullptr : delta_->Find(a.pred);
        if (rel != nullptr && a.signature != 0 &&
            rel->NumTuples() >= RulePlanner::kMinTuplesForIndex) {
          bool built_now = false;
          index = rel->GetIndex(a.signature, &built_now);
          if (built_now) ++stats_.indexes_built;
        }
      } else {
        rel = variant_->atoms[instr.arg].rel;
        index = variant_->atoms[instr.arg].index;
      }
      if (rel == nullptr) return Status::Ok();

      // Per-row temporal prune window: the row-extent hull dilated through
      // the atom's operator path. Identical for every candidate of the
      // parent atom (the row extent only changes at literal boundaries).
      std::optional<Interval>& w = windows_[instr.arg];
      w.reset();
      if (a.prunable) {
        Interval hull = cur.Hull();
        if (!(hull.lo_infinite() && hull.hi_infinite())) {
          w = RulePlanner::ExpandPruneWindow(hull, a.path);
        }
      }

      auto try_tuple = [&](const Tuple& tuple, const IntervalSet& set,
                           bool probing) -> Status {
        if (guard_ != nullptr &&
            (++guard_counter_ & kGuardStrideMask) == 0) {
          DMTL_RETURN_IF_ERROR(guard_->Check());
        }
        if (tuple.size() != a.arity) return Status::Ok();
        if (w.has_value() && !set.Hull().Overlaps(*w)) {
          ++pruned_;
          return Status::Ok();
        }
        bool ok = true;
        for (const UnifyStep& u : a.unify) {
          if (probing && u.in_key) continue;  // matched by the index key
          const Value& tv = tuple[u.pos];
          switch (u.kind) {
            case UnifyStep::Kind::kBind:
              regs_->Set(u.var, tv);
              break;
            case UnifyStep::Kind::kCheckVar:
              ok = regs_->Get(u.var) == tv;
              break;
            case UnifyStep::Kind::kCheckConst:
              ok = prog.consts[u.const_index] == tv;
              break;
          }
          if (!ok) break;
        }
        Status status = Status::Ok();
        if (ok) {
          leaf_[a.lit] = &set;
          status = Exec(ip + 1, cur);
        }
        for (int var : a.binds) regs_->Unset(var);
        return status;
      };

      if (index != nullptr) {
        key_.clear();
        for (const ValueRef& r : a.key) {
          key_.push_back(r.var >= 0 ? regs_->Get(r.var)
                                    : prog.consts[r.const_index]);
        }
        ++probes_;
        const Relation::PostingList* list = index->Lookup(key_);
        if (list == nullptr) return Status::Ok();
        ++hits_;
        if (w.has_value() && list->envelope.has_value() &&
            !list->envelope->Overlaps(*w)) {
          pruned_ += list->entries.size();
          return Status::Ok();
        }
        for (const Relation::IndexEntry& entry : list->entries) {
          // Per-entry hull prune straight off the contiguous posting array,
          // before the extent (a separate cache line) is ever touched.
          if (w.has_value() && !entry.hull.Overlaps(*w)) {
            ++pruned_;
            continue;
          }
          DMTL_RETURN_IF_ERROR(try_tuple(*entry.tuple, *entry.extent, true));
        }
        return Status::Ok();
      }
      for (const Relation::ScanEntry& row : rel->Rows()) {
        DMTL_RETURN_IF_ERROR(try_tuple(*row.tuple, *row.extent, false));
      }
      return Status::Ok();
    }

    case OpCode::kIntersectTemporal: {
      const LiteralCode& lc = prog.literals[instr.arg];
      IntervalSet& slot = extents_[ip];
      if (lc.shape == LitShape::kBareAtom) {
        const IntervalSet* leaf = leaf_[instr.arg];
        if (leaf->IsEmpty()) return Status::Ok();
        // The row extent covers the whole leaf - every first-literal probe
        // arrives with the All extent - so the intersection IS the leaf.
        // Walk it in place instead of copying the stored set per candidate
        // (safe: emissions are buffered, the store cannot move under us).
        if (cur.size() == 1 && cur.Hull().Contains(leaf->Hull())) {
          return Exec(ip + 1, *leaf);
        }
        slot = leaf->Intersect(cur);
      } else {
        ExtentSource source;
        source.full = db_;
        source.delta = delta_;
        source.delta_occurrence = lc.delta_offset;
        source.guard = guard_;
        const MetricAtom& metric = planner_->rule().body[lc.body_index].metric;
        IntervalSet extent = EvalMetricExtent(metric, *regs_, source, cur);
        if (extent.IsEmpty()) return Status::Ok();
        if (cur.size() == 1 && cur.Hull().Contains(extent.Hull())) {
          slot = std::move(extent);
        } else {
          slot = cur.Intersect(extent);
        }
      }
      if (slot.IsEmpty()) return Status::Ok();
      return Exec(ip + 1, slot);
    }

    case OpCode::kApplyUnaryChain: {
      const LiteralCode& lc = prog.literals[instr.arg];
      const IntervalSet* leaf = leaf_[instr.arg];
      IntervalSet& slot = extents_[ip];
      // Windowed chain evaluation, replicating EvalRec: child windows
      // root-to-leaf, operators leaf-to-root.
      IntervalSet window = cur;
      for (const OpPathStep& s : lc.path) {
        window = ChildWindow(s.op, s.range, window);
      }
      IntervalSet extent = leaf->Intersect(window);
      for (auto it = lc.path.rbegin(); it != lc.path.rend(); ++it) {
        extent = ApplyUnaryOp(it->op, it->range, extent);
      }
      if (extent.IsEmpty()) return Status::Ok();
      if (cur.size() == 1 && cur.Hull().Contains(extent.Hull())) {
        slot = std::move(extent);
      } else {
        slot = cur.Intersect(extent);
      }
      if (slot.IsEmpty()) return Status::Ok();
      return Exec(ip + 1, slot);
    }

    case OpCode::kEvalBuiltin: {
      const BuiltinAtom& b = planner_->rule().body[instr.arg].builtin;
      // An assignment may bind its target; undo on the way out so a later
      // candidate of an upstream atom re-executes it against clean state.
      const bool is_assign = b.kind == BuiltinAtom::Kind::kAssign;
      const bool was_bound = is_assign && regs_->IsBound(b.var);
      Value saved;
      if (was_bound) saved = regs_->Get(b.var);
      DMTL_ASSIGN_OR_RETURN(bool keep, ApplyBuiltin(b, &*regs_));
      Status status = keep ? Exec(ip + 1, cur) : Status::Ok();
      if (is_assign) {
        if (was_bound) {
          regs_->Set(b.var, std::move(saved));
        } else {
          regs_->Unset(b.var);
        }
      }
      return status;
    }

    case OpCode::kNegate: {
      const BodyLiteral& lit = planner_->rule().body[instr.arg];
      ExtentSource source;
      source.full = db_;
      source.guard = guard_;
      IntervalSet& slot = extents_[ip];
      slot = cur.Subtract(EvalMetricExtent(lit.metric, *regs_, source, cur));
      if (slot.IsEmpty()) return Status::Ok();
      return Exec(ip + 1, slot);
    }

    case OpCode::kSplitTimestamp: {
      const BuiltinAtom& b = planner_->rule().body[instr.arg].builtin;
      std::vector<Rational>& points = ts_points_[instr.arg];
      points.clear();
      if (!cur.IsPunctualOnly(&points)) {
        return Status::EvalError(
            "timestamp() requires a punctual join extent; got " +
            cur.ToString() + " in rule: " + planner_->rule().ToString());
      }
      const bool was_bound = regs_->IsBound(b.var);
      IntervalSet& slot = extents_[ip];
      Status status = Status::Ok();
      for (const Rational& p : points) {
        if (guard_ != nullptr &&
            (++guard_counter_ & kGuardStrideMask) == 0) {
          status = guard_->Check();
          if (!status.ok()) break;
        }
        Value pv = p.is_integer() ? Value::Int(p.numerator())
                                  : Value::Double(p.ToDouble());
        if (was_bound) {
          if (!(regs_->Get(b.var) == pv)) continue;
        } else {
          regs_->Set(b.var, std::move(pv));
        }
        slot = IntervalSet(Interval::Point(p));
        status = Exec(ip + 1, slot);
        if (!status.ok()) break;
      }
      if (!was_bound) regs_->Unset(b.var);
      return status;
    }

    case OpCode::kEmit: {
      head_.clear();
      for (const ValueRef& r : prog.head.args) {
        head_.push_back(r.var >= 0 ? regs_->Get(r.var)
                                   : prog.consts[r.const_index]);
      }
      if (prog.head.ops.empty()) {
        out_.emplace_back(head_, cur);
        return Status::Ok();
      }
      IntervalSet extent = cur;
      for (const HeadAtom::HeadOp& op : prog.head.ops) {
        extent = op.op == MtlOp::kBoxMinus ? extent.DiamondPlus(op.range)
                                           : extent.DiamondMinus(op.range);
      }
      if (extent.IsEmpty()) return Status::Ok();
      out_.emplace_back(head_, std::move(extent));
      return Status::Ok();
    }

    case OpCode::kLoadIndex:
      break;  // prologue-only; unreachable from the dispatch loop
  }
  return Status::Internal("rule VM executed an unexpected opcode at ip=" +
                          std::to_string(ip));
}

Status RuleVm::ExtendChain(const Database& db, const Database& delta,
                           const Interval& window, const EmitFn& emit,
                           const ExecutionGuard* guard, size_t* extensions) {
  ++dispatches_;
  const ChainProgram& cp = *chain_;
  const Relation* delta_rel = delta.Find(cp.pred);
  if (delta_rel == nullptr) return Status::Ok();

  Bindings binding(cp.num_vars);
  for (const Relation::ScanEntry& row : delta_rel->Rows()) {
    const Tuple& tuple = *row.tuple;
    const IntervalSet& seed_set = *row.extent;
    bool ok = true;
    for (const UnifyStep& u : cp.unify) {
      const Value& tv = tuple[u.pos];
      switch (u.kind) {
        case UnifyStep::Kind::kBind:
          binding.Set(u.var, tv);
          break;
        case UnifyStep::Kind::kCheckVar:
          ok = binding.Get(u.var) == tv;
          break;
        case UnifyStep::Kind::kCheckConst:
          ok = cp.consts[u.const_index] == tv;
          break;
      }
      if (!ok) break;
    }
    if (!ok) continue;

    // Allowed set: guard extents minus blocker extents, clamped to the walk
    // window. Guards only observe the projected head positions, so every
    // tuple agreeing on the projection shares one cached set.
    proj_key_.clear();
    for (size_t pos : cp.guard_projection) proj_key_.push_back(tuple[pos]);
    auto [it, inserted] = allowed_cache_.try_emplace(proj_key_);
    if (inserted) {
      ExtentSource source;
      source.full = &db;
      IntervalSet computed{window};
      for (size_t i : cp.positive_guards) {
        computed = computed.Intersect(EvalMetricExtent(
            planner_->rule().body[i].metric, binding, source, computed));
        if (computed.IsEmpty()) break;
      }
      for (size_t i : cp.negated_guards) {
        if (computed.IsEmpty()) break;
        computed = computed.Subtract(EvalMetricExtent(
            planner_->rule().body[i].metric, binding, source, computed));
      }
      it->second = std::move(computed);
    }
    const IntervalSet& allowed = it->second;
    if (allowed.IsEmpty()) continue;

    const bool fwd = !cp.step.is_negative();
    const Rational mag = Abs(cp.step);
    IntervalSet frontier;  // the tuple's dense seed components
    for (const Component& seed : seed_set.components()) {
      if (seed.is_run() && seed.step == mag) {
        // A run on the walk's grid, as a walk emitted it last round. For
        // every point but the run's end in walk direction, the next grid
        // point is itself a seed - already in the store - so a
        // point-by-point walk would emit it, find nothing fresh, and stop:
        // one extension where that next point is allowed, none where it is
        // not. Only the end walks on.
        const IntervalSet nexts = IntervalSet::Run(
            fwd ? seed.At(1) : seed.first(), mag, seed.count - 1);
        *extensions += nexts.Intersect(allowed).size();
        DMTL_RETURN_IF_ERROR(WalkGrid(db, tuple,
                                      fwd ? seed.last() : seed.first(),
                                      allowed, emit, guard, extensions));
      } else if (seed.is_run() || seed.hull.IsPunctual()) {
        for (int64_t k = 0; k < seed.count; ++k) {
          DMTL_RETURN_IF_ERROR(WalkGrid(db, tuple, seed.At(k), allowed, emit,
                                        guard, extensions));
        }
      } else {
        frontier.UnionWith(IntervalSet(seed.hull));
      }
    }
    // Dense seeds walk together by shift-and-clip, one step per pass, each
    // pass emitted as one set. A pass keeps only what the head tuple does
    // not hold yet - the store, not just this walk's earlier passes - so,
    // as in WalkGrid, the walk stops where it rejoins derived coverage, and
    // overlapping seeds never re-walk one stretch.
    const PredicateId head = planner_->rule().head.predicate;
    while (!frontier.IsEmpty()) {
      IntervalSet next = frontier.Shift(cp.step).Intersect(allowed);
      if (next.IsEmpty()) break;
      const Relation* rel = db.Find(head);
      const IntervalSet* derived = rel != nullptr ? rel->Find(tuple) : nullptr;
      if (derived != nullptr) {
        next = next.Subtract(derived->Intersect(next.Hull()));
        if (next.IsEmpty()) break;
      }
      *extensions += next.size();
      DMTL_RETURN_IF_ERROR(emit(tuple, next));
      if (guard != nullptr &&
          (++guard_counter_ & kChainGuardStrideMask) == 0) {
        DMTL_RETURN_IF_ERROR(guard->Check());
      }
      frontier = std::move(next);
    }
  }
  return Status::Ok();
}

Status RuleVm::WalkGrid(const Database& db, const Tuple& tuple,
                        const Rational& seed, const IntervalSet& allowed,
                        const EmitFn& emit, const ExecutionGuard* guard,
                        size_t* extensions) {
  const Rational& step = chain_->step;
  const bool fwd = !step.is_negative();
  const PredicateId head = planner_->rule().head.predicate;
  Rational t = seed + step;
  // Cursor: the allowed component holding the latest stretch point. The
  // walk only moves in grid direction, so one bisect places it and every
  // later lookup steps on from there.
  const Component* comp = FindComponent(allowed, t);
  if (comp == nullptr) return Status::Ok();  // walked out of allowed time
  while (true) {
    // Stretch: the consecutive grid points from t that stay in allowed
    // time, up to the emission cap. It crosses component boundaries
    // whenever the next component in walk direction holds the next grid
    // point - a point-grid guard makes every component a single point or a
    // run.
    int64_t run = 0;
    Rational p = t;
    while (run < kChainRunPoints) {
      const Component* at = StepCursor(allowed, comp, p, fwd);
      if (at == nullptr) break;
      comp = at;
      int64_t take = kChainRunPoints - run;
      std::optional<int64_t> within = StepsWithin(*comp, p, step);
      if (within.has_value() && *within < take) take = *within + 1;
      run += take;
      p = p + Rational(take) * step;
    }
    if (run == 0) return Status::Ok();  // walked out of allowed time

    // Stop ahead of already-derived coverage. It is re-fetched per
    // stretch: the walk's own emissions extend (and may move) it.
    const IntervalSet* derived = nullptr;
    if (const Relation* rel = db.Find(head)) derived = rel->Find(tuple);
    std::optional<int64_t> n = FirstCoveredStep(derived, t, step, run - 1);

    if (n.has_value() && *n == 0) {
      // The next grid point is already derived: a point-by-point walk would
      // emit it (a no-op insert), find nothing fresh, and stop - it still
      // counts as one extension.
      *extensions += 1;
      return Status::Ok();
    }

    const int64_t m = n.has_value() ? *n : run;
    const Rational lowest = fwd ? t : t + Rational(m - 1) * step;
    DMTL_RETURN_IF_ERROR(
        emit(tuple, IntervalSet::Run(lowest, Abs(step), m)));
    *extensions += static_cast<size_t>(m);
    if (n.has_value()) {
      *extensions += 1;  // the covered point that stopped the walk
      return Status::Ok();
    }
    if (guard != nullptr && (++guard_counter_ & kChainGuardStrideMask) == 0) {
      DMTL_RETURN_IF_ERROR(guard->Check());
    }
    t = p;
  }
}

std::string RuleVm::DumpBytecode(const Database& db) {
  Variant& v = EnsureCompiled(-1, db, nullptr);
  std::string out = v.prog.Dump(planner_->rule());
  if (chain_ != nullptr) out += chain_->Dump(planner_->rule());
  return out;
}

}  // namespace dmtl
