#include "src/eval/vm.h"

#include <algorithm>

#include "src/analysis/safety.h"
#include "src/common/fault_injector.h"
#include "src/eval/builtin_eval.h"
#include "src/eval/rule_compile.h"

namespace dmtl {

namespace {

// Candidates between guard checks inside a dispatch. Cheap enough that one
// huge join observes a deadline within milliseconds, rare enough to be
// invisible in profiles (an atomic load + clock read per 4096 candidates).
constexpr uint64_t kGuardStrideMask = 4095;

// Upper bound on punctual chain points emitted per batch: caps the interval
// scratch buffer and bounds how far a walk can run between guard polls and
// budget checks.
constexpr int64_t kChainBatchPoints = 2048;
// Chain walks poll the guard once per 256 batches (grid walks) or frontier
// passes (interval seeds), the Sink's emission stride. A grid batch runs on
// across allowed components, so the 267-event/14400 s session walks only a
// few thousand batches; the stride keeps a clock read off each of the many
// short walks that stop after one batch.
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

// The component of `set` containing t, or nullptr. Binary search over the
// normalized (sorted, disjoint) component list.
const Interval* FindComponent(const IntervalSet& set, const Rational& t) {
  const Interval* it = std::partition_point(
      set.begin(), set.end(),
      [&](const Interval& iv) { return UpperEndsBefore(iv.hi(), t); });
  if (it == set.end() || !it->Contains(t)) return nullptr;
  return it;
}

// Steps the cursor `comp` (a component of `allowed`) in walk direction to
// the component holding t, or nullptr when no component holds it. t must not
// lie behind `comp` in walk direction. Components with no grid point between
// two grid points are stepped over, as a fresh bisect would.
const Interval* StepCursor(const IntervalSet& allowed, const Interval* comp,
                           const Rational& t, bool fwd) {
  if (fwd) {
    while (comp != allowed.end() && UpperEndsBefore(comp->hi(), t)) ++comp;
    if (comp == allowed.end()) return nullptr;
  } else {
    while (LowerStartsAfter(comp->lo(), t)) {
      if (comp == allowed.begin()) return nullptr;
      --comp;
    }
  }
  return comp->Contains(t) ? comp : nullptr;
}

// Largest k >= 0 such that t + k*step stays inside `comp` (t must be in
// comp); nullopt when comp is unbounded in the walk direction.
std::optional<int64_t> StepsWithin(const Interval& comp, const Rational& t,
                                   const Rational& step) {
  const bool fwd = !step.is_negative();
  const Bound& b = fwd ? comp.hi() : comp.lo();
  if (b.infinite) return std::nullopt;
  Rational span = fwd ? b.value - t : t - b.value;
  Rational q = span / Abs(step);
  int64_t k = q.Floor();
  // An exact landing on an open bound is outside the component.
  if (b.open && q.is_integer()) --k;
  return k;
}

// Smallest k in [0, k_cap] with t + k*step covered by `s`, walking the
// normalized components in grid direction; nullopt when no grid point within
// the cap is covered.
std::optional<int64_t> FirstCoveredStep(const IntervalSet* s,
                                        const Rational& t,
                                        const Rational& step, int64_t k_cap) {
  if (s == nullptr || s->IsEmpty()) return std::nullopt;
  const Rational mag = Abs(step);
  if (!step.is_negative()) {
    const Interval* it = std::partition_point(
        s->begin(), s->end(),
        [&](const Interval& iv) { return UpperEndsBefore(iv.hi(), t); });
    for (; it != s->end(); ++it) {
      int64_t k = 0;
      if (!it->lo().infinite) {
        if (t < it->lo().value) {
          Rational q = (it->lo().value - t) / mag;
          k = q.Ceil();
          if (it->lo().open && q.is_integer()) ++k;
        } else if (it->lo().open && t == it->lo().value) {
          k = 1;
        }
      }
      // Components ascend, so the candidate step only grows from here.
      if (k > k_cap) return std::nullopt;
      if (it->Contains(t + Rational(k) * mag)) return k;
    }
    return std::nullopt;
  }
  const Interval* it = std::partition_point(
      s->begin(), s->end(),
      [&](const Interval& iv) { return !LowerStartsAfter(iv.lo(), t); });
  while (it != s->begin()) {
    --it;
    int64_t k = 0;
    if (!it->hi().infinite) {
      if (t > it->hi().value) {
        Rational q = (t - it->hi().value) / mag;
        k = q.Ceil();
        if (it->hi().open && q.is_integer()) ++k;
      } else if (it->hi().open && t == it->hi().value) {
        k = 1;
      }
    }
    if (k > k_cap) return std::nullopt;
    if (it->Contains(t - Rational(k) * mag)) return k;
  }
  return std::nullopt;
}

}  // namespace

Result<std::unique_ptr<RuleVm>> RuleVm::Create(
    const Rule& rule,
    const std::optional<ChainAccelerator::ChainInfo>& chain) {
  // The head projection reads registers unconditionally: every head
  // variable must be bound by the body.
  DMTL_RETURN_IF_ERROR(CheckSafety(rule));
  DMTL_ASSIGN_OR_RETURN(RuleEvaluator eval, RuleEvaluator::Create(rule));
  std::unique_ptr<RuleVm> vm(new RuleVm(std::move(eval)));
  if (chain.has_value()) {
    vm->chain_ = RuleCompiler::CompileChain(rule, *chain);
  }
  vm->variants_.resize(vm->eval_.num_positive_occurrences() + 1);
  return vm;
}

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
      if (n >= std::max(RuleEvaluator::kMinTuplesForIndex,
                        4 * a.num_tuples_at_compile)) {
        need = true;
        break;
      }
    }
  }
  if (need) {
    v.prog = RuleCompiler::Compile(eval_, db, delta, delta_occurrence);
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
        ra.rel->NumTuples() >= RuleEvaluator::kMinTuplesForIndex) {
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
  ts_points_.resize(eval_.rule().body.size());
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

  PlannerStats* stats = eval_.planner_stats();
  stats->indexes_built.fetch_add(built, std::memory_order_relaxed);
  stats->index_probes.fetch_add(probes_, std::memory_order_relaxed);
  stats->index_probe_hits.fetch_add(hits_, std::memory_order_relaxed);
  stats->envelope_pruned.fetch_add(pruned_, std::memory_order_relaxed);
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
            rel->NumTuples() >= RuleEvaluator::kMinTuplesForIndex) {
          bool built_now = false;
          index = rel->GetIndex(a.signature, &built_now);
          if (built_now) {
            eval_.planner_stats()->indexes_built.fetch_add(
                1, std::memory_order_relaxed);
          }
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
          w = RuleEvaluator::ExpandPruneWindow(hull, a.path);
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
        if (cur.size() == 1 && cur.begin()->Contains(leaf->Hull())) {
          return Exec(ip + 1, *leaf);
        }
        slot = leaf->Intersect(cur);
      } else {
        ExtentSource source;
        source.full = db_;
        source.delta = delta_;
        source.delta_occurrence = lc.delta_offset;
        source.guard = guard_;
        const MetricAtom& metric = eval_.rule().body[lc.body_index].metric;
        IntervalSet extent = EvalMetricExtent(metric, *regs_, source, cur);
        if (extent.IsEmpty()) return Status::Ok();
        if (cur.size() == 1 && cur.begin()->Contains(extent.Hull())) {
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
      if (cur.size() == 1 && cur.begin()->Contains(extent.Hull())) {
        slot = std::move(extent);
      } else {
        slot = cur.Intersect(extent);
      }
      if (slot.IsEmpty()) return Status::Ok();
      return Exec(ip + 1, slot);
    }

    case OpCode::kEvalBuiltin: {
      const BuiltinAtom& b = eval_.rule().body[instr.arg].builtin;
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
      const BodyLiteral& lit = eval_.rule().body[instr.arg];
      ExtentSource source;
      source.full = db_;
      source.guard = guard_;
      IntervalSet& slot = extents_[ip];
      slot = cur.Subtract(EvalMetricExtent(lit.metric, *regs_, source, cur));
      if (slot.IsEmpty()) return Status::Ok();
      return Exec(ip + 1, slot);
    }

    case OpCode::kSplitTimestamp: {
      const BuiltinAtom& b = eval_.rule().body[instr.arg].builtin;
      std::vector<Rational>& points = ts_points_[instr.arg];
      points.clear();
      if (!cur.IsPunctualOnly(&points)) {
        return Status::EvalError(
            "timestamp() requires a punctual join extent; got " +
            cur.ToString() + " in rule: " + eval_.rule().ToString());
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
            eval_.rule().body[i].metric, binding, source, computed));
        if (computed.IsEmpty()) break;
      }
      for (size_t i : cp.negated_guards) {
        if (computed.IsEmpty()) break;
        computed = computed.Subtract(EvalMetricExtent(
            eval_.rule().body[i].metric, binding, source, computed));
      }
      it->second = std::move(computed);
    }
    const IntervalSet& allowed = it->second;
    if (allowed.IsEmpty()) continue;

    const Interval* comps = seed_set.begin();
    const size_t num_seeds = seed_set.size();
    const bool fwd = !cp.step.is_negative();
    // Cursor over `allowed` for the shortcut's membership probes. Seeds are
    // visited in ascending time whatever the sign of step, so the probed
    // point (seed + step) ascends too and the cursor only moves forward:
    // the first probe bisects, every later one steps on from there instead
    // of bisecting again.
    const Interval* allowed_at = nullptr;
    const Interval* const allowed_end = allowed.end();
    for (size_t si = 0; si < num_seeds; ++si) {
      const Interval& seed = comps[si];
      if (seed.IsPunctual()) {
        // Interior-of-a-run shortcut. A batch emitted last round arrives
        // here as a run of grid-consecutive seed points; for every seed but
        // the run's end in walk direction, the next grid point is itself a
        // seed - already in the store - so a point-by-point walk would emit
        // it, find nothing fresh, and stop: exactly one extension. Skip
        // the component search and coverage probes for those.
        const Rational next = seed.lo().value + cp.step;
        const Interval* adj = nullptr;
        if (fwd) {
          if (si + 1 < num_seeds && comps[si + 1].IsPunctual()) {
            adj = &comps[si + 1];
          }
        } else if (si > 0 && comps[si - 1].IsPunctual()) {
          adj = &comps[si - 1];
        }
        if (adj != nullptr && adj->lo().value == next) {
          auto ends_before = [&](const Interval& iv) {
            return UpperEndsBefore(iv.hi(), next);
          };
          if (allowed_at == nullptr) {
            allowed_at = std::partition_point(allowed.begin(), allowed_end,
                                              ends_before);
          }
          while (allowed_at != allowed_end && ends_before(*allowed_at)) {
            ++allowed_at;
          }
          if (allowed_at != allowed_end && allowed_at->Contains(next)) {
            *extensions += 1;
            continue;
          }
        }
        DMTL_RETURN_IF_ERROR(WalkGrid(db, tuple, seed.lo().value, allowed,
                                      emit, guard, extensions));
      } else {
        // Interval seeds iterate shift-and-clip (components coalesce, so it
        // converges in a few passes), emitting each pass as one set.
        IntervalSet covered{seed};
        IntervalSet frontier{seed};
        while (!frontier.IsEmpty()) {
          IntervalSet shifted =
              frontier.Shift(cp.step).Intersect(allowed).Subtract(covered);
          if (shifted.IsEmpty()) break;
          *extensions += shifted.size();
          DMTL_RETURN_IF_ERROR(emit(tuple, shifted));
          if (guard != nullptr &&
              (++guard_counter_ & kChainGuardStrideMask) == 0) {
            DMTL_RETURN_IF_ERROR(guard->Check());
          }
          covered.UnionWith(shifted);
          frontier = std::move(shifted);
        }
      }
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
  const PredicateId head = eval_.rule().head.predicate;
  Rational t = seed + step;
  // Cursor: the allowed component holding the latest batched point. The walk
  // only moves in grid direction, so one bisect places it and every later
  // lookup steps on from there.
  const Interval* comp = FindComponent(allowed, t);
  if (comp == nullptr) return Status::Ok();  // walked out of allowed time
  while (true) {
    // Batch: the consecutive grid points from t that stay in allowed time,
    // up to the batch cap. The run crosses component boundaries whenever
    // the next component in walk direction holds the next grid point - a
    // point-grid guard makes every component a single point.
    batch_.clear();
    Rational p = t;
    while (batch_.size() < static_cast<size_t>(kChainBatchPoints)) {
      const Interval* at = StepCursor(allowed, comp, p, fwd);
      if (at == nullptr) break;
      comp = at;
      int64_t take =
          kChainBatchPoints - static_cast<int64_t>(batch_.size());
      std::optional<int64_t> within = StepsWithin(*comp, p, step);
      if (within.has_value() && *within < take) take = *within + 1;
      for (int64_t i = 0; i < take; ++i) {
        batch_.push_back(Interval::Point(p));
        p = p + step;
      }
    }
    if (batch_.empty()) return Status::Ok();  // walked out of allowed time

    // Stop ahead of already-derived coverage. It is re-fetched per batch:
    // the walk's own emissions extend (and may move) it.
    const IntervalSet* derived = nullptr;
    if (const Relation* rel = db.Find(head)) derived = rel->Find(tuple);
    const int64_t run = static_cast<int64_t>(batch_.size());
    std::optional<int64_t> n = FirstCoveredStep(derived, t, step, run - 1);

    if (n.has_value() && *n == 0) {
      // The next grid point is already derived: a point-by-point walk would
      // emit it (a no-op insert), find nothing fresh, and stop - it still
      // counts as one extension.
      *extensions += 1;
      return Status::Ok();
    }

    const int64_t m = n.has_value() ? *n : run;
    batch_.erase(batch_.begin() + m, batch_.end());
    DMTL_RETURN_IF_ERROR(emit(tuple, IntervalSet::FromIntervals(batch_)));
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
  std::string out = v.prog.Dump(eval_.rule());
  if (chain_.has_value()) out += chain_->Dump(eval_.rule());
  return out;
}

}  // namespace dmtl
