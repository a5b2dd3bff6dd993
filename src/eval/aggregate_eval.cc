#include "src/eval/aggregate_eval.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/analysis/safety.h"

namespace dmtl {

namespace {

struct Contribution {
  Value value;
  IntervalSet extent;
};

// Cuts the timeline at every extent endpoint; membership of any extent is
// constant within each returned segment.
std::vector<Interval> AtomicSegments(
    const std::vector<Contribution>& contribs) {
  std::set<Rational> points;
  bool neg_inf = false;
  bool pos_inf = false;
  for (const Contribution& c : contribs) {
    for (const Interval& iv : c.extent) {
      if (iv.lo().infinite) {
        neg_inf = true;
      } else {
        points.insert(iv.lo().value);
      }
      if (iv.hi().infinite) {
        pos_inf = true;
      } else {
        points.insert(iv.hi().value);
      }
    }
  }
  std::vector<Interval> segments;
  if (points.empty()) {
    if (neg_inf || pos_inf) segments.push_back(Interval::All());
    return segments;
  }
  std::vector<Rational> sorted(points.begin(), points.end());
  if (neg_inf) {
    auto gap = Interval::Make(Bound::Infinite(), Bound::Open(sorted.front()));
    if (gap.has_value()) segments.push_back(*gap);
  }
  for (size_t i = 0; i < sorted.size(); ++i) {
    segments.push_back(Interval::Point(sorted[i]));
    if (i + 1 < sorted.size()) {
      segments.push_back(Interval::Open(sorted[i], sorted[i + 1]));
    }
  }
  if (pos_inf) {
    auto gap = Interval::Make(Bound::Open(sorted.back()), Bound::Infinite());
    if (gap.has_value()) segments.push_back(*gap);
  }
  return segments;
}

Rational Representative(const Interval& segment) {
  if (segment.lo().infinite && segment.hi().infinite) return Rational(0);
  if (segment.lo().infinite) return segment.hi().value - Rational(1);
  if (segment.hi().infinite) return segment.lo().value + Rational(1);
  if (segment.IsPunctual()) return segment.lo().value;
  return (segment.lo().value + segment.hi().value) / Rational(2);
}

Result<Value> Aggregate(AggKind kind, const std::vector<Value>& values) {
  if (kind == AggKind::kCount) {
    return Value::Int(static_cast<int64_t>(values.size()));
  }
  for (const Value& v : values) {
    if (!v.is_numeric()) {
      return Status::EvalError("aggregating non-numeric value " +
                               v.ToString());
    }
  }
  switch (kind) {
    case AggKind::kSum: {
      bool all_int = std::all_of(values.begin(), values.end(),
                                 [](const Value& v) { return v.is_int(); });
      if (all_int) {
        int64_t s = 0;
        for (const Value& v : values) s += v.AsInt();
        return Value::Int(s);
      }
      double s = 0;
      for (const Value& v : values) s += v.AsDouble();
      return Value::Double(s);
    }
    case AggKind::kMin: {
      Value best = values[0];
      for (const Value& v : values) {
        if (Value::NumericCompare(v, best) < 0) best = v;
      }
      return best;
    }
    case AggKind::kMax: {
      Value best = values[0];
      for (const Value& v : values) {
        if (Value::NumericCompare(v, best) > 0) best = v;
      }
      return best;
    }
    case AggKind::kAvg: {
      double s = 0;
      for (const Value& v : values) s += v.AsDouble();
      return Value::Double(s / static_cast<double>(values.size()));
    }
    case AggKind::kCount:
      break;
  }
  return Status::Internal("unhandled aggregate kind");
}

}  // namespace

Result<AggregateEvaluator> AggregateEvaluator::Create(const Rule& rule) {
  if (!rule.head.aggregate.has_value()) {
    return Status::InvalidArgument("rule has no aggregate head: " +
                                   rule.ToString());
  }
  return AggregateEvaluator(rule.head);
}

std::vector<Term> AggregateEvaluator::WitnessTerms(const Rule& rule) {
  std::vector<Term> terms = rule.head.args;
  std::set<int> bound = PositiveLiteralVars(rule);
  for (const BodyLiteral& lit : rule.body) {
    if (lit.kind == BodyLiteral::Kind::kBuiltin &&
        lit.builtin.kind != BuiltinAtom::Kind::kCompare) {
      bound.insert(lit.builtin.var);
    }
  }
  for (const Term& t : rule.head.args) {
    if (t.is_variable()) bound.erase(t.var());
  }
  for (int var : bound) terms.push_back(Term::Variable(var));
  return terms;
}

Status AggregateEvaluator::Evaluate(const std::vector<WitnessRow>& witnesses,
                                    const EmitFn& emit) const {
  const AggregateSpec& spec = *head_.aggregate;
  const size_t arity = head_.args.size();

  // Group rows by the non-aggregated head arguments.
  std::map<Tuple, std::vector<Contribution>> groups;
  for (const auto& [values, extent] : witnesses) {
    Tuple key;
    key.reserve(arity);
    for (size_t i = 0; i < arity; ++i) {
      if (static_cast<int>(i) != spec.arg_index) key.push_back(values[i]);
    }
    groups[key].push_back({values[spec.arg_index], extent});
  }

  for (auto& [key, contribs] : groups) {
    // Deterministic double-summation order regardless of hash iteration.
    std::stable_sort(contribs.begin(), contribs.end(),
                     [](const Contribution& a, const Contribution& b) {
                       return a.value < b.value;
                     });
    for (const Interval& segment : AtomicSegments(contribs)) {
      Rational rep = Representative(segment);
      std::vector<Value> values;
      for (const Contribution& c : contribs) {
        if (c.extent.Contains(rep)) values.push_back(c.value);
      }
      if (values.empty()) continue;
      DMTL_ASSIGN_OR_RETURN(Value agg, Aggregate(spec.kind, values));
      // Reassemble the full head tuple with the aggregate slotted in.
      Tuple tuple = key;
      tuple.insert(tuple.begin() + spec.arg_index, std::move(agg));
      IntervalSet extent{segment};
      for (const HeadAtom::HeadOp& op : head_.ops) {
        extent = op.op == MtlOp::kBoxMinus ? extent.DiamondPlus(op.range)
                                           : extent.DiamondMinus(op.range);
      }
      DMTL_RETURN_IF_ERROR(emit(tuple, extent));
    }
  }
  return Status::Ok();
}

}  // namespace dmtl
