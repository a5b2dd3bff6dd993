#include "src/eval/chain_accel.h"

#include <set>

namespace dmtl {

std::optional<ChainAccelerator::ChainInfo> ChainAccelerator::Detect(
    const Rule& rule, const std::map<PredicateId, int>& predicate_stratum) {
  if (!rule.head.ops.empty() || rule.head.aggregate.has_value()) {
    return std::nullopt;
  }
  auto head_it = predicate_stratum.find(rule.head.predicate);
  if (head_it == predicate_stratum.end()) return std::nullopt;
  int head_stratum = head_it->second;

  ChainInfo info;
  info.predicate = rule.head.predicate;
  bool found_self = false;

  // Variables of the head; guards must not introduce bound variables beyond
  // these (anonymous variables in *negated* guards stay existential).
  std::set<int> head_vars;
  for (const Term& t : rule.head.args) {
    if (t.is_variable()) head_vars.insert(t.var());
  }

  for (size_t i = 0; i < rule.body.size(); ++i) {
    const BodyLiteral& lit = rule.body[i];
    if (lit.kind == BodyLiteral::Kind::kBuiltin) return std::nullopt;
    const MetricAtom& m = lit.metric;
    if (!lit.negated && m.kind() == MetricAtom::Kind::kUnary &&
        m.left().kind() == MetricAtom::Kind::kRelational &&
        m.left().atom().predicate == rule.head.predicate &&
        m.left().atom().args == rule.head.args && m.range().IsPunctual() &&
        !m.range().lo().value.is_zero()) {
      if (found_self) return std::nullopt;  // two self atoms: not a chain
      switch (m.op()) {
        case MtlOp::kBoxMinus:
        case MtlOp::kDiamondMinus:
          info.step = m.range().lo().value;
          break;
        case MtlOp::kBoxPlus:
        case MtlOp::kDiamondPlus:
          info.step = -m.range().lo().value;
          break;
        default:
          return std::nullopt;
      }
      info.self_literal = i;
      found_self = true;
      continue;
    }
    // Guard literal: every predicate inside must be strictly below the head
    // stratum (so its extent is final when the chain runs).
    std::vector<const RelationalAtom*> atoms;
    m.CollectRelationalAtoms(&atoms);
    if (atoms.empty() && m.kind() != MetricAtom::Kind::kTruth) {
      return std::nullopt;
    }
    for (const RelationalAtom* atom : atoms) {
      auto it = predicate_stratum.find(atom->predicate);
      int s = it == predicate_stratum.end() ? 0 : it->second;
      if (s >= head_stratum) return std::nullopt;
      for (const Term& t : atom->args) {
        if (t.is_variable() && !head_vars.count(t.var())) {
          // Free variables are only tolerated existentially in negation.
          if (!lit.negated) return std::nullopt;
        }
      }
    }
    if (lit.negated) {
      info.negated_guards.push_back(i);
    } else {
      info.positive_guards.push_back(i);
    }
  }
  if (!found_self) return std::nullopt;
  return info;
}

}  // namespace dmtl
