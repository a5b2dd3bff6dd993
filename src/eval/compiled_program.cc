#include "src/eval/compiled_program.h"

#include <string>
#include <utility>

#include "src/analysis/safety.h"
#include "src/eval/chain_accel.h"
#include "src/eval/rule_compile.h"
#include "src/storage/snapshot.h"

namespace dmtl {

namespace {

// Walks one body literal's operator path, summing the upper range bounds
// down to each relational atom: the atom's reach, i.e. how far into the
// past a head at t reads it.
// `any_positive` is set when a positive relational atom is reached.
Status WalkMetric(const MetricAtom& m, Rational hi, bool hi_inf,
                  bool positive, size_t rule_index, bool* any_positive,
                  StreamingReach* reach) {
  switch (m.kind()) {
    case MetricAtom::Kind::kRelational: {
      if (hi_inf) reach->cutoff_inf = true;
      else if (reach->cutoff < hi) reach->cutoff = hi;
      if (positive) {
        *any_positive = true;
        if (hi_inf) reach->reach_inf = true;
        else if (reach->reach < hi) reach->reach = hi;
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
      return WalkMetric(m.left(), nhi, ninf, positive, rule_index,
                        any_positive, reach);
    }
    case MetricAtom::Kind::kBinary:
      return Status::InvalidArgument(
          "rule " + std::to_string(rule_index) +
          ": since/until are not streaming-eligible");
  }
  return Status::Internal("unknown metric atom kind");
}

// The rule half of streaming eligibility: no head operators, past-directed
// body operators, and a positive relational atom in every rule.
Status WalkStreamingRules(const Program& program, StreamingReach* reach) {
  const auto& rules = program.rules();
  for (size_t i = 0; i < rules.size(); ++i) {
    const Rule& rule = rules[i];
    if (!rule.head.ops.empty()) {
      return Status::InvalidArgument(
          "rule " + std::to_string(i) +
          ": head operators are not streaming-eligible (they derive "
          "outside the body match, breaking watermark finality)");
    }
    bool any_positive = false;
    for (const BodyLiteral& lit : rule.body) {
      if (lit.kind != BodyLiteral::Kind::kMetric) continue;
      DMTL_RETURN_IF_ERROR(WalkMetric(lit.metric, Rational(0), false,
                                      !lit.negated, i, &any_positive, reach));
    }
    if (!any_positive) {
      return Status::InvalidArgument(
          "rule " + std::to_string(i) +
          ": no positive relational atom; its derivations could never be "
          "reached by a streaming delta");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<std::shared_ptr<const CompiledProgram>> CompiledProgram::Create(
    Program program) {
  DMTL_RETURN_IF_ERROR(program.CheckArities());
  // Also what the rule VM relies on: its head projection reads registers
  // unconditionally, so every head variable must be bound by the body.
  DMTL_RETURN_IF_ERROR(CheckSafety(program));
  std::shared_ptr<CompiledProgram> p(new CompiledProgram(std::move(program)));
  DMTL_ASSIGN_OR_RETURN(p->strat_, Stratify(p->program_));

  const std::vector<Rule>& rules = p->program_.rules();
  p->rules_.reserve(rules.size());
  for (const Rule& rule : rules) {
    DMTL_ASSIGN_OR_RETURN(RulePlanner planner, RulePlanner::Create(rule));
    CompiledRule c{std::move(planner), std::nullopt, std::nullopt, {}};
    if (std::optional<ChainAccelerator::ChainInfo> info =
            ChainAccelerator::Detect(rule, p->strat_.predicate_stratum)) {
      c.chain = RuleCompiler::CompileChain(rule, *info);
    }
    if (rule.head.aggregate.has_value()) {
      DMTL_ASSIGN_OR_RETURN(c.agg, AggregateEvaluator::Create(rule));
    }
    for (const BodyLiteral& lit : rule.body) {
      if (lit.kind != BodyLiteral::Kind::kMetric || lit.negated) continue;
      std::vector<const RelationalAtom*> atoms;
      lit.metric.CollectRelationalAtoms(&atoms);
      for (const RelationalAtom* a : atoms) {
        c.positive_preds.insert(a->predicate);
      }
    }
    p->rules_.push_back(std::move(c));
  }

  p->stratum_body_preds_.resize(p->strat_.num_strata);
  for (int s = 0; s < p->strat_.num_strata; ++s) {
    for (size_t id : p->strat_.rule_strata[s]) {
      const std::set<PredicateId>& preds = p->rules_[id].positive_preds;
      p->stratum_body_preds_[s].insert(preds.begin(), preds.end());
    }
  }

  p->streaming_status_ = WalkStreamingRules(p->program_, &p->reach_);
  return std::shared_ptr<const CompiledProgram>(std::move(p));
}

uint64_t CompiledProgram::fingerprint() const {
  std::call_once(fingerprint_once_,
                 [this] { fingerprint_ = ProgramFingerprint(program_); });
  return fingerprint_;
}

}  // namespace dmtl
