#ifndef DMTL_ANALYSIS_SAFETY_H_
#define DMTL_ANALYSIS_SAFETY_H_

#include <set>

#include "src/ast/program.h"
#include "src/common/status.h"

namespace dmtl {

// Variables bound by the positive relational literals of the rule body -
// the bindings stage-1 join enumeration produces, regardless of the order
// the literals are evaluated in. CheckSafety seeds its boundness analysis
// with this set, and the join planner (RulePlanner::Plan) relies on the
// same set when reordering positive literals: any order is safe because
// builtins, negation, and the head only ever depend on variables that are
// positively bound *after all* positive literals have been enumerated.
std::set<int> PositiveLiteralVars(const Rule& rule);

// Checks rule safety in the Vadalog-extended sense:
//  - every variable in the head, in a negated literal, or in a comparison
//    must be bound by a positive relational atom, a timestamp() builtin, or
//    an assignment whose right-hand side is itself bound;
//  - assignment chains must be resolvable in some order (no circular
//    definitions such as X = Y + 1, Y = X + 1 with neither bound).
// Returns kUnsafeRule naming the offending rule and variable.
Status CheckSafety(const Rule& rule);
Status CheckSafety(const Program& program);

}  // namespace dmtl

#endif  // DMTL_ANALYSIS_SAFETY_H_
