#ifndef DMTL_EVAL_BINDINGS_H_
#define DMTL_EVAL_BINDINGS_H_

#include <vector>

#include "src/ast/term.h"

namespace dmtl {

// A partial assignment of rule variables to values. Slot count equals the
// rule's variable table size; unbound slots are tracked explicitly (Null is
// not used as a sentinel, so facts may legally carry nulls).
class Bindings {
 public:
  explicit Bindings(int num_vars)
      : values_(num_vars), bound_(num_vars, false) {}

  bool IsBound(int var) const { return bound_[var]; }
  const Value& Get(int var) const { return values_[var]; }

  void Set(int var, Value v) {
    values_[var] = std::move(v);
    bound_[var] = true;
  }

  // Marks a slot unbound again (the value is left in place). The rule VM
  // backtracks by unsetting the registers an atom bound.
  void Unset(int var) { bound_[var] = false; }

  // Resolves a term under this binding; the term must be a constant or a
  // bound variable.
  const Value& Resolve(const Term& term) const;

  // True when every variable of the term is bound (constants trivially so).
  bool IsResolved(const Term& term) const {
    return term.is_constant() || IsBound(term.var());
  }

 private:
  std::vector<Value> values_;
  std::vector<bool> bound_;
};

}  // namespace dmtl

#endif  // DMTL_EVAL_BINDINGS_H_
