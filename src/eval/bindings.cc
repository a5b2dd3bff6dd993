#include "src/eval/bindings.h"

#include <cassert>

namespace dmtl {

const Value& Bindings::Resolve(const Term& term) const {
  if (term.is_constant()) return term.value();
  assert(IsBound(term.var()));
  return Get(term.var());
}

}  // namespace dmtl
