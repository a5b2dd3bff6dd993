#ifndef DMTL_TESTS_TESTING_COMPILE_RULE_H_
#define DMTL_TESTS_TESTING_COMPILE_RULE_H_

#include <memory>
#include <utility>

#include "src/ast/program.h"
#include "src/common/status.h"
#include "src/eval/compiled_program.h"
#include "src/eval/vm.h"

namespace dmtl {

// One rule compiled as a one-rule program, with a fresh VM over it: for
// tests that drive a single rule's VM directly. `(*compiled)->Evaluate`
// reaches the VM.
struct CompiledRuleVm {
  std::shared_ptr<const CompiledProgram> program;
  std::unique_ptr<RuleVm> vm;

  RuleVm* operator->() const { return vm.get(); }
};

inline Result<CompiledRuleVm> CompileRule(const Rule& rule) {
  Program program;
  program.AddRule(rule);
  DMTL_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledProgram> compiled,
                        CompiledProgram::Create(std::move(program)));
  CompiledRuleVm out{std::move(compiled), nullptr};
  out.vm = std::make_unique<RuleVm>(out.program->rules()[0]);
  return out;
}

}  // namespace dmtl

#endif  // DMTL_TESTS_TESTING_COMPILE_RULE_H_
