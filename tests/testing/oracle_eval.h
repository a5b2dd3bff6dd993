#ifndef DMTL_TESTS_TESTING_ORACLE_EVAL_H_
#define DMTL_TESTS_TESTING_ORACLE_EVAL_H_

// A reference evaluator for differential tests of the engine's rule VM.
//
// It walks each rule's AST, joining the positive literals smallest first
// by plain scans (or the store's first-argument map): no cost model, no
// bound-signature indexes, no envelope pruning, no bytecode, no chain
// acceleration. Each rule runs as a staged row pipeline (positive literals,
// builtins that do not read a timestamp, negated literals, timestamp
// splits, the remaining builtins, head projection), and every stratum runs
// its own fixpoint loop: naive, or semi-naive by restricting one positive
// atom occurrence at a time to the previous round's fresh coverage. What it
// shares with the engine is the MTL operator kernels (EvalMetricExtent),
// the builtin arithmetic, the storage, the stratifier and
// AggregateEvaluator's grouping.

#include <vector>

#include "src/ast/program.h"
#include "src/common/status.h"
#include "src/eval/operators.h"
#include "src/eval/seminaive.h"
#include "src/storage/database.h"

namespace dmtl {

// The oracle's fixpoint loop per stratum: every round re-evaluates each
// rule in full (naive), or rounds after the first restrict one positive
// atom occurrence at a time to the previous round's fresh coverage.
enum class OracleLoop { kSemiNaive, kNaive };

// Materializes `program` over `db` in place, deriving only inside
// [options.min_time, options.max_time]. Reads the window and max_rounds;
// every other option is ignored. Each freshly covered piece is appended to
// `provenance` when it is non-null, with the oracle's own round numbers.
Status OracleMaterialize(const Program& program, Database* db,
                         const EngineOptions& options,
                         std::vector<DerivationRecord>* provenance = nullptr,
                         OracleLoop loop = OracleLoop::kSemiNaive);

// Evaluates one rule over `db` in full, as one stratum-free pass, and
// emits each (head tuple, extent). An aggregate rule emits its aggregates.
Status OracleDerive(const Rule& rule, const Database& db, const EmitFn& emit);

}  // namespace dmtl

#endif  // DMTL_TESTS_TESTING_ORACLE_EVAL_H_
