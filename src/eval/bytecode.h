#ifndef DMTL_EVAL_BYTECODE_H_
#define DMTL_EVAL_BYTECODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ast/rule.h"
#include "src/eval/operators.h"

namespace dmtl {

// Flat register-style programs the rule compiler lowers rules into - one
// program per (rule, semi-naive delta occurrence) variant. The program bakes
// in the planner's literal order, each atom's bound-signature and index-key
// recipe, the unification plan per tuple position (boundness is static once
// the literal order is fixed), each literal's root-to-atom operator path,
// and the head projection. The dispatch loop (RuleVm) then runs a DFS over the program
// with no per-candidate allocation: variables bind into one shared register
// file and are unset on backtrack.
//
// The row pipeline runs RulePlanner's stages in order: positive literals
// (in plan order), early builtins, negated literals, timestamp splits, late
// builtins, head emission.

enum class OpCode : uint8_t {
  // Prologue (straight-line, once per dispatch): resolve the relation and
  // bound-signature index handles of one atom. arg = atom slot.
  kLoadIndex,
  // Enumerate one relational atom's candidate tuples (index probe when the
  // atom has a bound signature and an index, scan otherwise), unify each
  // candidate into the registers, and recurse. arg = atom slot.
  kProbe,
  // Close a positive literal of bare-atom or general shape: intersect its
  // extent into the row. arg = literal slot.
  kIntersectTemporal,
  // Close a positive literal of unary-chain shape: apply the operator path
  // to the leaf extent, windowed by the row, and intersect. arg = literal
  // slot.
  kApplyUnaryChain,
  // Evaluate a comparison/assignment builtin on the registers (early and
  // late stages share the opcode; their placement in the code stream is the
  // stage order). arg = rule body index.
  kEvalBuiltin,
  // Subtract a negated literal's extent from the row. arg = body index.
  kNegate,
  // Fan the row out into one execution per punctual time point, binding the
  // timestamp variable. arg = body index.
  kSplitTimestamp,
  // Project the head tuple from the registers, apply the head operator
  // dilation, and emit. arg unused.
  kEmit,
};

const char* OpCodeToString(OpCode op);

struct Instr {
  OpCode op = OpCode::kEmit;
  uint32_t arg = 0;
};

// How one runtime value is produced: from a register (var >= 0) or from the
// program's constant pool.
struct ValueRef {
  int var = -1;
  uint32_t const_index = 0;
};

// One tuple position of an atom's unification plan. Boundness is static at
// compile time (the plan fixes the literal order), so per-candidate
// unification collapses to a preresolved step list.
struct UnifyStep {
  enum class Kind : uint8_t {
    kBind,        // first occurrence of a free variable: write the register
    kCheckVar,    // variable bound upstream: compare against its register
    kCheckConst,  // constant: compare against the pool
  };
  Kind kind = Kind::kBind;
  // Position covered by the probe's bound signature: already matched by the
  // index key, skipped when enumerating via the index.
  bool in_key = false;
  uint16_t pos = 0;
  int var = -1;
  uint32_t const_index = 0;
};

// Everything one kProbe needs, resolved at compile time except the relation
// and index handles themselves (kLoadIndex refreshes those per dispatch -
// relation pointers are stable for the life of a database, index pointers
// for the life of the relation's contents).
struct AtomCode {
  PredicateId pred = 0;
  size_t lit = 0;    // owning literal slot
  size_t arity = 0;
  bool is_delta = false;  // reads the round delta instead of the store
  bool prunable = true;   // may be skipped on temporal-envelope misses
  uint64_t signature = 0;  // bound argument positions at this plan point
  // Index-key recipe, parallel vectors in ascending position order
  // (matching BoundIndex::positions for this signature).
  std::vector<ValueRef> key;
  std::vector<UnifyStep> unify;  // all positions, in tuple order
  // Registers this atom binds (distinct; identical for probe and scan paths
  // since key positions are never kBind). Unset on backtrack.
  std::vector<int> binds;
  std::vector<OpPathStep> path;  // root-to-atom operator chain
  // Relation size when the variant was compiled; the VM replans when a
  // store-backed atom's relation has grown well past this snapshot.
  size_t num_tuples_at_compile = 0;
};

// RulePlanner::LiteralShape, for the compiled path.
enum class LitShape : uint8_t { kBareAtom, kUnaryChain, kGeneral };

struct LiteralCode {
  size_t body_index = 0;
  LitShape shape = LitShape::kGeneral;
  int delta_offset = -1;  // delta atom position within the literal, -1: none
  std::vector<OpPathStep> path;  // unary-chain shape only
};

struct HeadCode {
  PredicateId pred = 0;
  std::vector<ValueRef> args;
  std::vector<HeadAtom::HeadOp> ops;  // outermost first
};

// One compiled (rule, delta occurrence) variant.
struct RuleProgram {
  std::vector<Instr> code;
  size_t prologue = 0;  // leading kLoadIndex count; dispatch starts after
  std::vector<AtomCode> atoms;      // in plan order
  std::vector<LiteralCode> literals;  // in plan order
  std::vector<Value> consts;
  HeadCode head;
  int num_vars = 0;
  double plan_cost = 0.0;

  // Human-readable listing ("00 PROBE a0 price(A, P) index(0) ...").
  std::string Dump(const Rule& rule) const;
};

// The compiled form of a chain-accelerated rule (see ChainAccelerator):
// the head-tuple unification plan plus the guard projection that keys the
// allowed-set cache. Guards only mention the head positions listed in
// guard_projection, so tuples agreeing on those positions share one
// guard-allowed set - the VM caches per projection instead of per tuple.
struct ChainProgram {
  PredicateId pred = 0;
  Rational step;  // signed: +c walks into the future of the timeline
  std::vector<size_t> positive_guards;  // rule body indices
  std::vector<size_t> negated_guards;
  std::vector<UnifyStep> unify;  // over head argument positions
  std::vector<Value> consts;
  // Head positions whose values guards can observe, ascending.
  std::vector<size_t> guard_projection;
  int num_vars = 0;

  std::string Dump(const Rule& rule) const;
};

}  // namespace dmtl

#endif  // DMTL_EVAL_BYTECODE_H_
