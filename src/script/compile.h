// AdviceScript bytecode: the compiled form executed by script/vm.h.
//
// A Program is compiled once (at package install; the MIDAS receiver
// caches CompiledUnits by script hash) into flat instruction streams —
// one Chunk per function plus one for the top level. The compiler:
//
//   * allocates locals to frame slots statically (block-scoped, slots
//     reused between sibling blocks), so the Vm never touches a hash map
//     for a local variable;
//   * resolves builtin call sites to dense indices into a per-unit
//     builtin-name table, so the Vm resolves each distinct callee to an
//     Entry* + capability verdict exactly once at construction — the
//     per-call BuiltinRegistry::find string hash leaves the hot loop;
//   * lowers statically-detectable faults (arity mismatch, break/continue
//     outside a loop, return at top level, non-assignable targets) to
//     kFail instructions carrying the interpreter's exact message, so the
//     error surfaces at the same dynamic point with the same text;
//   * charges a step at every point the reference interpreter ticks (each
//     statement execution, each expression evaluation). A run of
//     consecutive same-line steps rides on the instruction that follows it
//     in `Insn::steps`, and the Vm charges it before that instruction
//     runs. A run goes out as a standalone kTick when the next
//     instruction carries another source line or is a jump target (a jump
//     charges exactly the steps from its target onward), and at 65,535
//     steps, the most one instruction carries. The Vm charges a
//     crossing of the budget or deadline inside a run at the exact step,
//     so step counts — and therefore budget/deadline error types and
//     lines — stay identical between engines;
//   * reads a binary operator's literal or local right operand in place:
//     kBinary's `b` names it, so the operand is never pushed and popped.
//
// Names lexically outside any local scope compile to by-name global
// accesses, which is exactly the interpreter's scope-walk fallback.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "script/ast.h"

namespace pmp::script {

enum class Op : std::uint8_t {
    kTick,          // nothing: it only carries steps (see Insn::steps)
    kConst,         // push constants[a]
    kLoadLocal,     // push slots[a]
    kStoreLocal,    // slots[a] = pop
    kLoadGlobal,    // push globals[names[a]]; fails "undefined variable"
    kLetGlobal,     // globals[names[a]] = pop (declare/overwrite)
    kStoreGlobal,   // existing globals[names[a]] = pop; fails "undeclared"
    kPop,           // discard top
    kJump,          // ip = a
    kJumpIfFalse,   // if !truthy(pop) ip = a
    kAndShort,      // if !truthy(pop) { push false; ip = a }
    kOrShort,       // if truthy(pop) { push true; ip = a }
    kToBool,        // top = truthy(top)
    kNot,           // top = !truthy(top)
    kNeg,           // top = -top (numbers only)
    kBinary,        // a = BinOp; rhs = b > 0 ? constants[b-1] : b < 0 ? slots[-b-1]
                    // : pop; lhs = top; top = lhs <op> rhs
    kIndexGet,      // idx = pop, base = pop, push base[idx]
    kMemberGet,     // base = pop, push base.names[a]
    kMakeList,      // pop a values, push list
    kNewDict,       // push {}
    kDictKeyCheck,  // top must be a str ("dict key expects a str")
    kDictInsert,    // v = pop, k = pop, dict at top: set(k, v)
    kCallFn,        // call functions[a] with b args popped from the stack
    kCallBuiltin,   // call builtin slot a with b args
    kReturn,        // return pop to caller
    kReturnNull,    // return null to caller
    kFail,          // throw ScriptError(names[a]) — message preformatted
    kThrow,         // throw ScriptError(display(pop) + " (line N)")
    kLvalLocal,     // lval-push &slots[a]
    kLvalGlobal,    // lval-push &existing global names[a]; fails "undeclared"
    kLvalIndex,     // idx = pop; lval-top = &(*lval-top)[idx] (append/create)
    kLvalMember,    // lval-top = &(*lval-top).names[a] (create missing)
    kLvalStore,     // *(lval-pop) = pop
    kForPrep,       // iterable = pop; slots[a] = items, slots[a+1] = 0
    kForNext,       // if idx == len jump a else slots[b+2] = items[idx++]
};

const char* op_name(Op op);

struct Insn {
    Op op;
    /// Steps charged, all on source line `line`, before the instruction runs.
    std::uint16_t steps = 0;
    std::int32_t a = 0;
    std::int32_t b = 0;
    std::int32_t line = 0;
};
static_assert(sizeof(Insn) == 16);

/// One straight-line instruction stream: a function body or the top level.
struct Chunk {
    std::string name;  ///< function name; empty for the top level
    std::vector<Insn> code;
    int n_params = 0;
    int n_slots = 0;  ///< frame slot count (params + deepest live locals)
};

/// The compiled form of one Program. Immutable after compile(); shared
/// between any number of Vm instances (the receiver's compile cache hands
/// the same unit to every install of the same script).
struct CompiledUnit {
    std::shared_ptr<const Program> program;  ///< reference AST, kept alive
    std::vector<rt::Value> constants;
    std::vector<std::string> names;          ///< identifiers + kFail messages
    std::vector<std::string> builtin_names;  ///< distinct non-user callees
    Chunk top_level;
    std::vector<Chunk> functions;  ///< parallel to program->functions
    std::unordered_map<std::string, std::size_t> function_index;

    const Chunk* find_function(std::string_view name) const {
        auto it = function_index.find(std::string(name));
        return it == function_index.end() ? nullptr : &functions[it->second];
    }
};

/// Compile a parsed program. Never throws for valid parser output; all
/// script-level faults are lowered to runtime instructions so they keep
/// the interpreter's dynamic semantics (e.g. an arity mismatch only
/// fires if the call executes, after its arguments were evaluated).
std::shared_ptr<const CompiledUnit> compile(std::shared_ptr<const Program> program);

/// Human-readable listing (docs, debugging, compile_test).
std::string disassemble(const CompiledUnit& unit);

}  // namespace pmp::script
