// AdviceScript bytecode virtual machine — the one engine the product runs.
//
// Executes CompiledUnits (script/compile.h) with the exact observable
// semantics of the tree-walking reference interpreter the tests keep as
// their oracle: same results, same typed errors with the same messages,
// same step counts (an instruction charges its `steps`, the run of
// points the interpreter ticks at just before it, on the same line; when
// a budget or deadline is crossed inside a run, the Vm charges up to the
// crossing step only). What the compiled form changes is the cost model:
//
//   * step charges ride on the instructions: a test per instruction, and
//     an add, a compare and a rarely taken branch per run of steps, with
//     no dispatch of their own except where a run ends at a line change
//     or a jump target;
//   * a binary operator reads a literal or local right operand in place,
//     so the operand is neither pushed nor popped;
//   * locals are frame slots (no per-variable hash lookups), carved LIFO
//     from a frame arena of pointer-stable blocks the Vm owns: a call
//     bumps an offset, a return nulls its slots and restores the offset.
//     Blocks grow from the unit's largest frame, doubling, and an
//     outermost call merges them into one while no frame is live, so a
//     Vm keeps about what its deepest call chain used in one block;
//   * a host binds an entry point once (find_function) and calls the
//     handle, so an advice invocation hashes no function name;
//   * each distinct builtin callee is resolved once at Vm construction to
//     an Entry* plus a precomputed capability verdict, so the per-call
//     BuiltinRegistry::find string hash is gone from the dispatch loop;
//   * each global name is resolved once per Vm, the first time it exists,
//     to its globals_ node, so global loads and stores hash no string; a
//     global member read (`config.limit`) reads the member in place
//     instead of copying the whole global onto the stack;
//   * frames, operand stack and builtin argument lists are reused, so a
//     steady-state advice invocation performs no allocations beyond what
//     the script's own values require.
//
// The full Sandbox contract is enforced: step budget, deadline watchdog,
// capability gating, recursion cap. Re-entrant calls (a host builtin
// calling back into script) share the outermost invocation's step meter,
// like the interpreter.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "script/compile.h"
#include "script/engine.h"

namespace pmp::script {

class Vm final : public Engine {
public:
    /// The registry must be fully populated before construction: builtin
    /// references are resolved here, once, not per call.
    Vm(std::shared_ptr<const CompiledUnit> unit, Sandbox sandbox,
       std::shared_ptr<const BuiltinRegistry> builtins);

    void run_top_level() override;

    /// The handle is the function's Chunk.
    FunctionHandle find_function(std::string_view name) const override {
        return FunctionHandle{unit_->find_function(name)};
    }

    using Engine::call;
    rt::Value call(FunctionHandle fn, rt::List args) override;

    const rt::Value* global(const std::string& name) const override;
    void set_global(const std::string& name, rt::Value value) override;

    const Sandbox& sandbox() const override { return sandbox_; }

    void set_step_observer(StepObserver fn) override { step_observer_ = std::move(fn); }
    std::uint64_t last_call_steps() const override { return last_call_steps_; }

    const CompiledUnit& unit() const { return *unit_; }

    /// The frame arena's footprint (tests, diagnostics). Between calls
    /// `live_slots` is 0: every popped frame leaves its slots null.
    struct ArenaStats {
        std::size_t blocks = 0;
        std::size_t capacity = 0;    ///< slots over all blocks
        std::size_t live_slots = 0;  ///< slots holding a non-null value
    };
    ArenaStats arena_stats() const;

private:
    struct ResolvedBuiltin {
        const BuiltinRegistry::Entry* entry;  ///< nullptr: unknown function
        bool allowed;                         ///< capability verdict, precomputed
        const std::string* name;              ///< into unit_->builtin_names
    };

    /// A position in the frame arena: block index and offset in it.
    struct ArenaMark {
        std::size_t block;
        std::size_t top;
    };

    struct Frame {
        const Chunk* chunk;
        std::size_t ip;
        std::size_t stack_base;  ///< operand-stack height at entry
        rt::Value* slots;        ///< carved from the arena; never moves, so
                                 ///< lvalue pointers survive nested calls
        ArenaMark mark;          ///< arena position restored on pop
        bool counts_depth;       ///< function frames count recursion
    };

    struct ArgLease;

    rt::Value invoke(const Chunk& chunk, rt::List args, bool counts_depth);
    rt::Value run(std::size_t entry_frames);
    void push_frame(const Chunk& chunk, std::size_t argc, bool counts_depth);
    /// Null the top frame's slots, give them back to the arena, pop it.
    void pop_frame();
    void unwind(std::size_t entry_frames, std::size_t entry_stack,
                std::size_t entry_lstack);
    /// Continue the arena in the next block, made on first use.
    void next_block();
    /// With no frame live, replace the blocks by one as large as all of
    /// them, so a call chain as deep as the deepest so far fits in one
    /// block and never crosses into the next.
    void merge_arena();
    /// Make arena_[block] the current block (arena_top_ is the caller's).
    void use_block(std::size_t block);
    rt::List& lease_args();
    /// The global named names[name]; nullptr while it is undefined.
    rt::Value* global_ref(std::int32_t name);

    std::shared_ptr<const CompiledUnit> unit_;
    Sandbox sandbox_;
    std::shared_ptr<const BuiltinRegistry> builtins_;
    std::vector<ResolvedBuiltin> resolved_;

    std::unordered_map<std::string, rt::Value> globals_;
    /// Parallel to unit_->names: the globals_ node of each name, filled on
    /// first resolution. Nodes survive rehashing and no global is ever
    /// erased, so an entry never goes stale.
    std::vector<rt::Value*> global_refs_;
    std::vector<rt::Value> stack_;    ///< operand stack, reused across calls
    std::vector<rt::Value*> lstack_;  ///< lvalue resolution stack
    std::vector<Frame> frames_;
    /// The frame arena. Every slot at or above the current mark is null.
    /// Each block holds at least the unit's largest frame, so a frame
    /// always fits in a fresh block.
    struct ArenaBlock {
        std::unique_ptr<rt::Value[]> slots;
        std::size_t size;
    };
    std::vector<ArenaBlock> arena_;
    std::size_t max_frame_slots_ = 0;
    std::size_t arena_block_ = 0;  ///< current block; 0 before the first
    std::size_t arena_top_ = 0;    ///< slots used in the current block
    rt::Value* arena_base_ = nullptr;
    std::size_t arena_size_ = 0;
    std::vector<std::unique_ptr<rt::List>> arg_pool_;  ///< stable refs under nesting
    std::size_t arg_pool_top_ = 0;

    std::uint64_t steps_ = 0;  ///< this outermost call's, nested calls included
    /// min(step budget, deadline): one compare on the step fast path; past
    /// it, ops::tick_check picks the correct typed error.
    std::uint64_t step_limit_ = 0;
    std::uint64_t last_call_steps_ = 0;
    int call_nesting_ = 0;
    int depth_ = 0;
    StepObserver step_observer_;
};

}  // namespace pmp::script
