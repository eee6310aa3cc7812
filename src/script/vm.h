// AdviceScript bytecode virtual machine — the one engine the product runs.
//
// Executes CompiledUnits (script/compile.h) with the exact observable
// semantics of the tree-walking reference interpreter the tests keep as
// their oracle: same results, same typed errors with the same messages,
// same step counts (the compiler emits a kTick at every point the
// interpreter ticks). What the compiled form changes is the cost model:
//
//   * locals are frame slots (no per-variable hash lookups);
//   * each distinct builtin callee is resolved once at Vm construction to
//     an Entry* plus a precomputed capability verdict, so the per-call
//     BuiltinRegistry::find string hash is gone from the dispatch loop;
//   * each global name is resolved once per Vm, the first time it exists,
//     to its globals_ node, so global loads and stores hash no string; a
//     global member read (`config.limit`) reads the member in place
//     instead of copying the whole global onto the stack;
//   * frames, operand stack and builtin argument lists are pooled, so a
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

    bool has_function(std::string_view name) const override {
        return unit_->find_function(name) != nullptr;
    }

    rt::Value call(std::string_view name, rt::List args) override;

    const rt::Value* global(const std::string& name) const override;
    void set_global(const std::string& name, rt::Value value) override;

    const Sandbox& sandbox() const override { return sandbox_; }

    void set_step_observer(StepObserver fn) override { step_observer_ = std::move(fn); }
    std::uint64_t last_call_steps() const override { return last_call_steps_; }

    const CompiledUnit& unit() const { return *unit_; }

private:
    struct ResolvedBuiltin {
        const BuiltinRegistry::Entry* entry;  ///< nullptr: unknown function
        bool allowed;                         ///< capability verdict, precomputed
        const std::string* name;              ///< into unit_->builtin_names
    };

    struct Frame {
        const Chunk* chunk;
        std::size_t ip;
        std::size_t stack_base;        ///< operand-stack height at entry
        std::vector<rt::Value> slots;  ///< pooled; heap buffer is stable, so
                                       ///< lvalue pointers survive frame moves
        bool counts_depth;             ///< function frames count recursion
    };

    struct ArgLease;

    rt::Value invoke(const Chunk& chunk, rt::List args, bool counts_depth);
    rt::Value run(std::size_t entry_frames);
    void push_frame(const Chunk& chunk, std::size_t argc, bool counts_depth);
    void unwind(std::size_t entry_frames, std::size_t entry_stack,
                std::size_t entry_lstack);
    std::vector<rt::Value> acquire_slots(std::size_t n);
    void release_slots(std::vector<rt::Value> slots);
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
    std::vector<std::vector<rt::Value>> slot_pool_;
    std::vector<std::unique_ptr<rt::List>> arg_pool_;  ///< stable refs under nesting
    std::size_t arg_pool_top_ = 0;

    std::uint64_t steps_ = 0;
    /// min(step budget, deadline): one compare on the tick fast path; past
    /// it, ops::tick_check picks the correct typed error.
    std::uint64_t step_limit_ = 0;
    std::uint64_t total_steps_ = 0;  ///< lifetime; never reset (accounting)
    std::uint64_t last_call_steps_ = 0;
    int call_nesting_ = 0;
    int depth_ = 0;
    StepObserver step_observer_;
};

}  // namespace pmp::script
