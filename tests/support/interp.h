// AdviceScript tree-walking interpreter — the reference semantics.
//
// The product runs AdviceScript on one engine, the bytecode Vm
// (script/vm.h). This interpreter lives next to the tests as their oracle:
// it defines the semantics the Vm must reproduce bit-for-bit (results,
// typed errors, step accounting), the differential suites (vm_test,
// property_test, script_test) compare the two on every build, and
// bench_interception times it as the tree-walk baseline of the
// script-engine ablation. It plugs in through the script::Engine seam, so
// a ScriptAspect can be built around it like around a Vm.
//
// The Sandbox / BuiltinRegistry contract (script/sandbox.h) and the shared
// runtime semantics (script/ops.h) come from the shipped library.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "script/ast.h"
#include "script/engine.h"
#include "script/sandbox.h"

namespace pmp::script {

/// Tree-walking evaluator over one Program.
///
/// The top-level statements run once (run_top_level) and populate the
/// extension's global state; advice entry points are then invoked with
/// call(). Globals persist across calls — that is how, e.g., the
/// monitoring extension accumulates a local buffer between interceptions.
class Interpreter final : public Engine {
public:
    Interpreter(std::shared_ptr<const Program> program, Sandbox sandbox,
                std::shared_ptr<const BuiltinRegistry> builtins);

    /// Execute top-level statements (global `let`s etc.). Call once.
    void run_top_level() override;

    /// The handle is the function's FunctionDecl.
    FunctionHandle find_function(std::string_view name) const override {
        return FunctionHandle{program_->find_function(name)};
    }

    /// Invoke a bound function. Throws ScriptError for script faults,
    /// AccessDenied for capability violations, ResourceExhausted for
    /// budget overruns.
    using Engine::call;
    rt::Value call(FunctionHandle fn, rt::List args) override;

    /// Read/write a global (tests and host glue).
    const rt::Value* global(const std::string& name) const override;
    void set_global(const std::string& name, rt::Value value) override;

    const Sandbox& sandbox() const override { return sandbox_; }

    void set_step_observer(StepObserver fn) override { step_observer_ = std::move(fn); }

    /// Steps consumed by the most recent outermost call().
    std::uint64_t last_call_steps() const override { return last_call_steps_; }

private:
    struct Scope {
        std::unordered_map<std::string, rt::Value> vars;
    };

    // Control-flow signals (internal).
    struct ReturnSignal {
        rt::Value value;
    };
    struct BreakSignal {};
    struct ContinueSignal {};

    void tick(int line);
    rt::Value* find_var(const std::string& name);

    void exec_block(const std::vector<StmtPtr>& body);
    void exec(const Stmt& stmt);
    rt::Value eval(const Expr& expr);
    rt::Value eval_binary(const Expr& expr);
    rt::Value eval_call(const Expr& expr);
    rt::Value* resolve_lvalue(const Expr& target);
    rt::Value call_function(const FunctionDecl& fn, rt::List args);

    std::shared_ptr<const Program> program_;
    Sandbox sandbox_;
    std::shared_ptr<const BuiltinRegistry> builtins_;

    Scope globals_;
    std::vector<Scope> scopes_;  // current frame's lexical scopes
    std::uint64_t steps_ = 0;
    std::uint64_t total_steps_ = 0;  ///< lifetime; never reset (accounting)
    std::uint64_t last_call_steps_ = 0;
    int call_nesting_ = 0;
    int depth_ = 0;
    StepObserver step_observer_;
};

}  // namespace pmp::script
