// The AdviceScript execution-engine contract.
//
// The product's one engine, the bytecode Vm, implements it; so does the
// tree-walking reference interpreter the tests keep as their oracle.
// Hosts (ScriptAspect, the MIDAS receiver) program against this interface,
// which is what lets a differential test or the tree-walk bench hand a
// ScriptAspect the oracle instead of a Vm.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "rt/value.h"
#include "script/sandbox.h"

namespace pmp::script {

class Engine {
public:
    virtual ~Engine() = default;

    /// Execute top-level statements (global `let`s etc.). Call once.
    virtual void run_top_level() = 0;

    virtual bool has_function(std::string_view name) const = 0;

    /// Invoke a named function. Throws ScriptError for script faults,
    /// AccessDenied for capability violations, ResourceExhausted for
    /// budget overruns, DeadlineExceeded for watchdog overruns.
    virtual rt::Value call(std::string_view name, rt::List args) = 0;

    /// Read/write a global (tests and host glue).
    virtual const rt::Value* global(const std::string& name) const = 0;
    virtual void set_global(const std::string& name, rt::Value value) = 0;

    virtual const Sandbox& sandbox() const = 0;

    /// Fired once per *outermost* call() with the number of steps that
    /// invocation consumed — including on throw, so runaway invocations
    /// are charged too. The MIDAS receiver's resource governor hangs its
    /// cumulative per-lease-window accounting here. The observer runs
    /// inside the engine's unwind path and must not throw.
    using StepObserver = std::function<void(std::uint64_t steps)>;
    virtual void set_step_observer(StepObserver fn) = 0;

    /// Steps consumed by the most recent outermost call().
    virtual std::uint64_t last_call_steps() const = 0;
};

}  // namespace pmp::script
