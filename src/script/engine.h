// The AdviceScript execution-engine contract.
//
// The product's one engine, the bytecode Vm, implements it; so does the
// tree-walking reference interpreter the tests keep as their oracle.
// Hosts (ScriptAspect, the MIDAS receiver) program against this interface,
// which is what lets a differential test or the tree-walk bench hand a
// ScriptAspect the oracle instead of a Vm.
//
// Entry points are bound, not named, on the hot path: a host resolves a
// function once (find_function) and calls the handle, so an advice
// invocation hashes no name. call-by-name is find_function plus call.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/error.h"
#include "rt/value.h"
#include "script/sandbox.h"

namespace pmp::script {

/// A script function bound by Engine::find_function: null when the script
/// defines no such function, otherwise valid for the lifetime of the engine
/// that returned it, and callable on that engine only. What `impl` points
/// to is the engine's own business.
struct FunctionHandle {
    const void* impl = nullptr;
    explicit operator bool() const { return impl != nullptr; }
};

class Engine {
public:
    virtual ~Engine() = default;

    /// Execute top-level statements (global `let`s etc.). Call once.
    virtual void run_top_level() = 0;

    /// Bind a function by name; a null handle if the script has none.
    virtual FunctionHandle find_function(std::string_view name) const = 0;

    /// Invoke a bound function. Throws ScriptError for script faults,
    /// AccessDenied for capability violations, ResourceExhausted for
    /// budget overruns, DeadlineExceeded for watchdog overruns.
    virtual rt::Value call(FunctionHandle fn, rt::List args) = 0;

    /// find_function + call, for one-off calls; ScriptError if the script
    /// defines no such function.
    rt::Value call(std::string_view name, rt::List args) {
        const FunctionHandle fn = find_function(name);
        if (!fn) throw ScriptError("no function '" + std::string(name) + "'");
        return call(fn, std::move(args));
    }

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
