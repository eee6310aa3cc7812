// Script-backed aspects: the bridge between PROSE and AdviceScript.
//
// This is how behaviour the device has never seen gets in: a MIDAS package
// carries AdviceScript source plus bindings mapping advice kinds/pointcuts
// to script functions. On arrival the source is compiled, its top level runs
// once (initialising extension globals from the shipped `config`), and each
// binding becomes native advice that invokes the corresponding script
// function inside the sandbox. During advice execution the script sees the
// current join point through the `ctx.*` builtins (one table, in
// script_aspect.cpp; docs/advicescript.md describes them).
//
// The shutdown procedure is the script function `onShutdown(reason)`, run
// when the aspect is withdrawn (lease expiry, replacement, or explicit).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/aspect.h"
#include "script/compile.h"
#include "script/engine.h"
#include "script/interp.h"
#include "script/parser.h"
#include "script/vm.h"

namespace pmp::prose {

/// The namespace an extension script resolves against: the process-wide
/// ctx.* layer over `host`, whose layers are shared, not copied.
/// ScriptAspect builds its engine on it; an installer checks a script
/// against it first, so both resolve through the same chain.
std::shared_ptr<const script::BuiltinRegistry> extension_builtins(
    const script::BuiltinRegistry& host);

/// Binds one advice kind + pointcut to a script function.
struct ScriptBinding {
    AdviceKind kind;
    std::string pointcut;
    std::string function;
    int priority = 0;
    /// Optionally pre-parsed (the MIDAS receiver caches Pointcuts by
    /// source string); when set, `pointcut` is not parsed again.
    std::optional<Pointcut> parsed;
};

/// Compiles script source into a weavable Aspect.
///
/// The advice hot path executes on the bytecode VM by default; the
/// tree-walking Interpreter remains available as the reference engine
/// (differential testing, debugging) via EngineMode::kInterpreter. Both
/// engines are observably identical — results, typed errors, step counts.
class ScriptAspect {
public:
    /// Throws ParseError on bad source, ScriptError if a bound function is
    /// missing, and whatever the top-level raises when it runs.
    ///
    /// `host_builtins` supplies node facilities (log.*, net.*, db.*, ...)
    /// on top of the core library, and the engine resolves against
    /// extension_builtins(host_builtins); the sandbox decides which of
    /// those the extension may actually use. `config` is exposed to the script as the
    /// global `config` before the top level runs.
    ScriptAspect(std::string name, const std::string& source,
                 std::vector<ScriptBinding> bindings, script::Sandbox sandbox,
                 const script::BuiltinRegistry& host_builtins, rt::Value config = rt::Value{},
                 script::EngineMode mode = script::EngineMode::kVm);

    /// Build from an already-compiled unit (the MIDAS receiver caches one
    /// CompiledUnit per distinct script hash and shares it across installs;
    /// compilation happens once, not per aspect instance).
    ScriptAspect(std::string name, std::shared_ptr<const script::CompiledUnit> unit,
                 std::vector<ScriptBinding> bindings, script::Sandbox sandbox,
                 const script::BuiltinRegistry& host_builtins, rt::Value config = rt::Value{},
                 script::EngineMode mode = script::EngineMode::kVm);

    /// The weavable product. One instance per ScriptAspect.
    const std::shared_ptr<Aspect>& aspect() const { return aspect_; }

    /// Direct access to the extension's engine (tests, diagnostics).
    script::Engine& engine();

private:
    std::shared_ptr<script::Engine> engine_;
    std::shared_ptr<Aspect> aspect_;
};

}  // namespace pmp::prose
