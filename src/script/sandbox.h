// AdviceScript sandbox policy and the builtin (host function) registry.
//
// Extension code arrives from the network, so it runs inside a sandbox
// (paper §3.1, "addressing secure execution"): every host facility it can
// touch is a registered builtin gated by a capability string, and the
// execution engines enforce step and recursion budgets so a buggy or
// hostile extension cannot wedge the node. The hosting layer (MIDAS
// receiver) decides which capabilities a package gets.
//
// Both AdviceScript engines — the tree-walking Interpreter (reference
// implementation) and the bytecode Vm (hot path) — share this contract.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>

#include "rt/value.h"

namespace pmp::script {

/// Execution limits and capability grants for one extension instance.
struct Sandbox {
    std::set<std::string> capabilities;
    std::uint64_t step_budget = 1'000'000;  ///< per entry-point invocation
    int max_recursion = 64;
    /// Watchdog deadline, in steps, per entry-point invocation (0 = off).
    /// Distinct from step_budget: the budget is the sandbox's generosity
    /// bound (ResourceExhausted), the deadline is the governor's latency
    /// bound priced from virtual time (DeadlineExceeded) — typically far
    /// tighter, and counted toward quarantine by the MIDAS receiver.
    std::uint64_t deadline_steps = 0;

    bool allows(const std::string& capability) const {
        return capability.empty() || capabilities.contains(capability);
    }
};

/// Host functions callable from script. A builtin with an empty capability
/// is part of the core library and always available; anything touching the
/// node (logging, network, database, robot control, the current join
/// point) declares the capability it needs.
///
/// A registry is one layer: its own entries over an optional shared,
/// immutable parent that find() falls through to (docs/advicescript.md).
/// Copies share the entries until one of them adds (copy on write), so a
/// copy never sees what is added to the original later. An `Entry*` from
/// find() stays valid while the registry lives and is not added to;
/// engines hold it as shared_ptr<const>, built after every add().
class BuiltinRegistry {
public:
    using Fn = std::function<rt::Value(rt::List& args)>;

    struct Entry {
        std::string capability;
        Fn fn;
    };

    BuiltinRegistry() = default;
    /// An empty layer over `parent`.
    explicit BuiltinRegistry(std::shared_ptr<const BuiltinRegistry> parent)
        : parent_(std::move(parent)) {}

    /// Register `name` (e.g. "net.post") in this layer; replaces an entry
    /// of the same name here and shadows one below.
    void add(const std::string& name, const std::string& capability, Fn fn);

    /// This layer first, then the parent chain.
    const Entry* find(const std::string& name) const;

    /// This layer's entries (shared, not copied) over `parent` instead.
    BuiltinRegistry over(std::shared_ptr<const BuiltinRegistry> parent) const;

    /// An empty layer over the core library (len, str, push, keys, range,
    /// math and string helpers; no capabilities), built once per process.
    static BuiltinRegistry with_core();

private:
    using Table = std::unordered_map<std::string, Entry>;

    std::shared_ptr<Table> own_;  ///< null while the layer is empty
    std::shared_ptr<const BuiltinRegistry> parent_;
};

}  // namespace pmp::script
