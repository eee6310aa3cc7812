// Static checking of AdviceScript programs.
//
// Extension code arrives over the radio and runs inside other people's
// applications; a receiver wants to reject broken code at *install* time
// with a precise message, not at the first interception with a run-time
// fault. The checker performs the analyses that need no execution:
//
//   * references to variables that can never be defined at that point
//     (mirrors the engine's scoping exactly, including the rule that
//     only top-level `let`s create globals)
//   * calls to functions that are neither user-defined nor registered
//     builtins, and wrong arity for user-defined functions
//   * assignment to names never declared
//   * duplicate function names and duplicate parameters
//   * break/continue outside a loop
//   * unreachable statements after return/break/continue/throw
//
// The checker is advisory by design (it must never reject a program the
// engine would run), so it reports diagnostics instead of throwing.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "script/ast.h"
#include "script/sandbox.h"

namespace pmp::script {

struct Diagnostic {
    int line = 0;
    std::string message;
};

/// Analyse `program` against the builtins the host will provide.
/// `predefined` names count as globals (e.g. "config", which the receiver
/// injects before the top level runs). Returns diagnostics, empty if clean.
std::vector<Diagnostic> check(const Program& program, const BuiltinRegistry& builtins,
                              const std::set<std::string>& predefined = {"config"});

/// Render diagnostics as one human-readable block (for rejection messages).
std::string format_diagnostics(const std::vector<Diagnostic>& diagnostics);

}  // namespace pmp::script
