// Shared AdviceScript evaluation semantics.
//
// Every semantic decision an engine makes at runtime — arithmetic and
// comparison rules, index/member access, lvalue resolution, budget
// enforcement, error message formatting — lives here, so the bytecode Vm
// and the tree-walking reference interpreter the tests check it against
// cannot drift apart. The differential suites assert the two are
// observably identical; this module is what makes that a structural
// guarantee rather than a test fixture's hope.
#pragma once

#include <cstdint>
#include <string>

#include "script/ast.h"
#include "script/sandbox.h"

namespace pmp::script::ops {

/// Throw ScriptError("<what> (line <line>)").
[[noreturn]] void script_fail(const std::string& what, int line);

std::int64_t want_int(const rt::Value& v, const char* what);
const std::string& want_str(const rt::Value& v, const char* what);

/// Unquoted string rendering: strings print bare, everything else as
/// Value::to_string. This is what str(x) and string concatenation produce.
std::string display(const rt::Value& v);

/// Per-step budget enforcement: watchdog deadline first (usually far
/// tighter than the sandbox budget), then the step budget. Both count
/// from the same per-invocation step counter.
void tick_check(const Sandbox& sandbox, std::uint64_t steps, int line);

/// Non-short-circuit binary operators (everything except And/Or, which
/// engines implement via control flow). Reads both operands only.
rt::Value binary(BinOp op, const rt::Value& a, const rt::Value& b, int line);

/// Unary '-' (unary '!' is just !truthy()).
rt::Value negate(const rt::Value& v, int line);

/// Rvalue `base[idx]` with list/dict/str semantics.
rt::Value index_get(const rt::Value& base, const rt::Value& idx, int line);

/// Rvalue `base.name` (missing dict keys read as null).
rt::Value member_get(const rt::Value& base, const std::string& name, int line);

/// Lvalue `(*base)[idx]`: lists append at exactly len, dicts create the
/// missing key. The returned pointer is stable until the next structural
/// change to the container.
rt::Value* lval_index(rt::Value* base, const rt::Value& idx, int line);

/// Lvalue `(*base).name`: dict required, missing key created.
rt::Value* lval_member(rt::Value* base, const std::string& name, int line);

/// Materialize a for-in iterable: a list is copied, a dict yields its
/// keys (already sorted), anything else fails.
rt::List foreach_items(rt::Value iterable, int line);

}  // namespace pmp::script::ops
