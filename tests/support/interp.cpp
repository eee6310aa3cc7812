#include "support/interp.h"

#include "common/error.h"
#include "script/ops.h"

namespace pmp::script {

using ops::display;
using ops::script_fail;
using ops::want_str;
using rt::Dict;
using rt::List;
using rt::Value;

Interpreter::Interpreter(std::shared_ptr<const Program> program, Sandbox sandbox,
                         std::shared_ptr<const BuiltinRegistry> builtins)
    : program_(std::move(program)), sandbox_(std::move(sandbox)), builtins_(std::move(builtins)) {}

void Interpreter::tick(int line) {
    ++steps_;
    ++total_steps_;
    ops::tick_check(sandbox_, steps_, line);
}

void Interpreter::run_top_level() {
    steps_ = 0;
    // No scope is pushed here: with scopes_ empty, top-level `let`s land in
    // the globals map and persist across advice invocations.
    try {
        for (const auto& stmt : program_->top_level) exec(*stmt);
    } catch (ReturnSignal&) {
        throw ScriptError("'return' outside a function");
    } catch (BreakSignal&) {
        throw ScriptError("'break' outside a loop");
    } catch (ContinueSignal&) {
        throw ScriptError("'continue' outside a loop");
    }
}

rt::Value Interpreter::call(FunctionHandle handle, rt::List args) {
    const auto* fn = static_cast<const FunctionDecl*>(handle.impl);
    if (!fn) throw ScriptError("call of an unbound script function");
    if (call_nesting_ > 0) {
        // Re-entrant call (host builtin calling back into script): one
        // invocation for budget purposes, so don't reset the meter and
        // don't report to the observer twice.
        return call_function(*fn, std::move(args));
    }
    steps_ = 0;
    const std::uint64_t before = total_steps_;
    ++call_nesting_;
    // Report on every exit path — a throwing invocation burned steps too,
    // and the governor must see them.
    struct Guard {
        Interpreter* self;
        std::uint64_t before;
        ~Guard() {
            --self->call_nesting_;
            self->last_call_steps_ = self->total_steps_ - before;
            if (self->step_observer_) self->step_observer_(self->last_call_steps_);
        }
    } guard{this, before};
    return call_function(*fn, std::move(args));
}

const Value* Interpreter::global(const std::string& name) const {
    auto it = globals_.vars.find(name);
    return it == globals_.vars.end() ? nullptr : &it->second;
}

void Interpreter::set_global(const std::string& name, Value value) {
    globals_.vars[name] = std::move(value);
}

Value Interpreter::call_function(const FunctionDecl& fn, List args) {
    if (args.size() != fn.params.size()) {
        throw ScriptError("function '" + fn.name + "' expects " +
                          std::to_string(fn.params.size()) + " args, got " +
                          std::to_string(args.size()));
    }
    if (++depth_ > sandbox_.max_recursion) {
        --depth_;
        throw ResourceExhausted("script recursion limit reached in '" + fn.name + "'");
    }

    // Fresh frame: functions see their locals and globals, not the caller's
    // locals.
    std::vector<Scope> saved = std::move(scopes_);
    scopes_.clear();
    scopes_.emplace_back();
    for (std::size_t i = 0; i < args.size(); ++i) {
        scopes_.back().vars[fn.params[i]] = std::move(args[i]);
    }

    Value result;
    try {
        exec_block(fn.body);
    } catch (ReturnSignal& ret) {
        result = std::move(ret.value);
    } catch (BreakSignal&) {
        // Control-flow signals must not escape a function body into the
        // caller's loops.
        scopes_ = std::move(saved);
        --depth_;
        throw ScriptError("'break' outside a loop in '" + fn.name + "'");
    } catch (ContinueSignal&) {
        scopes_ = std::move(saved);
        --depth_;
        throw ScriptError("'continue' outside a loop in '" + fn.name + "'");
    } catch (...) {
        scopes_ = std::move(saved);
        --depth_;
        throw;
    }
    scopes_ = std::move(saved);
    --depth_;
    return result;
}

Value* Interpreter::find_var(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
        auto found = it->vars.find(name);
        if (found != it->vars.end()) return &found->second;
    }
    auto found = globals_.vars.find(name);
    return found == globals_.vars.end() ? nullptr : &found->second;
}

void Interpreter::exec_block(const std::vector<StmtPtr>& body) {
    scopes_.emplace_back();
    struct ScopeGuard {
        std::vector<Scope>& scopes;
        ~ScopeGuard() { scopes.pop_back(); }
    } guard{scopes_};
    for (const auto& stmt : body) exec(*stmt);
}

void Interpreter::exec(const Stmt& stmt) {
    tick(stmt.line);
    switch (stmt.kind) {
        case Stmt::Kind::kLet: {
            Value v = eval(*stmt.expr);
            // `let` declares in the innermost scope; at top level that is
            // the globals map so state survives across advice invocations.
            if (scopes_.empty()) {
                globals_.vars[stmt.name] = std::move(v);
            } else {
                scopes_.back().vars[stmt.name] = std::move(v);
            }
            return;
        }
        case Stmt::Kind::kAssign: {
            Value v = eval(*stmt.expr);
            Value* slot = resolve_lvalue(*stmt.target);
            *slot = std::move(v);
            return;
        }
        case Stmt::Kind::kExpr: eval(*stmt.expr); return;
        case Stmt::Kind::kIf:
            if (eval(*stmt.expr).truthy()) {
                exec_block(stmt.body);
            } else {
                exec_block(stmt.else_body);
            }
            return;
        case Stmt::Kind::kWhile:
            while (eval(*stmt.expr).truthy()) {
                try {
                    exec_block(stmt.body);
                } catch (BreakSignal&) {
                    break;
                } catch (ContinueSignal&) {
                    continue;
                }
            }
            return;
        case Stmt::Kind::kForIn: {
            List items = ops::foreach_items(eval(*stmt.expr), stmt.line);
            for (Value& item : items) {
                scopes_.emplace_back();
                scopes_.back().vars[stmt.name] = std::move(item);
                struct ScopeGuard {
                    std::vector<Scope>& scopes;
                    ~ScopeGuard() { scopes.pop_back(); }
                } guard{scopes_};
                try {
                    for (const auto& inner : stmt.body) exec(*inner);
                } catch (BreakSignal&) {
                    break;
                } catch (ContinueSignal&) {
                    continue;
                }
            }
            return;
        }
        case Stmt::Kind::kReturn:
            throw ReturnSignal{stmt.expr ? eval(*stmt.expr) : Value{}};
        case Stmt::Kind::kBreak: throw BreakSignal{};
        case Stmt::Kind::kContinue: throw ContinueSignal{};
        case Stmt::Kind::kThrow:
            throw ScriptError(display(eval(*stmt.expr)) + " (line " +
                              std::to_string(stmt.line) + ")");
        case Stmt::Kind::kBlock: exec_block(stmt.body); return;
    }
}

Value* Interpreter::resolve_lvalue(const Expr& target) {
    switch (target.kind) {
        case Expr::Kind::kVar: {
            if (Value* v = find_var(target.name)) return v;
            script_fail("assignment to undeclared variable '" + target.name + "'",
                        target.line);
        }
        case Expr::Kind::kIndex: {
            Value* base = resolve_lvalue(*target.lhs);
            Value idx = eval(*target.rhs);
            return ops::lval_index(base, idx, target.line);
        }
        case Expr::Kind::kMember: {
            Value* base = resolve_lvalue(*target.lhs);
            return ops::lval_member(base, target.name, target.line);
        }
        default: script_fail("expression is not assignable", target.line);
    }
}

Value Interpreter::eval(const Expr& expr) {
    tick(expr.line);
    switch (expr.kind) {
        case Expr::Kind::kLiteral: return expr.literal;
        case Expr::Kind::kVar: {
            if (Value* v = find_var(expr.name)) return *v;
            script_fail("undefined variable '" + expr.name + "'", expr.line);
        }
        case Expr::Kind::kBinary: return eval_binary(expr);
        case Expr::Kind::kUnary: {
            Value v = eval(*expr.lhs);
            if (expr.un_op == UnOp::kNot) return Value{!v.truthy()};
            return ops::negate(v, expr.line);
        }
        case Expr::Kind::kCall: return eval_call(expr);
        case Expr::Kind::kIndex: {
            Value base = eval(*expr.lhs);
            Value idx = eval(*expr.rhs);
            return ops::index_get(base, idx, expr.line);
        }
        case Expr::Kind::kMember: {
            Value base = eval(*expr.lhs);
            return ops::member_get(base, expr.name, expr.line);
        }
        case Expr::Kind::kListLit: {
            List out;
            out.reserve(expr.args.size());
            for (const auto& a : expr.args) out.push_back(eval(*a));
            return Value{std::move(out)};
        }
        case Expr::Kind::kDictLit: {
            Dict out;
            for (const auto& [kexpr, vexpr] : expr.entries) {
                // Fixed evaluation order (key, key check, value): both
                // engines must agree, and unspecified C++ argument order
                // must not decide which error a bad entry raises.
                Value key = eval(*kexpr);
                const std::string& k = want_str(key, "dict key");
                out.set(k, eval(*vexpr));
            }
            return Value{std::move(out)};
        }
    }
    script_fail("internal: unknown expression kind", expr.line);
}

Value Interpreter::eval_binary(const Expr& expr) {
    // Short-circuit forms first.
    if (expr.bin_op == BinOp::kAnd) {
        return Value{eval(*expr.lhs).truthy() && eval(*expr.rhs).truthy()};
    }
    if (expr.bin_op == BinOp::kOr) {
        return Value{eval(*expr.lhs).truthy() || eval(*expr.rhs).truthy()};
    }

    Value a = eval(*expr.lhs);
    Value b = eval(*expr.rhs);
    return ops::binary(expr.bin_op, a, b, expr.line);
}

Value Interpreter::eval_call(const Expr& expr) {
    List args;
    args.reserve(expr.args.size());
    for (const auto& a : expr.args) args.push_back(eval(*a));

    // User-defined functions shadow builtins of the same (unqualified) name.
    if (const FunctionDecl* fn = program_->find_function(expr.name)) {
        return call_function(*fn, std::move(args));
    }
    if (const BuiltinRegistry::Entry* builtin = builtins_->find(expr.name)) {
        if (!sandbox_.allows(builtin->capability)) {
            throw AccessDenied("extension lacks capability '" + builtin->capability +
                               "' required by " + expr.name);
        }
        return builtin->fn(args);
    }
    script_fail("unknown function '" + expr.name + "'", expr.line);
}

}  // namespace pmp::script
