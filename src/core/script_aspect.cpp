#include "core/script_aspect.h"

#include "common/error.h"
#include "rt/object.h"

namespace pmp::prose {

using rt::Value;
using script::BuiltinRegistry;

/// The join point the advice currently executing can see. Saved/restored
/// around every script invocation so nested interceptions (e.g. proceed()
/// triggering further woven calls) see their own join point.
struct CurrentJoinPoint {
    rt::CallFrame* frame = nullptr;
    const std::function<Value()>* proceed = nullptr;
    std::string error_message;

    rt::ServiceObject* field_self = nullptr;
    const rt::FieldDecl* field = nullptr;
    const Value* old_value = nullptr;
    Value* new_value = nullptr;
};

struct ScriptAspect::State {
    std::unique_ptr<script::Engine> engine;
    CurrentJoinPoint jp;

    rt::CallFrame& frame() {
        if (!jp.frame) throw ScriptError("no method join point is active");
        return *jp.frame;
    }

    rt::ServiceObject& target() {
        if (jp.frame) return jp.frame->self;
        if (jp.field_self) return *jp.field_self;
        throw ScriptError("no join point is active");
    }

    /// Run `function` with the given join point installed.
    Value fire(const std::string& function, CurrentJoinPoint next) {
        CurrentJoinPoint saved = std::move(jp);
        jp = std::move(next);
        try {
            Value out = engine->call(function, {});
            jp = std::move(saved);
            return out;
        } catch (...) {
            jp = std::move(saved);
            throw;
        }
    }
};

const std::vector<std::pair<std::string, std::string>>& ctx_builtin_names() {
    static const std::vector<std::pair<std::string, std::string>> kNames = {
        {"ctx.type", ""},        {"ctx.target", ""},     {"ctx.method", ""},
        {"ctx.args", ""},        {"ctx.arg", ""},        {"ctx.set_arg", ""},
        {"ctx.result", ""},      {"ctx.set_result", ""}, {"ctx.proceed", ""},
        {"ctx.error", ""},       {"ctx.deny", ""},       {"ctx.set_note", ""},
        {"ctx.note", ""},        {"ctx.field", ""},      {"ctx.oldval", ""},
        {"ctx.newval", ""},      {"ctx.set_newval", ""}, {"ctx.get_field", "target"},
        {"ctx.set_field", "target"},
    };
    return kNames;
}

void ScriptAspect::install_ctx_builtins(BuiltinRegistry& reg,
                                        const std::shared_ptr<State>& state) {
    State* s = state.get();  // registry lives inside the interpreter owned by state

    reg.add("ctx.type", "", [s](rt::List&) -> Value {
        return Value{s->target().type().name()};
    });
    reg.add("ctx.target", "", [s](rt::List&) -> Value { return Value{s->target().name()}; });
    reg.add("ctx.method", "", [s](rt::List&) -> Value {
        return Value{s->frame().method.decl().name};
    });
    reg.add("ctx.args", "", [s](rt::List&) -> Value { return Value{s->frame().args}; });
    reg.add("ctx.arg", "", [s](rt::List& args) -> Value {
        if (args.size() != 1 || !args[0].is_int()) throw ScriptError("ctx.arg expects an index");
        auto& call_args = s->frame().args;
        std::int64_t i = args[0].as_int();
        if (i < 0 || i >= static_cast<std::int64_t>(call_args.size())) {
            throw ScriptError("ctx.arg index out of range");
        }
        return call_args[static_cast<std::size_t>(i)];
    });
    reg.add("ctx.set_arg", "", [s](rt::List& args) -> Value {
        if (args.size() != 2 || !args[0].is_int()) {
            throw ScriptError("ctx.set_arg expects (index, value)");
        }
        auto& call_args = s->frame().args;
        std::int64_t i = args[0].as_int();
        if (i < 0 || i >= static_cast<std::int64_t>(call_args.size())) {
            throw ScriptError("ctx.set_arg index out of range");
        }
        call_args[static_cast<std::size_t>(i)] = args[1];
        return Value{};
    });
    reg.add("ctx.result", "", [s](rt::List&) -> Value { return s->frame().result; });
    reg.add("ctx.set_result", "", [s](rt::List& args) -> Value {
        if (args.size() != 1) throw ScriptError("ctx.set_result expects (value)");
        s->frame().result = args[0];
        return Value{};
    });
    reg.add("ctx.proceed", "", [s](rt::List&) -> Value {
        if (!s->jp.proceed) throw ScriptError("ctx.proceed is only valid in around advice");
        s->frame().result = (*s->jp.proceed)();
        return s->frame().result;
    });
    reg.add("ctx.error", "", [s](rt::List&) -> Value { return Value{s->jp.error_message}; });
    // Per-call annotations (implicit context shared by cooperating
    // extensions along one invocation, e.g. session info).
    reg.add("ctx.set_note", "", [s](rt::List& args) -> Value {
        if (args.size() != 2 || !args[0].is_str()) {
            throw ScriptError("ctx.set_note expects (key, value)");
        }
        s->frame().notes.set(args[0].as_str(), args[1]);
        return Value{};
    });
    reg.add("ctx.note", "", [s](rt::List& args) -> Value {
        if (args.size() != 1 || !args[0].is_str()) {
            throw ScriptError("ctx.note expects (key)");
        }
        const Value* v = s->frame().notes.find(args[0].as_str());
        return v ? *v : Value{};
    });
    reg.add("ctx.deny", "", [s](rt::List& args) -> Value {
        (void)s;
        std::string why = args.empty() ? "denied by extension"
                                       : (args[0].is_str() ? args[0].as_str()
                                                           : args[0].to_string());
        throw AccessDenied(why);
    });

    reg.add("ctx.field", "", [s](rt::List&) -> Value {
        if (!s->jp.field) throw ScriptError("no field join point is active");
        return Value{s->jp.field->name};
    });
    reg.add("ctx.oldval", "", [s](rt::List&) -> Value {
        if (!s->jp.old_value) throw ScriptError("ctx.oldval: no field-set join point");
        return *s->jp.old_value;
    });
    reg.add("ctx.newval", "", [s](rt::List&) -> Value {
        if (!s->jp.new_value) throw ScriptError("ctx.newval: no field join point");
        return *s->jp.new_value;
    });
    reg.add("ctx.set_newval", "", [s](rt::List& args) -> Value {
        if (args.size() != 1) throw ScriptError("ctx.set_newval expects (value)");
        if (!s->jp.new_value) throw ScriptError("ctx.set_newval: no field join point");
        *s->jp.new_value = args[0];
        return Value{};
    });

    // Target state access is a real capability: it lets the extension read
    // and write the adapted object's fields directly.
    reg.add("ctx.get_field", "target", [s](rt::List& args) -> Value {
        if (args.size() != 1 || !args[0].is_str()) {
            throw ScriptError("ctx.get_field expects (name)");
        }
        return s->target().peek(args[0].as_str());
    });
    reg.add("ctx.set_field", "target", [s](rt::List& args) -> Value {
        if (args.size() != 2 || !args[0].is_str()) {
            throw ScriptError("ctx.set_field expects (name, value)");
        }
        s->target().poke(args[0].as_str(), args[1]);
        return Value{};
    });

    // Keep ctx_builtin_names() honest: every advertised name must really be
    // installed (a drifting list would make static checks false-reject).
    for (const auto& [name, _] : ctx_builtin_names()) {
        if (!reg.find(name)) {
            throw ScriptError("internal: ctx builtin list names unknown '" + name + "'");
        }
    }
}

ScriptAspect::ScriptAspect(std::string name, const std::string& source,
                           std::vector<ScriptBinding> bindings, script::Sandbox sandbox,
                           const BuiltinRegistry& host_builtins, Value config,
                           script::EngineMode mode)
    : ScriptAspect(std::move(name),
                   script::compile(std::make_shared<const script::Program>(
                       script::parse(source))),
                   std::move(bindings), std::move(sandbox), host_builtins,
                   std::move(config), mode) {}

ScriptAspect::ScriptAspect(std::string name,
                           std::shared_ptr<const script::CompiledUnit> unit,
                           std::vector<ScriptBinding> bindings, script::Sandbox sandbox,
                           const BuiltinRegistry& host_builtins, Value config,
                           script::EngineMode mode)
    : state_(std::make_shared<State>()) {
    std::shared_ptr<const script::Program> program = unit->program;

    // Compose the extension's view of the world: core library + host
    // facilities + join-point access.
    auto registry = std::make_shared<BuiltinRegistry>(host_builtins);
    install_ctx_builtins(*registry, state_);

    if (mode == script::EngineMode::kVm) {
        state_->engine = std::make_unique<script::Vm>(std::move(unit), std::move(sandbox),
                                                      std::move(registry));
    } else {
        state_->engine = std::make_unique<script::Interpreter>(program, std::move(sandbox),
                                                               std::move(registry));
    }
    state_->engine->set_global("config", std::move(config));
    state_->engine->run_top_level();

    aspect_ = std::make_shared<Aspect>(std::move(name));
    std::shared_ptr<State> state = state_;

    for (const ScriptBinding& binding : bindings) {
        if (!program->find_function(binding.function)) {
            throw ScriptError("extension script defines no function '" + binding.function + "'");
        }
        const std::string fn = binding.function;
        Pointcut pc = binding.parsed ? *binding.parsed : Pointcut::parse(binding.pointcut);
        switch (binding.kind) {
            case AdviceKind::kBefore:
                aspect_->before(
                    std::move(pc),
                    [state, fn](rt::CallFrame& frame) {
                        CurrentJoinPoint jp;
                        jp.frame = &frame;
                        state->fire(fn, std::move(jp));
                    },
                    binding.priority);
                break;
            case AdviceKind::kAfter:
                aspect_->after(
                    std::move(pc),
                    [state, fn](rt::CallFrame& frame) {
                        CurrentJoinPoint jp;
                        jp.frame = &frame;
                        state->fire(fn, std::move(jp));
                    },
                    binding.priority);
                break;
            case AdviceKind::kAfterThrowing:
                aspect_->after_throwing(
                    std::move(pc),
                    [state, fn](rt::CallFrame& frame, std::exception_ptr error) {
                        CurrentJoinPoint jp;
                        jp.frame = &frame;
                        try {
                            if (error) std::rethrow_exception(error);
                        } catch (const std::exception& e) {
                            jp.error_message = e.what();
                        } catch (...) {
                            jp.error_message = "unknown error";
                        }
                        state->fire(fn, std::move(jp));
                    },
                    binding.priority);
                break;
            case AdviceKind::kAround:
                aspect_->around(
                    std::move(pc),
                    [state, fn](rt::CallFrame& frame,
                                const std::function<Value()>& proceed) -> Value {
                        CurrentJoinPoint jp;
                        jp.frame = &frame;
                        jp.proceed = &proceed;
                        Value out = state->fire(fn, std::move(jp));
                        // Convention: if the function returns a value, that
                        // is the call result; a null return keeps whatever
                        // proceed()/set_result established.
                        return out.is_null() ? frame.result : out;
                    },
                    binding.priority);
                break;
            case AdviceKind::kFieldSet:
                aspect_->on_field_set(
                    std::move(pc),
                    [state, fn](rt::ServiceObject& self, const rt::FieldDecl& field,
                                const Value& old_value, Value& new_value) {
                        CurrentJoinPoint jp;
                        jp.field_self = &self;
                        jp.field = &field;
                        jp.old_value = &old_value;
                        jp.new_value = &new_value;
                        state->fire(fn, std::move(jp));
                    },
                    binding.priority);
                break;
            case AdviceKind::kFieldGet:
                aspect_->on_field_get(
                    std::move(pc),
                    [state, fn](rt::ServiceObject& self, const rt::FieldDecl& field,
                                Value& value) {
                        CurrentJoinPoint jp;
                        jp.field_self = &self;
                        jp.field = &field;
                        jp.new_value = &value;
                        state->fire(fn, std::move(jp));
                    },
                    binding.priority);
                break;
        }
    }

    if (program->find_function("onShutdown")) {
        // A failing script cannot prevent withdrawal: the weaver catches
        // whatever the shutdown procedure throws.
        aspect_->on_withdraw([state](WithdrawReason reason) {
            state->engine->call("onShutdown",
                                {Value{std::string(withdraw_reason_name(reason))}});
        });
    }
}

script::Engine& ScriptAspect::engine() { return *state_->engine; }

}  // namespace pmp::prose
