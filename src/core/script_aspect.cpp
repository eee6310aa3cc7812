#include "core/script_aspect.h"

#include "common/error.h"
#include "rt/object.h"

namespace pmp::prose {

using rt::Value;
using script::BuiltinRegistry;

namespace {

/// The join point the advice currently executing can see.
struct CurrentJoinPoint {
    CurrentJoinPoint() = default;
    explicit CurrentJoinPoint(rt::CallFrame& f, const std::function<Value()>* p = nullptr)
        : frame(&f), proceed(p) {}
    CurrentJoinPoint(rt::ServiceObject& self, const rt::FieldDecl& f, const Value* old_v,
                     Value* new_v)
        : field_self(&self), field(&f), old_value(old_v), new_value(new_v) {}

    rt::CallFrame* frame = nullptr;
    const std::function<Value()>* proceed = nullptr;
    std::string error_message;

    rt::ServiceObject* field_self = nullptr;
    const rt::FieldDecl* field = nullptr;
    const Value* old_value = nullptr;
    Value* new_value = nullptr;
};

/// The join point of the script call running on this thread. Each entry
/// into an engine (advice; the top level and onShutdown with none) installs
/// its own for the call, so a nested interception (proceed() reaching more
/// woven calls) sees its own and the outer one is restored on the way out.
thread_local const CurrentJoinPoint* t_jp = nullptr;

class JoinPointScope {
public:
    explicit JoinPointScope(const CurrentJoinPoint* next) : saved_(t_jp) { t_jp = next; }
    ~JoinPointScope() { t_jp = saved_; }
    JoinPointScope(const JoinPointScope&) = delete;
    JoinPointScope& operator=(const JoinPointScope&) = delete;

private:
    const CurrentJoinPoint* saved_;
};

const CurrentJoinPoint& current() {
    static const CurrentJoinPoint kNone;
    return t_jp ? *t_jp : kNone;
}

rt::CallFrame& frame() {
    if (!current().frame) throw ScriptError("no method join point is active");
    return *current().frame;
}

rt::ServiceObject& target() {
    if (current().frame) return current().frame->self;
    if (current().field_self) return *current().field_self;
    throw ScriptError("no join point is active");
}

/// Run `function` with `next` as the current join point.
Value fire(script::Engine& engine, const std::string& function, const CurrentJoinPoint& next) {
    JoinPointScope scope(&next);
    return engine.call(function, {});
}

/// The ctx.* builtins: one table for the process, reading the join point
/// of whichever advice is running on the calling thread.
BuiltinRegistry make_ctx_layer() {
    BuiltinRegistry reg;
    reg.add("ctx.type", "", [](rt::List&) -> Value { return Value{target().type().name()}; });
    reg.add("ctx.target", "", [](rt::List&) -> Value { return Value{target().name()}; });
    reg.add("ctx.method", "", [](rt::List&) -> Value {
        return Value{frame().method.decl().name};
    });
    reg.add("ctx.args", "", [](rt::List&) -> Value { return Value{frame().args}; });
    reg.add("ctx.arg", "", [](rt::List& args) -> Value {
        if (args.size() != 1 || !args[0].is_int()) throw ScriptError("ctx.arg expects an index");
        auto& call_args = frame().args;
        std::int64_t i = args[0].as_int();
        if (i < 0 || i >= static_cast<std::int64_t>(call_args.size())) {
            throw ScriptError("ctx.arg index out of range");
        }
        return call_args[static_cast<std::size_t>(i)];
    });
    reg.add("ctx.set_arg", "", [](rt::List& args) -> Value {
        if (args.size() != 2 || !args[0].is_int()) {
            throw ScriptError("ctx.set_arg expects (index, value)");
        }
        auto& call_args = frame().args;
        std::int64_t i = args[0].as_int();
        if (i < 0 || i >= static_cast<std::int64_t>(call_args.size())) {
            throw ScriptError("ctx.set_arg index out of range");
        }
        call_args[static_cast<std::size_t>(i)] = args[1];
        return Value{};
    });
    reg.add("ctx.result", "", [](rt::List&) -> Value { return frame().result; });
    reg.add("ctx.set_result", "", [](rt::List& args) -> Value {
        if (args.size() != 1) throw ScriptError("ctx.set_result expects (value)");
        frame().result = args[0];
        return Value{};
    });
    reg.add("ctx.proceed", "", [](rt::List&) -> Value {
        if (!current().proceed) throw ScriptError("ctx.proceed is only valid in around advice");
        frame().result = (*current().proceed)();
        return frame().result;
    });
    reg.add("ctx.error", "", [](rt::List&) -> Value { return Value{current().error_message}; });
    // Per-call annotations (implicit context shared by cooperating
    // extensions along one invocation, e.g. session info).
    reg.add("ctx.set_note", "", [](rt::List& args) -> Value {
        if (args.size() != 2 || !args[0].is_str()) {
            throw ScriptError("ctx.set_note expects (key, value)");
        }
        frame().notes.set(args[0].as_str(), args[1]);
        return Value{};
    });
    reg.add("ctx.note", "", [](rt::List& args) -> Value {
        if (args.size() != 1 || !args[0].is_str()) {
            throw ScriptError("ctx.note expects (key)");
        }
        const Value* v = frame().notes.find(args[0].as_str());
        return v ? *v : Value{};
    });
    reg.add("ctx.deny", "", [](rt::List& args) -> Value {
        std::string why = args.empty() ? "denied by extension"
                                       : (args[0].is_str() ? args[0].as_str()
                                                           : args[0].to_string());
        throw AccessDenied(why);
    });

    reg.add("ctx.field", "", [](rt::List&) -> Value {
        if (!current().field) throw ScriptError("no field join point is active");
        return Value{current().field->name};
    });
    reg.add("ctx.oldval", "", [](rt::List&) -> Value {
        if (!current().old_value) throw ScriptError("ctx.oldval: no field-set join point");
        return *current().old_value;
    });
    reg.add("ctx.newval", "", [](rt::List&) -> Value {
        if (!current().new_value) throw ScriptError("ctx.newval: no field join point");
        return *current().new_value;
    });
    reg.add("ctx.set_newval", "", [](rt::List& args) -> Value {
        if (args.size() != 1) throw ScriptError("ctx.set_newval expects (value)");
        if (!current().new_value) throw ScriptError("ctx.set_newval: no field join point");
        *current().new_value = args[0];
        return Value{};
    });

    // Target state access is a real capability: it lets the extension
    // read and write the adapted object's fields directly.
    reg.add("ctx.get_field", "target", [](rt::List& args) -> Value {
        if (args.size() != 1 || !args[0].is_str()) {
            throw ScriptError("ctx.get_field expects (name)");
        }
        return target().peek(args[0].as_str());
    });
    reg.add("ctx.set_field", "target", [](rt::List& args) -> Value {
        if (args.size() != 2 || !args[0].is_str()) {
            throw ScriptError("ctx.set_field expects (name, value)");
        }
        target().poke(args[0].as_str(), args[1]);
        return Value{};
    });
    return reg;
}

}  // namespace

std::shared_ptr<const BuiltinRegistry> extension_builtins(const BuiltinRegistry& host) {
    static const BuiltinRegistry ctx = make_ctx_layer();
    return std::make_shared<const BuiltinRegistry>(
        ctx.over(std::make_shared<const BuiltinRegistry>(host)));
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
                           script::EngineMode mode) {
    std::shared_ptr<const script::Program> program = unit->program;
    if (mode == script::EngineMode::kVm) {
        engine_ = std::make_shared<script::Vm>(std::move(unit), std::move(sandbox),
                                               extension_builtins(host_builtins));
    } else {
        engine_ = std::make_shared<script::Interpreter>(program, std::move(sandbox),
                                                        extension_builtins(host_builtins));
    }
    engine_->set_global("config", std::move(config));
    JoinPointScope top_level(nullptr);  // runs outside any join point
    engine_->run_top_level();

    aspect_ = std::make_shared<Aspect>(std::move(name));
    std::shared_ptr<script::Engine> engine = engine_;

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
                    [engine, fn](rt::CallFrame& frame) {
                        fire(*engine, fn, CurrentJoinPoint(frame));
                    },
                    binding.priority);
                break;
            case AdviceKind::kAfter:
                aspect_->after(
                    std::move(pc),
                    [engine, fn](rt::CallFrame& frame) {
                        fire(*engine, fn, CurrentJoinPoint(frame));
                    },
                    binding.priority);
                break;
            case AdviceKind::kAfterThrowing:
                aspect_->after_throwing(
                    std::move(pc),
                    [engine, fn](rt::CallFrame& frame, std::exception_ptr error) {
                        CurrentJoinPoint jp(frame);
                        try {
                            if (error) std::rethrow_exception(error);
                        } catch (const std::exception& e) {
                            jp.error_message = e.what();
                        } catch (...) {
                            jp.error_message = "unknown error";
                        }
                        fire(*engine, fn, jp);
                    },
                    binding.priority);
                break;
            case AdviceKind::kAround:
                aspect_->around(
                    std::move(pc),
                    [engine, fn](rt::CallFrame& frame,
                                 const std::function<Value()>& proceed) -> Value {
                        Value out = fire(*engine, fn, CurrentJoinPoint(frame, &proceed));
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
                    [engine, fn](rt::ServiceObject& self, const rt::FieldDecl& field,
                                 const Value& old_value, Value& new_value) {
                        fire(*engine, fn, {self, field, &old_value, &new_value});
                    },
                    binding.priority);
                break;
            case AdviceKind::kFieldGet:
                aspect_->on_field_get(
                    std::move(pc),
                    [engine, fn](rt::ServiceObject& self, const rt::FieldDecl& field,
                                 Value& value) {
                        fire(*engine, fn, {self, field, nullptr, &value});
                    },
                    binding.priority);
                break;
        }
    }

    if (program->find_function("onShutdown")) {
        // A failing script cannot prevent withdrawal: the weaver catches
        // whatever the shutdown procedure throws.
        aspect_->on_withdraw([engine](WithdrawReason reason) {
            JoinPointScope none(nullptr);
            engine->call("onShutdown", {Value{std::string(withdraw_reason_name(reason))}});
        });
    }
}

script::Engine& ScriptAspect::engine() { return *engine_; }

}  // namespace pmp::prose
