// Tests for script-backed aspects: the PROSE <-> AdviceScript bridge with
// its ctx.* join-point builtins, config, sandboxing and shutdown.
#include <gtest/gtest.h>

#include "common/error.h"
#include "core/script_aspect.h"
#include "core/weaver.h"
#include "script/check.h"
#include "support/interp.h"

namespace pmp::prose {
namespace {

using rt::Dict;
using rt::List;
using rt::ServiceObject;
using rt::TypeKind;
using rt::Value;
using script::BuiltinRegistry;
using script::Sandbox;

class ScriptAspectTest : public ::testing::Test {
protected:
    ScriptAspectTest() : runtime_("node"), weaver_(runtime_) {
        runtime_.register_type(
            rt::TypeInfo::Builder("Motor")
                .field("position", TypeKind::kReal, Value{0.0})
                .method("rotate", TypeKind::kInt, {{"degrees", TypeKind::kReal}},
                        [](ServiceObject& self, List& args) -> Value {
                            self.set("position", Value{self.peek("position").as_real() +
                                                        args[0].as_real()});
                            return Value{std::int64_t{5}};
                        })
                .build());
        motor_ = runtime_.create("Motor", "motor:x");
        host_ = BuiltinRegistry::with_core();
    }

    /// Compile + weave a script extension; returns the aspect id.
    AspectId weave(const std::string& source, std::vector<ScriptBinding> bindings,
                   Sandbox sandbox = {}, Value config = Value{},
                   std::shared_ptr<ScriptAspect>* out = nullptr) {
        auto sa = std::make_shared<ScriptAspect>("test-ext", source, std::move(bindings),
                                                 std::move(sandbox), host_, std::move(config));
        if (out) *out = sa;
        keep_alive_.push_back(sa);
        return weaver_.weave(sa->aspect());
    }

    rt::Runtime runtime_;
    Weaver weaver_;
    std::shared_ptr<ServiceObject> motor_;
    BuiltinRegistry host_;
    std::vector<std::shared_ptr<ScriptAspect>> keep_alive_;
};

TEST_F(ScriptAspectTest, BeforeAdviceSeesJoinPoint) {
    weave(R"(
        let seen = [];
        fun onEntry() {
            seen[len(seen)] = ctx.type() + "." + ctx.method() + "@" + ctx.target()
                + ":" + str(ctx.arg(0));
        }
    )",
          {{AdviceKind::kBefore, "call(* Motor.rotate(..))", "onEntry"}}, {}, Value{},
          nullptr);

    std::shared_ptr<ScriptAspect> sa = keep_alive_.back();
    motor_->call("rotate", {Value{30.0}});
    const Value* seen = sa->engine().global("seen");
    ASSERT_NE(seen, nullptr);
    ASSERT_EQ(seen->as_list().size(), 1u);
    EXPECT_EQ(seen->as_list()[0].as_str(), "Motor.rotate@motor:x:30");
}

TEST_F(ScriptAspectTest, BeforeAdviceRewritesArgs) {
    // The paper's encryption shape: transform an argument before the body.
    weave("fun onEntry() { ctx.set_arg(0, ctx.arg(0) * 2); }",
          {{AdviceKind::kBefore, "call(* Motor.rotate(..))", "onEntry"}});
    motor_->call("rotate", {Value{10.0}});
    EXPECT_DOUBLE_EQ(motor_->peek("position").as_real(), 20.0);
}

TEST_F(ScriptAspectTest, AfterAdviceRewritesResult) {
    weave("fun onExit() { ctx.set_result(ctx.result() + 100); }",
          {{AdviceKind::kAfter, "call(* Motor.rotate(..))", "onExit"}});
    EXPECT_EQ(motor_->call("rotate", {Value{1.0}}).as_int(), 105);
}

TEST_F(ScriptAspectTest, DenyVetoesCall) {
    weave(R"(
        fun onEntry() {
            if (ctx.arg(0) > 90) { ctx.deny("rotation beyond limit"); }
        }
    )",
          {{AdviceKind::kBefore, "call(* Motor.rotate(..))", "onEntry"}});
    EXPECT_NO_THROW(motor_->call("rotate", {Value{45.0}}));
    try {
        motor_->call("rotate", {Value{120.0}});
        FAIL() << "expected AccessDenied";
    } catch (const AccessDenied& e) {
        EXPECT_NE(std::string(e.what()).find("rotation beyond limit"), std::string::npos);
    }
    EXPECT_DOUBLE_EQ(motor_->peek("position").as_real(), 45.0);
}

TEST_F(ScriptAspectTest, AroundAdviceControlsProceed) {
    weave(R"(
        fun onCall() {
            if (ctx.arg(0) < 0) { return -1; }   // skip the body entirely
            let r = ctx.proceed();
            return r * 3;
        }
    )",
          {{AdviceKind::kAround, "call(* Motor.rotate(..))", "onCall"}});
    EXPECT_EQ(motor_->call("rotate", {Value{10.0}}).as_int(), 15);
    EXPECT_EQ(motor_->call("rotate", {Value{-5.0}}).as_int(), -1);
    EXPECT_DOUBLE_EQ(motor_->peek("position").as_real(), 10.0);  // skipped call did nothing
}

TEST_F(ScriptAspectTest, FieldSetAdviceObservesStateChanges) {
    weave(R"(
        let changes = [];
        fun onSet() {
            changes[len(changes)] = [ctx.field(), ctx.oldval(), ctx.newval()];
        }
    )",
          {{AdviceKind::kFieldSet, "fieldset(Motor.position)", "onSet"}});
    std::shared_ptr<ScriptAspect> sa = keep_alive_.back();
    motor_->call("rotate", {Value{30.0}});
    const Value* changes = sa->engine().global("changes");
    ASSERT_EQ(changes->as_list().size(), 1u);
    const List& change = changes->as_list()[0].as_list();
    EXPECT_EQ(change[0].as_str(), "position");
    EXPECT_DOUBLE_EQ(change[1].as_real(), 0.0);
    EXPECT_DOUBLE_EQ(change[2].as_real(), 30.0);
}

TEST_F(ScriptAspectTest, FieldSetAdviceAdjustsWrite) {
    weave("fun onSet() { ctx.set_newval(ctx.newval() + 0.5); }",
          {{AdviceKind::kFieldSet, "fieldset(Motor.position)", "onSet"}});
    motor_->call("rotate", {Value{1.0}});
    EXPECT_DOUBLE_EQ(motor_->peek("position").as_real(), 1.5);
}

TEST_F(ScriptAspectTest, AfterThrowingSeesError) {
    runtime_.register_type(
        rt::TypeInfo::Builder("Flaky")
            .method("boom", TypeKind::kVoid, {},
                    [](ServiceObject&, List&) -> Value { throw Error("kaput"); })
            .build());
    auto flaky = runtime_.create("Flaky", "flaky");
    weave("let msg = \"\"; fun onError() { msg = ctx.error(); }",
          {{AdviceKind::kAfterThrowing, "call(* Flaky.*(..))", "onError"}});
    std::shared_ptr<ScriptAspect> sa = keep_alive_.back();
    EXPECT_THROW(flaky->call("boom", {}), Error);
    EXPECT_EQ(sa->engine().global("msg")->as_str(), "kaput");
}

TEST_F(ScriptAspectTest, ConfigIsVisibleToScript) {
    Value config{Dict{{"limit", Value{90}}}};
    weave(R"(
        fun onEntry() {
            if (ctx.arg(0) > config.limit) { ctx.deny("beyond configured limit"); }
        }
    )",
          {{AdviceKind::kBefore, "call(* Motor.rotate(..))", "onEntry"}}, {},
          std::move(config));
    EXPECT_NO_THROW(motor_->call("rotate", {Value{90.0}}));
    EXPECT_THROW(motor_->call("rotate", {Value{91.0}}), AccessDenied);
}

TEST_F(ScriptAspectTest, TargetFieldAccessNeedsCapability) {
    // Without the "target" capability, ctx.get_field is denied.
    weave("fun onEntry() { ctx.get_field(\"position\"); }",
          {{AdviceKind::kBefore, "call(* Motor.rotate(..))", "onEntry"}});
    EXPECT_THROW(motor_->call("rotate", {Value{1.0}}), AccessDenied);
}

TEST_F(ScriptAspectTest, TargetFieldAccessWithCapability) {
    Sandbox sb;
    sb.capabilities.insert("target");
    weave(R"(
        let snapshot = -1.0;
        fun onEntry() { snapshot = ctx.get_field("position"); }
    )",
          {{AdviceKind::kBefore, "call(* Motor.rotate(..))", "onEntry"}}, sb);
    std::shared_ptr<ScriptAspect> sa = keep_alive_.back();
    motor_->poke("position", Value{7.25});
    motor_->call("rotate", {Value{1.0}});
    EXPECT_DOUBLE_EQ(sa->engine().global("snapshot")->as_real(), 7.25);
}

TEST_F(ScriptAspectTest, HostBuiltinAvailableUnderCapability) {
    std::vector<std::string> posts;
    host_.add("owner.post", "net", [&](List& args) -> Value {
        posts.push_back(args[0].as_str());
        return Value{};
    });
    Sandbox sb;
    sb.capabilities.insert("net");
    weave("fun onEntry() { owner.post(\"moved \" + str(ctx.arg(0))); }",
          {{AdviceKind::kBefore, "call(* Motor.rotate(..))", "onEntry"}}, sb);
    motor_->call("rotate", {Value{12.0}});
    ASSERT_EQ(posts.size(), 1u);
    EXPECT_EQ(posts[0], "moved 12");
}

TEST_F(ScriptAspectTest, MissingBoundFunctionIsCompileError) {
    EXPECT_THROW(
        ScriptAspect("bad", "fun other() { }",
                     {{AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry"}}, Sandbox{},
                     host_),
        ScriptError);
}

TEST_F(ScriptAspectTest, SyntaxErrorIsCompileError) {
    EXPECT_THROW(ScriptAspect("bad", "fun onEntry() {", {}, Sandbox{}, host_), ParseError);
}

TEST_F(ScriptAspectTest, TopLevelRunsOnceAtCompile) {
    weave("let inits = 0; inits = inits + 1; fun onEntry() { }",
          {{AdviceKind::kBefore, "call(* Motor.rotate(..))", "onEntry"}});
    std::shared_ptr<ScriptAspect> sa = keep_alive_.back();
    motor_->call("rotate", {Value{1.0}});
    motor_->call("rotate", {Value{1.0}});
    EXPECT_EQ(sa->engine().global("inits")->as_int(), 1);
}

TEST_F(ScriptAspectTest, ShutdownRunsOnWithdrawWithReason) {
    AspectId id = weave(R"(
        let last_reason = "";
        fun onEntry() { }
        fun onShutdown(reason) { last_reason = reason; }
    )",
                        {{AdviceKind::kBefore, "call(* Motor.rotate(..))", "onEntry"}});
    std::shared_ptr<ScriptAspect> sa = keep_alive_.back();
    weaver_.withdraw(id, WithdrawReason::kLeaseExpired);
    EXPECT_EQ(sa->engine().global("last_reason")->as_str(), "lease-expired");
}

TEST_F(ScriptAspectTest, FaultyShutdownDoesNotBlockWithdrawal) {
    AspectId id = weave(R"(
        fun onEntry() { }
        fun onShutdown(reason) { throw "shutdown tantrum"; }
    )",
                        {{AdviceKind::kBefore, "call(* Motor.rotate(..))", "onEntry"}});
    EXPECT_TRUE(weaver_.withdraw(id));
    EXPECT_FALSE(motor_->type().method("rotate")->woven());
}

TEST_F(ScriptAspectTest, ScriptErrorInAdvicePropagatesToCaller) {
    weave("fun onEntry() { throw \"advice bug\"; }",
          {{AdviceKind::kBefore, "call(* Motor.rotate(..))", "onEntry"}});
    EXPECT_THROW(motor_->call("rotate", {Value{1.0}}), ScriptError);
}

TEST_F(ScriptAspectTest, RunawayAdviceHitsStepBudget) {
    Sandbox sb;
    sb.step_budget = 10'000;
    weave("fun onEntry() { while (true) { } }",
          {{AdviceKind::kBefore, "call(* Motor.rotate(..))", "onEntry"}}, sb);
    EXPECT_THROW(motor_->call("rotate", {Value{1.0}}), ResourceExhausted);
}

TEST_F(ScriptAspectTest, StatePersistsAcrossInterceptions) {
    weave(R"(
        let count = 0;
        fun onEntry() { count = count + 1; }
    )",
          {{AdviceKind::kBefore, "call(* Motor.rotate(..))", "onEntry"}});
    std::shared_ptr<ScriptAspect> sa = keep_alive_.back();
    for (int i = 0; i < 5; ++i) motor_->call("rotate", {Value{1.0}});
    EXPECT_EQ(sa->engine().global("count")->as_int(), 5);
}

TEST_F(ScriptAspectTest, ProceedOutsideAroundFails) {
    weave("fun onEntry() { ctx.proceed(); }",
          {{AdviceKind::kBefore, "call(* Motor.rotate(..))", "onEntry"}});
    EXPECT_THROW(motor_->call("rotate", {Value{1.0}}), ScriptError);
}

// ------------------------------------------------------------ namespace ----

/// Every join-point builtin, as docs/advicescript.md lists them.
const char* const kCtxNames[] = {
    "ctx.type",   "ctx.target",   "ctx.method",  "ctx.args",      "ctx.arg",
    "ctx.set_arg", "ctx.result",  "ctx.set_result", "ctx.proceed", "ctx.error",
    "ctx.deny",   "ctx.set_note", "ctx.note",    "ctx.field",     "ctx.oldval",
    "ctx.newval", "ctx.set_newval", "ctx.get_field", "ctx.set_field",
};

TEST_F(ScriptAspectTest, EveryCtxNamePassesTheCheckAndResolvesInBothEngines) {
    std::shared_ptr<const BuiltinRegistry> world = extension_builtins(host_);
    for (const char* name : kCtxNames) {
        const std::string source = std::string("fun probe() { return ") + name + "(); }";
        EXPECT_TRUE(script::check(script::parse(source), *world).empty()) << name;
        // The shipped Vm, then the reference interpreter handed in through
        // the Engine seam over the same namespace.
        auto oracle = std::make_shared<script::Interpreter>(
            std::make_shared<const script::Program>(script::parse(source)), Sandbox{}, world);
        for (ScriptAspect sa : {ScriptAspect("probe", source, {}, Sandbox{}, host_),
                                ScriptAspect("probe", oracle, {})}) {
            // Called outside any join point: each builtin runs (or refuses
            // with its own message), none is an unknown function.
            try {
                sa.engine().call("probe", {});
            } catch (const Error& e) {
                EXPECT_EQ(std::string(e.what()).find("unknown function"), std::string::npos)
                    << name << ": " << e.what();
            }
        }
    }
    EXPECT_FALSE(script::check(script::parse("fun probe() { ctx.bogus(); }"), *world).empty());
    // The core library and the host layer are reached through the same chain.
    EXPECT_EQ(world->find("len"), host_.find("len"));
}

TEST_F(ScriptAspectTest, LayersShareTheCoreAndSnapshotTheHost) {
    EXPECT_NE(BuiltinRegistry::with_core().find("len"), nullptr);
    EXPECT_EQ(BuiltinRegistry::with_core().find("len"),
              BuiltinRegistry::with_core().find("len"));

    // A layer built over the host before "x" is added never sees it (the
    // interpreter resolves at call time, so this is the snapshot itself).
    auto before = std::make_shared<const BuiltinRegistry>(host_);
    host_.add("x", "", [](List&) -> Value { return Value{std::int64_t{1}}; });
    auto after = std::make_shared<const BuiltinRegistry>(host_);
    EXPECT_EQ(before->find("x"), nullptr);
    EXPECT_NE(after->find("x"), nullptr);
    auto program = std::make_shared<const script::Program>(
        script::parse("fun f() { return x(); }"));
    script::Interpreter old_world(program, Sandbox{}, before);
    script::Interpreter new_world(program, Sandbox{}, after);
    EXPECT_THROW(old_world.call("f", {}), ScriptError);
    EXPECT_EQ(new_world.call("f", {}).as_int(), 1);
}

/// What a script's ctx.* call raises outside a join point, as the caller
/// sees it: the top level and onShutdown run with no join point.
struct OutsideTexts {
    std::string top_level;
    std::string shutdown_type;
    std::string shutdown_method;
    std::string shutdown_field;
};

OutsideTexts outside_texts(const BuiltinRegistry& host) {
    OutsideTexts out;
    try {
        ScriptAspect("top", "ctx.method();", {}, Sandbox{}, host);
    } catch (const Error& e) {
        out.top_level = e.what();
    }
    const std::pair<std::string, std::string*> shutdowns[] = {
        {"ctx.type", &out.shutdown_type},
        {"ctx.method", &out.shutdown_method},
        {"ctx.field", &out.shutdown_field},
    };
    for (const auto& [name, text] : shutdowns) {
        ScriptAspect sa("down", "fun onShutdown(reason) { " + name + "(); }", {}, Sandbox{},
                        host);
        try {
            sa.aspect()->notify_withdraw(WithdrawReason::kExplicit);
        } catch (const Error& e) {
            *text = e.what();
        }
    }
    return out;
}

TEST_F(ScriptAspectTest, CtxOutsideAJoinPointKeepsItsErrorTexts) {
    OutsideTexts plain = outside_texts(host_);
    EXPECT_EQ(plain.top_level, "no method join point is active");
    EXPECT_EQ(plain.shutdown_type, "no join point is active");
    EXPECT_EQ(plain.shutdown_method, "no method join point is active");
    EXPECT_EQ(plain.shutdown_field, "no field join point is active");

    // The same from inside another extension's advice: the outer join
    // point must not leak into a top level or an onShutdown run there.
    OutsideTexts nested;
    host_.add("nested", "", [&](List&) -> Value {
        nested = outside_texts(host_);
        return Value{};
    });
    weave("fun onEntry() { nested(); }",
          {{AdviceKind::kBefore, "call(* Motor.rotate(..))", "onEntry", 0, {}}});
    motor_->call("rotate", {Value{1.0}});
    EXPECT_EQ(nested.top_level, plain.top_level);
    EXPECT_EQ(nested.shutdown_type, plain.shutdown_type);
    EXPECT_EQ(nested.shutdown_method, plain.shutdown_method);
    EXPECT_EQ(nested.shutdown_field, plain.shutdown_field);
}

TEST_F(ScriptAspectTest, NestedInterceptionSeesItsOwnJoinPoint) {
    // The outer around advice proceeds into a call that a second aspect
    // intercepts; each must see its own method, and the outer one again
    // once proceed() returns.
    runtime_.register_type(
        rt::TypeInfo::Builder("Relay")
            .method("forward", TypeKind::kInt, {},
                    [this](ServiceObject&, List&) -> Value {
                        return motor_->call("rotate", {Value{2.0}});
                    })
            .build());
    auto relay = runtime_.create("Relay", "relay");
    weave(R"(
        let seen = [];
        fun around() { seen = push(seen, ctx.method()); ctx.proceed();
                       seen = push(seen, ctx.method()); }
    )",
          {{AdviceKind::kAround, "call(* Relay.forward(..))", "around", 0, {}}});
    std::shared_ptr<ScriptAspect> outer = keep_alive_.back();
    weave("let seen = []; fun before() { seen = push(seen, ctx.method()); }",
          {{AdviceKind::kBefore, "call(* Motor.rotate(..))", "before", 0, {}}});
    std::shared_ptr<ScriptAspect> inner = keep_alive_.back();

    relay->call("forward", {});
    EXPECT_EQ(*outer->engine().global("seen"),
              (Value{List{Value{"forward"}, Value{"forward"}}}));
    EXPECT_EQ(*inner->engine().global("seen"), (Value{List{Value{"rotate"}}}));
}

}  // namespace
}  // namespace pmp::prose
