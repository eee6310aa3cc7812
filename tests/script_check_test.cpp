// Tests for the AdviceScript static checker and its integration with the
// MIDAS receiver (reject-at-install).
#include <gtest/gtest.h>

#include "midas/node.h"
#include "robot/devices.h"
#include "script/check.h"
#include "script/parser.h"
#include "support/interp.h"

namespace pmp::script {
namespace {

std::vector<Diagnostic> run_check(const std::string& source,
                                  std::vector<std::string> extra_builtins = {}) {
    BuiltinRegistry reg = BuiltinRegistry::with_core();
    for (const std::string& name : extra_builtins) {
        reg.add(name, "", [](rt::List&) { return rt::Value{}; });
    }
    Program program = parse(source);
    return check(program, reg);
}

bool mentions(const std::vector<Diagnostic>& diags, const std::string& needle) {
    for (const auto& d : diags) {
        if (d.message.find(needle) != std::string::npos) return true;
    }
    return false;
}

TEST(Checker, CleanProgramHasNoDiagnostics) {
    auto diags = run_check(R"(
        let buffer = [];
        fun onEntry() {
            buffer[len(buffer)] = 1;
            if (len(buffer) > 10) { flush(); }
        }
        fun flush() { buffer = []; }
        fun onShutdown(reason) { flush(); }
    )");
    EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
}

TEST(Checker, UndefinedVariable) {
    auto diags = run_check("fun f() { return missing_var; }");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_TRUE(mentions(diags, "undefined variable 'missing_var'"));
}

TEST(Checker, TopLevelLetVisibleInFunctions) {
    EXPECT_TRUE(run_check("let g = 1; fun f() { return g; }").empty());
    // ...even when the function is declared before the let.
    EXPECT_TRUE(run_check("fun f() { return g; } let g = 1;").empty());
}

TEST(Checker, TopLevelUseBeforeLetIsFlagged) {
    auto diags = run_check("let a = b; let b = 1;");
    EXPECT_TRUE(mentions(diags, "undefined variable 'b'"));
}

TEST(Checker, BlockScopedLetDoesNotLeak) {
    auto diags = run_check(R"(
        fun f() {
            if (true) { let x = 1; }
            return x;
        }
    )");
    EXPECT_TRUE(mentions(diags, "undefined variable 'x'"));
}

TEST(Checker, ConditionalTopLevelLetIsNotGlobal) {
    // Mirrors the interpreter: only *direct* top-level lets create globals.
    auto diags = run_check("if (true) { let x = 1; }\nfun f() { return x; }");
    EXPECT_TRUE(mentions(diags, "undefined variable 'x'"));
}

TEST(Checker, UnknownFunction) {
    auto diags = run_check("fun f() { frobnicate(); }");
    EXPECT_TRUE(mentions(diags, "unknown function 'frobnicate'"));
}

TEST(Checker, KnownBuiltinAccepted) {
    EXPECT_TRUE(run_check("fun f() { owner.post(); }", {"owner.post"}).empty());
    EXPECT_TRUE(mentions(run_check("fun f() { owner.post(); }"), "unknown function"));
}

TEST(Checker, UserFunctionArity) {
    auto diags = run_check("fun two(a, b) { return a + b; }\nfun f() { two(1); }");
    EXPECT_TRUE(mentions(diags, "expects 2 args, got 1"));
}

TEST(Checker, AssignToUndeclared) {
    auto diags = run_check("fun f() { y = 1; }");
    EXPECT_TRUE(mentions(diags, "assignment to undeclared variable 'y'"));
}

TEST(Checker, ParamsAreDefined) {
    EXPECT_TRUE(run_check("fun f(a, b) { return a + b; }").empty());
}

TEST(Checker, ForLoopVariableScoped) {
    EXPECT_TRUE(run_check(R"(
        fun f(l) {
            let s = 0;
            for (x in l) { s = s + x; }
            return s;
        }
    )").empty());
    EXPECT_TRUE(mentions(run_check("fun f(l) { for (x in l) { } return x; }"),
                         "undefined variable 'x'"));
}

TEST(Checker, BreakContinueOutsideLoop) {
    EXPECT_TRUE(mentions(run_check("fun f() { break; }"), "'break' outside a loop"));
    EXPECT_TRUE(mentions(run_check("fun f() { continue; }"), "'continue' outside a loop"));
    EXPECT_TRUE(run_check("fun f() { while (true) { break; } }").empty());
    // A function body does not inherit the caller's loop.
    EXPECT_TRUE(mentions(run_check(R"(
        fun inner() { break; }
        fun f() { while (true) { inner(); } }
    )"),
                         "'break' outside a loop"));
}

TEST(Checker, ReturnOutsideFunction) {
    EXPECT_TRUE(mentions(run_check("return 1;"), "'return' outside a function"));
}

TEST(Checker, UnreachableCode) {
    auto diags = run_check(R"(
        fun f() {
            return 1;
            let dead = 2;
        }
    )");
    EXPECT_TRUE(mentions(diags, "unreachable statement"));
}

TEST(Checker, DuplicateFunctionsAndParams) {
    EXPECT_TRUE(mentions(run_check("fun f() { }\nfun f() { }"), "duplicate function 'f'"));
    EXPECT_TRUE(mentions(run_check("fun g(a, a) { return a; }"), "duplicate parameter 'a'"));
}

TEST(Checker, PredefinedConfigIsKnown) {
    EXPECT_TRUE(run_check("fun f() { return config.limit; }").empty());
}

TEST(Checker, MultipleDiagnosticsReported) {
    auto diags = run_check("fun f() { aa(); return bb; }");
    EXPECT_GE(diags.size(), 2u);
    std::string all = format_diagnostics(diags);
    EXPECT_NE(all.find("aa"), std::string::npos);
    EXPECT_NE(all.find("bb"), std::string::npos);
    EXPECT_NE(all.find("line"), std::string::npos);
}

// --------------------------------------------- interpreter signal fixes ----

TEST(InterpSignals, TopLevelReturnIsScriptError) {
    auto program = std::make_shared<const Program>(parse("return 1;"));
    Interpreter interp(program, Sandbox{},
                       std::make_shared<BuiltinRegistry>(BuiltinRegistry::with_core()));
    EXPECT_THROW(interp.run_top_level(), ScriptError);
}

TEST(InterpSignals, BreakDoesNotEscapeFunctionIntoCallerLoop) {
    auto program = std::make_shared<const Program>(parse(R"(
        let iterations = 0;
        fun bad() { break; }
        fun f() {
            let i = 0;
            while (i < 3) {
                i = i + 1;
                iterations = iterations + 1;
                bad();
            }
            return iterations;
        }
    )"));
    Interpreter interp(program, Sandbox{},
                       std::make_shared<BuiltinRegistry>(BuiltinRegistry::with_core()));
    interp.run_top_level();
    // The stray break surfaces as a script error on the first iteration —
    // it must NOT silently terminate the caller's loop.
    EXPECT_THROW(interp.call("f", {}), ScriptError);
    EXPECT_EQ(interp.global("iterations")->as_int(), 1);
}

}  // namespace
}  // namespace pmp::script

// ------------------------------------------------- receiver integration ----

namespace pmp::midas {
namespace {

using rt::Value;

TEST(ReceiverStaticCheck, BrokenExtensionRejectedAtInstall) {
    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 3);
    BaseConfig bc;
    bc.issuer = "hall";
    BaseStation hall(net, "hall", {0, 0}, 100.0, bc);
    hall.keys().add_key("hall", to_bytes("k"));
    MobileNode device(net, "robot", {10, 0}, 100.0);
    device.trust().trust("hall", to_bytes("k"));
    device.receiver().allow_capabilities("hall", {});
    robot::make_motor(device.runtime(), "motor:x");

    ExtensionPackage broken;
    broken.name = "hall/broken";
    broken.script = "fun onEntry() { misspelled_builtin(ctx.argg(0)); }";
    broken.bindings = {{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    hall.base().add_extension(broken);

    SimTime deadline = sim.now() + seconds(10);
    while (sim.now() < deadline && device.receiver().stats().rejections == 0) {
        sim.run_until(sim.now() + milliseconds(100));
    }
    EXPECT_GE(device.receiver().stats().rejections, 1u);
    EXPECT_EQ(device.receiver().installed_count(), 0u);
    EXPECT_GE(hall.base().stats().install_failures, 1u);
}

TEST(ReceiverStaticCheck, CtxBuiltinsAreKnownToTheChecker) {
    // A script that uses the join-point API extensively must pass the
    // static check and install.
    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 4);
    BaseConfig bc;
    bc.issuer = "hall";
    BaseStation hall(net, "hall", {0, 0}, 100.0, bc);
    hall.keys().add_key("hall", to_bytes("k"));
    MobileNode device(net, "robot", {10, 0}, 100.0);
    device.trust().trust("hall", to_bytes("k"));
    device.receiver().allow_capabilities("hall", {"net"});
    robot::make_motor(device.runtime(), "motor:x");

    ExtensionPackage rich;
    rich.name = "hall/rich";
    rich.script = R"(
        fun onEntry() {
            ctx.set_note("who", sys.caller());
            if (ctx.method() == "rotate" && ctx.arg(0) > 100) {
                ctx.deny("too far");
            }
            owner.post("collector", "post", [sys.node(), ctx.args()]);
        }
        fun onShutdown(reason) { log.info("bye ", reason); }
    )";
    rich.bindings = {{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    rich.capabilities = {"net", "log"};
    device.receiver().allow_capabilities("hall", {"net", "log"});
    hall.base().add_extension(rich);

    SimTime deadline = sim.now() + seconds(10);
    while (sim.now() < deadline && device.receiver().installed_count() == 0) {
        sim.run_until(sim.now() + milliseconds(100));
    }
    EXPECT_EQ(device.receiver().installed_count(), 1u);
    EXPECT_EQ(device.receiver().stats().rejections, 0u);
}

}  // namespace
}  // namespace pmp::midas
