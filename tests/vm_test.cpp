// Differential tests for the AdviceScript bytecode VM against the
// reference tree-walking Interpreter (the test oracle in tests/support):
// identical results, identical typed errors (same message text), identical
// step counts. The VM is the engine the product runs; the interpreter is
// the executable spec.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "common/error.h"
#include "script/compile.h"
#include "script/parser.h"
#include "script/vm.h"
#include "support/interp.h"

namespace pmp::script {
namespace {

using rt::Dict;
using rt::List;
using rt::Value;

struct Engines {
    std::shared_ptr<Interpreter> interp;
    std::shared_ptr<Vm> vm;
};

Engines make_engines(const std::string& source, Sandbox sandbox = {},
                     std::shared_ptr<BuiltinRegistry> builtins = nullptr) {
    if (!builtins) {
        builtins = std::make_shared<BuiltinRegistry>(BuiltinRegistry::with_core());
    }
    auto program = std::make_shared<const Program>(parse(source));
    Engines e;
    e.interp = std::make_shared<Interpreter>(program, sandbox, builtins);
    e.vm = std::make_shared<Vm>(compile(program), sandbox, builtins);
    return e;
}

/// Capture the outcome of one engine action: either a value or a typed
/// error. Comparing two Outcomes is the heart of every test here.
struct Outcome {
    bool threw = false;
    std::string type;     // typeid name of the exception
    std::string message;  // e.what()
    Value value;
    std::uint64_t steps = 0;
};

template <typename Fn>
Outcome capture(Engine& engine, Fn&& fn) {
    Outcome out;
    try {
        out.value = fn(engine);
    } catch (const DeadlineExceeded& e) {
        out.threw = true;
        out.type = "DeadlineExceeded";
        out.message = e.what();
    } catch (const ResourceExhausted& e) {
        out.threw = true;
        out.type = "ResourceExhausted";
        out.message = e.what();
    } catch (const AccessDenied& e) {
        out.threw = true;
        out.type = "AccessDenied";
        out.message = e.what();
    } catch (const ScriptError& e) {
        out.threw = true;
        out.type = "ScriptError";
        out.message = e.what();
    }
    out.steps = engine.last_call_steps();
    return out;
}

void expect_same(const Outcome& a, const Outcome& b, const std::string& what) {
    EXPECT_EQ(a.threw, b.threw) << what;
    EXPECT_EQ(a.type, b.type) << what;
    EXPECT_EQ(a.message, b.message) << what;
    if (!a.threw && !b.threw) {
        EXPECT_EQ(a.value, b.value) << what << " interp=" << a.value.to_string()
                                    << " vm=" << b.value.to_string();
    }
    EXPECT_EQ(a.steps, b.steps) << what << " (step counts diverge)";
}

/// Run `source` through both engines, call `fn(args)` on each, and
/// assert the outcomes (value or typed error, plus step counts) match.
/// Returns the VM outcome for additional assertions.
Outcome both(const std::string& source, const std::string& fn, List args = {},
             Sandbox sandbox = {},
             std::shared_ptr<BuiltinRegistry> builtins = nullptr) {
    auto engines = make_engines(source, sandbox, std::move(builtins));
    auto run = [&](Engine& e) {
        e.run_top_level();
        return e.call(fn, args);
    };
    Outcome oi = capture(*engines.interp, run);
    Outcome ov = capture(*engines.vm, run);
    expect_same(oi, ov, "source: " + source);
    return ov;
}

/// Evaluate one expression through both engines; returns the agreed value.
Value eval(const std::string& expr) {
    Outcome o = both("fun f() { return " + expr + "; }", "f");
    EXPECT_FALSE(o.threw) << o.message;
    return o.value;
}

// --------------------------------------------------------- results ----

TEST(VmParity, Arithmetic) {
    EXPECT_EQ(eval("1 + 2 * 3"), Value{std::int64_t{7}});
    EXPECT_EQ(eval("(1 + 2) * 3"), Value{std::int64_t{9}});
    EXPECT_EQ(eval("7 / 2"), Value{std::int64_t{3}});
    EXPECT_EQ(eval("7.0 / 2"), Value{3.5});
    EXPECT_EQ(eval("7 % 3"), Value{std::int64_t{1}});
    EXPECT_EQ(eval("-3 + 1"), Value{std::int64_t{-2}});
    EXPECT_EQ(eval("\"a\" + 1"), Value{std::string{"a1"}});
    EXPECT_EQ(eval("[1] + [2, 3]"), eval("[1, 2, 3]"));
}

TEST(VmParity, ComparisonAndLogic) {
    EXPECT_EQ(eval("1 < 2"), Value{true});
    EXPECT_EQ(eval("1.0 == 1"), Value{true});
    EXPECT_EQ(eval("\"a\" < \"b\""), Value{true});
    EXPECT_EQ(eval("true && false"), Value{false});
    EXPECT_EQ(eval("false || true"), Value{true});
    EXPECT_EQ(eval("!false"), Value{true});
    // Short-circuit: rhs must not run (it would throw).
    EXPECT_EQ(eval("false && (1 / 0 == 0)"), Value{false});
    EXPECT_EQ(eval("true || (1 / 0 == 0)"), Value{true});
}

TEST(VmParity, ControlFlow) {
    const char* src = R"(
        fun classify(n) {
            if (n < 0) { return "neg"; }
            else { if (n == 0) { return "zero"; } }
            return "pos";
        }
        fun sum_to(n) {
            let total = 0;
            let i = 1;
            while (i <= n) {
                total = total + i;
                i = i + 1;
            }
            return total;
        }
        fun skip_odd(n) {
            let total = 0;
            for (x in range(0, n)) {
                if (x % 2 == 1) { continue; }
                if (x > 10) { break; }
                total = total + x;
            }
            return total;
        }
    )";
    EXPECT_EQ(both(src, "classify", {Value{std::int64_t{-5}}}).value,
              Value{std::string{"neg"}});
    EXPECT_EQ(both(src, "classify", {Value{std::int64_t{0}}}).value,
              Value{std::string{"zero"}});
    EXPECT_EQ(both(src, "sum_to", {Value{std::int64_t{100}}}).value,
              Value{std::int64_t{5050}});
    EXPECT_EQ(both(src, "skip_odd", {Value{std::int64_t{40}}}).value,
              Value{std::int64_t{30}});
}

TEST(VmParity, Recursion) {
    const char* src = "fun fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }";
    EXPECT_EQ(both(src, "fib", {Value{std::int64_t{15}}}).value,
              Value{std::int64_t{610}});
}

TEST(VmParity, ForInDict) {
    const char* src = R"(
        fun keys_of() {
            let d = {"b": 2, "a": 1};
            let out = [];
            for (k in d) { out = push(out, k); }
            return out;
        }
    )";
    EXPECT_EQ(both(src, "keys_of").value, eval("[\"a\", \"b\"]"));
}

TEST(VmParity, LvaluePaths) {
    const char* src = R"(
        fun build() {
            let d = {"xs": [1, 2]};
            d["xs"][0] = 10;
            d["xs"][2] = 30;       // append at exactly len
            d.fresh = {"n": 1};    // create missing member
            d.fresh.n = d.fresh.n + 1;
            return d;
        }
    )";
    Outcome o = both(src, "build");
    ASSERT_FALSE(o.threw) << o.message;
    EXPECT_EQ(o.value, eval("{\"xs\": [10, 2, 30], \"fresh\": {\"n\": 2}}"));
}

TEST(VmParity, GlobalsAndShadowing) {
    const char* src = R"(
        let counter = 0;
        fun bump() { counter = counter + 1; return counter; }
        fun shadow() { let counter = 100; counter = counter + 1; return counter; }
        if (true) { let block_local = 9; }
    )";
    auto engines = make_engines(src);
    engines.interp->run_top_level();
    engines.vm->run_top_level();
    engines.interp->call("bump", {});
    engines.vm->call("bump", {});
    EXPECT_EQ(engines.interp->call("bump", {}), Value{std::int64_t{2}});
    EXPECT_EQ(engines.vm->call("bump", {}), Value{std::int64_t{2}});
    EXPECT_EQ(engines.vm->call("shadow", {}), Value{std::int64_t{101}});
    // A let inside a top-level block is block-local in both engines.
    EXPECT_EQ(engines.interp->global("block_local"), nullptr);
    EXPECT_EQ(engines.vm->global("block_local"), nullptr);
    ASSERT_NE(engines.vm->global("counter"), nullptr);
    EXPECT_EQ(*engines.vm->global("counter"), Value{std::int64_t{2}});
}

TEST(VmParity, SetGlobalVisibleToScript) {
    auto engines = make_engines("fun get() { return ctx; }");
    for (Engine* e : {static_cast<Engine*>(engines.interp.get()),
                      static_cast<Engine*>(engines.vm.get())}) {
        e->run_top_level();
        e->set_global("ctx", Value{std::string{"injected"}});
        EXPECT_EQ(e->call("get", {}), Value{std::string{"injected"}});
    }
}

// ---------------------------------------------- resolved globals ----
// The VM resolves each global name once to its node and reads `g.k` in
// place; neither may be observable.

/// Call `fn` on both engines (top level already run) and compare.
Outcome both_call(Engines& engines, const std::string& fn) {
    auto call = [&](Engine& e) { return e.call(fn, {}); };
    Outcome oi = capture(*engines.interp, call);
    Outcome ov = capture(*engines.vm, call);
    expect_same(oi, ov, "call " + fn);
    return ov;
}

void set_both(Engines& engines, const std::string& name, const Value& v) {
    engines.interp->set_global(name, v);
    engines.vm->set_global(name, v);
}

TEST(VmParity, GlobalMemberRead) {
    const char* src =
        "let g = {\"k\": 7, \"nested\": {\"x\": [1, 2]}};\n"
        "let n = 5;\n"
        "fun present() { return g.k + 1; }\n"
        "fun missing() { return g.nope; }\n"
        "fun nested() { return g.nested.x; }\n"
        "fun not_dict() {\n"
        "  let a = 1;\n"
        "  return n.k;\n"
        "}\n"
        "fun undefined() { return h.k; }\n";
    EXPECT_EQ(both(src, "present").value, Value{std::int64_t{8}});
    EXPECT_EQ(both(src, "missing").value, Value{});
    EXPECT_EQ(both(src, "nested").value, eval("[1, 2]"));
    Outcome o = both(src, "not_dict");
    EXPECT_EQ(o.type, "ScriptError");
    EXPECT_EQ(o.message, "member access needs a dict (line 8)");
    o = both(src, "undefined");
    EXPECT_EQ(o.type, "ScriptError");
    EXPECT_EQ(o.message, "undefined variable 'h' (line 10)");
}

TEST(VmParity, GlobalChangesKindBetweenCalls) {
    const char* src =
        "let g = 1;\n"
        "fun read() { return g; }\n"
        "fun member() { return g.k; }\n"
        "fun to_dict() { g = {\"k\": 3}; }\n"
        "fun to_int() { g = 2; }\n";
    auto engines = make_engines(src);
    engines.interp->run_top_level();
    engines.vm->run_top_level();
    EXPECT_EQ(both_call(engines, "read").value, Value{std::int64_t{1}});
    EXPECT_TRUE(both_call(engines, "member").threw);
    both_call(engines, "to_dict");
    EXPECT_EQ(both_call(engines, "member").value, Value{std::int64_t{3}});
    both_call(engines, "to_int");
    EXPECT_EQ(both_call(engines, "read").value, Value{std::int64_t{2}});
    EXPECT_TRUE(both_call(engines, "member").threw);
    set_both(engines, "g", Value{Dict{{"k", Value{std::int64_t{4}}}}});
    EXPECT_EQ(both_call(engines, "member").value, Value{std::int64_t{4}});
    set_both(engines, "g", Value{std::int64_t{5}});
    EXPECT_EQ(both_call(engines, "read").value, Value{std::int64_t{5}});
    EXPECT_TRUE(both_call(engines, "member").threw);
}

TEST(VmParity, HostSetGlobalOfANewNameAfterFirstCall) {
    const char* src =
        "fun read() { return late; }\n"
        "fun member() { return late.k; }\n"
        "fun write() { late = {\"k\": 9}; }\n";
    auto engines = make_engines(src);
    engines.interp->run_top_level();
    engines.vm->run_top_level();
    // Misses first: the VM must not remember that `late` was undefined.
    Outcome o = both_call(engines, "read");
    EXPECT_EQ(o.message, "undefined variable 'late' (line 1)");
    o = both_call(engines, "write");
    EXPECT_EQ(o.message, "assignment to undeclared variable 'late' (line 3)");
    set_both(engines, "late", Value{Dict{{"k", Value{std::int64_t{4}}}}});
    EXPECT_EQ(both_call(engines, "member").value, Value{std::int64_t{4}});
    EXPECT_FALSE(both_call(engines, "write").threw);
    EXPECT_EQ(both_call(engines, "member").value, Value{std::int64_t{9}});
    ASSERT_NE(engines.vm->global("late"), nullptr);
    EXPECT_EQ(*engines.vm->global("late"), *engines.interp->global("late"));
}

TEST(VmParity, GlobalDictUnchangedByMemberRead) {
    const char* src =
        "fun clamp(d) {\n"
        "  let xs = config.xs;\n"
        "  xs[0] = 99;\n"
        "  if (d > config.limit) { return config.limit; }\n"
        "  return d;\n"
        "}\n";
    const Value config{Dict{{"limit", Value{std::int64_t{10}}},
                            {"xs", Value{List{Value{std::int64_t{1}}}}}}};
    auto engines = make_engines(src);
    engines.interp->run_top_level();
    engines.vm->run_top_level();
    set_both(engines, "config", config);
    for (std::int64_t d : {3, 30}) {
        auto call = [&](Engine& e) { return e.call("clamp", {Value{d}}); };
        Outcome oi = capture(*engines.interp, call);
        Outcome ov = capture(*engines.vm, call);
        expect_same(oi, ov, "clamp(" + std::to_string(d) + ")");
        EXPECT_EQ(ov.value, Value{std::min<std::int64_t>(d, 10)});
    }
    ASSERT_NE(engines.vm->global("config"), nullptr);
    EXPECT_EQ(*engines.vm->global("config"), config);
    EXPECT_EQ(*engines.interp->global("config"), config);
}

TEST(VmParity, Builtins) {
    EXPECT_EQ(eval("len(\"hello\")"), Value{std::int64_t{5}});
    EXPECT_EQ(eval("join(split(\"a,b,c\", \",\"), \"-\")"),
              Value{std::string{"a-b-c"}});
    EXPECT_EQ(eval("contains({\"k\": 1}, \"k\")"), Value{true});
    EXPECT_EQ(eval("min(3, max(1, 2))"), Value{std::int64_t{2}});
    EXPECT_EQ(eval("slice(range(0, 10), 2, 4)"), eval("[2, 3]"));
}

// ---------------------------------------------------------- errors ----

TEST(VmParity, TypeErrors) {
    both("fun f() { return 1 + true; }", "f");
    both("fun f() { return -\"x\"; }", "f");
    both("fun f() { return {\"a\": 1}[true]; }", "f");
    both("fun f() { return [1][5]; }", "f");
    both("fun f() { return 1 / 0; }", "f");
    both("fun f() { return 1 % 0; }", "f");
    both("fun f() { let x = 1; x.y = 2; return x; }", "f");
    both("fun f() { for (x in 42) { } }", "f");
    both("fun f() { return 1 < \"a\"; }", "f");
    both("fun f() { let d = {}; d[3] = 1; return d; }", "f");
}

TEST(VmParity, ThrowStatement) {
    Outcome o = both("fun f() { throw \"custom failure\"; }", "f");
    EXPECT_TRUE(o.threw);
    EXPECT_NE(o.message.find("custom failure"), std::string::npos);
}

TEST(VmParity, UndefinedVariable) {
    Outcome o = both("fun f() { return nope; }", "f");
    EXPECT_TRUE(o.threw);
    EXPECT_NE(o.message.find("undefined variable 'nope'"), std::string::npos);
}

TEST(VmParity, AssignToUndeclared) {
    Outcome o = both("fun f() { nope = 1; }", "f");
    EXPECT_TRUE(o.threw);
    EXPECT_NE(o.message.find("nope"), std::string::npos);
}

TEST(VmParity, ArityMismatch) {
    Outcome o = both("fun g(a, b) { return a; } fun f() { return g(1); }", "f");
    EXPECT_TRUE(o.threw);
    EXPECT_NE(o.message.find("expects 2 args, got 1"), std::string::npos);
}

TEST(VmParity, ArityMismatchEvaluatesArgsFirst) {
    // The interpreter evaluates arguments before checking arity; a side
    // effect in an argument must land even though the call then fails.
    const char* src = R"(
        let log = [];
        fun note(x) { log = push(log, x); return x; }
        fun g(a, b) { return a; }
        fun f() { return g(note(1)); }
    )";
    auto engines = make_engines(src);
    for (Engine* e : {static_cast<Engine*>(engines.interp.get()),
                      static_cast<Engine*>(engines.vm.get())}) {
        e->run_top_level();
        EXPECT_THROW(e->call("f", {}), ScriptError);
        const Value* log = e->global("log");
        ASSERT_NE(log, nullptr);
        EXPECT_EQ(log->to_string(), "[1]");
    }
}

TEST(VmParity, UnknownFunction) {
    Outcome o = both("fun f() { return whodis(1); }", "f");
    EXPECT_TRUE(o.threw);
    EXPECT_NE(o.message.find("unknown function 'whodis'"), std::string::npos);
}

TEST(VmParity, BreakContinueReturnOutsidePlacement) {
    both("fun f() { break; }", "f");
    both("fun f() { continue; }", "f");
    // At the top level the fault fires during run_top_level.
    auto engines = make_engines("break;");
    Outcome oi = capture(*engines.interp, [](Engine& e) {
        e.run_top_level();
        return Value{};
    });
    Outcome ov = capture(*engines.vm, [](Engine& e) {
        e.run_top_level();
        return Value{};
    });
    expect_same(oi, ov, "top-level break");
    EXPECT_TRUE(ov.threw);

    auto engines2 = make_engines("return 1;");
    Outcome oi2 = capture(*engines2.interp, [](Engine& e) {
        e.run_top_level();
        return Value{};
    });
    Outcome ov2 = capture(*engines2.vm, [](Engine& e) {
        e.run_top_level();
        return Value{};
    });
    expect_same(oi2, ov2, "top-level return");
    EXPECT_TRUE(ov2.threw);
}

// --------------------------------------------------------- sandbox ----

TEST(VmParity, StepBudgetExhaustion) {
    Sandbox tight;
    tight.step_budget = 200;
    Outcome o = both("fun spin() { while (true) { } }", "spin", {}, tight);
    EXPECT_TRUE(o.threw);
    EXPECT_EQ(o.type, "ResourceExhausted");
    EXPECT_NE(o.message.find("step budget"), std::string::npos);
}

TEST(VmParity, DeadlineWatchdog) {
    Sandbox s;
    s.deadline_steps = 50;
    Outcome o = both("fun spin() { while (true) { } }", "spin", {}, s);
    EXPECT_TRUE(o.threw);
    EXPECT_EQ(o.type, "DeadlineExceeded");
    EXPECT_NE(o.message.find("watchdog deadline"), std::string::npos);
}

TEST(VmParity, RecursionLimit) {
    Sandbox s;
    s.max_recursion = 16;
    Outcome o = both("fun down(n) { return down(n + 1); }", "down",
                     {Value{std::int64_t{0}}}, s);
    EXPECT_TRUE(o.threw);
    EXPECT_EQ(o.type, "ResourceExhausted");
    EXPECT_NE(o.message.find("recursion limit"), std::string::npos);
}

TEST(VmParity, CapabilityDenied) {
    auto builtins = std::make_shared<BuiltinRegistry>(BuiltinRegistry::with_core());
    builtins->add("privileged", "net", [](List&) { return Value{std::int64_t{1}}; });
    Sandbox closed;  // no capabilities
    Outcome o = both("fun f() { return privileged(); }", "f", {}, closed, builtins);
    EXPECT_TRUE(o.threw);
    EXPECT_EQ(o.type, "AccessDenied");
    EXPECT_NE(o.message.find("capability 'net'"), std::string::npos);

    Sandbox open;
    open.capabilities.insert("net");
    Outcome ok = both("fun f() { return privileged(); }", "f", {}, open, builtins);
    EXPECT_FALSE(ok.threw) << ok.message;
    EXPECT_EQ(ok.value, Value{std::int64_t{1}});
}

TEST(VmParity, StepCountsMatchExactly) {
    // Exercise every statement/expression kind and compare last_call_steps.
    const char* src = R"(
        fun work(n) {
            let acc = [];
            let d = {"hits": 0};
            for (i in range(0, n)) {
                if (i % 3 == 0) { continue; }
                d["hits"] = d["hits"] + 1;
                acc = push(acc, {"i": i, "sq": i * i});
                let j = 0;
                while (j < 2) { j = j + 1; }
            }
            return len(acc) + d.hits;
        }
    )";
    Outcome o = both(src, "work", {Value{std::int64_t{25}}});
    ASSERT_FALSE(o.threw) << o.message;
    EXPECT_GT(o.steps, 100u);
}

TEST(VmParity, StepObserverFires) {
    auto engines = make_engines("fun f() { return 1 + 2; }");
    std::uint64_t interp_seen = 0, vm_seen = 0;
    engines.interp->set_step_observer([&](std::uint64_t n) { interp_seen = n; });
    engines.vm->set_step_observer([&](std::uint64_t n) { vm_seen = n; });
    engines.interp->run_top_level();
    engines.vm->run_top_level();
    engines.interp->call("f", {});
    engines.vm->call("f", {});
    EXPECT_GT(interp_seen, 0u);
    EXPECT_EQ(interp_seen, vm_seen);
}

TEST(VmParity, ReentrantHostCallback) {
    // A host builtin that calls back into the engine mid-call: the nested
    // invocation shares the outer step meter in both engines.
    auto make = [](Engine** cell) {
        auto builtins = std::make_shared<BuiltinRegistry>(BuiltinRegistry::with_core());
        builtins->add("reenter", "", [cell](List&) {
            return (*cell)->call("callee", {});
        });
        return builtins;
    };
    const char* src =
        "fun callee() { return 7; } fun f() { return reenter() + 1; }";
    auto program = std::make_shared<const Program>(parse(src));

    Engine* icell = nullptr;
    Interpreter interp(program, Sandbox{}, make(&icell));
    icell = &interp;
    Engine* vcell = nullptr;
    Vm vm(compile(program), Sandbox{}, make(&vcell));
    vcell = &vm;

    interp.run_top_level();
    vm.run_top_level();
    Value iv = interp.call("f", {});
    Value vv = vm.call("f", {});
    EXPECT_EQ(iv, Value{std::int64_t{8}});
    EXPECT_EQ(iv, vv);
    EXPECT_EQ(interp.last_call_steps(), vm.last_call_steps());
}

TEST(VmParity, BudgetResetsPerOutermostCall) {
    Sandbox s;
    s.step_budget = 500;
    const char* src = "fun f() { let i = 0; while (i < 20) { i = i + 1; } return i; }";
    auto engines = make_engines(src, s);
    engines.interp->run_top_level();
    engines.vm->run_top_level();
    // Each outermost call gets a fresh budget; 50 calls must all succeed.
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(engines.interp->call("f", {}), Value{std::int64_t{20}});
        EXPECT_EQ(engines.vm->call("f", {}), Value{std::int64_t{20}});
    }
}

TEST(VmParity, ErrorLineNumbersMatch) {
    // The budget error message embeds the line that overran; both engines
    // must charge steps to the same lines.
    Sandbox s;
    s.step_budget = 100;
    const char* src = "fun spin() {\n  let i = 0;\n  while (true) {\n    i = i + 1;\n  }\n}";
    Outcome o = both(src, "spin", {}, s);
    EXPECT_TRUE(o.threw);
    EXPECT_EQ(o.type, "ResourceExhausted");
}

// ------------------------------------------------ fused step ticks ----
// The compiler fuses runs of same-line ticks into one kTick charging the
// run's length; a budget or deadline crossed inside a run must still fail
// at the exact step, on the same line, with the same steps charged.

TEST(VmParity, BudgetAndDeadlineCrossingsAtEveryStep) {
    const char* src = R"(
        fun f(x) { return x % 4; }
        fun main(n) {
            let buf = [0, 0, 0, 0];
            let acc = 0;
            let i = 0;
            while (i < n) {
                buf[f(i)] = acc + i * 2 - 1;
                seen[f(i + 1)] = buf[f(i)] + -acc;
                if (i % 2 == 0 && acc >= 0) { acc = acc + f(i + 1) * 3; }
                else { acc = acc - 1; }
                i = i + 1;
            }
            return acc + buf[0] + seen[1];
        }
    )";
    auto program = std::make_shared<const Program>(parse(src));
    auto unit = compile(program);
    auto builtins = std::make_shared<BuiltinRegistry>(BuiltinRegistry::with_core());
    // The global is set by the host, so the top level charges no step and
    // every budget from 1 up lands inside main.
    const Value seen{List{Value{std::int64_t{0}}, Value{std::int64_t{0}},
                          Value{std::int64_t{0}}, Value{std::int64_t{0}}}};
    auto run = [&](Engine& e) {
        e.run_top_level();
        e.set_global("seen", seen);
        return e.call("main", {Value{std::int64_t{6}}});
    };
    auto outcomes = [&](const Sandbox& s) {
        Interpreter interp(program, s, builtins);
        Vm vm(unit, s, builtins);
        return std::make_pair(capture(interp, run), capture(vm, run));
    };

    const auto [full_i, full_v] = outcomes(Sandbox{});
    expect_same(full_i, full_v, "unbounded");
    ASSERT_FALSE(full_v.threw) << full_v.message;
    const std::uint64_t total = full_v.steps;
    ASSERT_GT(total, 200u);

    for (std::uint64_t deadline : {std::uint64_t{0}, std::uint64_t{3}, total / 3,
                                   total / 2 + 1, total}) {
        for (std::uint64_t budget = 1; budget <= total; ++budget) {
            Sandbox s;
            s.step_budget = budget;
            s.deadline_steps = deadline;
            const auto [oi, ov] = outcomes(s);
            const std::string what = "budget " + std::to_string(budget) + ", deadline " +
                                     std::to_string(deadline);
            expect_same(oi, ov, what);
            const std::uint64_t limit = deadline != 0 ? std::min(budget, deadline) : budget;
            if (limit >= total) {
                EXPECT_FALSE(ov.threw) << what << ": " << ov.message;
                continue;
            }
            // The step past the limit is the one charged and reported.
            EXPECT_EQ(ov.steps, limit + 1) << what;
            EXPECT_EQ(ov.type, deadline != 0 && deadline <= budget ? "DeadlineExceeded"
                                                                   : "ResourceExhausted")
                << what;
        }
    }
}

TEST(VmParity, InPlaceOperandsAndRidingStepsAtEveryStep) {
    // Literal and local right operands read in place by the binary, next to
    // each place a step run cannot simply ride on the next instruction: a
    // fused global member read (line 7), multi-line expressions (a
    // standalone tick at the line change, lines 8-9, and before the
    // reachable type error of lines 14-15, which the `*` reports at its own
    // line), a `while` head (a standalone tick before the jump target, line
    // 6) and script calls (line 10, and the callee on line 1).
    const char* src =
        "fun g(a, b) { return a * 3 + b; }\n"
        "fun main(n, s) {\n"
        "  let acc = 1;\n"
        "  let i = 0;\n"
        "  let x = 0;\n"
        "  while (i < n) {\n"
        "    acc = acc + config.limit * 2 - i + config.limit;\n"
        "    acc = (acc\n"
        "      + i) % 97;\n"
        "    acc = g(acc, 1) - g(i, acc) + i;\n"
        "    i = i + 1;\n"
        "  }\n"
        "  x = acc * 2;\n"
        "  return x\n"
        "    * s;\n"
        "}\n";
    auto program = std::make_shared<const Program>(parse(src));
    auto unit = compile(program);
    for (const Chunk* c : {&unit->top_level, &unit->functions[0], &unit->functions[1]}) {
        for (std::size_t ip = 1; ip < c->code.size(); ++ip) {
            if (c->code[ip].op == Op::kMemberGet && c->code[ip - 1].op == Op::kLoadGlobal) {
                EXPECT_EQ(c->code[ip].steps, 0) << "a fused member read skips its steps";
            }
        }
    }
    auto builtins = std::make_shared<BuiltinRegistry>(BuiltinRegistry::with_core());
    const Value config{Dict{{"limit", Value{std::int64_t{4}}}}};

    // `s` a string: `x * s` fails on the last step; an int: the call returns.
    for (const Value& s_arg : {Value{std::string{"s"}}, Value{std::int64_t{3}}}) {
        auto run = [&](Engine& e) {
            e.run_top_level();
            e.set_global("config", config);
            return e.call("main", {Value{std::int64_t{4}}, s_arg});
        };
        auto outcomes = [&](const Sandbox& s) {
            Interpreter interp(program, s, builtins);
            Vm vm(unit, s, builtins);
            return std::make_pair(capture(interp, run), capture(vm, run));
        };
        const auto [full_i, full_v] = outcomes(Sandbox{});
        expect_same(full_i, full_v, "unbounded, s = " + s_arg.to_string());
        const bool type_error = s_arg.is_str();
        ASSERT_EQ(full_v.threw, type_error) << full_v.message;
        if (type_error) EXPECT_EQ(full_v.message, "'*' expects numbers (line 14)");
        const std::uint64_t total = full_v.steps;
        ASSERT_GT(total, 150u);

        for (std::uint64_t deadline : {std::uint64_t{0}, total / 2 + 1}) {
            for (std::uint64_t budget = 1; budget <= total; ++budget) {
                Sandbox s;
                s.step_budget = budget;
                s.deadline_steps = deadline;
                const auto [oi, ov] = outcomes(s);
                const std::string what = "s = " + s_arg.to_string() + ", budget " +
                                         std::to_string(budget) + ", deadline " +
                                         std::to_string(deadline);
                expect_same(oi, ov, what);
                const std::uint64_t limit =
                    deadline != 0 ? std::min(budget, deadline) : budget;
                if (limit >= total) {
                    EXPECT_EQ(ov.message, full_v.message) << what;
                    continue;
                }
                EXPECT_EQ(ov.steps, limit + 1) << what;
            }
        }
    }
}

TEST(VmParity, StepRunLongerThanOneInstructionCarries) {
    // 70,000 same-line steps before the first instruction: the compiler
    // splits the run, and a crossing on either side of the split is charged
    // at the exact step.
    std::string body;
    for (int i = 0; i < 70000; ++i) body += "{ } ";
    const std::string src = "fun f() { " + body + "return 1; }";
    const auto unit = compile(std::make_shared<const Program>(parse(src)));
    const Chunk& f = unit->functions[0];
    ASSERT_EQ(f.code[0].op, Op::kTick);
    EXPECT_EQ(f.code[0].steps, 65535);
    EXPECT_EQ(f.code[1].steps, 70002 - 65535);
    EXPECT_EQ(both(src, "f").steps, 70002u);
    for (std::uint64_t budget : {65534u, 65535u, 65536u, 70001u}) {
        Sandbox s;
        s.step_budget = budget;
        EXPECT_EQ(both(src, "f", {}, s).steps, budget + 1);
    }
}

TEST(VmParity, CrossingAfterACaughtNestedOverrun) {
    // A host builtin that swallows the budget error of a re-entrant call
    // leaves the shared meter past the limit; the outer call then fails on
    // its very next step, charged one step further, in both engines.
    auto make = [](Engine** cell) {
        auto builtins = std::make_shared<BuiltinRegistry>(BuiltinRegistry::with_core());
        builtins->add("try_spin", "", [cell](List&) {
            try {
                (*cell)->call("spin", {});
            } catch (const ResourceExhausted&) {
            }
            return Value{std::int64_t{1}};
        });
        return builtins;
    };
    const char* src =
        "fun spin() { while (true) { } }\n"
        "fun f() { let x = try_spin(); return x + 1; }\n";
    auto program = std::make_shared<const Program>(parse(src));
    Sandbox s;
    s.step_budget = 100;
    Engine* icell = nullptr;
    Interpreter interp(program, s, make(&icell));
    icell = &interp;
    Engine* vcell = nullptr;
    Vm vm(compile(program), s, make(&vcell));
    vcell = &vm;
    interp.run_top_level();
    vm.run_top_level();
    auto call = [](Engine& e) { return e.call("f", {}); };
    Outcome oi = capture(interp, call);
    Outcome ov = capture(vm, call);
    expect_same(oi, ov, "caught nested overrun");
    EXPECT_EQ(ov.type, "ResourceExhausted");
    EXPECT_EQ(ov.steps, 102u);
}

// ----------------------------------------------------- frame arena ----
// Frames carve their slots from pointer-stable arena blocks: an lvalue
// into a frame's slots survives nested calls that grow the arena, every
// popped frame leaves its slots null, on return and on throw, and an
// outermost call merges a grown arena into one block.

TEST(VmArena, LvalueHeldAcrossDeepRecursionAndReentry) {
    const char* src = R"(
        fun deep(k, v) {
            let pad = [v, k];
            if (k == 0) { return v; }
            return deep(k - 1, v + 1) + pad[1] - k;
        }
        fun main(n) {
            let buf = [0, 0];
            buf[deep(n, 0) - n + 1] = [n, "held"];
            return buf;
        }
        fun host(n) {
            let buf = [0, 0];
            buf[reenter(n) - n] = "back";
            return buf;
        }
    )";
    Sandbox s;
    s.max_recursion = 40;
    auto make_builtins = [](Engine** cell) {
        auto builtins = std::make_shared<BuiltinRegistry>(BuiltinRegistry::with_core());
        builtins->add("reenter", "", [cell](List& args) {
            return (*cell)->call("deep", {args.at(0), Value{std::int64_t{0}}});
        });
        return builtins;
    };
    auto program = std::make_shared<const Program>(parse(src));
    Engine* icell = nullptr;
    Interpreter interp(program, s, make_builtins(&icell));
    icell = &interp;
    Engine* vcell = nullptr;
    Vm vm(compile(program), s, make_builtins(&vcell));
    vcell = &vm;
    interp.run_top_level();
    vm.run_top_level();

    auto check = [&](const std::string& fn, std::int64_t n, bool throws) {
        const std::string what = fn + "(" + std::to_string(n) + ")";
        auto call = [&](Engine& e) { return e.call(fn, {Value{n}}); };
        Outcome oi = capture(interp, call);
        Outcome ov = capture(vm, call);
        expect_same(oi, ov, what);
        EXPECT_EQ(ov.threw, throws) << what << ": " << ov.message;
        if (throws) EXPECT_NE(ov.message.find("recursion limit"), std::string::npos) << what;
        EXPECT_EQ(vm.arena_stats().live_slots, 0u) << what << " left slots alive";
    };
    // main is depth 1, so deep(n) reaches depth n + 2: n = 38 is the
    // deepest chain the cap allows, n = 39 one frame past it.
    check("main", 38, false);
    const Vm::ArenaStats grown = vm.arena_stats();
    EXPECT_GE(grown.blocks, 3u);
    check("main", 39, true);
    // The next outermost call merged the blocks into one of the same size,
    // and a chain as deep as the last one then stays inside it.
    EXPECT_EQ(vm.arena_stats().blocks, 1u);
    EXPECT_EQ(vm.arena_stats().capacity, grown.capacity);
    check("host", 38, false);
    check("host", 39, true);
    check("main", 5, false);  // the arena is reusable after every unwind
    const Vm::ArenaStats after = vm.arena_stats();
    check("main", 38, false);
    EXPECT_EQ(vm.arena_stats().capacity, after.capacity) << "a warm arena stops growing";
}

}  // namespace
}  // namespace pmp::script
