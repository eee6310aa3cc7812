// Tests for AdviceScript: lexing, parsing, evaluation semantics, the
// capability sandbox and resource budgets. Every language case runs on the
// shipped bytecode Vm and on the reference interpreter, and the two must
// agree.
#include <gtest/gtest.h>

#include <exception>
#include <typeinfo>

#include "common/error.h"
#include "script/compile.h"
#include "script/parser.h"
#include "script/token.h"
#include "script/vm.h"
#include "support/interp.h"

namespace pmp::script {
namespace {

using rt::Dict;
using rt::List;
using rt::Value;

/// What one engine made of a call: a value, or a typed error.
struct Outcome {
    Value value;
    std::exception_ptr error;
    std::string type;
    std::string message;
    std::uint64_t steps = 0;
};

template <typename Fn>
Outcome capture(Engine& engine, Fn&& fn) {
    Outcome out;
    try {
        out.value = fn(engine);
    } catch (const std::exception& e) {
        out.error = std::current_exception();
        out.type = typeid(e).name();
        out.message = e.what();
    }
    out.steps = engine.last_call_steps();
    return out;
}

/// One script on the shipped Vm and on the reference interpreter. Each
/// call runs on both; their values or typed errors (with messages) and
/// step counts must agree, and the Vm's outcome is returned or rethrown.
class Engines {
public:
    Engines(const std::string& source, Sandbox sandbox,
            std::shared_ptr<BuiltinRegistry> builtins) {
        auto program = std::make_shared<const Program>(parse(source));
        oracle_ = std::make_unique<Interpreter>(program, sandbox, builtins);
        vm_ = std::make_unique<Vm>(compile(program), std::move(sandbox), std::move(builtins));
        both([](Engine& e) {
            e.run_top_level();
            return Value{};
        });
    }

    Value call(std::string_view name, const List& args) {
        return both([&](Engine& e) { return e.call(name, args); });
    }

    const Value* global(const std::string& name) const {
        const Value* mine = vm_->global(name);
        const Value* theirs = oracle_->global(name);
        EXPECT_EQ(mine == nullptr, theirs == nullptr) << name;
        if (mine && theirs) {
            EXPECT_EQ(*mine, *theirs) << name;
        }
        return mine;
    }

private:
    template <typename Fn>
    Value both(Fn&& fn) {
        Outcome want = capture(*oracle_, fn);
        Outcome got = capture(*vm_, fn);
        EXPECT_EQ(got.type, want.type);
        EXPECT_EQ(got.message, want.message);
        EXPECT_EQ(got.value, want.value);
        EXPECT_EQ(got.steps, want.steps);
        if (got.error) std::rethrow_exception(got.error);
        return got.value;
    }

    std::unique_ptr<Interpreter> oracle_;
    std::unique_ptr<Vm> vm_;
};

Engines make_engines(const std::string& source, Sandbox sandbox = {},
                     std::shared_ptr<BuiltinRegistry> builtins = nullptr) {
    if (!builtins) {
        builtins = std::make_shared<BuiltinRegistry>(BuiltinRegistry::with_core());
    }
    return Engines(source, std::move(sandbox), std::move(builtins));
}

/// Evaluate an expression by wrapping it in a function.
Value eval(const std::string& expr) {
    auto engines = make_engines("fun f() { return " + expr + "; }");
    return engines.call("f", {});
}

// ------------------------------------------------------------- lexer ----

TEST(Lexer, TokenKinds) {
    auto toks = tokenize("let x = 1.5 + \"s\"; // comment\n fun");
    std::vector<Tok> kinds;
    for (const auto& t : toks) kinds.push_back(t.kind);
    EXPECT_EQ(kinds, (std::vector<Tok>{Tok::kLet, Tok::kIdent, Tok::kAssign, Tok::kReal,
                                       Tok::kPlus, Tok::kStr, Tok::kSemi, Tok::kFun,
                                       Tok::kEof}));
}

TEST(Lexer, LineColumnTracking) {
    auto toks = tokenize("a\n  b");
    EXPECT_EQ(toks[0].line, 1);
    EXPECT_EQ(toks[1].line, 2);
    EXPECT_EQ(toks[1].column, 3);
}

TEST(Lexer, StringEscapes) {
    auto toks = tokenize(R"("a\n\t\"\\b")");
    EXPECT_EQ(toks[0].text, "a\n\t\"\\b");
}

TEST(Lexer, BlockComments) {
    auto toks = tokenize("a /* ignore \n all this */ b");
    EXPECT_EQ(toks[0].text, "a");
    EXPECT_EQ(toks[1].text, "b");
}

TEST(Lexer, Errors) {
    EXPECT_THROW(tokenize("\"unterminated"), ParseError);
    EXPECT_THROW(tokenize("a & b"), ParseError);
    EXPECT_THROW(tokenize("@"), ParseError);
    EXPECT_THROW(tokenize("/* never closed"), ParseError);
}

// ------------------------------------------------------------ parser ----

TEST(Parser, RejectsBadSyntax) {
    EXPECT_THROW(parse("let = 5;"), ParseError);
    EXPECT_THROW(parse("if x { }"), ParseError);
    EXPECT_THROW(parse("fun () {}"), ParseError);
    EXPECT_THROW(parse("1 + ;"), ParseError);
    EXPECT_THROW(parse("x = 1"), ParseError);      // missing semicolon
    EXPECT_THROW(parse("1 = 2;"), ParseError);     // non-lvalue
    EXPECT_THROW(parse("f(1)(2);"), ParseError);   // only named callees
    EXPECT_THROW(parse("{ let x = 1;"), ParseError);
}

TEST(Parser, ErrorCarriesLocation) {
    try {
        parse("let a = 1;\nlet b = ;\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 2);
    }
}

// --------------------------------------------------------- semantics ----

TEST(Interp, Arithmetic) {
    EXPECT_EQ(eval("1 + 2 * 3").as_int(), 7);
    EXPECT_EQ(eval("(1 + 2) * 3").as_int(), 9);
    EXPECT_EQ(eval("7 / 2").as_int(), 3);          // int division
    EXPECT_DOUBLE_EQ(eval("7.0 / 2").as_real(), 3.5);
    EXPECT_EQ(eval("7 % 3").as_int(), 1);
    EXPECT_EQ(eval("-4 + 1").as_int(), -3);
}

TEST(Interp, DivisionByZeroThrows) {
    EXPECT_THROW(eval("1 / 0"), ScriptError);
    EXPECT_THROW(eval("1 % 0"), ScriptError);
}

TEST(Interp, StringOps) {
    EXPECT_EQ(eval("\"a\" + \"b\"").as_str(), "ab");
    EXPECT_EQ(eval("\"n=\" + 42").as_str(), "n=42");  // number stringifies
    EXPECT_TRUE(eval("\"abc\" < \"abd\"").as_bool());
}

TEST(Interp, Comparisons) {
    EXPECT_TRUE(eval("1 < 2").as_bool());
    EXPECT_TRUE(eval("2 <= 2").as_bool());
    EXPECT_TRUE(eval("1 == 1.0").as_bool());  // numeric equality across kinds
    EXPECT_TRUE(eval("1 != 2").as_bool());
    EXPECT_TRUE(eval("null == null").as_bool());
}

TEST(Interp, LogicShortCircuits) {
    // The right side would throw if evaluated.
    EXPECT_FALSE(eval("false && (1 / 0 == 0)").as_bool());
    EXPECT_TRUE(eval("true || (1 / 0 == 0)").as_bool());
    EXPECT_TRUE(eval("!false").as_bool());
}

TEST(Interp, IfElseChain) {
    auto engines = make_engines(R"(
        fun grade(x) {
            if (x >= 90) { return "A"; }
            else if (x >= 80) { return "B"; }
            else { return "C"; }
        }
    )");
    EXPECT_EQ(engines.call("grade", {Value{95}}).as_str(), "A");
    EXPECT_EQ(engines.call("grade", {Value{85}}).as_str(), "B");
    EXPECT_EQ(engines.call("grade", {Value{10}}).as_str(), "C");
}

TEST(Interp, WhileWithBreakContinue) {
    auto engines = make_engines(R"(
        fun f() {
            let sum = 0;
            let i = 0;
            while (true) {
                i = i + 1;
                if (i > 10) { break; }
                if (i % 2 == 0) { continue; }
                sum = sum + i;
            }
            return sum;  // 1+3+5+7+9
        }
    )");
    EXPECT_EQ(engines.call("f", {}).as_int(), 25);
}

TEST(Interp, ForInListAndDict) {
    auto engines = make_engines(R"(
        fun sum_list(l) {
            let s = 0;
            for (x in l) { s = s + x; }
            return s;
        }
        fun join_keys(d) {
            let s = "";
            for (k in d) { s = s + k; }
            return s;
        }
    )");
    EXPECT_EQ(engines.call("sum_list", {Value{List{Value{1}, Value{2}, Value{3}}}}).as_int(),
              6);
    EXPECT_EQ(engines.call("join_keys", {Value{Dict{{"b", Value{1}}, {"a", Value{2}}}}})
                  .as_str(),
              "ab");  // sorted iteration
}

TEST(Interp, FunctionsAndRecursion) {
    auto engines = make_engines(R"(
        fun fib(n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
    )");
    EXPECT_EQ(engines.call("fib", {Value{10}}).as_int(), 55);
}

TEST(Interp, FunctionArityChecked) {
    auto engines = make_engines("fun f(a, b) { return a; }");
    EXPECT_THROW(engines.call("f", {Value{1}}), ScriptError);
}

TEST(Interp, UnknownFunctionThrows) {
    auto engines = make_engines("");
    EXPECT_THROW(engines.call("missing", {}), ScriptError);
}

TEST(Interp, GlobalsPersistAcrossCalls) {
    auto engines = make_engines(R"(
        let counter = 0;
        fun bump() { counter = counter + 1; return counter; }
    )");
    EXPECT_EQ(engines.call("bump", {}).as_int(), 1);
    EXPECT_EQ(engines.call("bump", {}).as_int(), 2);
    ASSERT_NE(engines.global("counter"), nullptr);
    EXPECT_EQ(engines.global("counter")->as_int(), 2);
}

TEST(Interp, LocalsDoNotLeakBetweenFunctions) {
    auto engines = make_engines(R"(
        fun set_local() { let x = 5; return x; }
        fun read_x() { return x; }
    )");
    engines.call("set_local", {});
    EXPECT_THROW(engines.call("read_x", {}), ScriptError);
}

TEST(Interp, BlockScoping) {
    auto engines = make_engines(R"(
        fun f() {
            let x = 1;
            { let x = 2; }
            return x;
        }
    )");
    EXPECT_EQ(engines.call("f", {}).as_int(), 1);
}

TEST(Interp, AssignToUndeclaredThrows) {
    auto engines = make_engines("fun f() { y = 1; }");
    EXPECT_THROW(engines.call("f", {}), ScriptError);
}

TEST(Interp, IndexingAndAppendIdiom) {
    auto engines = make_engines(R"(
        fun f() {
            let l = [10, 20];
            l[0] = 11;
            l[len(l)] = 30;   // append idiom
            return l;
        }
    )");
    Value result = engines.call("f", {});
    EXPECT_EQ(result, (Value{List{Value{11}, Value{20}, Value{30}}}));
}

TEST(Interp, IndexOutOfRangeThrows) {
    EXPECT_THROW(eval("[1, 2][5]"), ScriptError);
    EXPECT_THROW(eval("[1, 2][-1]"), ScriptError);
}

TEST(Interp, DictLiteralsMembersAndAssignment) {
    auto engines = make_engines(R"(
        fun f() {
            let d = {"a": 1, "nested": {"x": 2}};
            d["b"] = 5;
            d.c = 6;
            d["nested"]["x"] = 3;
            return d.a + d["b"] + d.c + d.nested.x;
        }
    )");
    EXPECT_EQ(engines.call("f", {}).as_int(), 15);
}

TEST(Interp, MissingDictKeyReadsNull) {
    EXPECT_TRUE(eval("{\"a\": 1}[\"zzz\"]").is_null());
    EXPECT_TRUE(eval("{\"a\": 1}.zzz").is_null());
}

TEST(Interp, ThrowCarriesMessage) {
    auto engines = make_engines("fun f() { throw \"custom failure\"; }");
    try {
        engines.call("f", {});
        FAIL() << "expected ScriptError";
    } catch (const ScriptError& e) {
        EXPECT_NE(std::string(e.what()).find("custom failure"), std::string::npos);
    }
}

TEST(Interp, UserFunctionShadowsBuiltin) {
    auto engines = make_engines("fun len(x) { return 999; }\nfun f() { return len([1]); }");
    EXPECT_EQ(engines.call("f", {}).as_int(), 999);
}

// ------------------------------------------------------------ budgets ----

TEST(Sandbox, StepBudgetStopsInfiniteLoop) {
    Sandbox sb;
    sb.step_budget = 10'000;
    auto engines = make_engines("fun spin() { while (true) { } }", sb);
    EXPECT_THROW(engines.call("spin", {}), ResourceExhausted);
}

TEST(Sandbox, RecursionLimitEnforced) {
    Sandbox sb;
    sb.max_recursion = 16;
    auto engines = make_engines("fun down(n) { return down(n + 1); }", sb);
    EXPECT_THROW(engines.call("down", {Value{0}}), ResourceExhausted);
}

TEST(Sandbox, BudgetResetsPerCall) {
    Sandbox sb;
    sb.step_budget = 5'000;
    auto engines = make_engines(R"(
        fun work() {
            let i = 0;
            while (i < 100) { i = i + 1; }
            return i;
        }
    )", sb);
    // Each call is within budget even though the total across calls is not.
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(engines.call("work", {}).as_int(), 100);
    }
}

TEST(Sandbox, CapabilityGatesBuiltin) {
    auto builtins = std::make_shared<BuiltinRegistry>(BuiltinRegistry::with_core());
    int fired = 0;
    builtins->add("net.post", "net", [&](List&) -> Value {
        ++fired;
        return Value{};
    });

    Sandbox denied;  // no capabilities
    auto engines1 = make_engines("fun f() { net.post(); }", denied, builtins);
    EXPECT_THROW(engines1.call("f", {}), AccessDenied);
    EXPECT_EQ(fired, 0);

    Sandbox granted;
    granted.capabilities.insert("net");
    auto engines2 = make_engines("fun f() { net.post(); }", granted, builtins);
    engines2.call("f", {});
    EXPECT_EQ(fired, 2);  // once per engine
}

// ------------------------------------------------------ core builtins ----

TEST(Builtins, LenStrIntTypeof) {
    EXPECT_EQ(eval("len(\"abc\")").as_int(), 3);
    EXPECT_EQ(eval("len([1, 2])").as_int(), 2);
    EXPECT_EQ(eval("len({\"a\": 1})").as_int(), 1);
    EXPECT_EQ(eval("str(12)").as_str(), "12");
    EXPECT_EQ(eval("str(\"x\")").as_str(), "x");  // unquoted
    EXPECT_EQ(eval("int(\"42\")").as_int(), 42);
    EXPECT_EQ(eval("int(3.9)").as_int(), 3);
    EXPECT_EQ(eval("int(true)").as_int(), 1);
    EXPECT_DOUBLE_EQ(eval("real(\"2.5\")").as_real(), 2.5);
    EXPECT_EQ(eval("typeof(1)").as_str(), "int");
    EXPECT_EQ(eval("typeof(null)").as_str(), "null");
}

TEST(Builtins, ListHelpers) {
    EXPECT_EQ(eval("push([1], 2)"), (Value{List{Value{1}, Value{2}}}));
    EXPECT_EQ(eval("concat([1], [2, 3])"), (Value{List{Value{1}, Value{2}, Value{3}}}));
    EXPECT_EQ(eval("slice([1, 2, 3, 4], 1, 3)"), (Value{List{Value{2}, Value{3}}}));
    EXPECT_TRUE(eval("contains([1, 2], 2)").as_bool());
    EXPECT_FALSE(eval("contains([1, 2], 9)").as_bool());
    EXPECT_EQ(eval("range(3)"), (Value{List{Value{0}, Value{1}, Value{2}}}));
    EXPECT_EQ(eval("range(2, 4)"), (Value{List{Value{2}, Value{3}}}));
}

TEST(Builtins, DictHelpers) {
    EXPECT_EQ(eval("keys({\"b\": 1, \"a\": 2})"), (Value{List{Value{"a"}, Value{"b"}}}));
    EXPECT_TRUE(eval("contains({\"k\": 1}, \"k\")").as_bool());
    EXPECT_FALSE(eval("contains(remove({\"k\": 1}, \"k\"), \"k\")").as_bool());
}

TEST(Builtins, MathHelpers) {
    EXPECT_EQ(eval("abs(-5)").as_int(), 5);
    EXPECT_DOUBLE_EQ(eval("abs(-2.5)").as_real(), 2.5);
    EXPECT_EQ(eval("min(3, 1, 2)").as_int(), 1);
    EXPECT_EQ(eval("max(3, 1, 2)").as_int(), 3);
    EXPECT_EQ(eval("floor(2.7)").as_int(), 2);
    EXPECT_DOUBLE_EQ(eval("sqrt(9)").as_real(), 3.0);
}

TEST(Builtins, StringHelpers) {
    EXPECT_EQ(eval("substr(\"hello\", 1, 3)").as_str(), "ell");
    EXPECT_EQ(eval("find(\"hello\", \"ll\")").as_int(), 2);
    EXPECT_EQ(eval("find(\"hello\", \"zz\")").as_int(), -1);
    EXPECT_EQ(eval("split(\"a,b,c\", \",\")"),
              (Value{List{Value{"a"}, Value{"b"}, Value{"c"}}}));
    EXPECT_EQ(eval("join([1, \"b\"], \"-\")").as_str(), "1-b");
}

TEST(Builtins, BadArgsThrow) {
    EXPECT_THROW(eval("len(1)"), ScriptError);
    EXPECT_THROW(eval("push(1, 2)"), ScriptError);
    EXPECT_THROW(eval("substr(\"abc\", 9, 1)"), ScriptError);
    EXPECT_THROW(eval("int(\"not a number\")"), ScriptError);
    EXPECT_THROW(eval("split(\"a\", \"\")"), ScriptError);
}

}  // namespace
}  // namespace pmp::script
