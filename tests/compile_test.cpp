// Tests for the AdviceScript bytecode compiler: slot allocation, builtin
// interning, static fault lowering, and the disassembler.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "script/compile.h"
#include "script/parser.h"

namespace pmp::script {
namespace {

std::shared_ptr<const CompiledUnit> comp(const std::string& source) {
    return compile(std::make_shared<const Program>(parse(source)));
}

int count_ops(const Chunk& c, Op op) {
    return static_cast<int>(
        std::count_if(c.code.begin(), c.code.end(),
                      [op](const Insn& i) { return i.op == op; }));
}

TEST(Compile, FunctionTable) {
    auto unit = comp("fun a() { } fun b(x) { return x; }");
    ASSERT_EQ(unit->functions.size(), 2u);
    EXPECT_NE(unit->find_function("a"), nullptr);
    ASSERT_NE(unit->find_function("b"), nullptr);
    EXPECT_EQ(unit->find_function("b")->n_params, 1);
    EXPECT_EQ(unit->find_function("nope"), nullptr);
}

TEST(Compile, DuplicateFunctionFirstWins) {
    // Program::find_function returns the first match; the compiled table
    // must preserve that.
    auto unit = comp("fun f() { return 1; } fun f() { return 2; }");
    const Chunk* f = unit->find_function("f");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f, &unit->functions[0]);
}

TEST(Compile, ParamsOccupyLeadingSlots) {
    auto unit = comp("fun f(a, b, c) { let d = a; return d; }");
    const Chunk* f = unit->find_function("f");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->n_params, 3);
    EXPECT_GE(f->n_slots, 4);  // 3 params + d
}

TEST(Compile, SiblingBlocksReuseSlots) {
    // Two sibling blocks each declaring 3 locals need 3 slots, not 6.
    auto unit = comp(R"(
        fun f() {
            if (true) { let a = 1; let b = 2; let c = 3; }
            if (true) { let x = 1; let y = 2; let z = 3; }
        }
    )");
    EXPECT_EQ(unit->find_function("f")->n_slots, 3);
}

TEST(Compile, NestedBlocksStackSlots) {
    auto unit = comp(R"(
        fun f() {
            let a = 1;
            if (true) { let b = 2; if (true) { let c = 3; } }
        }
    )");
    EXPECT_EQ(unit->find_function("f")->n_slots, 3);
}

TEST(Compile, TopLevelLetIsGlobal) {
    auto unit = comp("let g = 1; if (true) { let local = 2; }");
    EXPECT_GE(count_ops(unit->top_level, Op::kLetGlobal), 1);
    // The nested let is a local slot, not a global.
    EXPECT_GE(unit->top_level.n_slots, 1);
}

TEST(Compile, LocalsNeverTouchGlobalOps) {
    auto unit = comp("fun f(x) { let y = x + 1; y = y * 2; return y; }");
    const Chunk* f = unit->find_function("f");
    EXPECT_EQ(count_ops(*f, Op::kLoadGlobal), 0);
    EXPECT_EQ(count_ops(*f, Op::kStoreGlobal), 0);
    EXPECT_GT(count_ops(*f, Op::kLoadLocal), 0);
    EXPECT_GT(count_ops(*f, Op::kStoreLocal), 0);
}

TEST(Compile, BuiltinCalleesInternedOnce) {
    // Three call sites of `len`, one of `push`: two distinct entries.
    auto unit = comp(R"(
        fun f(xs) { push(xs, len(xs)); return len(xs) + len(xs); }
    )");
    EXPECT_EQ(unit->builtin_names.size(), 2u);
    const Chunk* f = unit->find_function("f");
    EXPECT_EQ(count_ops(*f, Op::kCallBuiltin), 4);
}

TEST(Compile, UserCallsResolveToFunctionIndex) {
    auto unit = comp("fun g() { return 1; } fun f() { return g(); }");
    const Chunk* f = unit->find_function("f");
    EXPECT_EQ(count_ops(*f, Op::kCallFn), 1);
    EXPECT_EQ(count_ops(*f, Op::kCallBuiltin), 0);
    EXPECT_TRUE(unit->builtin_names.empty());
}

TEST(Compile, StaticFaultsLowerToFail) {
    // None of these throw at compile time — the fault is an instruction
    // that fires only if reached, preserving interpreter semantics.
    EXPECT_GE(count_ops(comp("fun f() { break; }")->functions[0], Op::kFail), 1);
    EXPECT_GE(count_ops(comp("fun f() { continue; }")->functions[0], Op::kFail), 1);
    EXPECT_GE(count_ops(comp("return 1;")->top_level, Op::kFail), 1);
    EXPECT_GE(count_ops(comp("fun g(a, b) { } fun f() { g(1); }")->functions[1],
                        Op::kFail),
              1);
}

/// Steps the chunk charges, summed over every instruction's run.
int tick_steps(const Chunk& c) {
    int steps = 0;
    for (const Insn& i : c.code) steps += i.steps;
    return steps;
}

TEST(Compile, EveryStatementAndExpressionTicks) {
    auto unit = comp("fun f() { let x = 1 + 2; return x; }");
    const Chunk* f = unit->find_function("f");
    // let stmt, binary expr, two literals, return stmt, var read = 6 steps.
    EXPECT_EQ(tick_steps(*f), 6);
    // All on one line and no jump target inside: no standalone tick.
    EXPECT_EQ(count_ops(*f, Op::kTick), 0);
}

TEST(Compile, SameLineTickRunsFuseButNotAcrossJumpTargets) {
    auto unit = comp("fun f(n) { while (n > 0) { n = n - 1; } return n; }");
    const Chunk& f = *unit->find_function("f");
    // Steps: while 1, `n > 0` 3, `n = n - 1` 4, `return n` 2. Each run rides
    // on the instruction after it, except the `while` step: the loop's back
    // edge lands on the condition's first instruction, which must charge
    // only the condition's own steps, so the `while` step stays a
    // standalone tick just before the target.
    EXPECT_EQ(tick_steps(f), 10);
    EXPECT_EQ(count_ops(f, Op::kTick), 1);
    auto back = std::find_if(f.code.begin(), f.code.end(),
                             [](const Insn& i) { return i.op == Op::kJump; });
    ASSERT_NE(back, f.code.end());
    const std::size_t cond = static_cast<std::size_t>(back->a);
    ASSERT_GT(cond, 0u);
    EXPECT_EQ(f.code[cond].op, Op::kLoadLocal);
    EXPECT_EQ(f.code[cond].steps, 2);  // `n > 0` and `n`; the `0` rides on the compare
    EXPECT_EQ(f.code[cond - 1].op, Op::kTick);
    EXPECT_EQ(f.code[cond - 1].steps, 1);
}

TEST(Compile, TicksOnDifferentLinesStayApart) {
    auto unit = comp("fun f() {\n  return\n    1;\n}");
    const Chunk& f = *unit->find_function("f");
    EXPECT_EQ(tick_steps(f), 2);
    // The `return` step on line 2 cannot ride on the line-3 constant.
    ASSERT_EQ(count_ops(f, Op::kTick), 1);
    EXPECT_EQ(f.code[0].op, Op::kTick);
    EXPECT_EQ(f.code[0].steps, 1);
    EXPECT_EQ(f.code[0].line, 2);
    EXPECT_EQ(f.code[1].op, Op::kConst);
    EXPECT_EQ(f.code[1].steps, 1);
    EXPECT_EQ(f.code[1].line, 3);
}

TEST(Compile, PerfbenchMonitorShape) {
    // The monitoring extension perfbench's advised_calls workload weaves.
    auto unit = comp(
        "let salt = 1;\n"
        "let calls = 0;\n"
        "let total = 0;\n"
        "fun mix(h, i) {\n"
        "  return (h * 31 + i) % 1000000007;\n"
        "}\n"
        "fun onEntry() {\n"
        "  calls = calls + 1;\n"
        "  let h = ctx.arg(0);\n"
        "  let i = 0;\n"
        "  while (i < 8) {\n"
        "    h = mix(h, i);\n"
        "    i = i + 1;\n"
        "  }\n"
        "  total = total + h;\n"
        "}\n");
    const Chunk& mix = *unit->find_function("mix");
    // load h, three binaries with in-place right operands, return.
    EXPECT_LE(mix.code.size(), 5u);
    EXPECT_EQ(tick_steps(mix), 8);
    EXPECT_EQ(count_ops(mix, Op::kTick), 0);
    EXPECT_EQ(count_ops(mix, Op::kConst), 0);
    for (const Chunk* c : {&mix, unit->find_function("onEntry")}) {
        for (std::size_t ip = 0; ip < c->code.size(); ++ip) {
            if (c->code[ip].op != Op::kBinary) continue;
            // Every right operand here is a literal or a local, so none is
            // pushed: the binary names it in b.
            EXPECT_NE(c->code[ip].b, 0) << c->name << " at " << ip;
        }
    }
}

TEST(Compile, ConstantsInterned) {
    auto unit = comp("fun f() { return 1 + 1 + 1 + \"x\" + \"x\"; }");
    // 1 and "x" each appear once in the pool.
    EXPECT_EQ(unit->constants.size(), 2u);
}

TEST(Compile, JumpTargetsInBounds) {
    auto unit = comp(R"(
        fun f(n) {
            let t = 0;
            for (i in range(0, n)) {
                if (i % 2 == 0) { continue; }
                if (i > 5) { break; }
                t = t + i;
            }
            while (t > 100) { t = t - 1; }
            return t;
        }
    )");
    for (const Chunk* c : {&unit->top_level, unit->find_function("f")}) {
        for (const Insn& i : c->code) {
            switch (i.op) {
                case Op::kJump:
                case Op::kJumpIfFalse:
                case Op::kAndShort:
                case Op::kOrShort:
                case Op::kForNext:
                    EXPECT_GE(i.a, 0);
                    EXPECT_LE(static_cast<std::size_t>(i.a), c->code.size());
                    break;
                default:
                    break;
            }
        }
    }
}

TEST(Compile, ElseLessIfJumpsNowhereButPastItsBody) {
    // An `if` without an else has nothing to jump over: its false branch
    // lands on the next statement, and no `jump` targets the instruction
    // right after itself.
    auto unit = comp(R"(
        fun f(x) {
            if (x > 9) { x = 9; }
            if (x < 0) { x = 0; } else { }
            return x;
        }
    )");
    const Chunk& f = *unit->find_function("f");
    EXPECT_EQ(count_ops(f, Op::kJump), 0);
    EXPECT_EQ(count_ops(f, Op::kJumpIfFalse), 2);
    for (std::size_t ip = 0; ip < f.code.size(); ++ip) {
        if (f.code[ip].op != Op::kJump) continue;
        EXPECT_NE(static_cast<std::size_t>(f.code[ip].a), ip + 1) << "at " << ip;
    }

    // With a non-empty else, one jump skips the else block.
    auto with_else = comp("fun f(x) { if (x > 9) { x = 9; } else { x = 0; } return x; }");
    const Chunk& g = *with_else->find_function("f");
    ASSERT_EQ(count_ops(g, Op::kJump), 1);
    auto jump = std::find_if(g.code.begin(), g.code.end(),
                             [](const Insn& i) { return i.op == Op::kJump; });
    EXPECT_GT(static_cast<std::size_t>(jump->a),
              static_cast<std::size_t>(jump - g.code.begin()) + 1);
}

TEST(Compile, DisassembleListsEveryChunk) {
    auto unit = comp("fun hello(who) { return \"hi \" + who; } let z = hello(\"x\");");
    std::string listing = disassemble(*unit);
    EXPECT_NE(listing.find("hello"), std::string::npos);
    EXPECT_NE(listing.find(op_name(Op::kCallFn)), std::string::npos);
    EXPECT_NE(listing.find(op_name(Op::kLetGlobal)), std::string::npos);
    // An instruction prints the steps it charges: `return "hi " + who` has 3
    // before the constant, all on line 1, and the local right operand is
    // read in place by the `+`.
    EXPECT_NE(listing.find("const \"hi \" [steps 3, line 1]"), std::string::npos) << listing;
    EXPECT_NE(listing.find("binary + slot 0 [steps 1, line 1]"), std::string::npos) << listing;
}

TEST(Compile, DisassemblePrintsOperandZero) {
    // Slot 0 is an operand like any other: a function reading its first
    // parameter lists the slot it loads.
    auto unit = comp("fun first(a, b) { return a; }");
    std::string listing = disassemble(*unit);
    EXPECT_NE(listing.find("load_local 0 [steps"), std::string::npos) << listing;
}

TEST(Compile, UnitRetainsProgram) {
    auto program = std::make_shared<const Program>(parse("fun f() { }"));
    auto unit = compile(program);
    EXPECT_EQ(unit->program.get(), program.get());
}

}  // namespace
}  // namespace pmp::script
