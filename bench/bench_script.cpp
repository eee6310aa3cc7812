// AdviceScript execution cost on the bytecode Vm, the engine the product
// runs — the price of shipping script code to devices (our substitution
// for the paper's compiled Java extensions, DESIGN.md §2).
//
// E2 measures a whole script interception; this bench breaks the engine
// itself down: the install path (parse + check + compile + top level),
// call dispatch, arithmetic loops, recursion, string and container work —
// the operations real extensions (monitoring, access control, batching)
// are made of.
#include <benchmark/benchmark.h>

#include "smoke.h"

#include "script/check.h"
#include "script/compile.h"
#include "script/parser.h"
#include "script/vm.h"

namespace {

using namespace pmp;
using rt::List;
using rt::Value;
using script::BuiltinRegistry;
using script::Program;
using script::Sandbox;
using script::Vm;

std::unique_ptr<Vm> make(const std::string& source) {
    auto program = std::make_shared<const Program>(script::parse(source));
    Sandbox sandbox;
    sandbox.step_budget = 100'000'000;
    auto vm = std::make_unique<Vm>(
        script::compile(program), sandbox,
        std::make_shared<BuiltinRegistry>(BuiltinRegistry::with_core()));
    vm->run_top_level();
    return vm;
}

const char* kMonitoringLikeScript = R"(
    let buffer = [];
    fun onEntry(device, action, at) {
        buffer[len(buffer)] = {"device": device, "action": action, "at": at};
        if (len(buffer) >= 10) { buffer = []; return 1; }
        return 0;
    }
)";

void BM_CompileMonitoringExtension(benchmark::State& state) {
    BuiltinRegistry reg = BuiltinRegistry::with_core();
    for (auto _ : state) {
        auto program = std::make_shared<const Program>(script::parse(kMonitoringLikeScript));
        auto diags = script::check(*program, reg);
        Sandbox sandbox;
        Vm vm(script::compile(program), sandbox, std::make_shared<BuiltinRegistry>(reg));
        vm.run_top_level();
        benchmark::DoNotOptimize(diags);
    }
}
BENCHMARK(BM_CompileMonitoringExtension);

void BM_CallDispatchEmptyFunction(benchmark::State& state) {
    auto vm = make("fun f() { }");
    for (auto _ : state) {
        benchmark::DoNotOptimize(vm->call("f", {}));
    }
}
BENCHMARK(BM_CallDispatchEmptyFunction);

void BM_MonitoringAdviceBody(benchmark::State& state) {
    auto vm = make(kMonitoringLikeScript);
    std::int64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            vm->call("onEntry", {Value{"motor:x"}, Value{"rotate"}, Value{++i}}));
    }
}
BENCHMARK(BM_MonitoringAdviceBody);

void BM_ArithmeticLoop(benchmark::State& state) {
    auto vm = make(R"(
        fun sum(n) {
            let s = 0;
            let i = 0;
            while (i < n) { i = i + 1; s = s + i * 3 % 7; }
            return s;
        }
    )");
    for (auto _ : state) {
        benchmark::DoNotOptimize(vm->call("sum", {Value{1000}}));
    }
    state.counters["ns_per_iteration"] = benchmark::Counter(
        1000.0 * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ArithmeticLoop);

void BM_RecursiveFib(benchmark::State& state) {
    auto vm = make("fun fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }");
    for (auto _ : state) {
        benchmark::DoNotOptimize(vm->call("fib", {Value{12}}));
    }
}
BENCHMARK(BM_RecursiveFib);

void BM_StringBuilding(benchmark::State& state) {
    auto vm = make(R"(
        fun build(n) {
            let s = "";
            for (i in range(n)) { s = s + "x" + str(i); }
            return len(s);
        }
    )");
    for (auto _ : state) {
        benchmark::DoNotOptimize(vm->call("build", {Value{100}}));
    }
}
BENCHMARK(BM_StringBuilding);

void BM_DictHeavyAccessControl(benchmark::State& state) {
    auto vm = make(R"(
        let policy = {"alice": true, "bob": true, "carol": false};
        fun allowed(who, method) {
            if (!contains(policy, who)) { return false; }
            if (!policy[who]) { return false; }
            return method != "forbidden";
        }
    )");
    const char* callers[] = {"alice", "bob", "carol", "mallory"};
    int i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            vm->call("allowed", {Value{callers[i++ & 3]}, Value{"rotate"}}));
    }
}
BENCHMARK(BM_DictHeavyAccessControl);

void BM_StaticCheckLargeScript(benchmark::State& state) {
    // ~100 functions: the checker must stay cheap at install time.
    std::string big;
    for (int i = 0; i < 100; ++i) {
        big += "fun helper_" + std::to_string(i) +
               "(a) { let x = a + " + std::to_string(i) + "; return x * 2; }\n";
    }
    auto program = std::make_shared<const Program>(script::parse(big));
    BuiltinRegistry reg = BuiltinRegistry::with_core();
    for (auto _ : state) {
        benchmark::DoNotOptimize(script::check(*program, reg));
    }
}
BENCHMARK(BM_StaticCheckLargeScript);

}  // namespace

int main(int argc, char** argv) { return pmp::bench::run_main(argc, argv); }
