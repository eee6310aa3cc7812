// E2 (paper §4.6): per-call interception cost.
//
// Paper numbers (Pentium II, 500 MHz): a void non-intercepted interface
// call costs ~700 ns; an intercepted method entry with a do-nothing
// extension costs ~900 ns — a small constant per interception — and methods
// not affected by interceptions are not slowed at all.
//
// We measure the same ladder on our dispatch path:
//   native          — plain C++ virtual call (floor, for context)
//   unhooked        — metaobject dispatch as if PROSE were absent
//   hooked_unwoven  — dispatch with the minimal hook, nothing woven
//                     ("methods not affected are not slowed")
//   woven_noop      — do-nothing native before-advice (the 900 ns analog),
//                     with obs on and, as a second row, with obs off
//   woven_script    — do-nothing *script* before-advice (shipped-code cost)
//   woven_around    — do-nothing around advice (proceed() chain)
//
// The reference reading is the committed BENCH_interception.json, recorded
// with google-benchmark's own writer:
//   bench_interception --benchmark_repetitions=5 \
//       --benchmark_out=BENCH_interception.json --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include "smoke.h"

#include "core/script_aspect.h"
#include "core/weaver.h"
#include "obs/metrics.h"
#include "support/interp.h"

namespace {

using namespace pmp;
using rt::List;
using rt::TypeKind;
using rt::Value;

/// The native-call floor: what a C++ interface call costs.
struct Iface {
    virtual ~Iface() = default;
    virtual std::int64_t poke(std::int64_t x) = 0;
};
struct Impl final : Iface {
    std::int64_t acc = 0;
    std::int64_t poke(std::int64_t x) override {
        acc += x;
        return acc;
    }
};

struct Fixture {
    rt::Runtime runtime{"bench"};
    std::unique_ptr<prose::Weaver> weaver;
    std::shared_ptr<rt::ServiceObject> obj;
    rt::Method* method = nullptr;

    Fixture() {
        weaver = std::make_unique<prose::Weaver>(runtime);
        runtime.register_type(
            rt::TypeInfo::Builder("Target")
                .method("poke", TypeKind::kInt, {{"x", TypeKind::kInt}},
                        [](rt::ServiceObject&, List& args) -> Value {
                            benchmark::DoNotOptimize(args[0]);
                            return args[0];
                        })
                .build());
        obj = runtime.create("Target", "target");
        method = obj->type().method("poke");
    }
};

void BM_NativeInterfaceCall(benchmark::State& state) {
    Impl impl;
    Iface* iface = &impl;
    benchmark::DoNotOptimize(iface);
    std::int64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(iface->poke(++i));
    }
}
BENCHMARK(BM_NativeInterfaceCall);

void BM_DispatchUnhooked(benchmark::State& state) {
    Fixture f;
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.method->invoke_unhooked(*f.obj, {Value{1}}));
    }
}
BENCHMARK(BM_DispatchUnhooked);

void BM_DispatchHookedUnwoven(benchmark::State& state) {
    Fixture f;
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.method->invoke(*f.obj, {Value{1}}));
    }
}
BENCHMARK(BM_DispatchHookedUnwoven);

void BM_DispatchDebuggerStyle(benchmark::State& state) {
    // PROSE v1 (JVMDI-based) ablation: every call enters the interception
    // machinery even with nothing woven.
    Fixture f;
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.method->invoke_debugger_style(*f.obj, {Value{1}}));
    }
}
BENCHMARK(BM_DispatchDebuggerStyle);

void BM_DispatchWovenNoopBefore(benchmark::State& state) {
    Fixture f;
    auto aspect = std::make_shared<prose::Aspect>("noop");
    aspect->before("call(* Target.poke(..))", [](rt::CallFrame&) {});
    f.weaver->weave(aspect);
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.method->invoke(*f.obj, {Value{1}}));
    }
}
BENCHMARK(BM_DispatchWovenNoopBefore);

void BM_DispatchWovenNoopBeforeObsOff(benchmark::State& state) {
    // The same call with instrumentation switched off around the timed
    // loop; the gap to the row above is what obs costs an advised call.
    Fixture f;
    auto aspect = std::make_shared<prose::Aspect>("noop-obs-off");
    aspect->before("call(* Target.poke(..))", [](rt::CallFrame&) {});
    f.weaver->weave(aspect);
    const bool was = obs::enabled();
    obs::set_enabled(false);
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.method->invoke(*f.obj, {Value{1}}));
    }
    obs::set_enabled(was);
}
BENCHMARK(BM_DispatchWovenNoopBeforeObsOff);

void BM_DispatchWovenScriptBefore(benchmark::State& state) {
    Fixture f;
    auto sa = std::make_shared<prose::ScriptAspect>(
        "noop-script", "fun onEntry() { }",
        std::vector<prose::ScriptBinding>{
            {prose::AdviceKind::kBefore, "call(* Target.poke(..))", "onEntry", 0}},
        script::Sandbox{}, script::BuiltinRegistry::with_core());
    f.weaver->weave(sa->aspect());
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.method->invoke(*f.obj, {Value{1}}));
    }
}
BENCHMARK(BM_DispatchWovenScriptBefore);

// Monitoring-extension workload for the script-engine ablation: the advice
// does representative work (bump counters, read the join point and an
// argument) rather than nothing, so the engine's per-statement cost shows.
// On the tree walk the reference interpreter is handed to the same
// ScriptAspect glue as its engine, so only the engine differs.
std::shared_ptr<prose::ScriptAspect> make_monitoring_aspect(bool tree_walk) {
    const char* source =
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
        "}\n";
    std::vector<prose::ScriptBinding> bindings{
        {prose::AdviceKind::kBefore, "call(* Target.poke(..))", "onEntry", 0}};
    const script::BuiltinRegistry host = script::BuiltinRegistry::with_core();
    if (!tree_walk) {
        return std::make_shared<prose::ScriptAspect>("monitor", source, std::move(bindings),
                                                     script::Sandbox{}, host);
    }
    auto oracle = std::make_shared<script::Interpreter>(
        std::make_shared<const script::Program>(script::parse(source)), script::Sandbox{},
        prose::extension_builtins(host));
    return std::make_shared<prose::ScriptAspect>("monitor", std::move(oracle),
                                                 std::move(bindings));
}

void BM_ScriptAdviceTreeWalk(benchmark::State& state) {
    // Ablation baseline: the same compiled aspect run on the reference
    // tree-walking interpreter.
    Fixture f;
    f.weaver->weave(make_monitoring_aspect(/*tree_walk=*/true)->aspect());
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.method->invoke(*f.obj, {Value{1}}));
    }
}
BENCHMARK(BM_ScriptAdviceTreeWalk);

void BM_ScriptAdviceVm(benchmark::State& state) {
    // The production path: monitoring advice on the bytecode VM.
    Fixture f;
    f.weaver->weave(make_monitoring_aspect(/*tree_walk=*/false)->aspect());
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.method->invoke(*f.obj, {Value{1}}));
    }
}
BENCHMARK(BM_ScriptAdviceVm);

void BM_DispatchWovenNoopAround(benchmark::State& state) {
    Fixture f;
    auto aspect = std::make_shared<prose::Aspect>("around");
    aspect->around("call(* Target.poke(..))",
                   [](rt::CallFrame&, const std::function<Value()>& proceed) -> Value {
                       return proceed();
                   });
    f.weaver->weave(aspect);
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.method->invoke(*f.obj, {Value{1}}));
    }
}
BENCHMARK(BM_DispatchWovenNoopAround);

/// Print the paper-style comparison rows after the raw benchmark output.
/// Under --benchmark_repetitions each benchmark reads its `_median`
/// aggregate, the row the JSON reference cites; a single run reads itself.
class PaperReport : public benchmark::BenchmarkReporter {
public:
    bool ReportContext(const Context&) override { return true; }
    void ReportRuns(const std::vector<Run>& runs) override {
        for (const auto& run : runs) {
            const bool median =
                run.run_type == Run::RT_Aggregate && run.aggregate_name == "median";
            if (median || (run.run_type == Run::RT_Iteration && run.repetitions <= 1)) {
                times_[run.run_name.str()] = run.GetAdjustedRealTime();
            }
        }
    }
    void Finalize() override {
        auto t = [&](const char* name) -> double {
            auto it = times_.find(name);
            return it == times_.end() ? 0.0 : it->second;
        };
        double plain = t("BM_DispatchHookedUnwoven");
        double woven = t("BM_DispatchWovenNoopBefore");
        printf("\n=== E2: interception cost (paper: 700 ns plain vs ~900 ns intercepted, "
               "ratio ~1.29) ===\n");
        printf("%-34s %10.1f ns\n", "non-intercepted call (paper 700ns):", plain);
        printf("%-34s %10.1f ns\n", "do-nothing interception (paper 900ns):", woven);
        printf("%-34s %10.1f ns\n", "per-interception overhead (paper ~200ns):",
               woven - plain);
        printf("%-34s %10.2fx\n", "ratio (paper ~1.29x):", plain > 0 ? woven / plain : 0);
        double woven_off = t("BM_DispatchWovenNoopBeforeObsOff");
        printf("%-34s %10.1f ns (ratio %.2fx)\n", "do-nothing interception, obs off:",
               woven_off, plain > 0 ? woven_off / plain : 0);
        printf("%-34s %10.1f ns (vs unhooked %.1f ns)\n",
               "dormant minimal hook cost:",
               t("BM_DispatchHookedUnwoven") - t("BM_DispatchUnhooked"),
               t("BM_DispatchUnhooked"));
        printf("%-34s %10.1f ns\n", "script advice interception:",
               t("BM_DispatchWovenScriptBefore"));
        printf("%-34s %10.1f ns\n", "around advice interception:",
               t("BM_DispatchWovenNoopAround"));
        printf("%-34s %10.1f ns (vs %.1f ns with minimal hooks — the PROSE\n"
               "%-34s             v1(JVMDI) vs v2(JIT) gap [PAG03])\n",
               "debugger-style dormant dispatch:", t("BM_DispatchDebuggerStyle"), plain,
               "");

        // Script-engine ablation: the same monitoring advice on the
        // reference tree-walking interpreter vs the bytecode VM.
        double tree = t("BM_ScriptAdviceTreeWalk");
        double vm = t("BM_ScriptAdviceVm");
        printf("\n=== script-engine ablation (monitoring advice) ===\n");
        printf("%-34s %10.1f ns\n", "tree-walk interpreter:", tree);
        printf("%-34s %10.1f ns\n", "bytecode VM:", vm);
        printf("%-34s %10.2fx\n", "speedup (target >= 2x):", vm > 0 ? tree / vm : 0);
    }

private:
    std::map<std::string, double> times_;
};

}  // namespace

int main(int argc, char** argv) {
    pmp::bench::init(argc, argv);
    benchmark::ConsoleReporter console;
    PaperReport paper;
    // Run everything through the console reporter first, then re-run the
    // collected numbers through the paper-style summary.
    class Tee : public benchmark::BenchmarkReporter {
    public:
        Tee(benchmark::BenchmarkReporter& a, benchmark::BenchmarkReporter& b)
            : a_(a), b_(b) {}
        bool ReportContext(const Context& ctx) override {
            return a_.ReportContext(ctx) && b_.ReportContext(ctx);
        }
        void ReportRuns(const std::vector<Run>& runs) override {
            a_.ReportRuns(runs);
            b_.ReportRuns(runs);
        }
        void Finalize() override {
            a_.Finalize();
            b_.Finalize();
        }

    private:
        benchmark::BenchmarkReporter& a_;
        benchmark::BenchmarkReporter& b_;
    } tee(console, paper);
    benchmark::RunSpecifiedBenchmarks(&tee);
    benchmark::Shutdown();
    return 0;
}
