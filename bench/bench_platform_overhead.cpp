// E3 (paper §4.6): whole-program cost of carrying the adaptation platform.
//
// Paper: "When no extensions are added, an overhead of about 7% (measured
// using a SPECjvm benchmark) could be observed." We run the specmini suite
// (our SPECjvm98 stand-in; DESIGN.md E3) in three configurations:
//
//   baseline   — dispatch without the minimal hook (platform absent)
//   hooks-on   — minimal hook present, nothing woven  <- the 7% experiment
//   noop-woven — a do-nothing extension trapping every kernel method
//                (suite-level view of E2)
//
// and report per-kernel and geomean slowdowns.
// A second section prices the observability layer itself: the hooked suite
// with the obs flag off (compiled-in-but-idle — the configuration of the
// hooks-on column above, so the idle flag check is already inside E3's
// small tax) against the flag on (counters counting).
// The last section prices the per-message constant of the control plane:
// a span on a warm trace ring, an rpc-shaped span, and one rpc control
// round-trip between two nodes (host ns and heap allocations per call).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "smoke.h"

#include "core/weaver.h"
#include "net/admission.h"
#include "net/router.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/rpc.h"
#include "sim/simulator.h"
#include "specmini/suite.h"

// Heap allocations made through operator new, for the per-call allocation
// rows. Counting is one relaxed increment, invisible next to malloc.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace pmp;
using specmini::DispatchMode;
using specmini::Suite;

std::uint64_t kScale = 300'000;
int kRepeats = 9;

double run_once(Suite& suite, const std::string& kernel, DispatchMode mode) {
    auto start = std::chrono::steady_clock::now();
    auto result = suite.run(kernel, kScale, mode);
    auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(result.checksum);
    return std::chrono::duration<double>(stop - start).count();
}

/// Best-of-N wall times for both modes, strictly interleaved so slow drift
/// on a shared vCPU (noisy neighbours, frequency scaling) hits both modes
/// equally instead of biasing whichever ran later.
std::pair<double, double> measure_pair(Suite& suite, const std::string& kernel) {
    double best_base = 1e9, best_hooked = 1e9;
    for (int i = 0; i < kRepeats; ++i) {
        best_base = std::min(best_base, run_once(suite, kernel, DispatchMode::kUnhooked));
        best_hooked = std::min(best_hooked, run_once(suite, kernel, DispatchMode::kHooked));
    }
    return {best_base, best_hooked};
}

double measure(Suite& suite, const std::string& kernel, DispatchMode mode) {
    double best = 1e9;
    for (int i = 0; i < kRepeats; ++i) {
        best = std::min(best, run_once(suite, kernel, mode));
    }
    return best;
}

}  // namespace

int main(int argc, char** argv) {
    if (pmp::bench::strip_smoke(argc, argv)) {
        kScale = 20'000;
        kRepeats = 1;
    }
    rt::Runtime runtime("bench");
    prose::Weaver weaver(runtime);
    Suite suite(runtime);

    // The headline table reproduces the paper's experiment; keep the obs
    // counters out of it so the hooks-on column measures the minimal hook
    // alone. The ablation section below prices the counters separately.
    obs::set_enabled(false);

    printf("=== E3: platform overhead on the specmini suite "
           "(paper: ~7%% on SPECjvm, hooks on / nothing woven) ===\n");
    printf("scale: %llu dispatched calls per kernel, best of %d runs\n\n",
           static_cast<unsigned long long>(kScale), kRepeats);
    printf("%-10s %12s %12s %9s %14s %9s\n", "kernel", "baseline(s)", "hooks-on(s)",
           "overhead", "noop-woven(s)", "overhead");

    double geo_hooks = 1.0, geo_noop = 1.0;
    int n = 0;
    for (const std::string& kernel : Suite::kernel_names()) {
        // Warm up once per kernel.
        run_once(suite, kernel, DispatchMode::kUnhooked);

        auto [baseline, hooks_on] = measure_pair(suite, kernel);

        auto aspect = std::make_shared<prose::Aspect>("noop");
        aspect->before("call(* Spec*.*(..))", [](rt::CallFrame&) {});
        AspectId id = weaver.weave(aspect);
        double noop = measure(suite, kernel, DispatchMode::kHooked);
        weaver.withdraw(id);

        double oh_hooks = hooks_on / baseline - 1.0;
        double oh_noop = noop / baseline - 1.0;
        geo_hooks *= hooks_on / baseline;
        geo_noop *= noop / baseline;
        ++n;
        printf("%-10s %12.4f %12.4f %8.1f%% %14.4f %8.1f%%\n", kernel.c_str(), baseline,
               hooks_on, oh_hooks * 100, noop, oh_noop * 100);
    }
    printf("\n%-10s %34.1f%% %23.1f%%\n", "geomean",
           (std::pow(geo_hooks, 1.0 / n) - 1.0) * 100,
           (std::pow(geo_noop, 1.0 / n) - 1.0) * 100);
    printf("\npaper reference: hooks-on geomean ~7%% (JIT stub bloat on a 500MHz P2); the\n"
           "shape to check is: hooks-on is a small single-digit tax, noop-woven adds a\n"
           "per-call constant on every intercepted method.\n");

    // --- instrumentation ablation: what do the obs counters themselves cost?
    //
    //   idle    — invoke with obs disabled: counters compiled in, flag off
    //   enabled — invoke with obs enabled: counters counting
    printf("\n=== instrumentation ablation: cost of the obs counters on hooked dispatch ===\n");
    printf("%-10s %12s %12s %9s\n", "kernel", "idle(s)", "enabled(s)", "overhead");

    double geo_enabled = 1.0;
    n = 0;
    for (const std::string& kernel : Suite::kernel_names()) {
        run_once(suite, kernel, DispatchMode::kHooked);  // warm up

        double idle = 1e9, on = 1e9;
        for (int i = 0; i < kRepeats; ++i) {
            obs::set_enabled(false);
            idle = std::min(idle, run_once(suite, kernel, DispatchMode::kHooked));
            obs::set_enabled(true);
            on = std::min(on, run_once(suite, kernel, DispatchMode::kHooked));
            obs::set_enabled(false);
        }

        geo_enabled *= on / idle;
        ++n;
        printf("%-10s %12.4f %12.4f %8.1f%%\n", kernel.c_str(), idle, on,
               (on / idle - 1.0) * 100);
    }
    double enabled_overhead = (std::pow(geo_enabled, 1.0 / n) - 1.0) * 100;
    printf("\n%-10s %34.1f%%\n", "geomean", enabled_overhead);
    printf("\nenabled-instrumentation overhead over idle: %.1f%% (the idle flag check\n"
           "itself sits inside the hooks-on column of E3 above)\n",
           enabled_overhead);

    // --- overload-protection ablation: the robustness layer's hot-path tax.
    //
    // Two mechanisms sit on paths that matter when nothing is wrong: the
    // governor's admit guard runs before every woven advice, and the
    // admission queue fronts every inbound rpc dispatch. Both must be
    // invisible on an unloaded node (<2%) or they could not default on.
    printf("\n=== overload ablation: governor gate + admission on the unloaded path ===\n");
    printf("%-10s %12s %12s %9s\n", "kernel", "unguarded(s)", "guarded(s)", "overhead");
    // The guard is bound before weaving, so every repeat weaves a fresh
    // no-op aspect — unguarded, then guarded with an always-admitting
    // governor — and withdraws it after its run.
    auto run_noop = [&](const std::string& kernel, bool guarded) {
        auto aspect = std::make_shared<prose::Aspect>("noop");
        aspect->before("call(* Spec*.*(..))", [](rt::CallFrame&) {});
        if (guarded) aspect->set_guard({[] { return true; }, nullptr});
        AspectId id = weaver.weave(aspect);
        double t = run_once(suite, kernel, DispatchMode::kHooked);
        weaver.withdraw(id);
        return t;
    };
    double geo_gate = 1.0;
    n = 0;
    for (const std::string& kernel : Suite::kernel_names()) {
        run_noop(kernel, false);  // warm up
        double ungated = 1e9, gated = 1e9;
        for (int i = 0; i < kRepeats; ++i) {
            ungated = std::min(ungated, run_noop(kernel, false));
            gated = std::min(gated, run_noop(kernel, true));
        }
        geo_gate *= gated / ungated;
        ++n;
        printf("%-10s %12.4f %12.4f %8.1f%%\n", kernel.c_str(), ungated, gated,
               (gated / ungated - 1.0) * 100);
    }
    double gate_overhead = (std::pow(geo_gate, 1.0 / n) - 1.0) * 100;
    printf("\ngovernor-gate overhead on woven noop dispatch: %.1f%% (target: < 2%%)\n",
           gate_overhead);

    // Admission fast path: offer() with tokens on hand and empty queues,
    // against calling the same work directly.
    {
        sim::Simulator sim;
        net::AdmissionConfig ac;
        ac.rate_per_sec = 1e9;  // never the bottleneck: this is the happy path
        ac.burst = 1e9;
        net::AdmissionQueue queue(sim, ac);
        const int ops = kRepeats == 1 ? 20'000 : 2'000'000;
        std::uint64_t counter = 0;

        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < ops; ++i) benchmark::DoNotOptimize(++counter);
        auto t1 = std::chrono::steady_clock::now();
        for (int i = 0; i < ops; ++i) {
            queue.offer(net::AdmitClass::kApp,
                        [&counter] { benchmark::DoNotOptimize(++counter); });
        }
        auto t2 = std::chrono::steady_clock::now();

        double direct_ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count() / ops;
        double offered_ns =
            std::chrono::duration<double, std::nano>(t2 - t1).count() / ops;
        printf("\nadmission fast path: direct %.1f ns/op, via offer() %.1f ns/op "
               "(+%.1f ns)\n",
               direct_ns, offered_ns, offered_ns - direct_ns);
        printf("(an rpc dispatch costs microseconds; tens of ns at admission is "
               "noise)\n");
    }
    // --- tracing ablation: what does causal tracing cost (PR 6)?
    //
    // The trace ring stays on permanently, so it must be absent from the
    // per-call hot path: with detail off (the default) spans are recorded
    // at platform operations only — weave, rpc round-trips, package push —
    // never per dispatched call. Three measurements:
    //   1. the hooked suite with tracing on vs. obs idle — the whole-
    //      program bound the ISSUE promises (< 2%, detail off)
    //   2. woven noop dispatch, detail off vs. detail on — what flipping
    //      the debugging tier actually buys you into
    //   3. the raw span cost on a warm ring — what each platform
    //      operation pays to be traced
    printf("\n=== tracing ablation: causal tracing on the hooked suite ===\n");
    printf("%-10s %12s %14s %9s\n", "kernel", "obs-idle(s)", "tracing-on(s)", "overhead");
    double geo_traced = 1.0;
    n = 0;
    for (const std::string& kernel : Suite::kernel_names()) {
        run_once(suite, kernel, DispatchMode::kHooked);  // warm up
        double idle = 1e9, traced = 1e9;
        for (int i = 0; i < kRepeats; ++i) {
            obs::set_enabled(false);
            idle = std::min(idle, run_once(suite, kernel, DispatchMode::kHooked));
            obs::set_enabled(true);
            obs::TraceBuffer::global().set_detail(false);
            traced = std::min(traced, run_once(suite, kernel, DispatchMode::kHooked));
            obs::set_enabled(false);
        }
        geo_traced *= traced / idle;
        ++n;
        printf("%-10s %12.4f %14.4f %8.1f%%\n", kernel.c_str(), idle, traced,
               (traced / idle - 1.0) * 100);
    }
    double traced_overhead = (std::pow(geo_traced, 1.0 / n) - 1.0) * 100;
    printf("\ntracing-on overhead (detail off): %.1f%% (target: < 2%% — spans live at\n"
           "platform operations, not on the dispatch hot path, so leaving the trace\n"
           "ring on permanently costs what the idle counters cost)\n",
           traced_overhead);

    // Detail tier: per-advice spans on a woven noop, the worst case (the
    // advice body is free, so the span machinery is the whole bill).
    obs::set_enabled(true);
    auto traced_aspect = std::make_shared<prose::Aspect>("noop");
    traced_aspect->before("call(* Spec*.*(..))", [](rt::CallFrame&) {});
    AspectId traced_id = weaver.weave(traced_aspect);
    printf("\n%-10s %14s %14s %9s\n", "kernel", "detail-off(s)", "detail-on(s)",
           "overhead");
    double geo_detail = 1.0;
    n = 0;
    for (const std::string& kernel : Suite::kernel_names()) {
        run_once(suite, kernel, DispatchMode::kHooked);  // warm up
        double off = 1e9, on = 1e9;
        for (int i = 0; i < kRepeats; ++i) {
            obs::TraceBuffer::global().set_detail(false);
            off = std::min(off, run_once(suite, kernel, DispatchMode::kHooked));
            obs::TraceBuffer::global().set_detail(true);
            on = std::min(on, run_once(suite, kernel, DispatchMode::kHooked));
            obs::TraceBuffer::global().set_detail(false);
        }
        geo_detail *= on / off;
        ++n;
        printf("%-10s %14.4f %14.4f %8.1f%%\n", kernel.c_str(), off, on,
               (on / off - 1.0) * 100);
    }
    weaver.withdraw(traced_id);
    printf("\ndetail-span overhead on woven noop dispatch: %.1f%% (the debugging tier:\n"
           "flip obs::TraceBuffer::set_detail(true) only while chasing a dispatch bug)\n",
           (std::pow(geo_detail, 1.0 / n) - 1.0) * 100);

    // Raw span cost: what one traced platform operation pays.
    {
        auto& tb = obs::TraceBuffer::global();
        tb.clear();
        const int ops = kRepeats == 1 ? 20'000 : 1'000'000;
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < ops; ++i) {
            std::uint64_t s = tb.begin_span("bench", "span");
            tb.end_span(s);
        }
        auto t1 = std::chrono::steady_clock::now();
        double span_ns = std::chrono::duration<double, std::nano>(t1 - t0).count() / ops;
        printf("\nspan begin+end on a warm ring: %.0f ns/op (a weave costs ~µs, an rpc\n"
               "round-trip ~ms of simulated time — span bookkeeping is noise there)\n",
               span_ns);

        // The span every rpc records: run-time object and method names as
        // kv, an outcome at the end.
        const std::string object = "adaptation";
        const std::string method = "keepalive";
        const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
        t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < ops; ++i) {
            std::uint64_t s = tb.begin_span("rt.rpc", "rpc.call",
                                            {{"obj", object}, {"method", method}});
            tb.end_span(s, {{"outcome", "ok"}});
        }
        t1 = std::chrono::steady_clock::now();
        const double rpc_span_ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count() / ops;
        const double rpc_span_allocs =
            static_cast<double>(g_allocs.load(std::memory_order_relaxed) - allocs0) / ops;
        printf("rpc-shaped span (obj/method kv, outcome at end): %.0f ns/op, "
               "%.2f heap allocations/op\n",
               rpc_span_ns, rpc_span_allocs);
        tb.clear();
    }

    // One control-plane rpc round-trip on a two-node radio: encode, send,
    // deliver, admit, dispatch, reply, decode, both spans. Simulated time
    // advances; the row reports host time and heap allocations per call.
    {
        sim::Simulator sim;
        net::NetworkConfig radio;
        radio.obs_label = "bench.rpc";
        net::Network net(sim, radio, 1);
        NodeId caller = net.add_node("caller", {0, 0}, 50);
        NodeId callee = net.add_node("callee", {1, 0}, 50);
        net::MessageRouter caller_router(net, caller);
        net::MessageRouter callee_router(net, callee);
        rt::Runtime caller_rt("caller");
        rt::Runtime callee_rt("callee");
        rt::RpcEndpoint caller_rpc(caller_router, caller_rt);
        rt::RpcEndpoint callee_rpc(callee_router, callee_rt);
        callee_rt.register_type(
            rt::TypeInfo::Builder("Lease")
                .method("keepalive", rt::TypeKind::kBool,
                        {{"ext", rt::TypeKind::kStr}, {"ttl_ms", rt::TypeKind::kInt}},
                        [](rt::ServiceObject&, rt::List&) -> rt::Value { return rt::Value{true}; })
                .build());
        callee_rt.create("Lease", "adaptation");
        callee_rpc.export_object("adaptation");
        caller_rpc.exempt_from_filters("adaptation");
        callee_rpc.exempt_from_filters("adaptation");

        const int calls = kRepeats == 1 ? 2'000 : 200'000;
        int answered = 0;
        auto one_call = [&] {
            caller_rpc.call_async(callee, "adaptation", "keepalive",
                                  rt::List{rt::Value{"hall/monitor"}, rt::Value{2000}},
                                  [&answered](rt::Value r, std::exception_ptr e) {
                                      if (!e && r.as_bool()) ++answered;
                                  });
            sim.run();
        };
        for (int i = 0; i < 1000; ++i) one_call();  // warm the rings and caches
        answered = 0;
        const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < calls; ++i) one_call();
        auto t1 = std::chrono::steady_clock::now();
        const double call_ns = std::chrono::duration<double, std::nano>(t1 - t0).count() / calls;
        const double call_allocs =
            static_cast<double>(g_allocs.load(std::memory_order_relaxed) - allocs0) / calls;
        printf("rpc control round-trip: %.0f ns/call, %.1f heap allocations/call "
               "(%d/%d answered)\n",
               call_ns, call_allocs, answered, calls);
        obs::TraceBuffer::global().clear();
    }

    obs::set_enabled(true);
    return 0;
}
