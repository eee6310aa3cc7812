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
// and report per-kernel and geomean slowdowns. Every A/B figure here comes
// from compare_arms: interleaved pairs in alternating order, read as the
// median per-pair ratio with its inter-quartile range, and a < 2% target
// reads "unresolved" while that range straddles it.
// A second section prices the observability layer itself: the hooked suite
// with the obs flag off (compiled-in-but-idle — the configuration of the
// hooks-on column above, so the idle flag check is already inside E3's
// small tax) against the flag on (counters counting).
// A further section prices the per-message constant of the control plane:
// a span on a warm trace ring, an rpc-shaped span, and one rpc control
// round-trip between two nodes (host ns and heap allocations per call).
// The last one prices an extension install's builtin namespace: heap
// allocations per install through a receiver (verify, static check,
// compile-cache hit, ScriptAspect, weave) and heap bytes retained per
// live installed aspect.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <malloc.h>
#include <new>
#include <vector>

#include "smoke.h"

#include "core/weaver.h"
#include "midas/node.h"
#include "net/admission.h"
#include "net/router.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/rpc.h"
#include "sim/simulator.h"
#include "specmini/suite.h"

// Heap allocations made through operator new, for the per-call allocation
// rows, and the bytes they hold (malloc's usable size), for the retained-
// bytes row. Counting is two relaxed updates, invisible next to malloc.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n)) {
        g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                               std::memory_order_relaxed);
        return p;
    }
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
    if (p) {
        g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                               std::memory_order_relaxed);
    }
    std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace {

using namespace pmp;
using specmini::DispatchMode;
using specmini::Suite;

std::uint64_t kScale = 300'000;
int kRepeats = 11;  // alternating pairs per comparison

double run_once(Suite& suite, const std::string& kernel, DispatchMode mode) {
    auto start = std::chrono::steady_clock::now();
    auto result = suite.run(kernel, kScale, mode);
    auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(result.checksum);
    return std::chrono::duration<double>(stop - start).count();
}

/// Median and quartiles (linear interpolation) of a sample.
struct Spread {
    double median = 0, q1 = 0, q3 = 0;
};

Spread spread(std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    auto quantile = [&](double q) {
        const double pos = q * static_cast<double>(xs.size() - 1);
        const auto lo = static_cast<std::size_t>(pos);
        if (lo + 1 >= xs.size()) return xs[lo];
        return xs[lo] + (pos - static_cast<double>(lo)) * (xs[lo + 1] - xs[lo]);
    };
    return {quantile(0.5), quantile(0.25), quantile(0.75)};
}

/// One A/B comparison: kRepeats pairs, the arms' order alternating from
/// pair to pair so slow drift on a shared vCPU (noisy neighbours,
/// frequency scaling) and whichever arm runs second on a warm cache bias
/// neither. Each pair yields one ratio b/a; the table reads their median
/// and inter-quartile range.
struct ArmComparison {
    double a_s = 0, b_s = 0;     ///< median wall time of each arm
    std::vector<double> ratios;  ///< b/a, one per pair
};

template <typename A, typename B>
ArmComparison compare_arms(A&& a, B&& b) {
    std::vector<double> ta, tb;
    ArmComparison out;
    for (int i = 0; i < kRepeats; ++i) {
        double x = 0, y = 0;
        if (i % 2 == 0) {
            x = a();
            y = b();
        } else {
            y = b();
            x = a();
        }
        ta.push_back(x);
        tb.push_back(y);
        out.ratios.push_back(y / x);
    }
    out.a_s = spread(ta).median;
    out.b_s = spread(tb).median;
    return out;
}

/// An ablation table: one compare_arms row per kernel, and a suite row
/// whose spread is over per-pair geomeans across the kernels.
class Ablation {
public:
    Ablation(const char* a_name, const char* b_name) {
        printf("%-10s %14s %14s %9s %17s\n", "kernel", a_name, b_name, "overhead",
               "IQR");
    }

    void row(const std::string& kernel, const ArmComparison& c) {
        const Spread r = spread(c.ratios);
        printf("%-10s %14.4f %14.4f %+8.1f%% [%+6.1f%%,%+6.1f%%]\n", kernel.c_str(), c.a_s,
               c.b_s, pct(r.median), pct(r.q1), pct(r.q3));
        ratios_.push_back(c.ratios);
    }

    /// Prints the suite row and returns its spread.
    Spread geomean() const {
        std::vector<double> per_pair;
        for (std::size_t i = 0; i < ratios_.front().size(); ++i) {
            double log_sum = 0;
            for (const auto& kernel : ratios_) log_sum += std::log(kernel[i]);
            per_pair.push_back(std::exp(log_sum / static_cast<double>(ratios_.size())));
        }
        const Spread g = spread(per_pair);
        printf("\n%-10s %+38.1f%% [%+6.1f%%,%+6.1f%%]\n", "geomean", pct(g.median),
               pct(g.q1), pct(g.q3));
        return g;
    }

    static double pct(double ratio) { return (ratio - 1.0) * 100; }

    /// "met" / "missed" when the whole IQR sits on one side of the target
    /// overhead, "unresolved" when it straddles it.
    static const char* verdict(const Spread& s, double target_pct) {
        if (pct(s.q3) < target_pct) return "met";
        if (pct(s.q1) >= target_pct) return "missed";
        return "unresolved";
    }

private:
    std::vector<std::vector<double>> ratios_;
};

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
    printf("scale: %llu dispatched calls per kernel; each overhead is the median of %d\n"
           "alternating-pair ratios, with its inter-quartile range\n\n",
           static_cast<unsigned long long>(kScale), kRepeats);

    Ablation e3("baseline(s)", "hooks-on(s)");
    for (const std::string& kernel : Suite::kernel_names()) {
        run_once(suite, kernel, DispatchMode::kUnhooked);  // warm up
        e3.row(kernel,
               compare_arms([&] { return run_once(suite, kernel, DispatchMode::kUnhooked); },
                            [&] { return run_once(suite, kernel, DispatchMode::kHooked); }));
    }
    e3.geomean();

    // A do-nothing extension trapping every kernel method. The baseline
    // arm dispatches without the hook, so the woven aspect never sees it.
    printf("\n");
    auto noop_aspect = std::make_shared<prose::Aspect>("noop");
    noop_aspect->before("call(* Spec*.*(..))", [](rt::CallFrame&) {});
    AspectId noop_id = weaver.weave(noop_aspect);
    Ablation noop("baseline(s)", "noop-woven(s)");
    for (const std::string& kernel : Suite::kernel_names()) {
        run_once(suite, kernel, DispatchMode::kHooked);  // warm up
        noop.row(kernel,
                 compare_arms([&] { return run_once(suite, kernel, DispatchMode::kUnhooked); },
                              [&] { return run_once(suite, kernel, DispatchMode::kHooked); }));
    }
    noop.geomean();
    weaver.withdraw(noop_id);
    printf("\npaper reference: hooks-on geomean ~7%% (JIT stub bloat on a 500MHz P2); the\n"
           "shape to check is: hooks-on is a small single-digit tax, noop-woven adds a\n"
           "per-call constant on every intercepted method.\n");

    // --- instrumentation ablation: what do the obs counters themselves cost?
    //
    //   idle    — invoke with obs disabled: counters compiled in, flag off
    //   enabled — invoke with obs enabled: counters counting
    printf("\n=== instrumentation ablation: cost of the obs counters on hooked dispatch ===\n");
    Ablation instrumentation("idle(s)", "enabled(s)");
    for (const std::string& kernel : Suite::kernel_names()) {
        run_once(suite, kernel, DispatchMode::kHooked);  // warm up
        instrumentation.row(kernel, compare_arms(
                                        [&] {
                                            obs::set_enabled(false);
                                            return run_once(suite, kernel,
                                                            DispatchMode::kHooked);
                                        },
                                        [&] {
                                            obs::set_enabled(true);
                                            double t = run_once(suite, kernel,
                                                                DispatchMode::kHooked);
                                            obs::set_enabled(false);
                                            return t;
                                        }));
    }
    const Spread enabled = instrumentation.geomean();
    printf("\nenabled-instrumentation overhead over idle: %.1f%% (target: < 2%%: %s; the\n"
           "idle flag check itself sits inside the hooks-on column of E3 above)\n",
           Ablation::pct(enabled.median), Ablation::verdict(enabled, 2.0));

    // --- overload-protection ablation: the robustness layer's hot-path tax.
    //
    // Two mechanisms sit on paths that matter when nothing is wrong: the
    // governor's admit guard runs before every woven advice, and the
    // admission queue fronts every inbound rpc dispatch. Both must be
    // invisible on an unloaded node (<2%) or they could not default on.
    printf("\n=== overload ablation: governor gate + admission on the unloaded path ===\n");
    // The guard is bound before weaving, so every run weaves a fresh
    // no-op aspect — unguarded, or guarded with an always-admitting
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
    Ablation overload("unguarded(s)", "guarded(s)");
    for (const std::string& kernel : Suite::kernel_names()) {
        run_noop(kernel, false);  // warm up
        overload.row(kernel, compare_arms([&] { return run_noop(kernel, false); },
                                          [&] { return run_noop(kernel, true); }));
    }
    const Spread gate = overload.geomean();
    printf("\ngovernor-gate overhead on woven noop dispatch: %.1f%% (target: < 2%%: %s)\n",
           Ablation::pct(gate.median), Ablation::verdict(gate, 2.0));

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
    Ablation tracing("obs-idle(s)", "tracing-on(s)");
    for (const std::string& kernel : Suite::kernel_names()) {
        run_once(suite, kernel, DispatchMode::kHooked);  // warm up
        tracing.row(kernel, compare_arms(
                                [&] {
                                    obs::set_enabled(false);
                                    return run_once(suite, kernel, DispatchMode::kHooked);
                                },
                                [&] {
                                    obs::set_enabled(true);
                                    obs::TraceBuffer::global().set_detail(false);
                                    double t = run_once(suite, kernel, DispatchMode::kHooked);
                                    obs::set_enabled(false);
                                    return t;
                                }));
    }
    const Spread traced = tracing.geomean();
    printf("\ntracing-on overhead (detail off): %.1f%% (target: < 2%%: %s — spans live\n"
           "at platform operations, not on the dispatch hot path, so leaving the trace\n"
           "ring on permanently costs what the idle counters cost)\n",
           Ablation::pct(traced.median), Ablation::verdict(traced, 2.0));

    // Detail tier: per-advice spans on a woven noop, the worst case (the
    // advice body is free, so the span machinery is the whole bill).
    obs::set_enabled(true);
    auto traced_aspect = std::make_shared<prose::Aspect>("noop");
    traced_aspect->before("call(* Spec*.*(..))", [](rt::CallFrame&) {});
    AspectId traced_id = weaver.weave(traced_aspect);
    printf("\n");
    Ablation detail("detail-off(s)", "detail-on(s)");
    auto& trace_buffer = obs::TraceBuffer::global();
    for (const std::string& kernel : Suite::kernel_names()) {
        run_once(suite, kernel, DispatchMode::kHooked);  // warm up
        detail.row(kernel, compare_arms(
                               [&] {
                                   trace_buffer.set_detail(false);
                                   return run_once(suite, kernel, DispatchMode::kHooked);
                               },
                               [&] {
                                   trace_buffer.set_detail(true);
                                   double t = run_once(suite, kernel, DispatchMode::kHooked);
                                   trace_buffer.set_detail(false);
                                   return t;
                               }));
    }
    weaver.withdraw(traced_id);
    printf("\ndetail-span overhead on woven noop dispatch: %.1f%% (the debugging tier:\n"
           "flip obs::TraceBuffer::set_detail(true) only while chasing a dispatch bug)\n",
           Ablation::pct(detail.geomean().median));

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

    // An install's builtin namespace: `n` distinct extensions installed in
    // process on one receiver, all live at the end. Every install runs the
    // whole receiver path (open + verify, static check, compile-cache hit,
    // ScriptAspect with its top level, weave); what an install's namespace
    // costs is the part of these rows that changes with how the receiver
    // composes the extension's builtins. The advice matches no object on
    // the node: every weave republishes the hook tables it touches, which
    // would make the per-install rows grow with the number of live aspects.
    {
        sim::Simulator sim;
        net::Network net(sim, net::NetworkConfig{}, 1);
        midas::MobileNode node(net, "robot", {0, 0}, 50);
        node.trust().trust("hall", to_bytes("hall-key"));
        node.receiver().allow_capabilities("hall", {"net", "log"});
        crypto::KeyStore keys;
        keys.add_key("hall", to_bytes("hall-key"));
        auto sealed = [&keys](const std::string& name) {
            midas::ExtensionPackage pkg;
            pkg.name = name;
            pkg.script = R"(
                let posts = 0;
                fun onEntry() {
                    owner.post("collector", "post",
                               [sys.node(), {"device": ctx.target(), "action": ctx.method()}]);
                    posts = posts + 1;
                }
                fun onShutdown(reason) { log.info("bye ", reason); }
            )";
            pkg.bindings = {midas::PackageBinding{prose::AdviceKind::kBefore,
                                                  "call(* Lamp.*(..))", "onEntry", 0}};
            pkg.capabilities = {"net", "log"};
            return pkg.seal(keys, "hall");
        };
        const int n = kRepeats == 1 ? 16 : 768;
        std::vector<Bytes> packages;
        for (int i = 0; i < n; ++i) packages.push_back(sealed("hall/ext" + std::to_string(i)));
        // Warm the compile and pointcut caches, the trace ring and the
        // weaver's plan with one install of the same script.
        node.receiver().install_from(NodeId{1}, sealed("hall/warm"), 60'000);
        obs::TraceBuffer::global().clear();

        const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
        const std::int64_t bytes0 = g_live_bytes.load(std::memory_order_relaxed);
        auto t0 = std::chrono::steady_clock::now();
        for (const Bytes& pkg : packages) node.receiver().install_from(NodeId{1}, pkg, 60'000);
        auto t1 = std::chrono::steady_clock::now();
        const double install_us =
            std::chrono::duration<double, std::micro>(t1 - t0).count() / n;
        const double install_allocs =
            static_cast<double>(g_allocs.load(std::memory_order_relaxed) - allocs0) / n;
        const double retained_kib =
            static_cast<double>(g_live_bytes.load(std::memory_order_relaxed) - bytes0) / n /
            1024.0;
        printf("\n=== extension install: the builtin namespace ===\n"
               "receiver install (%zu live): %.1f us/install, %.1f heap allocations/install, "
               "%.2f KiB retained per live aspect\n",
               node.receiver().installed_count(), install_us, install_allocs, retained_kib);
        obs::TraceBuffer::global().clear();
    }

    obs::set_enabled(true);
    return 0;
}
