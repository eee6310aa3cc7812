// The run-time weaver (paper Fig 1).
//
// Weaving attaches an aspect's advice to every join point its pointcuts
// select, across every class registered in the node's Runtime — without
// stopping the application. Classes registered *after* weaving are
// instrumented on arrival (the JIT analogy: code compiled later still gets
// the hooks). Withdrawing restores the original dispatch exactly.
#pragma once

#include <map>
#include <atomic>
#include <memory>
#include <string_view>

#include "common/ids.h"
#include "core/aspect.h"
#include "core/matchplan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/runtime.h"

namespace pmp::prose {

/// One (extension, pointcut)'s advice bill on one node, the profiler's
/// unit of blame: every execution is counted exactly, and the ones the
/// site's own count numbers 0, N, 2N, ... (N = kTimeEvery) are timed, plus
/// the first execution of every weave. The decision is per site, so a
/// periodic call mix across sites cannot starve one of them of samples.
struct AdviceSite {
    static constexpr std::uint64_t kTimeEvery = 32;

    obs::Counter calls;                                ///< profile.advice_calls
    obs::Histogram advice_ns{std::vector<double>{}};  ///< profile.advice_ns (ns edges)

    /// Count one execution; true when it is one to time.
    bool count() { return calls.fetch_inc() % kTimeEvery == 0; }
};

/// How many join points a weave touched — used by tests, the weaving bench
/// (DESIGN.md E1) and MIDAS logging.
struct WeaveReport {
    std::size_t methods_matched = 0;
    std::size_t fields_matched = 0;
};

class Weaver {
public:
    explicit Weaver(rt::Runtime& runtime);
    ~Weaver();

    Weaver(const Weaver&) = delete;
    Weaver& operator=(const Weaver&) = delete;

    /// Weave an aspect into the runtime. The weaver keeps the aspect alive
    /// until withdrawal.
    AspectId weave(std::shared_ptr<Aspect> aspect);

    /// Run the aspect's shutdown procedure, then detach all of its advice.
    /// A throwing shutdown procedure cannot block withdrawal: its message
    /// lands on the withdraw span as `shutdown_error` and the advice is
    /// detached as usual. Returns false if the id is unknown (already
    /// withdrawn).
    bool withdraw(AspectId id, WithdrawReason reason = WithdrawReason::kExplicit);

    /// Withdraw everything (also runs from the destructor with kExplicit).
    void withdraw_all(WithdrawReason reason = WithdrawReason::kExplicit);

    std::shared_ptr<Aspect> find(AspectId id) const;
    const WeaveReport* report(AspectId id) const;
    std::size_t woven_count() const { return woven_.size(); }

    rt::Runtime& runtime() { return runtime_; }

    /// The weaver's pointcut-match cache (diagnostics, tests).
    const MatchPlan& plan() const { return plan_; }

    /// This node's bill for one (extension, pointcut), kept for the
    /// weaver's life so a re-weave carries on the same count; null if the
    /// pair was never woven here.
    const AdviceSite* site(std::string_view extension, std::string_view pointcut) const;

private:
    struct Woven {
        std::shared_ptr<Aspect> aspect;
        WeaveReport report;
        /// Every member this aspect hooked — withdraw walks exactly these
        /// instead of sweeping every member of every type.
        std::vector<rt::Method*> hooked_methods;
        std::vector<rt::Field*> hooked_fields;
        /// One site per binding, in binding order. Hooks capture the raw
        /// pointer; holding a share here keeps each site alive as long as
        /// this (possibly retired) entry, even past ~Weaver.
        std::vector<std::shared_ptr<AdviceSite>> sites;
        /// Causal position of the weave span. The first advice execution
        /// emits an `advice.first_dispatch` instant under this context, so
        /// install → verify → weave → first dispatch reads as one tree even
        /// though the dispatch happens on an unrelated application call.
        obs::TraceContext weave_ctx;
        /// Dispatch may run on many shard workers at once; exactly one of
        /// them wins the right to record the first-dispatch instant.
        std::atomic<bool> first_dispatched{false};
    };

    void weave_into_type(rt::TypeInfo& type, AspectId id, Woven& woven);
    /// The one composition point every advice execution passes through.
    template <typename Fn, typename... Args>
    static auto run_advice(Woven& w, AdviceSite& site, const Fn& fn, Args&&... args);
    void on_type_registered(rt::TypeInfo& type);

    rt::Runtime& runtime_;
    rt::Runtime::ObserverId observer_;
    MatchPlan plan_;
    IdGenerator<AspectId> ids_;
    /// Woven entries are heap-pinned: installed hooks capture a raw
    /// pointer to their Woven, and a withdrawn entry is *retired* through
    /// rt::EpochDomain rather than deleted — a reader on another shard may
    /// still be walking a superseded hook-table snapshot whose closures
    /// dereference it until the grace period passes.
    std::map<AspectId, std::unique_ptr<Woven>> woven_;
    /// Every site ever woven here, by "<extension>|<pointcut>" label.
    std::map<std::string, std::shared_ptr<AdviceSite>, std::less<>> sites_;
    obs::Source obs_source_;  // last: unregisters before the sites it reads
};

}  // namespace pmp::prose
