#include "core/weaver.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "rt/epoch.h"

namespace pmp::prose {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point t0) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

}  // namespace

Weaver::Weaver(rt::Runtime& runtime) : runtime_(runtime) {
    observer_ = runtime_.add_type_observer([this](rt::TypeInfo& t) { on_type_registered(t); });
}

Weaver::~Weaver() {
    withdraw_all(WithdrawReason::kExplicit);
    runtime_.remove_type_observer(observer_);
}

void Weaver::weave_into_type(rt::TypeInfo& type, AspectId id, Woven& woven) {
    // Join-point telemetry: every advice execution records its (real, CPU)
    // latency once, into the profiler site of its (extension, pointcut) —
    // the per-aspect view is a fold of those sites (obs::attribution_from).
    // The wrapper also reports every outcome to the advice observer (the
    // receiver's quarantine input) — success as nullptr, failure as the
    // escaping exception, which is then rethrown unchanged. The observer
    // runs regardless of obs::enabled(): it is protocol machinery, not
    // telemetry.
    // `wp` is stable: each Woven is heap-pinned (unique_ptr in woven_),
    // and withdraw retires it through the epoch domain after unhooking, so
    // no hook — including a superseded snapshot still being walked on
    // another shard — outlives its Woven.
    auto timed = [this, id, wp = &woven](
                     const obs::Profiler::Site& site, const auto& fn,
                     auto&&... args) -> decltype(auto) {
        const bool instrument = obs::enabled();
        if (instrument && !wp->first_dispatched.load(std::memory_order_relaxed) &&
            !wp->first_dispatched.exchange(true, std::memory_order_relaxed)) {
            // First advice execution ever for this weave: mark it on the
            // weave's own trace (install → weave → first dispatch is the
            // chain the paper's Fig 2 walks through).
            auto& tb = obs::TraceBuffer::global();
            obs::TraceBuffer::ContextScope scope(tb, wp->weave_ctx);
            tb.instant("prose.weaver", "advice.first_dispatch",
                       {{"aspect", wp->aspect->name()}});
        }
        Clock::time_point t0 = instrument ? Clock::now() : Clock::time_point{};
        try {
            if constexpr (std::is_void_v<decltype(fn(
                              std::forward<decltype(args)>(args)...))>) {
                fn(std::forward<decltype(args)>(args)...);
                if (instrument) site.record(elapsed_ns(t0));
                if (advice_observer_) advice_observer_(id, nullptr);
            } else {
                auto result = fn(std::forward<decltype(args)>(args)...);
                if (instrument) site.record(elapsed_ns(t0));
                if (advice_observer_) advice_observer_(id, nullptr);
                return result;
            }
        } catch (const std::exception& e) {
            if (advice_observer_) advice_observer_(id, &e);
            throw;
        }
    };

    for (const AdviceBinding& binding : woven.aspect->bindings()) {
        // Cost-attribution slot for this (extension, pointcut) pair — the
        // profiler's unit of blame (copied by value into every hook).
        obs::Profiler::Site site =
            obs::Profiler::global().site(woven.aspect->name(), binding.pointcut.source());
        switch (binding.kind) {
            case AdviceKind::kBefore:
            case AdviceKind::kAfter:
            case AdviceKind::kAfterThrowing:
            case AdviceKind::kAround:
                for (rt::Method* method : plan_.methods_for(binding.pointcut, type)) {
                    ++woven.report.methods_matched;
                    woven.hooked_methods.push_back(method);
                    switch (binding.kind) {
                        case AdviceKind::kBefore:
                            method->add_entry_hook(id.value, binding.priority,
                                                   [this, id, timed, site,
                                                    fn = binding.before](rt::CallFrame& f) {
                                                       if (!allows(id)) return;
                                                       timed(site, fn, f);
                                                   });
                            break;
                        case AdviceKind::kAfter:
                            method->add_exit_hook(id.value, binding.priority,
                                                  [this, id, timed, site,
                                                   fn = binding.after](rt::CallFrame& f) {
                                                      if (!allows(id)) return;
                                                      timed(site, fn, f);
                                                  });
                            break;
                        case AdviceKind::kAfterThrowing:
                            method->add_error_hook(
                                id.value, binding.priority,
                                [this, id, timed, site, fn = binding.after_throwing](
                                    rt::CallFrame& f, std::exception_ptr e) {
                                    if (!allows(id)) return;
                                    timed(site, fn, f, e);
                                });
                            break;
                        default:
                            method->add_around_hook(
                                id.value, binding.priority,
                                [this, id, timed, site, fn = binding.around](
                                    rt::CallFrame& f,
                                    const std::function<rt::Value()>& proceed) {
                                    // A gated around must not swallow the
                                    // underlying call.
                                    if (!allows(id)) return proceed();
                                    return timed(site, fn, f, proceed);
                                });
                            break;
                    }
                }
                break;
            case AdviceKind::kFieldSet:
                for (rt::Field* field : plan_.fields_set_for(binding.pointcut, type)) {
                    ++woven.report.fields_matched;
                    woven.hooked_fields.push_back(field);
                    field->add_set_hook(id.value, binding.priority,
                                        [this, id, timed, site,
                                         fn = binding.field_set](auto&&... args) {
                                            if (!allows(id)) return;
                                            timed(site, fn, std::forward<decltype(args)>(args)...);
                                        });
                }
                break;
            case AdviceKind::kFieldGet:
                for (rt::Field* field : plan_.fields_get_for(binding.pointcut, type)) {
                    ++woven.report.fields_matched;
                    woven.hooked_fields.push_back(field);
                    field->add_get_hook(id.value, binding.priority,
                                        [this, id, timed, site,
                                         fn = binding.field_get](auto&&... args) {
                                            if (!allows(id)) return;
                                            timed(site, fn, std::forward<decltype(args)>(args)...);
                                        });
                }
                break;
        }
    }
}

AspectId Weaver::weave(std::shared_ptr<Aspect> aspect) {
    auto& reg = obs::Registry::global();
    std::uint64_t span = obs::TraceBuffer::global().begin_span("prose.weaver", "weave",
                                                               {{"aspect", aspect->name()}});
    Clock::time_point t0 = Clock::now();

    plan_.note_weave();
    AspectId id = ids_.next();
    auto [it, _] = woven_.emplace(id, std::make_unique<Woven>());
    it->second->aspect = std::move(aspect);
    it->second->weave_ctx = obs::TraceBuffer::global().context_of(span);
    for (const auto& type : runtime_.types()) {
        weave_into_type(*type, id, *it->second);
    }

    reg.histogram("weaver.weave_ns").observe(elapsed_ns(t0));
    reg.counter("weaver.weaves").inc();
    reg.gauge("weaver.woven").set(static_cast<std::int64_t>(woven_.size()));
    obs::TraceBuffer::global().end_span(
        span, {{"methods", std::to_string(it->second->report.methods_matched)},
               {"fields", std::to_string(it->second->report.fields_matched)}});
    return id;
}

bool Weaver::withdraw(AspectId id, WithdrawReason reason) {
    auto it = woven_.find(id);
    if (it == woven_.end()) return false;
    auto& reg = obs::Registry::global();
    std::uint64_t span = obs::TraceBuffer::global().begin_span(
        "prose.weaver", "withdraw",
        {{"aspect", it->second->aspect->name()}, {"reason", withdraw_reason_name(reason)}});
    Clock::time_point t0 = Clock::now();

    // Shutdown procedure first (paper: the extension is notified before
    // leaving so it can reach a consistent state), then unhook. Withdrawal
    // is targeted: the weave recorded every member it hooked, so only
    // those are touched (a member may appear once per matching binding —
    // remove_hooks clears all of an owner's hooks, later visits no-op).
    plan_.note_withdraw();
    it->second->aspect->notify_withdraw(reason);
    for (rt::Method* method : it->second->hooked_methods) method->remove_hooks(id.value);
    for (rt::Field* field : it->second->hooked_fields) field->remove_hooks(id.value);
    // The superseded hook-table snapshots retired by remove_hooks capture
    // a pointer to this Woven; it must survive the same grace period, and
    // it was retired *after* the tables, so it is reclaimed no earlier.
    rt::EpochDomain::global().retire([w = it->second.release()] { delete w; });
    woven_.erase(it);

    reg.histogram("weaver.withdraw_ns").observe(elapsed_ns(t0));
    reg.counter("weaver.withdrawals").inc();
    reg.gauge("weaver.woven").set(static_cast<std::int64_t>(woven_.size()));
    obs::TraceBuffer::global().end_span(span);
    return true;
}

void Weaver::withdraw_all(WithdrawReason reason) {
    while (!woven_.empty()) {
        withdraw(woven_.begin()->first, reason);
    }
}

std::shared_ptr<Aspect> Weaver::find(AspectId id) const {
    auto it = woven_.find(id);
    return it == woven_.end() ? nullptr : it->second->aspect;
}

const WeaveReport* Weaver::report(AspectId id) const {
    auto it = woven_.find(id);
    return it == woven_.end() ? nullptr : &it->second->report;
}

void Weaver::on_type_registered(rt::TypeInfo& type) {
    plan_.note_type_registered();
    for (auto& [id, woven] : woven_) {
        weave_into_type(type, id, *woven);
    }
}

}  // namespace pmp::prose
