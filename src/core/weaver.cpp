#include "core/weaver.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/epoch.h"

namespace pmp::prose {

namespace {

using Clock = std::chrono::steady_clock;

std::string site_label(std::string_view extension, std::string_view pointcut) {
    return std::string(extension).append("|").append(pointcut);
}

double elapsed_ns(Clock::time_point t0) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

// What a skipped advice leaves behind: nothing, except that a skipped
// around advice still proceeds — it must not swallow the application call.
rt::Value pass_through(rt::CallFrame&, const std::function<rt::Value()>& proceed) {
    return proceed();
}

}  // namespace

Weaver::Weaver(rt::Runtime& runtime)
    : runtime_(runtime),
      obs_source_(obs::Registry::global().add_source([this](obs::Rows& rows) {
          for (const auto& [label, site] : sites_) {
              rows.counter("profile.advice_calls", label, site->calls.value());
              rows.histogram("profile.advice_ns", label, site->advice_ns);
          }
      })) {
    observer_ = runtime_.add_type_observer([this](rt::TypeInfo& t) { on_type_registered(t); });
}

Weaver::~Weaver() {
    withdraw_all(WithdrawReason::kExplicit);
    runtime_.remove_type_observer(observer_);
}

// In order: the aspect's admit guard, the weave's first-dispatch instant,
// counting and timing into the (extension, pointcut) site — the
// per-aspect view is a fold of those sites (obs::attribution_from) — and
// the outcome guard. Every execution is counted; the clock is read for the
// site's sampled ones and for the first execution of every weave. The
// guards are protocol machinery, not telemetry: they run whatever
// obs::enabled() says.
template <typename Fn, typename... Args>
auto Weaver::run_advice(Woven& w, AdviceSite& site, const Fn& fn, Args&&... args) {
    using Result = std::invoke_result_t<const Fn&, Args&&...>;
    const Aspect::Guard& guard = w.aspect->guard();
    if (guard.admit && !guard.admit()) {
        if constexpr (std::is_void_v<Result>) return;
        else return pass_through(args...);
    }
    const bool instrument = obs::enabled();
    bool timed = instrument && site.count();
    if (instrument && !w.first_dispatched.load(std::memory_order_relaxed) &&
        !w.first_dispatched.exchange(true, std::memory_order_relaxed)) {
        // First advice execution ever for this weave: mark it on the
        // weave's own trace (install → weave → first dispatch is the chain
        // the paper's Fig 2 walks through).
        auto& tb = obs::TraceBuffer::global();
        obs::TraceBuffer::ContextScope scope(tb, w.weave_ctx);
        tb.instant("prose.weaver", "advice.first_dispatch", {{"aspect", w.aspect->name()}});
        timed = true;
    }
    Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
    auto done = [&] {
        if (timed) site.advice_ns.observe(elapsed_ns(t0));
        if (guard.outcome) guard.outcome(nullptr);
    };
    try {
        if constexpr (std::is_void_v<Result>) {
            fn(std::forward<Args>(args)...);
            done();
        } else {
            Result result = fn(std::forward<Args>(args)...);
            done();
            return result;
        }
    } catch (const std::exception& e) {
        if (guard.outcome) guard.outcome(&e);
        throw;
    }
}

void Weaver::weave_into_type(rt::TypeInfo& type, AspectId id, Woven& woven) {
    const std::vector<AdviceBinding>& bindings = woven.aspect->bindings();
    // This node's record for each binding's (extension, pointcut), resolved
    // on the first type the weave visits; a re-weave finds the old one.
    while (woven.sites.size() < bindings.size()) {
        std::string label =
            site_label(woven.aspect->name(), bindings[woven.sites.size()].pointcut.source());
        auto site = sites_.find(label);
        if (site == sites_.end()) {
            site = sites_.emplace(std::move(label), std::make_shared<AdviceSite>()).first;
        }
        woven.sites.push_back(site->second);
    }
    for (std::size_t i = 0; i < bindings.size(); ++i) {
        const AdviceBinding& binding = bindings[i];
        // Every hook is run_advice over (Woven*, AdviceSite*, advice). The
        // Woven is heap-pinned, holds its sites, and withdraw retires it
        // through the epoch domain after unhooking, so no hook — not even a
        // superseded snapshot still being walked on another shard —
        // outlives either.
        auto hook = [w = &woven, site = woven.sites[i].get()](const auto& fn) {
            return [w, site, fn](auto&&... args) {
                return run_advice(*w, *site, fn, std::forward<decltype(args)>(args)...);
            };
        };
        const int prio = binding.priority;
        switch (binding.kind) {
            case AdviceKind::kFieldSet:
                for (rt::Field* field : plan_.fields_set_for(binding.pointcut, type)) {
                    ++woven.report.fields_matched;
                    woven.hooked_fields.push_back(field);
                    field->add_set_hook(id.value, prio, hook(binding.field_set));
                }
                break;
            case AdviceKind::kFieldGet:
                for (rt::Field* field : plan_.fields_get_for(binding.pointcut, type)) {
                    ++woven.report.fields_matched;
                    woven.hooked_fields.push_back(field);
                    field->add_get_hook(id.value, prio, hook(binding.field_get));
                }
                break;
            default:
                for (rt::Method* m : plan_.methods_for(binding.pointcut, type)) {
                    ++woven.report.methods_matched;
                    woven.hooked_methods.push_back(m);
                    if (binding.kind == AdviceKind::kBefore) {
                        m->add_entry_hook(id.value, prio, hook(binding.before));
                    } else if (binding.kind == AdviceKind::kAfter) {
                        m->add_exit_hook(id.value, prio, hook(binding.after));
                    } else if (binding.kind == AdviceKind::kAfterThrowing) {
                        m->add_error_hook(id.value, prio, hook(binding.after_throwing));
                    } else {
                        m->add_around_hook(id.value, prio, hook(binding.around));
                    }
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
    std::string shutdown_error;
    bool shutdown_failed = false;
    try {
        it->second->aspect->notify_withdraw(reason);
    } catch (const std::exception& e) {
        // Shutdown cannot block withdrawal: a failing handler forfeits its
        // last words, and the advice comes off regardless.
        shutdown_failed = true;
        shutdown_error = e.what();
    } catch (...) {
        shutdown_failed = true;
        shutdown_error = "non-standard exception";
    }
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
    const obs::Kv end_kv{"shutdown_error", shutdown_error};
    obs::TraceBuffer::global().end_span(
        span, std::span<const obs::Kv>(&end_kv, shutdown_failed ? 1 : 0));
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

const AdviceSite* Weaver::site(std::string_view extension, std::string_view pointcut) const {
    auto it = sites_.find(site_label(extension, pointcut));
    return it == sites_.end() ? nullptr : it->second.get();
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
