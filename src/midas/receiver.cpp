#include "midas/receiver.h"

#include <algorithm>
#include <utility>

#include "crypto/sha256.h"
#include "midas/channel.h"
#include "script/check.h"

#include "common/log.h"
#include "obs/flight.h"
#include "obs/trace.h"
#include "sim/failpoint.h"

namespace pmp::midas {

using rt::Dict;
using rt::List;
using rt::Value;

namespace {
constexpr Duration kMaxExtensionLease = seconds(5);  ///< lease grants are clamped to this
}  // namespace

AdaptationService::AdaptationService(rt::RpcEndpoint& rpc, prose::Weaver& weaver,
                                     crypto::TrustStore& trust,
                                     disco::DiscoveryClient& discovery, ReceiverConfig config,
                                     std::shared_ptr<db::Journal> journal)
    : rpc_(rpc),
      weaver_(weaver),
      trust_(trust),
      discovery_(discovery),
      config_(std::move(config)),
      journal_(std::move(journal)),
      host_builtins_(script::BuiltinRegistry::with_core()),
      obs_source_(obs::Registry::global().add_source([this](obs::Rows& rows) {
          const Stats& s = stats_;
          const std::string& l = config_.node_label;
          rows.counter("midas.installs", l, s.installs);
          rows.counter("midas.replacements", l, s.replacements);
          rows.counter("midas.refreshes", l, s.refreshes);
          rows.counter("midas.rejections", l, s.rejections);
          rows.counter("midas.sig_rejections", l, s.sig_rejections);
          rows.counter("midas.lease.expirations", l, s.expirations);
          rows.counter("midas.lease.renewals", l, s.renewals);
          rows.counter("midas.revocations", l, s.revocations);
          rows.counter("midas.receiver.quarantined", l, s.quarantined);
          rows.counter("midas.receiver.unquarantined", l, s.unquarantined);
          rows.counter("recv.governor.throttles", l, s.governor_throttles);
          rows.counter("recv.governor.suspends", l, s.governor_suspends);
          rows.counter("recv.governor.skipped", l, s.governor_skipped);
          rows.counter("recv.governor.watchdog_trips", l, s.governor_watchdog_trips);
          rows.counter("recv.governor.quarantines", l, s.governor_quarantines);
          rows.counter("script.compile.cache_hits", l, s.compile_cache_hits);
          rows.counter("script.compile.cache_misses", l, s.compile_cache_misses);
          rows.counter("prose.pointcut.cache_hits", l, s.pointcut_cache_hits);
          rows.counter("midas.receiver.cache_evictions", l, s.cache_evictions);
          rows.gauge("midas.extensions", l, s.extensions);
          for (const auto& [ext, steps] : s.steps) rows.counter("profile.steps", ext, steps);
      })) {
    if (journal_) recover();

    // Node facilities every extension may request.
    host_builtins_.add("sys.now_ms", "", [this](List&) -> Value {
        return Value{rpc_.router().simulator().now().ns / 1'000'000};
    });
    host_builtins_.add("sys.node", "", [this](List&) -> Value {
        return Value{config_.node_label};
    });
    host_builtins_.add("sys.caller", "", [this](List&) -> Value {
        NodeId caller = rpc_.current_caller();
        return caller.valid() ? Value{rpc_.router().network().name_of(caller)} : Value{};
    });
    host_builtins_.add("log.info", "log", [this](List& args) -> Value {
        std::string line;
        for (const Value& v : args) line += v.is_str() ? v.as_str() : v.to_string();
        log_info(rpc_.router().simulator().now(), "midas.ext@" + config_.node_label, line);
        return Value{};
    });

    build_service_object();

    // Advertise the adaptation service at every registrar in range; the
    // advertisement itself is leased, so it evaporates when we leave.
    registrar_token_ = discovery_.on_registrar([this](NodeId registrar, bool reachable) {
        if (reachable) {
            register_at(registrar);
        } else {
            advertisements_.erase(registrar);
        }
    });
}

AdaptationService::~AdaptationService() {
    // Disarms every extension's guard first: shutdown advice runs during
    // withdraw_all and must not count toward quarantine — nor be skipped by
    // a suspended extension's governor.
    *alive_ = false;
    discovery_.off_registrar(registrar_token_);
    withdraw_all(prose::WithdrawReason::kExplicit);
}

void AdaptationService::recover() {
    ReceiverDurableState st = ReceiverDurableState::replay(journal_->restore());
    for (const auto& q : st.quarantined) quarantined_.insert(q);
    recovered_manifest_ = std::move(st.manifest);
    flights_ = std::move(st.flights);
    if (!quarantined_.empty() || !recovered_manifest_.empty()) {
        obs::TraceBuffer::global().instant(
            "midas.recovery", "receiver.recover",
            {{"node", config_.node_label},
             {"manifest", std::to_string(recovered_manifest_.size())},
             {"quarantined", std::to_string(quarantined_.size())},
             {"skipped", std::to_string(st.skipped_records)}});
        log_info(rpc_.router().simulator().now(), "midas.receiver@" + config_.node_label,
                 "recovered journal: ", recovered_manifest_.size(),
                 " extensions were installed, ", quarantined_.size(), " quarantined");
    }
    // Nothing is installed in this life yet; fold the journal down to the
    // quarantine list (the only part enforced again).
    compact_journal();
}

void AdaptationService::journal(const rt::Value& rec) {
    if (!journal_) return;
    journal_->append(rec);
    if (journal_->compaction_due()) compact_journal();
}

void AdaptationService::compact_journal() {
    if (!journal_) return;
    ReceiverDurableState st;
    for (const auto& [_, entry] : installed_) {
        st.manifest.push_back(ReceiverDurableState::ManifestEntry{
            entry.info.name, entry.info.version, entry.info.issuer});
    }
    for (const auto& q : quarantined_) st.quarantined.push_back(q);
    st.flights = flights_;
    journal_->compact(st.to_snapshot());
}

prose::Aspect::Guard AdaptationService::guard_for(ExtensionId ext) {
    prose::Aspect::Guard guard;
    // Protocol machinery, not telemetry: every advice outcome is reported
    // and repeated script failures quarantine the extension.
    guard.outcome = [this, ext, alive = alive_](const std::exception* error) {
        if (*alive) on_advice_outcome(ext, error);
    };
    // The governor's enforcement point, consulted before every advice
    // dispatch: it suspends an over-budget extension without unweaving it
    // (withdrawal runs shutdown advice and loses extension state — too
    // heavy for a condition that clears at the next lease window). Only
    // bound when a budget is configured, so an ungoverned node pays one
    // empty-function check on its hot path.
    if (governor_enabled()) {
        guard.admit = [this, ext, alive = alive_] { return !*alive || governor_allows(ext); };
    }
    return guard;
}

void AdaptationService::on_advice_outcome(ExtensionId ext, const std::exception* error) {
    // The common case, once per advice call: a success with no failure
    // streak pending anywhere has nothing to reset.
    if (!error && advice_failures_.empty()) return;
    // A stale hook snapshot may still report for a withdrawn extension.
    if (installed_.find(ext) == installed_.end()) return;
    if (!error) {
        advice_failures_.erase(ext);
        return;
    }
    // Broken or runaway extension code counts — a script fault, a blown
    // sandbox budget, or a tripped watchdog deadline all mean the code
    // cannot be trusted to run. AccessDenied is this node's own capability
    // policy saying no — the script is fine — and never counts.
    const bool watchdog = dynamic_cast<const DeadlineExceeded*>(error) != nullptr;
    if (watchdog) ++stats_.governor_watchdog_trips;
    bool counts = watchdog ||
                  dynamic_cast<const ScriptError*>(error) != nullptr ||
                  dynamic_cast<const ResourceExhausted*>(error) != nullptr;
    if (!counts) return;
    if (++advice_failures_[ext] < config_.quarantine_after) return;
    if (!pending_quarantine_.insert(ext).second) return;
    // Deferred: this guard fires inside the failing advice dispatch;
    // withdrawing the aspect here would destroy the hook list the weaver
    // is still iterating.
    rpc_.router().simulator().schedule_after(Duration{0}, [this, ext, alive = alive_]() {
        if (!*alive) return;
        pending_quarantine_.erase(ext);
        quarantine(ext);
    });
}

bool AdaptationService::governor_allows(ExtensionId ext) {
    auto gt = governor_.find(ext);
    if (gt == governor_.end()) return true;
    GovernorState& st = gt->second;
    switch (st.mode) {
        case GovernorMode::kSuspended:
            ++stats_.governor_skipped;
            return false;
        case GovernorMode::kThrottled:
            if (st.throttle_counter++ % static_cast<std::uint64_t>(
                                            std::max(config_.governor_throttle_keep, 1)) != 0) {
                ++stats_.governor_skipped;
                return false;
            }
            break;
        case GovernorMode::kNormal:
            break;
    }
    ++st.window_invocations;
    if (config_.governor_invocation_budget != 0) {
        const double budget = static_cast<double>(config_.governor_invocation_budget);
        if (static_cast<double>(st.window_invocations) >
            budget * config_.governor_suspend_factor) {
            governor_escalate(ext, st, GovernorMode::kSuspended);
            // This dispatch was already granted; suspension bites from the
            // next one.
        } else if (st.window_invocations > config_.governor_invocation_budget) {
            governor_escalate(ext, st, GovernorMode::kThrottled);
        }
    }
    return true;
}

void AdaptationService::governor_charge(ExtensionId id, std::uint64_t steps) {
    auto gt = governor_.find(id);
    if (gt == governor_.end()) return;
    GovernorState& st = gt->second;
    st.window_steps += steps;
    if (config_.governor_step_budget == 0) return;
    const double budget = static_cast<double>(config_.governor_step_budget);
    if (static_cast<double>(st.window_steps) > budget * config_.governor_suspend_factor) {
        governor_escalate(id, st, GovernorMode::kSuspended);
    } else if (st.window_steps > config_.governor_step_budget) {
        governor_escalate(id, st, GovernorMode::kThrottled);
    }
}

void AdaptationService::governor_escalate(ExtensionId id, GovernorState& st,
                                          GovernorMode to) {
    if (st.mode >= to) return;  // the ladder only climbs within a window
    st.mode = to;
    auto it = installed_.find(id);
    const std::string name = it != installed_.end() ? it->second.info.name : "?";
    const char* rung = to == GovernorMode::kSuspended ? "suspend" : "throttle";
    const char* verb = to == GovernorMode::kSuspended ? "suspending" : "throttling";
    if (to == GovernorMode::kSuspended) {
        ++stats_.governor_suspends;
    } else {
        ++stats_.governor_throttles;
    }
    ++st.unreported;
    obs::TraceBuffer::global().instant(
        "midas.receiver", std::string("governor.") + rung,
        {{"node", config_.node_label},
         {"pkg", name},
         {"steps", std::to_string(st.window_steps)},
         {"invocations", std::to_string(st.window_invocations)}});
    log_warn(rpc_.router().simulator().now(), "midas.receiver@" + config_.node_label,
             "governor: ", verb, " '", name, "' (", st.window_steps, " steps, ",
             st.window_invocations, " invocations this lease window)");
}

void AdaptationService::governor_window_reset(ExtensionId id) {
    auto gt = governor_.find(id);
    if (gt == governor_.end()) return;
    GovernorState& st = gt->second;
    if (st.mode == GovernorMode::kSuspended) {
        ++st.suspended_streak;
        if (config_.governor_quarantine_after > 0 &&
            st.suspended_streak >= config_.governor_quarantine_after &&
            pending_quarantine_.insert(id).second) {
            // An extension that stays pinned at the top of the ladder
            // window after window isn't having a bad moment — it is what
            // it is. Hand it to the quarantine path (deferred: the reset
            // runs inside do_install/do_keepalive, which still use the
            // entry afterwards).
            ++stats_.governor_quarantines;
            rpc_.router().simulator().schedule_after(Duration{0},
                                                     [this, id, alive = alive_]() {
                if (!*alive) return;
                pending_quarantine_.erase(id);
                quarantine(id);
            });
        }
    } else {
        st.suspended_streak = 0;
    }
    st.window_steps = 0;
    st.window_invocations = 0;
    st.throttle_counter = 0;
    st.mode = GovernorMode::kNormal;
}

AdaptationService::GovernorMode AdaptationService::governor_mode(ExtensionId id) const {
    auto gt = governor_.find(id);
    return gt == governor_.end() ? GovernorMode::kNormal : gt->second.mode;
}

void AdaptationService::quarantine(ExtensionId id) {
    auto it = installed_.find(id);
    if (it == installed_.end()) return;  // withdrawn in the meantime
    Installed info = it->second.info;
    quarantined_.insert({info.name, info.version});
    ++stats_.quarantined;
    obs::TraceBuffer::global().instant(
        "midas.receiver", "pkg.quarantine",
        {{"node", config_.node_label},
         {"pkg", info.name},
         {"version", std::to_string(info.version)}});
    log_warn(rpc_.router().simulator().now(), "midas.receiver@" + config_.node_label,
             "quarantining '", info.name, "' v", info.version,
             " after ", config_.quarantine_after, " consecutive advice failures");
    // Black box: freeze the flight recorder's tail — the events leading up
    // to this decision — and journal it with the quarantine record, so the
    // post-mortem survives a later crash-restart of this node.
    const obs::FlightRecorder::Dump& dump = obs::FlightRecorder::global().dump(
        config_.node_label, "quarantine:" + info.name, rpc_.router().simulator().now());
    flights_.push_back(
        ReceiverDurableState::FlightDump{dump.reason, dump.at, dump.events});
    while (flights_.size() > ReceiverDurableState::kMaxFlights) {
        flights_.erase(flights_.begin());
    }
    withdraw(id, prose::WithdrawReason::kQuarantined);
    journal(ReceiverDurableState::rec_quarantine(info.name, info.version));
    journal(ReceiverDurableState::rec_flight(dump.reason, dump.at, dump.events));
    emit("quarantine", info);
}

bool AdaptationService::unquarantine(const std::string& name, std::uint32_t version) {
    if (quarantined_.erase({name, version}) == 0) return false;
    ++stats_.unquarantined;
    obs::TraceBuffer::global().instant(
        "midas.receiver", "pkg.unquarantine",
        {{"node", config_.node_label},
         {"pkg", name},
         {"version", std::to_string(version)}});
    log_info(rpc_.router().simulator().now(), "midas.receiver@" + config_.node_label,
             "quarantine lifted for '", name, "' v", version);
    journal(ReceiverDurableState::rec_unquarantine(name, version));
    return true;
}

void AdaptationService::register_at(NodeId registrar) {
    Dict attrs{{"node", Value{config_.node_label}}};
    if (!config_.cell.empty()) attrs.set("cell", Value{config_.cell});
    // If the advertisement is lost (renewals eaten by a lossy radio) or the
    // registration attempt itself fails while the registrar is still
    // around, try again shortly — otherwise the node would silently stop
    // being adaptable until it left and re-entered the cell.
    auto retry_if_still_there = [this, registrar, alive = alive_]() {
        if (!*alive) return;
        advertisements_.erase(registrar);
        rpc_.router().simulator().schedule_after(milliseconds(500),
                                                 [this, registrar, alive]() {
            if (!*alive) return;
            if (advertisements_.contains(registrar)) return;  // re-registered already
            for (NodeId known : discovery_.registrars()) {
                if (known == registrar) {
                    register_at(registrar);
                    return;
                }
            }
        });
    };
    discovery_.register_service(
        registrar, "midas.adaptation", std::move(attrs),
        /*on_lost=*/retry_if_still_there,
        /*on_done=*/
        [this, registrar, retry_if_still_there](
            std::shared_ptr<disco::LeasedResource> handle, std::exception_ptr error) {
            if (!error && handle) {
                advertisements_[registrar] = std::move(handle);
            } else {
                retry_if_still_there();
            }
        });
}

void AdaptationService::allow_capabilities(const std::string& issuer,
                                           std::set<std::string> caps) {
    issuer_caps_[issuer] = std::move(caps);
}

void AdaptationService::add_host_builtin(const std::string& name,
                                         const std::string& capability,
                                         script::BuiltinRegistry::Fn fn) {
    host_builtins_.add(name, capability, std::move(fn));
}

void AdaptationService::build_service_object() {
    using rt::TypeKind;
    auto& runtime = rpc_.runtime();
    if (!runtime.find_type("AdaptationService")) {
        auto type =
            rt::TypeInfo::Builder("AdaptationService")
                .method("install", TypeKind::kDict,
                        {{"pkg", TypeKind::kBlob},
                         {"lease_ms", TypeKind::kInt},
                         {"epoch", TypeKind::kInt}},
                        [this](rt::ServiceObject&, List& args) -> Value {
                            return do_install(rpc_.current_caller(), args[0].as_blob(),
                                              args[1].as_int(),
                                              static_cast<std::uint64_t>(args[2].as_int()));
                        })
                .method("keepalive", TypeKind::kAny,
                        {{"ext", TypeKind::kInt},
                         {"lease_ms", TypeKind::kInt},
                         {"epoch", TypeKind::kInt}},
                        [this](rt::ServiceObject&, List& args) -> Value {
                            // The healthy reply stays a bare `true`; only a
                            // renewal with escalations to report carries
                            // their count.
                            std::optional<std::uint32_t> escalations = do_keepalive(
                                static_cast<std::uint64_t>(args[0].as_int()),
                                args[1].as_int(),
                                static_cast<std::uint64_t>(args[2].as_int()));
                            if (!escalations) return Value{false};
                            if (*escalations == 0) return Value{true};
                            return Value{static_cast<std::int64_t>(*escalations)};
                        })
                .method("revoke", TypeKind::kBool, {{"ext", TypeKind::kInt}},
                        [this](rt::ServiceObject&, List& args) -> Value {
                            return Value{
                                do_revoke(static_cast<std::uint64_t>(args[0].as_int()))};
                        })
                .method("list", TypeKind::kList, {},
                        [this](rt::ServiceObject&, List&) -> Value { return do_list(); })
                .method("unquarantine", TypeKind::kBool,
                        {{"name", TypeKind::kStr},
                         {"version", TypeKind::kInt},
                         {"epoch", TypeKind::kInt}},
                        [this](rt::ServiceObject&, List& args) -> Value {
                            // `epoch` rides for uniformity with the other
                            // base calls; the amnesty itself is idempotent.
                            return Value{unquarantine(
                                args[0].as_str(),
                                static_cast<std::uint32_t>(args[1].as_int()))};
                        })
                .build();
        runtime.register_type(type);
    }
    self_object_ = runtime.create("AdaptationService", "adaptation");
    rpc_.export_object("adaptation");
}

Duration AdaptationService::clamp(std::int64_t lease_ms) const {
    if (lease_ms <= 0) return kMaxExtensionLease;
    Duration want = milliseconds(lease_ms);
    return want > kMaxExtensionLease ? kMaxExtensionLease : want;
}

void AdaptationService::emit(const std::string& event, const Installed& entry) {
    if (event_fn_) event_fn_(event, entry);
}

rt::Value AdaptationService::do_install(NodeId base, const Bytes& sealed,
                                        std::int64_t lease_ms, std::uint64_t epoch) {
    SimTime now = rpc_.router().simulator().now();
    auto& trace = obs::TraceBuffer::global();
    ExtensionPackage pkg;
    crypto::Signature sig;
    std::uint64_t verify_span =
        trace.begin_span("midas.receiver", "pkg.verify", {{"node", config_.node_label}});
    try {
        std::tie(pkg, sig) = ExtensionPackage::open(std::span<const std::uint8_t>(sealed));
        // Trust first: nothing from an untrusted or tampered package is
        // even parsed as code.
        trust_.verify(std::span<const std::uint8_t>(pkg.signed_payload()), sig);
    } catch (const Error& e) {
        ++stats_.rejections;
        ++stats_.sig_rejections;
        trace.end_span(verify_span, {{"ok", "false"}});
        trace.instant("midas.receiver", "sig.reject",
                      {{"node", config_.node_label}, {"error", e.what()}});
        log_warn(now, "midas.receiver@" + config_.node_label, "rejected package: ", e.what());
        throw;
    } catch (const std::exception& e) {
        // A non-Error escape (hostile package tripping the allocator, a
        // host-side bug) must not leak the verify span half-open or skip
        // the rejection counters. Re-raise as Error so the rpc layer
        // replies instead of dropping the call.
        ++stats_.rejections;
        ++stats_.sig_rejections;
        trace.end_span(verify_span, {{"ok", "false"}});
        trace.instant("midas.receiver", "sig.reject",
                      {{"node", config_.node_label}, {"error", e.what()}});
        log_warn(now, "midas.receiver@" + config_.node_label, "rejected package: ", e.what());
        throw Error(e.what());
    }
    trace.end_span(verify_span, {{"ok", "true"}, {"pkg", pkg.name}, {"issuer", sig.issuer}});

    // Quarantined code stays out until a *newer* version arrives — checked
    // after the signature so a forged package can't probe the list, before
    // anything is compiled.
    if (quarantined_.contains({pkg.name, pkg.version})) {
        ++stats_.rejections;
        trace.instant("midas.receiver", "pkg.refuse_quarantined",
                      {{"node", config_.node_label},
                       {"pkg", pkg.name},
                       {"version", std::to_string(pkg.version)}});
        throw Error("extension '" + pkg.name + "' v" + std::to_string(pkg.version) + " " +
                    std::string(kQuarantineRefusal));
    }

    // Capability policy: every requested capability must be grantable for
    // this issuer.
    const auto caps_it = issuer_caps_.find(sig.issuer);
    for (const std::string& cap : pkg.capabilities) {
        if (caps_it == issuer_caps_.end() || !caps_it->second.contains(cap)) {
            ++stats_.rejections;
            throw TrustError("issuer '" + sig.issuer + "' may not grant capability '" +
                             cap + "' on this node");
        }
    }

    Duration lease = clamp(lease_ms);

    // Same name already installed?
    if (auto it = by_name_.find(pkg.name); it != by_name_.end()) {
        Entry& existing = installed_.at(it->second);
        if (pkg.version == existing.info.version) {
            // Idempotent re-install: refresh the lease only. The epoch
            // moves too — a restarted base that re-pushes the same
            // version has re-adopted the lease under its new life.
            ++stats_.refreshes;
            existing.info.base = base;
            if (epoch != 0) existing.info.base_epoch = epoch;
            arm_expiry(existing.info.id, lease);
            emit("refresh", existing.info);
            Dict out{{"ext", Value{static_cast<std::int64_t>(existing.info.id.value)}},
                     {"lease_ms", Value{lease.count() / 1'000'000}}};
            return Value{std::move(out)};
        }
        // A *different* version — newer or older — replaces (shutdown runs
        // first). The base is the policy authority: a push of an older
        // version is a deliberate rollback (a staged rollout re-installing
        // the incumbent), not a stale duplicate — duplicates carry the
        // version the node already runs and land in the refresh branch
        // above, and a flip lost to a race heals because the base's retry
        // loop keeps pushing its current choice until the node matches.
        ++stats_.replacements;
        withdraw(it->second, prose::WithdrawReason::kReplaced);
    }

    // Compile and weave. Compilation failures (bad script, missing bound
    // functions) propagate to the installing base.
    script::Sandbox sandbox;
    sandbox.capabilities.insert(pkg.capabilities.begin(), pkg.capabilities.end());
    if (config_.governor_advice_deadline.count() > 0 &&
        config_.governor_step_cost.count() > 0) {
        // Virtual-time watchdog, priced in steps: an advice entry may run
        // for at most deadline/step_cost interpreter steps before being
        // killed with DeadlineExceeded.
        sandbox.deadline_steps = static_cast<std::uint64_t>(
            config_.governor_advice_deadline.count() / config_.governor_step_cost.count());
        if (sandbox.deadline_steps == 0) sandbox.deadline_steps = 1;
    }

    // Per-extension builtins over a snapshot of the host's: owner.post
    // reaches back to whatever node installed this extension.
    script::BuiltinRegistry builtins(
        std::make_shared<const script::BuiltinRegistry>(host_builtins_));
    rt::RpcEndpoint* rpc = &rpc_;
    NodeId owner = base;

    // rpc.set_channel(key): the paper's application-blind encryption
    // extension — "encrypt every outgoing call from an application and
    // decrypt every incoming call". Installs keyed wire filters on this
    // node's rpc path; they are withdrawn with the extension. The toy
    // stream cipher (magic + repeating-key XOR) stands in for a real one;
    // what matters is the join point and the lifecycle.
    ExtensionId id = ids_.next();
    rt::HookOwner wire_owner = 0x8000000000000000ull | id.value;
    builtins.add("rpc.set_channel", "rpc", [rpc, wire_owner](List& args) -> Value {
        if (args.size() != 1 || !args[0].is_str()) {
            throw ScriptError("rpc.set_channel expects (key)");
        }
        try {
            key_channel(*rpc, wire_owner, args[0].as_str());
        } catch (const Error& e) {
            throw ScriptError(e.what());
        }
        return Value{};
    });
    builtins.add("owner.post", "net", [rpc, owner](List& args) -> Value {
        if (args.size() != 3 || !args[0].is_str() || !args[1].is_str() || !args[2].is_list()) {
            throw ScriptError("owner.post expects (object, method, args)");
        }
        rpc->call_async(owner, args[0].as_str(), args[1].as_str(), args[2].as_list(),
                        [](Value, std::exception_ptr) {});
        return Value{};
    });

    std::vector<prose::ScriptBinding> bindings;
    for (const PackageBinding& b : pkg.bindings) {
        prose::ScriptBinding sb{b.kind, b.pointcut, b.function, b.priority, {}};
        sb.parsed = pointcut_for(b.pointcut);
        bindings.push_back(std::move(sb));
    }

    AspectId aspect;
    try {
        // One parse + one bytecode compile per distinct script on this
        // node; re-installs and fleet-wide pushes of the same extension
        // hit the cache. The cached unit retains the Program, so the
        // static check below never re-parses either.
        std::shared_ptr<const script::CompiledUnit> unit = compiled_unit_for(pkg.script);
        // Scripts are input from outside: the static checker rejects
        // packages with diagnostics (undefined names, unknown builtins, bad
        // arity...) before anything is compiled or woven. It resolves
        // through the chain the engine will: the ctx.* join-point layer
        // over the per-extension, host and core builtins.
        auto diagnostics = script::check(*unit->program, *prose::extension_builtins(builtins));
        if (!diagnostics.empty()) {
            throw ScriptError("extension '" + pkg.name + "' rejected by static check: " +
                              script::format_diagnostics(diagnostics));
        }
        prose::ScriptAspect compiled(pkg.name, std::move(unit), std::move(bindings),
                                     std::move(sandbox), builtins, pkg.config);
        // One step observer, two consumers: this node's per-extension step
        // count is always fed (cost attribution is free — one add per
        // outermost advice return), and the governor's lease-window account
        // only when budgets are armed. The interpreter lives in the shared
        // aspect, which the receiver withdraws before dying, so `this` (and
        // the map node, never erased) outlives the observer.
        std::uint64_t* steps_total = &stats_.steps[pkg.name];
        compiled.engine().set_step_observer(
            [this, id, steps_total, governed = governor_enabled()](std::uint64_t steps) {
                *steps_total += steps;
                if (governed) governor_charge(id, steps);
            });
        compiled.aspect()->set_guard(guard_for(id));
        aspect = weaver_.weave(compiled.aspect());
    } catch (...) {
        // The top level may have installed wire filters before compilation
        // failed; do not leave them orphaned.
        rpc_.remove_wire_filters(wire_owner);
        ++stats_.rejections;
        throw;
    }

    Entry entry;
    entry.info = Installed{id, pkg.name, pkg.version, sig.issuer, base, aspect,
                           now + lease, epoch};
    entry.wire_owner = wire_owner;
    installed_.emplace(id, std::move(entry));
    by_name_[pkg.name] = id;
    if (governor_enabled()) governor_.emplace(id, GovernorState{});
    arm_expiry(id, lease);
    ++stats_.installs;
    stats_.extensions = static_cast<std::int64_t>(installed_.size());
    // The documented contract: a newer version arriving lifts quarantine
    // entries for *older* versions of the same name — the broken build is
    // superseded, so refusing it forever serves nothing and would block a
    // later rollback to it as a proven-good incumbent.
    for (auto qit = quarantined_.begin(); qit != quarantined_.end();) {
        if (qit->first == pkg.name && qit->second < pkg.version) {
            journal(ReceiverDurableState::rec_unquarantine(qit->first, qit->second));
            ++stats_.unquarantined;
            qit = quarantined_.erase(qit);
        } else {
            ++qit;
        }
    }
    journal(ReceiverDurableState::rec_install(pkg.name, pkg.version, sig.issuer));
    // Crash-point: the extension is woven and journaled, the reply not yet
    // on the air — the installing base will see a timeout for a success.
    sim::FailPoints::hit(config_.node_label, "install.applied");
    trace.instant("midas.receiver", "pkg.install",
                  {{"node", config_.node_label},
                   {"pkg", pkg.name},
                   {"version", std::to_string(pkg.version)},
                   {"issuer", sig.issuer}});
    emit("install", installed_.at(id).info);
    log_info(now, "midas.receiver@" + config_.node_label, "installed '", pkg.name, "' v",
             pkg.version, " from ", sig.issuer);

    Dict out{{"ext", Value{static_cast<std::int64_t>(id.value)}},
             {"lease_ms", Value{lease.count() / 1'000'000}}};
    return Value{std::move(out)};
}

std::shared_ptr<const script::CompiledUnit> AdaptationService::compiled_unit_for(
    const std::string& script) {
    // Keyed by content hash, not the (potentially large) source text; the
    // digest also names the unit in traces. A failed parse/compile throws
    // before insertion, so bad scripts are never cached.
    std::string key = crypto::to_hex(crypto::Sha256::hash(script));
    if (auto* cached = compile_cache_.get(key)) {
        ++stats_.compile_cache_hits;
        return *cached;
    }
    ++stats_.compile_cache_misses;
    auto unit = script::compile(
        std::make_shared<const script::Program>(script::parse(script)));
    stats_.cache_evictions += compile_cache_.put(std::move(key), unit);
    return unit;
}

prose::Pointcut AdaptationService::pointcut_for(const std::string& source) {
    if (auto* cached = pointcut_cache_.get(source)) {
        ++stats_.pointcut_cache_hits;
        return *cached;
    }
    prose::Pointcut pc = prose::Pointcut::parse(source);
    stats_.cache_evictions += pointcut_cache_.put(source, pc);
    return pc;
}

void AdaptationService::arm_expiry(ExtensionId id, Duration lease) {
    auto& entry = installed_.at(id);
    // Every lease renewal opens a fresh governor window (and settles the
    // old one — a window that ended suspended feeds the quarantine streak).
    governor_window_reset(id);
    rpc_.router().simulator().cancel(entry.expiry_timer);
    entry.info.expires = rpc_.router().simulator().now() + lease;
    entry.expiry_timer = rpc_.router().simulator().schedule_after(lease, [this, id]() {
        auto it = installed_.find(id);
        if (it == installed_.end()) return;
        ++stats_.expirations;
        Installed info = it->second.info;
        obs::TraceBuffer::global().instant(
            "midas.receiver", "lease.expire",
            {{"node", config_.node_label}, {"pkg", info.name}});
        log_info(rpc_.router().simulator().now(), "midas.receiver@" + config_.node_label,
                 "lease expired, withdrawing '", info.name, "'");
        withdraw(id, prose::WithdrawReason::kLeaseExpired);
        emit("expire", info);
    });
}

std::optional<std::uint32_t> AdaptationService::do_keepalive(std::uint64_t ext,
                                                             std::int64_t lease_ms,
                                                             std::uint64_t epoch) {
    ExtensionId id{ext};
    auto it = installed_.find(id);
    if (it == installed_.end()) return std::nullopt;
    if (epoch != 0 && it->second.info.base_epoch != 0 &&
        epoch != it->second.info.base_epoch) {
        // The base restarted since it leased this extension: the ext id it
        // recovered belongs to its previous life. Withdraw the stale lease
        // (shutdown advice runs first) and answer false — the recovered
        // base drops the id and re-installs through its normal retry path,
        // so the extension comes back exactly once.
        Installed info = it->second.info;
        obs::TraceBuffer::global().instant(
            "midas.receiver", "lease.stale_epoch",
            {{"node", config_.node_label},
             {"pkg", info.name},
             {"leased_epoch", std::to_string(info.base_epoch)},
             {"seen_epoch", std::to_string(epoch)}});
        log_info(rpc_.router().simulator().now(), "midas.receiver@" + config_.node_label,
                 "base epoch moved ", info.base_epoch, " -> ", epoch,
                 "; withdrawing stale '", info.name, "'");
        withdraw(id, prose::WithdrawReason::kBaseRestarted);
        return std::nullopt;
    }
    ++stats_.renewals;
    obs::TraceBuffer::global().instant(
        "midas.receiver", "lease.renew",
        {{"node", config_.node_label}, {"pkg", it->second.info.name}});
    arm_expiry(id, clamp(lease_ms));
    auto gt = governor_.find(id);
    return gt == governor_.end() ? 0u : std::exchange(gt->second.unreported, 0u);
}

bool AdaptationService::do_revoke(std::uint64_t ext) {
    ExtensionId id{ext};
    auto it = installed_.find(id);
    if (it == installed_.end()) return false;
    ++stats_.revocations;
    Installed info = it->second.info;
    withdraw(id, prose::WithdrawReason::kExplicit);
    emit("revoke", info);
    return true;
}

rt::Value AdaptationService::do_list() const {
    List out;
    for (const auto& [id, entry] : installed_) {
        Dict d{{"ext", Value{static_cast<std::int64_t>(id.value)}},
               {"name", Value{entry.info.name}},
               {"version", Value{static_cast<std::int64_t>(entry.info.version)}},
               {"issuer", Value{entry.info.issuer}}};
        out.push_back(Value{std::move(d)});
    }
    return Value{std::move(out)};
}

void AdaptationService::withdraw(ExtensionId id, prose::WithdrawReason reason) {
    auto it = installed_.find(id);
    if (it == installed_.end()) return;
    rpc_.router().simulator().cancel(it->second.expiry_timer);
    weaver_.withdraw(it->second.info.aspect, reason);
    if (it->second.wire_owner != 0) {
        rpc_.remove_wire_filters(it->second.wire_owner);
    }
    std::string name = it->second.info.name;
    by_name_.erase(name);
    installed_.erase(it);
    advice_failures_.erase(id);
    governor_.erase(id);
    stats_.extensions = static_cast<std::int64_t>(installed_.size());
    // After the erase: a compaction inside journal() snapshots the live
    // manifest, which must no longer list this extension.
    journal(ReceiverDurableState::rec_withdraw(name));
}

void AdaptationService::withdraw_all(prose::WithdrawReason reason) {
    while (!installed_.empty()) {
        withdraw(installed_.begin()->first, reason);
    }
}

std::vector<AdaptationService::Installed> AdaptationService::installed() const {
    std::vector<Installed> out;
    out.reserve(installed_.size());
    for (const auto& [_, entry] : installed_) out.push_back(entry.info);
    return out;
}

}  // namespace pmp::midas
