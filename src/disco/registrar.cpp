#include "disco/registrar.h"

#include "common/error.h"
#include "common/log.h"

namespace pmp::disco {

using rt::Dict;
using rt::List;
using rt::Value;

namespace {
constexpr Duration kSweepPeriod = milliseconds(250);  ///< expiry scan granularity
constexpr Duration kAnnouncePeriod = seconds(1);      ///< "disco.here" beacon period
}  // namespace

rt::Value ServiceItem::to_value() const {
    Dict d{{"service", Value{static_cast<std::int64_t>(id.value)}},
           {"provider", Value{static_cast<std::int64_t>(provider.value)}},
           {"type", Value{type}},
           {"attrs", Value{attributes}}};
    return Value{std::move(d)};
}

ServiceItem ServiceItem::from_value(const rt::Value& v) {
    const Dict& d = v.as_dict();
    ServiceItem item;
    item.id = ServiceId{static_cast<std::uint64_t>(d.at("service").as_int())};
    item.provider = NodeId{static_cast<std::uint64_t>(d.at("provider").as_int())};
    item.type = d.at("type").as_str();
    item.attributes = d.at("attrs").as_dict();
    return item;
}

Registrar::Registrar(net::MessageRouter& router, rt::RpcEndpoint& rpc, RegistrarConfig config)
    : router_(router), rpc_(rpc), config_(config) {
    build_service_object();

    // Discovery: answer probes and beacon periodically so roaming nodes
    // notice the registrar quickly after entering range.
    router_.route("disco.probe", [this](const net::Message& msg) {
        router_.send(msg.from, "disco.here", {});
    });
    announce_timer_ =
        router_.simulator().schedule_every(kAnnouncePeriod, [this]() { announce(); });
    sweep_timer_ =
        router_.simulator().schedule_every(kSweepPeriod, [this]() { sweep(); });
}

Registrar::~Registrar() {
    router_.simulator().cancel(announce_timer_);
    router_.simulator().cancel(sweep_timer_);
    router_.unroute("disco.probe");
}

void Registrar::announce() { router_.broadcast("disco.here", {}); }

Duration Registrar::clamp(std::int64_t duration_ms) const {
    if (duration_ms <= 0) return config_.max_lease;
    Duration want = milliseconds(duration_ms);
    return want > config_.max_lease ? config_.max_lease : want;
}

void Registrar::build_service_object() {
    using rt::TypeKind;
    auto& runtime = rpc_.runtime();
    if (!runtime.find_type("Registrar")) {
        auto type =
            rt::TypeInfo::Builder("Registrar")
                .method("register", TypeKind::kDict,
                        {{"type", TypeKind::kStr},
                         {"attrs", TypeKind::kDict},
                         {"duration_ms", TypeKind::kInt}},
                        [this](rt::ServiceObject&, List& args) -> Value {
                            return do_register(rpc_.current_caller(), args[0].as_str(),
                                               args[1].as_dict(), args[2].as_int());
                        })
                .method("renew", TypeKind::kDict,
                        {{"lease", TypeKind::kInt}, {"duration_ms", TypeKind::kInt}},
                        [this](rt::ServiceObject&, List& args) -> Value {
                            return do_renew(static_cast<std::uint64_t>(args[0].as_int()),
                                            args[1].as_int());
                        })
                .method("cancel", TypeKind::kBool, {{"lease", TypeKind::kInt}},
                        [this](rt::ServiceObject&, List& args) -> Value {
                            return Value{do_cancel(static_cast<std::uint64_t>(args[0].as_int()))};
                        })
                .method("lookup", TypeKind::kList, {{"type", TypeKind::kStr}},
                        [this](rt::ServiceObject&, List& args) -> Value {
                            return do_lookup(args[0].as_str());
                        })
                .method("watch", TypeKind::kDict,
                        {{"type", TypeKind::kStr},
                         {"listener", TypeKind::kStr},
                         {"duration_ms", TypeKind::kInt}},
                        [this](rt::ServiceObject&, List& args) -> Value {
                            return do_watch(rpc_.current_caller(), args[0].as_str(),
                                            args[1].as_str(), args[2].as_int());
                        })
                .build();
        runtime.register_type(type);
    }
    self_object_ = runtime.create("Registrar", "registrar");
    rpc_.export_object("registrar");
}

Value Registrar::do_register(NodeId provider, const std::string& type, Dict attrs,
                             std::int64_t duration_ms) {
    if (!provider.valid()) {
        // Local registration (same node as the registrar, no RPC hop).
        provider = router_.self();
    }
    Duration granted = clamp(duration_ms);
    Registration reg;
    reg.item = ServiceItem{service_ids_.next(), provider, type, std::move(attrs)};
    reg.lease = lease_ids_.next();
    reg.expires = router_.simulator().now() + granted;
    ServiceId sid = reg.item.id;
    LeaseId lease = reg.lease;
    ServiceItem item = reg.item;
    index_add(reg);
    services_.emplace(sid, std::move(reg));
    service_by_lease_.emplace(lease, sid);

    log_debug(router_.simulator().now(), "disco.registrar",
              "registered ", type, " from node ", provider.str());
    notify_watchers(item, true);

    Dict out{{"service", Value{static_cast<std::int64_t>(sid.value)}},
             {"lease", Value{static_cast<std::int64_t>(lease.value)}},
             {"duration_ms", Value{static_cast<std::int64_t>(
                                 granted.count() / 1'000'000)}}};
    return Value{std::move(out)};
}

Value Registrar::do_renew(std::uint64_t lease, std::int64_t duration_ms) {
    Duration granted = clamp(duration_ms);
    LeaseId lid{lease};
    if (auto it = service_by_lease_.find(lid); it != service_by_lease_.end()) {
        services_.at(it->second).expires = router_.simulator().now() + granted;
    } else if (auto wit = remote_watches_.find(lid); wit != remote_watches_.end()) {
        wit->second.expires = router_.simulator().now() + granted;
    } else {
        Dict out{{"ok", Value{false}}, {"duration_ms", Value{std::int64_t{0}}}};
        return Value{std::move(out)};
    }
    Dict out{{"ok", Value{true}},
             {"duration_ms",
              Value{static_cast<std::int64_t>(granted.count() / 1'000'000)}}};
    return Value{std::move(out)};
}

bool Registrar::do_cancel(std::uint64_t lease) {
    LeaseId lid{lease};
    if (auto it = service_by_lease_.find(lid); it != service_by_lease_.end()) {
        auto sit = services_.find(it->second);
        service_by_lease_.erase(it);
        if (sit != services_.end()) remove_registration(sit, /*notify=*/true);
        return true;
    }
    return remote_watches_.erase(lid) > 0;
}

Value Registrar::do_lookup(const std::string& type) const {
    List out;
    for_each(type, [&out](const ServiceItem& item) { out.push_back(item.to_value()); });
    return Value{std::move(out)};
}

void Registrar::for_each(const std::string& type,
                         const std::function<void(const ServiceItem&)>& fn) const {
    auto tit = by_type_.find(type);
    if (tit == by_type_.end()) return;
    for (ServiceId sid : tit->second) {
        auto sit = services_.find(sid);
        if (sit != services_.end()) fn(sit->second.item);
    }
}

void Registrar::index_add(const Registration& reg) {
    by_type_[reg.item.type].insert(reg.item.id);
}

void Registrar::index_remove(const Registration& reg) {
    auto tit = by_type_.find(reg.item.type);
    if (tit == by_type_.end()) return;
    tit->second.erase(reg.item.id);
    if (tit->second.empty()) by_type_.erase(tit);
}

Value Registrar::do_watch(NodeId watcher, const std::string& type,
                          const std::string& listener, std::int64_t duration_ms) {
    if (!watcher.valid()) watcher = router_.self();
    Duration granted = clamp(duration_ms);
    RemoteWatch watch{type, watcher, listener, lease_ids_.next(),
                      router_.simulator().now() + granted};
    LeaseId lease = watch.lease;
    remote_watches_.emplace(lease, std::move(watch));

    // Jini semantics: a new watcher immediately learns about services that
    // are already present, delivered asynchronously as events.
    for_each(type, [&](const ServiceItem& item) {
        Dict event{{"type", Value{type}}, {"appeared", Value{true}}, {"item", item.to_value()}};
        rpc_.call_async(watcher, listener, "notify", {Value{std::move(event)}},
                        [](Value, std::exception_ptr) {});
    });

    Dict out{{"lease", Value{static_cast<std::int64_t>(lease.value)}},
             {"duration_ms",
              Value{static_cast<std::int64_t>(granted.count() / 1'000'000)}}};
    return Value{std::move(out)};
}

ServiceId Registrar::register_permanent(const std::string& type, rt::Dict attributes) {
    Registration reg;
    reg.item = ServiceItem{service_ids_.next(), router_.self(), type, std::move(attributes)};
    reg.lease = lease_ids_.next();
    reg.expires = SimTime::max();
    ServiceId sid = reg.item.id;
    ServiceItem item = reg.item;
    service_by_lease_.emplace(reg.lease, sid);
    index_add(reg);
    services_.emplace(sid, std::move(reg));
    notify_watchers(item, true);
    return sid;
}

std::vector<ServiceItem> Registrar::lookup(const std::string& type) const {
    std::vector<ServiceItem> out;
    for_each(type, [&out](const ServiceItem& item) { out.push_back(item); });
    return out;
}

std::uint64_t Registrar::watch_local(const std::string& type, WatchFn fn) {
    std::uint64_t token = ++next_local_watch_;
    local_watches_.emplace(token, LocalWatch{type, std::move(fn)});
    // Catch up on already-present services, mirroring remote watch
    // semantics (but synchronously; the caller is local).
    for_each(type, [&](const ServiceItem& item) { local_watches_.at(token).fn(item, true); });
    return token;
}

void Registrar::unwatch_local(std::uint64_t token) { local_watches_.erase(token); }

void Registrar::notify_watchers(const ServiceItem& item, bool appeared) {
    for (const auto& [_, watch] : local_watches_) {
        if (watch.type == item.type) watch.fn(item, appeared);
    }
    for (const auto& [_, watch] : remote_watches_) {
        if (watch.type != item.type) continue;
        Dict event{{"type", Value{item.type}},
                   {"appeared", Value{appeared}},
                   {"item", item.to_value()}};
        rpc_.call_async(watch.watcher, watch.listener, "notify", {Value{std::move(event)}},
                        [](Value, std::exception_ptr) {});
    }
}

void Registrar::remove_registration(std::map<ServiceId, Registration>::iterator it,
                                    bool notify) {
    ServiceItem item = it->second.item;
    service_by_lease_.erase(it->second.lease);
    index_remove(it->second);
    services_.erase(it);
    if (notify) notify_watchers(item, false);
}

void Registrar::sweep() {
    SimTime now = router_.simulator().now();
    for (auto it = services_.begin(); it != services_.end();) {
        if (it->second.expires <= now) {
            log_debug(now, "disco.registrar", "lease expired for ", it->second.item.type,
                      " from node ", it->second.item.provider.str());
            auto doomed = it++;
            remove_registration(doomed, /*notify=*/true);
        } else {
            ++it;
        }
    }
    std::erase_if(remote_watches_,
                  [now](const auto& entry) { return entry.second.expires <= now; });
}

}  // namespace pmp::disco
