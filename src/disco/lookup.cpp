#include "disco/lookup.h"

#include "common/hash.h"
#include "common/log.h"

namespace pmp::disco {

using rt::Dict;
using rt::List;
using rt::Value;

namespace {
constexpr Duration kRegistrarTimeout = seconds(3);  ///< silence before "lost"
/// Lease requested for registrations and watches, in milliseconds.
constexpr std::int64_t kLeaseMs = 2'000;
}  // namespace

// ------------------------------------------------------ LeasedResource ----

LeasedResource::LeasedResource(rt::RpcEndpoint& rpc, NodeId registrar, LeaseId lease,
                               Duration duration, LostFn on_lost)
    : rpc_(rpc),
      registrar_(registrar),
      lease_(lease),
      duration_(duration),
      on_lost_(std::move(on_lost)) {
    expires_ = rpc_.router().simulator().now() + duration_;
    schedule_renewal(renewal_phase());
}

Duration lease_renewal_phase(NodeId registrar, LeaseId lease, Duration duration) {
    // Renew at half the lease, but with a deterministic per-lease phase
    // offset: without it every lease granted in the same instant (a cell
    // booting, a batch of extensions installing) renews in the same
    // instant forever, and the registrar sees a thundering herd each
    // period. The offset stays within duration/8 so the worst case still
    // lands inside the lease: first renew at 5/8·d, the slowest failure
    // (a lost message, detected by the d/4 call timeout) at 7/8·d, and
    // the first retry d/16 later at 15/16·d — leaving d/16 for its reply.
    std::uint64_t h =
        fnv1a64_mix(fnv1a64_mix(fnv1a64("lease-jitter"), registrar.value), lease.value);
    std::int64_t span = duration.count() / 8;
    std::int64_t offset = span > 0 ? static_cast<std::int64_t>(
                                         h % static_cast<std::uint64_t>(2 * span + 1)) -
                                         span
                                   : 0;
    return duration / 2 + Duration(offset);
}

Duration LeasedResource::renewal_phase() const {
    return lease_renewal_phase(registrar_, lease_, duration_);
}

LeasedResource::~LeasedResource() {
    if (alive_) cancel();
}

void LeasedResource::cancel() {
    if (!alive_) return;
    alive_ = false;
    rpc_.router().simulator().cancel(timer_);
    rpc_.call_async(registrar_, "registrar", "cancel",
                    {Value{static_cast<std::int64_t>(lease_.value)}},
                    [](Value, std::exception_ptr) {});
}

void LeasedResource::schedule_renewal(Duration delay) {
    timer_ = rpc_.router().simulator().schedule_after(delay, [this]() { renew(); });
}

void LeasedResource::renew() {
    if (!alive_) return;
    std::int64_t want_ms = duration_.count() / 1'000'000;
    rpc_.call_async(
        registrar_, "registrar", "renew",
        {Value{static_cast<std::int64_t>(lease_.value)}, Value{want_ms}},
        [this, guard = std::weak_ptr<char>(token_)](Value result,
                                                    std::exception_ptr error) {
            // The holder may drop the handle while the renew call is in
            // flight; the token expiring means `this` is gone.
            if (guard.expired() || !alive_) return;
            bool ok = !error && result.as_dict().at("ok").as_bool();
            if (ok) {
                expires_ = rpc_.router().simulator().now() + duration_;
                schedule_renewal(renewal_phase());
            } else if (error) {
                // Transport failure — lost message, timeout, a partition
                // blocking the path. The lease may still have most of its
                // life left (an unreachable verdict comes back instantly),
                // so giving up after a fixed retry count would tear down
                // an adaptation over a blip shorter than the lease itself.
                // Instead, retry on a short cadence until the budget the
                // registrar granted is actually gone. The delay must stay
                // well under the lease: a *timed-out* renew has already
                // burned d/4 on the call timeout, and a positive-jitter
                // lease (first renew at 5/8·d) then has only d/8 of slack
                // — d/16 leaves the final retry's reply a d/16 margin.
                Duration delay = duration_ / 16;
                if (rpc_.router().simulator().now() + delay < expires_) {
                    timer_ = rpc_.router().simulator().schedule_after(
                        delay, [this]() { renew(); });
                } else {
                    mark_lost();
                }
            } else {
                // The registrar answered and refused: it no longer knows
                // the lease (expired and swept, or the registrar
                // restarted). Retrying cannot revive it — report the loss
                // so the holder re-registers.
                mark_lost();
            }
        },
        /*timeout=*/duration_ / 4);
}

void LeasedResource::mark_lost() {
    if (!alive_) return;
    alive_ = false;
    rpc_.router().simulator().cancel(timer_);
    // The callback typically drops the last handle to this resource (e.g.
    // erasing it from an advertisement map), so it must run off a local:
    // invoking the member directly would destroy the executing closure.
    LostFn fn = std::move(on_lost_);
    if (fn) fn();
}

// ----------------------------------------------------- DiscoveryClient ----

DiscoveryClient::DiscoveryClient(net::MessageRouter& router, rt::RpcEndpoint& rpc,
                                 DiscoveryConfig config)
    : router_(router), rpc_(rpc), config_(config) {
    router_.route("disco.here", [this](const net::Message& msg) { note_registrar(msg.from); });
    probe_timer_ =
        router_.simulator().schedule_every(config_.probe_period, [this]() { probe(); });
    timeout_timer_ = router_.simulator().schedule_every(config_.probe_period,
                                                        [this]() { check_timeouts(); });
    probe();
}

DiscoveryClient::~DiscoveryClient() {
    router_.simulator().cancel(probe_timer_);
    router_.simulator().cancel(timeout_timer_);
    router_.unroute("disco.here");
}

void DiscoveryClient::probe() { router_.broadcast("disco.probe", {}); }

void DiscoveryClient::note_registrar(NodeId node) {
    bool fresh = !last_seen_.contains(node);
    last_seen_[node] = router_.simulator().now();
    if (fresh) {
        log_debug(router_.simulator().now(), "disco.lookup",
                  router_.network().name_of(router_.self()), " found registrar on ",
                  router_.network().name_of(node));
        auto watchers = registrar_watchers_;
        for (auto& [_, fn] : watchers) fn(node, true);
    }
}

void DiscoveryClient::check_timeouts() {
    SimTime now = router_.simulator().now();
    std::vector<NodeId> lost;
    for (const auto& [node, seen] : last_seen_) {
        if (now - seen > kRegistrarTimeout) lost.push_back(node);
    }
    for (NodeId node : lost) {
        last_seen_.erase(node);
        log_debug(now, "disco.lookup", router_.network().name_of(router_.self()),
                  " lost registrar on ", router_.network().name_of(node));
        auto watchers = registrar_watchers_;
        for (auto& [_, fn] : watchers) fn(node, false);
    }
}

std::vector<NodeId> DiscoveryClient::registrars() const {
    std::vector<NodeId> out;
    out.reserve(last_seen_.size());
    for (const auto& [node, _] : last_seen_) out.push_back(node);
    return out;
}

std::uint64_t DiscoveryClient::on_registrar(RegistrarFn fn) {
    std::uint64_t token = ++next_token_;
    // Catch up on registrars already known.
    for (const auto& [node, _] : last_seen_) fn(node, true);
    registrar_watchers_.emplace(token, std::move(fn));
    return token;
}

void DiscoveryClient::off_registrar(std::uint64_t token) { registrar_watchers_.erase(token); }

void DiscoveryClient::register_service(NodeId registrar, const std::string& type,
                                       Dict attributes, LeasedResource::LostFn on_lost,
                                       RegisterDone on_done) {
    rpc_.call_async(
        registrar, "registrar", "register",
        {Value{type}, Value{std::move(attributes)}, Value{kLeaseMs}},
        [this, registrar, on_lost = std::move(on_lost),
         on_done = std::move(on_done)](Value result, std::exception_ptr error) {
            if (error) {
                on_done(nullptr, error);
                return;
            }
            const Dict& grant = result.as_dict();
            LeaseId lease{static_cast<std::uint64_t>(grant.at("lease").as_int())};
            Duration granted = milliseconds(grant.at("duration_ms").as_int());
            auto handle = std::shared_ptr<LeasedResource>(
                new LeasedResource(rpc_, registrar, lease, granted, std::move(on_lost)));
            on_done(std::move(handle), nullptr);
        });
}

void DiscoveryClient::lookup(NodeId registrar, const std::string& type, LookupDone on_done) {
    rpc_.call_async(registrar, "registrar", "lookup", {Value{type}},
                    [on_done = std::move(on_done)](Value result, std::exception_ptr error) {
                        if (error) {
                            on_done({}, error);
                            return;
                        }
                        std::vector<ServiceItem> items;
                        for (const Value& v : result.as_list()) {
                            items.push_back(ServiceItem::from_value(v));
                        }
                        on_done(std::move(items), nullptr);
                    });
}

std::string DiscoveryClient::make_listener(EventFn on_event) {
    auto& runtime = rpc_.runtime();
    if (!runtime.find_type("EventListener")) {
        auto type = rt::TypeInfo::Builder("EventListener")
                        .method("notify", rt::TypeKind::kVoid,
                                {{"event", rt::TypeKind::kDict}},
                                [](rt::ServiceObject& self, List& args) -> Value {
                                    auto& fn = self.state<EventFn>();
                                    const Dict& event = args[0].as_dict();
                                    fn(ServiceItem::from_value(event.at("item")),
                                       event.at("appeared").as_bool());
                                    return Value{};
                                })
                        .build();
        runtime.register_type(type);
    }
    std::string name = "disco.listener:" + std::to_string(++next_listener_);
    auto listener = runtime.create("EventListener", name);
    listener->emplace_state<EventFn>(std::move(on_event));
    rpc_.export_object(name);
    return name;
}

void DiscoveryClient::watch(NodeId registrar, const std::string& type, EventFn on_event,
                            LeasedResource::LostFn on_lost, RegisterDone on_done) {
    std::string listener = make_listener(std::move(on_event));
    rpc_.call_async(
        registrar, "registrar", "watch", {Value{type}, Value{listener}, Value{kLeaseMs}},
        [this, registrar, on_lost = std::move(on_lost),
         on_done = std::move(on_done)](Value result, std::exception_ptr error) {
            if (error) {
                on_done(nullptr, error);
                return;
            }
            const Dict& grant = result.as_dict();
            LeaseId lease{static_cast<std::uint64_t>(grant.at("lease").as_int())};
            Duration granted = milliseconds(grant.at("duration_ms").as_int());
            auto handle = std::shared_ptr<LeasedResource>(
                new LeasedResource(rpc_, registrar, lease, granted, std::move(on_lost)));
            on_done(std::move(handle), nullptr);
        });
}

}  // namespace pmp::disco
