// Lookup service (the Jini registrar analog, paper §3.3 "service detection
// and brokerage").
//
// A Registrar runs on some node — typically the base station of a
// production hall — and brokers services for everything in radio range:
//
//   * services register under a type string with attributes, and receive a
//     *lease*: if the lease is not renewed, the registration evaporates.
//     Leasing is what gives MIDAS its locality in time and space.
//   * clients look up services by type.
//   * clients can *watch* a type: the registrar calls back (a remote event)
//     whenever a matching service appears or disappears. Watches are leased
//     too.
//
// The registrar is itself an ordinary ServiceObject named "registrar",
// invoked over RPC — so the middleware's own machinery can be adapted by
// aspects like any application service. Methods:
//
//   register(type str, attrs dict, duration_ms int) -> {service, lease, duration_ms}
//   renew(lease int, duration_ms int)               -> {ok, duration_ms}
//   cancel(lease int)                               -> bool
//   lookup(type str)                                -> [ {service, provider, type, attrs} ]
//   watch(type str, listener str, duration_ms int)  -> {lease}
//
// Watch events arrive as RPC calls notify(event dict) on the listener
// object exported by the watcher, with event = {type, appeared, item}.
#pragma once

#include <functional>
#include <map>
#include <set>

#include "rt/rpc.h"

namespace pmp::disco {

/// One registered service as seen in lookup results.
struct ServiceItem {
    ServiceId id;
    NodeId provider;
    std::string type;
    rt::Dict attributes;

    rt::Value to_value() const;
    static ServiceItem from_value(const rt::Value& v);
};

struct RegistrarConfig {
    Duration max_lease = seconds(10);      ///< grants are clamped to this
};

class Registrar {
public:
    /// Attaches to the node's router/RPC and starts announcing.
    Registrar(net::MessageRouter& router, rt::RpcEndpoint& rpc, RegistrarConfig config = {});
    ~Registrar();

    Registrar(const Registrar&) = delete;
    Registrar& operator=(const Registrar&) = delete;

    /// Local (same-node) lookup.
    std::vector<ServiceItem> lookup(const std::string& type) const;

    /// Allocation-free local iteration over one type's registrations (the
    /// extension base's per-tick orphan scan runs here; at fleet scale the
    /// vector-returning lookup() costs O(cell) allocations per tick).
    void for_each(const std::string& type,
                  const std::function<void(const ServiceItem&)>& fn) const;

    /// Register a service co-located with the registrar, without a lease:
    /// host and registrar share fate, so renewal would be a formality.
    /// Used for infrastructure services (e.g. a tuple-space host on the
    /// base station).
    ServiceId register_permanent(const std::string& type, rt::Dict attributes);

    /// Local watch; fires on appearance (appeared=true) and on cancellation
    /// or lease expiry (appeared=false). Returns a token for unwatch.
    using WatchFn = std::function<void(const ServiceItem&, bool appeared)>;
    std::uint64_t watch_local(const std::string& type, WatchFn fn);
    void unwatch_local(std::uint64_t token);

    std::size_t registration_count() const { return services_.size(); }

private:
    struct Registration {
        ServiceItem item;
        LeaseId lease;
        SimTime expires;
    };
    struct RemoteWatch {
        std::string type;
        NodeId watcher;
        std::string listener;  // instance name on the watcher node
        LeaseId lease;
        SimTime expires;
    };
    struct LocalWatch {
        std::string type;
        WatchFn fn;
    };

    void build_service_object();
    Duration clamp(std::int64_t duration_ms) const;
    void sweep();
    void announce();
    void notify_watchers(const ServiceItem& item, bool appeared);
    void remove_registration(std::map<ServiceId, Registration>::iterator it, bool notify);
    void index_add(const Registration& reg);
    void index_remove(const Registration& reg);

    rt::Value do_register(NodeId provider, const std::string& type, rt::Dict attrs,
                          std::int64_t duration_ms);
    rt::Value do_renew(std::uint64_t lease, std::int64_t duration_ms);
    bool do_cancel(std::uint64_t lease);
    rt::Value do_lookup(const std::string& type) const;
    rt::Value do_watch(NodeId watcher, const std::string& type, const std::string& listener,
                       std::int64_t duration_ms);

    net::MessageRouter& router_;
    rt::RpcEndpoint& rpc_;
    RegistrarConfig config_;

    IdGenerator<ServiceId> service_ids_;
    IdGenerator<LeaseId> lease_ids_;
    std::map<ServiceId, Registration> services_;
    std::map<LeaseId, ServiceId> service_by_lease_;
    /// Type -> registrations of that type: lookups and the per-tick
    /// for_each scan cost O(matching), not O(all registrations).
    std::map<std::string, std::set<ServiceId>> by_type_;
    std::map<LeaseId, RemoteWatch> remote_watches_;
    std::map<std::uint64_t, LocalWatch> local_watches_;
    std::uint64_t next_local_watch_ = 0;

    sim::TimerId sweep_timer_;
    sim::TimerId announce_timer_;
    std::shared_ptr<rt::ServiceObject> self_object_;
};

}  // namespace pmp::disco
