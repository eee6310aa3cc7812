// Client side of the lookup service: discovery, leased registrations,
// leased remote watches.
//
// Every node that participates in a proactive environment runs a
// DiscoveryClient. It notices registrars coming into and out of radio range
// (probe/beacon), keeps service registrations alive by renewing their
// leases, and maintains watches whose events arrive as remote calls on a
// locally exported listener object. When renewal stops succeeding — the
// node left the space, or the base died — the holder is told the lease was
// lost; that signal is what MIDAS turns into autonomous extension
// withdrawal.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "disco/registrar.h"

namespace pmp::disco {

struct DiscoveryConfig {
    Duration probe_period = milliseconds(500);
};

/// Deterministic renewal phase for a lease of `duration` held at
/// `registrar`: half the lease plus a per-lease offset within ±duration/8,
/// derived by hashing (registrar, lease). Leases granted in the same
/// instant therefore renew spread across a quarter-lease band instead of
/// as a thundering herd, and the spread is stable under replay — same
/// seed, same schedule.
Duration lease_renewal_phase(NodeId registrar, LeaseId lease, Duration duration);

/// A leased resource held at a remote registrar, kept alive by renewal.
/// Destroy the handle (or call cancel()) to give the lease up cleanly.
class LeasedResource {
public:
    using LostFn = std::function<void()>;

    ~LeasedResource();
    LeasedResource(const LeasedResource&) = delete;
    LeasedResource& operator=(const LeasedResource&) = delete;

    bool alive() const { return alive_; }
    NodeId registrar() const { return registrar_; }
    LeaseId lease() const { return lease_; }

    /// Cancel at the registrar and stop renewing.
    void cancel();

private:
    friend class DiscoveryClient;
    LeasedResource(rt::RpcEndpoint& rpc, NodeId registrar, LeaseId lease, Duration duration,
                   LostFn on_lost);

    void schedule_renewal(Duration delay);
    Duration renewal_phase() const;
    void renew();
    void mark_lost();

    rt::RpcEndpoint& rpc_;
    const NodeId registrar_;
    const LeaseId lease_;
    Duration duration_;
    SimTime expires_{};  ///< client-side estimate of the registrar's deadline
    LostFn on_lost_;
    sim::TimerId timer_;
    bool alive_ = true;
    // Liveness token for in-flight renew replies: a reply can arrive after
    // the holder dropped the handle, so the callback captures a weak_ptr to
    // this instead of a raw `this`.
    std::shared_ptr<char> token_ = std::make_shared<char>('\0');
};

class DiscoveryClient {
public:
    DiscoveryClient(net::MessageRouter& router, rt::RpcEndpoint& rpc,
                    DiscoveryConfig config = {});
    ~DiscoveryClient();

    DiscoveryClient(const DiscoveryClient&) = delete;
    DiscoveryClient& operator=(const DiscoveryClient&) = delete;

    /// Registrars currently believed reachable.
    std::vector<NodeId> registrars() const;

    /// Subscribe to registrar appearance/loss. Returns a token.
    using RegistrarFn = std::function<void(NodeId registrar, bool reachable)>;
    std::uint64_t on_registrar(RegistrarFn fn);
    void off_registrar(std::uint64_t token);

    /// Register a service at `registrar` with automatic lease renewal.
    /// `on_done(handle, error)`: on success `handle` is live; on failure it
    /// is nullptr and `error` explains. `on_lost` fires if renewal later
    /// stops working.
    using RegisterDone =
        std::function<void(std::shared_ptr<LeasedResource>, std::exception_ptr)>;
    void register_service(NodeId registrar, const std::string& type, rt::Dict attributes,
                          LeasedResource::LostFn on_lost, RegisterDone on_done);

    /// One-shot lookup by type.
    using LookupDone = std::function<void(std::vector<ServiceItem>, std::exception_ptr)>;
    void lookup(NodeId registrar, const std::string& type, LookupDone on_done);

    /// Watch a type at `registrar`; `on_event` fires for every appearance /
    /// disappearance (including a synthetic appearance for services already
    /// present). The watch is leased and auto-renewed like registrations.
    using EventFn = std::function<void(const ServiceItem&, bool appeared)>;
    void watch(NodeId registrar, const std::string& type, EventFn on_event,
               LeasedResource::LostFn on_lost, RegisterDone on_done);

    rt::RpcEndpoint& rpc() { return rpc_; }
    const DiscoveryConfig& config() const { return config_; }

private:
    void probe();
    void check_timeouts();
    void note_registrar(NodeId node);
    std::string make_listener(EventFn on_event);

    net::MessageRouter& router_;
    rt::RpcEndpoint& rpc_;
    DiscoveryConfig config_;

    std::map<NodeId, SimTime> last_seen_;
    std::map<std::uint64_t, RegistrarFn> registrar_watchers_;
    std::uint64_t next_token_ = 0;
    std::uint64_t next_listener_ = 0;

    sim::TimerId probe_timer_;
    sim::TimerId timeout_timer_;
};

}  // namespace pmp::disco
