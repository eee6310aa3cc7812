// Whole-node assemblies.
//
// A participating device runs a fixed stack: router -> runtime -> RPC ->
// weaver -> discovery -> (receiver and/or base + registrar + collector).
// These classes wire the stack up in the right order so scenarios, tests
// and benchmarks can say "one base station, three robots" in a few lines.
//
//   MobileNode  — extension receiver only (a robot, a PDA entering a hall)
//   BaseStation — registrar + extension base + collector/database
//   Peer        — both roles (the paper's symmetric / ad-hoc mode: "if a
//                 mobile device is capable of receiving extensions, it
//                 should also be able to provide extensions to other nodes")
#pragma once

#include "midas/base.h"
#include "midas/cell.h"
#include "midas/collector.h"
#include "midas/receiver.h"

namespace pmp::midas {

/// The stack every node shares.
class NodeStack {
public:
    /// `disco_config` tunes the node's discovery client. Large fleets
    /// stretch `probe_period`: a probe is a broadcast, and ten thousand
    /// nodes probing twice a second is a control-plane storm all by itself.
    /// Beacons refresh a registrar's last-seen time, but the client only
    /// sweeps for silent registrars on the probe timer, so a stretched
    /// probe also stretches how long a registrar out of contact is still
    /// listed (and re-registered with; see ROADMAP).
    NodeStack(net::Network& network, const std::string& label, net::Position pos,
              double range, disco::DiscoveryConfig disco_config = {});

    NodeId id() const { return id_; }
    const std::string& label() const { return label_; }
    net::Network& network() { return network_; }
    net::MessageRouter& router() { return *router_; }
    rt::Runtime& runtime() { return *runtime_; }
    rt::RpcEndpoint& rpc() { return *rpc_; }
    prose::Weaver& weaver() { return *weaver_; }
    disco::DiscoveryClient& discovery() { return *discovery_; }
    sim::Simulator& simulator() { return network_.simulator(); }

    /// Teleport the node (scenarios usually use net::PathMover instead).
    void move_to(net::Position pos) { network_.move_node(id_, pos); }
    net::Position position() const { return network_.position_of(id_); }

private:
    net::Network& network_;
    std::string label_;
    NodeId id_;
    std::unique_ptr<net::MessageRouter> router_;
    std::unique_ptr<rt::Runtime> runtime_;
    std::unique_ptr<rt::RpcEndpoint> rpc_;
    std::unique_ptr<prose::Weaver> weaver_;
    std::unique_ptr<disco::DiscoveryClient> discovery_;
};

/// A mobile device that can be adapted by proactive environments.
///
/// Pass a `durable` storage (a shared "disk" that outlives the object —
/// see db::JournalStorage) to make the receiver's quarantine list and
/// installed manifest survive a crash–restart: rebuild the node over the
/// same storage and it recovers them.
class MobileNode : public NodeStack {
public:
    MobileNode(net::Network& network, const std::string& label, net::Position pos,
               double range, ReceiverConfig receiver_config = {},
               std::shared_ptr<db::JournalStorage> durable = nullptr,
               disco::DiscoveryConfig disco_config = {});

    crypto::TrustStore& trust() { return trust_; }
    AdaptationService& receiver() { return *receiver_; }
    /// The receiver's journal (null when constructed without storage).
    const std::shared_ptr<db::Journal>& journal() const { return journal_; }

private:
    crypto::TrustStore trust_;
    std::shared_ptr<db::Journal> journal_;
    std::unique_ptr<AdaptationService> receiver_;
};

/// A base station: the proactive environment of one physical space.
///
/// With a `durable` storage the base journals its policy set, adapted-node
/// book and the hall database; a BaseStation rebuilt over the same storage
/// recovers all three under a bumped epoch (docs/recovery.md).
class BaseStation : public NodeStack {
public:
    BaseStation(net::Network& network, const std::string& label, net::Position pos,
                double range, BaseConfig base_config,
                disco::RegistrarConfig registrar_config = {},
                std::shared_ptr<db::JournalStorage> durable = nullptr,
                disco::DiscoveryConfig disco_config = {});

    crypto::KeyStore& keys() { return keys_; }
    disco::Registrar& registrar() { return *registrar_; }
    ExtensionBase& base() { return *base_; }
    Collector& collector() { return *collector_; }
    db::EventStore& store() { return store_; }
    /// The base's journal (null when constructed without storage).
    const std::shared_ptr<db::Journal>& journal() const { return journal_; }

private:
    crypto::KeyStore keys_;
    db::EventStore store_;
    std::shared_ptr<db::Journal> journal_;
    std::unique_ptr<disco::Registrar> registrar_;
    std::unique_ptr<Collector> collector_;
    std::unique_ptr<ExtensionBase> base_;
};

/// A cell anchor for federated deployments: a local registrar (the cell's
/// discovery scope) plus a CellRelay that batches the cell's lease traffic
/// toward a far-away ExtensionBase (midas/cell.h, docs/federation.md). It
/// holds no policy of its own — it is cheap infrastructure, one per radio
/// cell.
class CellStation : public NodeStack {
public:
    CellStation(net::Network& network, const std::string& label, net::Position pos,
                double range, CellRelayConfig relay_config = {},
                disco::RegistrarConfig registrar_config = {},
                disco::DiscoveryConfig disco_config = {});

    disco::Registrar& registrar() { return *registrar_; }
    CellRelay& relay() { return *relay_; }

private:
    std::unique_ptr<disco::Registrar> registrar_;
    std::unique_ptr<CellRelay> relay_;
};

/// A symmetric peer: receives extensions from others and provides its own.
class Peer : public NodeStack {
public:
    Peer(net::Network& network, const std::string& label, net::Position pos, double range,
         BaseConfig base_config, ReceiverConfig receiver_config = {});

    crypto::TrustStore& trust() { return trust_; }
    crypto::KeyStore& keys() { return keys_; }
    AdaptationService& receiver() { return *receiver_; }
    disco::Registrar& registrar() { return *registrar_; }
    ExtensionBase& base() { return *base_; }
    Collector& collector() { return *collector_; }
    db::EventStore& store() { return store_; }

private:
    crypto::TrustStore trust_;
    crypto::KeyStore keys_;
    db::EventStore store_;
    std::unique_ptr<disco::Registrar> registrar_;
    std::unique_ptr<Collector> collector_;
    std::unique_ptr<AdaptationService> receiver_;
    std::unique_ptr<ExtensionBase> base_;
};

}  // namespace pmp::midas
