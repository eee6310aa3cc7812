#include "midas/node.h"

namespace pmp::midas {

NodeStack::NodeStack(net::Network& network, const std::string& label, net::Position pos,
                     double range, disco::DiscoveryConfig disco_config)
    : network_(network), label_(label) {
    id_ = network_.add_node(label, pos, range);
    router_ = std::make_unique<net::MessageRouter>(network_, id_);
    runtime_ = std::make_unique<rt::Runtime>(label);
    rpc_ = std::make_unique<rt::RpcEndpoint>(*router_, *runtime_);
    // The platform's control plane is exempt from application wire filters
    // (see RpcEndpoint::exempt_from_filters): its integrity comes from
    // package signatures, and the extension that keys a channel must be
    // deliverable before the channel exists.
    rpc_->exempt_from_filters("adaptation");
    rpc_->exempt_from_filters("registrar");
    rpc_->exempt_from_filters("disco.listener:");
    rpc_->exempt_from_filters("midas.cell");
    weaver_ = std::make_unique<prose::Weaver>(*runtime_);
    discovery_ = std::make_unique<disco::DiscoveryClient>(*router_, *rpc_, disco_config);
}

MobileNode::MobileNode(net::Network& network, const std::string& label, net::Position pos,
                       double range, ReceiverConfig receiver_config,
                       std::shared_ptr<db::JournalStorage> durable,
                       disco::DiscoveryConfig disco_config)
    : NodeStack(network, label, pos, range, disco_config) {
    if (receiver_config.node_label.empty()) receiver_config.node_label = label;
    if (durable) {
        journal_ = std::make_shared<db::Journal>(std::move(durable), receiver_config.journal,
                                                 &network.simulator());
    }
    receiver_ = std::make_unique<AdaptationService>(rpc(), weaver(), trust_, discovery(),
                                                    std::move(receiver_config), journal_);
}

BaseStation::BaseStation(net::Network& network, const std::string& label, net::Position pos,
                         double range, BaseConfig base_config,
                         disco::RegistrarConfig registrar_config,
                         std::shared_ptr<db::JournalStorage> durable,
                         disco::DiscoveryConfig disco_config)
    : NodeStack(network, label, pos, range, disco_config) {
    registrar_ = std::make_unique<disco::Registrar>(router(), rpc(), registrar_config);
    collector_ = std::make_unique<Collector>(rpc(), store_);
    if (durable) {
        journal_ = std::make_shared<db::Journal>(std::move(durable), base_config.journal,
                                                 &network.simulator());
    }
    base_ = std::make_unique<ExtensionBase>(rpc(), *registrar_, keys_, std::move(base_config),
                                            journal_, journal_ ? &store_ : nullptr);
}

CellStation::CellStation(net::Network& network, const std::string& label, net::Position pos,
                         double range, CellRelayConfig relay_config,
                         disco::RegistrarConfig registrar_config,
                         disco::DiscoveryConfig disco_config)
    : NodeStack(network, label, pos, range, disco_config) {
    if (relay_config.cell.empty()) relay_config.cell = label;
    registrar_ = std::make_unique<disco::Registrar>(router(), rpc(), registrar_config);
    relay_ = std::make_unique<CellRelay>(rpc(), registrar_.get(), std::move(relay_config));
}

Peer::Peer(net::Network& network, const std::string& label, net::Position pos, double range,
           BaseConfig base_config, ReceiverConfig receiver_config)
    : NodeStack(network, label, pos, range) {
    if (receiver_config.node_label.empty()) receiver_config.node_label = label;
    registrar_ = std::make_unique<disco::Registrar>(router(), rpc());
    collector_ = std::make_unique<Collector>(rpc(), store_);
    receiver_ = std::make_unique<AdaptationService>(rpc(), weaver(), trust_, discovery(),
                                                    std::move(receiver_config));
    base_ = std::make_unique<ExtensionBase>(rpc(), *registrar_, keys_, std::move(base_config));
}

}  // namespace pmp::midas
