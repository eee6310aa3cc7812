// Per-node message dispatch.
//
// A node runs several protocol endpoints at once (discovery client, RPC,
// adaptation service, lease renewals...). The Network delivers each node a
// single stream of messages; the router fans them out by `kind`. Kinds are
// interned Symbols, so dispatch compares pointers over the node's handful
// of routes instead of hashing a string per delivery.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/admission.h"
#include "net/mesh.h"
#include "net/network.h"

namespace pmp::net {

class MessageRouter {
public:
    using Handler = std::function<void(const Message&)>;

    /// Installs itself as the node's network handler.
    MessageRouter(Network& network, NodeId self);

    /// Register the handler for an exact message kind (e.g. "rpc.call").
    /// Replaces any previous handler for the kind.
    void route(Symbol kind, Handler handler);
    void unroute(Symbol kind);

    bool send(NodeId to, Symbol kind, Bytes payload);
    std::size_t broadcast(Symbol kind, Bytes payload);

    /// Join the cross-shard backbone: after this, send_remote() reaches
    /// nodes on other shards by name. The mesh must outlive the router
    /// (both are world-scoped; nothing is registered mesh-side, so there
    /// is no detach).
    void attach_mesh(ShardMesh& mesh, std::size_t my_shard) {
        mesh_ = &mesh;
        my_shard_ = my_shard;
    }

    /// Send to a named node on another shard over the backbone. Returns
    /// false when no mesh is attached or the backbone dropped the frame.
    bool send_remote(std::size_t dst_shard, const std::string& to_name, Symbol kind,
                     Bytes payload);

    NodeId self() const { return self_; }
    Network& network() { return network_; }
    sim::Simulator& simulator() { return network_.simulator(); }

    /// The node's inbound admission gate. The router hosts it (one per
    /// node); protocols that execute caller-driven work — rpc dispatch,
    /// chiefly — classify and offer their work here. Reconfigure with
    /// `admission().set_config(...)` (soaks tighten it; the defaults are
    /// sized to be invisible to well-behaved fleets).
    AdmissionQueue& admission() { return admission_; }

private:
    void dispatch(const Message& msg);

    Network& network_;
    NodeId self_;
    AdmissionQueue admission_;
    /// Routes as parallel arrays: dispatch scans the contiguous kinds.
    /// Handlers are boxed so that a handler may route another kind while
    /// it runs without moving itself.
    std::vector<Symbol> kinds_;
    std::vector<std::unique_ptr<Handler>> handlers_;
    ShardMesh* mesh_ = nullptr;  ///< null until attach_mesh
    std::size_t my_shard_ = 0;
};

}  // namespace pmp::net
