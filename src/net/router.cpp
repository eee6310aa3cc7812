#include "net/router.h"

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pmp::net {

MessageRouter::MessageRouter(Network& network, NodeId self)
    : network_(network), self_(self), admission_(network.simulator()) {
    network_.set_handler(self_, [this](const Message& msg) { dispatch(msg); });
}

void MessageRouter::route(const std::string& kind, Handler handler) {
    handlers_[kind] = std::move(handler);
}

void MessageRouter::unroute(const std::string& kind) { handlers_.erase(kind); }

bool MessageRouter::send(NodeId to, const std::string& kind, Bytes payload) {
    Message msg{self_, to, kind, std::move(payload)};
    // Stamp the sender's causal position onto the frame; delivery on the
    // far side restores it, which is how a trace crosses the radio.
    msg.trace = obs::TraceBuffer::global().current();
    return network_.send(msg);
}

std::size_t MessageRouter::broadcast(const std::string& kind, Bytes payload) {
    return network_.broadcast(self_, kind, std::move(payload));
}

bool MessageRouter::send_remote(std::size_t dst_shard, const std::string& to_name,
                                const std::string& kind, Bytes payload) {
    if (mesh_ == nullptr) return false;
    return mesh_->send(my_shard_, dst_shard, network_.name_of(self_), to_name, kind,
                       std::move(payload));
}

void MessageRouter::dispatch(const Message& msg) {
    auto it = handlers_.find(msg.kind);
    if (it == handlers_.end()) {
        log_debug(network_.simulator().now(), "net.router",
                  network_.name_of(self_), " dropped unrouted kind '", msg.kind, "'");
        return;
    }
    // Last line of defence: a throwing protocol handler must cost one
    // message, not unwind the whole simulator loop. Protocols are expected
    // to contain their own errors (RPC replies an error); anything that
    // still escapes is logged and dropped, exactly like a garbled frame.
    try {
        it->second(msg);
    } catch (const std::exception& e) {
        static obs::Counter& handler_errors =
            obs::Registry::global().counter("net.router.handler_errors");
        handler_errors.inc();
        log_warn(network_.simulator().now(), "net.router", network_.name_of(self_),
                 " handler for '", msg.kind, "' threw: ", e.what());
    }
}

}  // namespace pmp::net
