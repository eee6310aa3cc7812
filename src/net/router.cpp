#include "net/router.h"

#include <algorithm>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pmp::net {

MessageRouter::MessageRouter(Network& network, NodeId self)
    : network_(network), self_(self), admission_(network.simulator()) {
    network_.set_handler(self_, [this](const Message& msg) { dispatch(msg); });
}

void MessageRouter::route(Symbol kind, Handler handler) {
    auto it = std::find(kinds_.begin(), kinds_.end(), kind);
    if (it != kinds_.end()) {
        *handlers_[it - kinds_.begin()] = std::move(handler);
        return;
    }
    kinds_.push_back(kind);
    handlers_.push_back(std::make_unique<Handler>(std::move(handler)));
}

void MessageRouter::unroute(Symbol kind) {
    auto it = std::find(kinds_.begin(), kinds_.end(), kind);
    if (it == kinds_.end()) return;
    handlers_.erase(handlers_.begin() + (it - kinds_.begin()));
    kinds_.erase(it);
}

bool MessageRouter::send(NodeId to, Symbol kind, Bytes payload) {
    // Stamp the sender's causal position onto the frame; delivery on the
    // far side restores it, which is how a trace crosses the radio.
    return network_.send(
        Message{self_, to, kind, std::move(payload), obs::TraceBuffer::global().current()});
}

std::size_t MessageRouter::broadcast(Symbol kind, Bytes payload) {
    return network_.broadcast(self_, kind, std::move(payload));
}

bool MessageRouter::send_remote(std::size_t dst_shard, const std::string& to_name,
                                Symbol kind, Bytes payload) {
    if (mesh_ == nullptr) return false;
    return mesh_->send(my_shard_, dst_shard, network_.name_of(self_), to_name, kind,
                       std::move(payload));
}

void MessageRouter::dispatch(const Message& msg) {
    auto it = std::find(kinds_.begin(), kinds_.end(), msg.kind);
    if (it == kinds_.end()) {
        log_debug(network_.simulator().now(), "net.router",
                  network_.name_of(self_), " dropped unrouted kind '", msg.kind, "'");
        return;
    }
    // Last line of defence: a throwing protocol handler must cost one
    // message, not unwind the whole simulator loop. Protocols are expected
    // to contain their own errors (RPC replies an error); anything that
    // still escapes is logged and dropped, exactly like a garbled frame.
    try {
        Handler& handler = *handlers_[it - kinds_.begin()];
        handler(msg);
    } catch (const std::exception& e) {
        static obs::Counter& handler_errors =
            obs::Registry::global().counter("net.router.handler_errors");
        handler_errors.inc();
        log_warn(network_.simulator().now(), "net.router", network_.name_of(self_),
                 " handler for '", msg.kind, "' threw: ", e.what());
    }
}

}  // namespace pmp::net
