#include "net/network.h"

#include <atomic>
#include <cmath>

#include "common/error.h"
#include "common/hash.h"
#include "common/log.h"
#include "obs/trace.h"

namespace pmp::net {

double Position::distance_to(const Position& other) const {
    double dx = x - other.x;
    double dy = y - other.y;
    return std::sqrt(dx * dx + dy * dy);
}

namespace {
/// Serialization cost added to every hop, per KiB on the air.
constexpr Duration kPerKilobyte = microseconds(800);

std::string next_net_label() {
    // Atomic: shard worlds construct their Networks concurrently.
    static std::atomic<int> seq{0};
    return "net" + std::to_string(seq.fetch_add(1, std::memory_order_relaxed) + 1);
}
}  // namespace

Network::Network(sim::Simulator& sim, NetworkConfig config, std::uint64_t seed)
    : sim_(sim),
      config_(config),
      rng_(seed),
      obs_label_(config.obs_label.empty() ? next_net_label() : config.obs_label),
      obs_source_(obs::Registry::global().add_source([this](obs::Rows& rows) {
          const NetworkStats& s = stats_;
          const std::string& l = obs_label_;
          rows.counter("net.sent", l, s.sent);
          rows.counter("net.delivered", l, s.delivered);
          rows.counter("net.dropped_range", l, s.dropped_out_of_range);
          rows.counter("net.dropped_loss", l, s.dropped_loss);
          rows.counter("net.duplicated", l, s.duplicated);
          rows.counter("net.bytes_delivered", l, s.bytes_delivered);
          rows.counter("net.fault.dropped_loss", l, s.fault_dropped_loss);
          rows.counter("net.fault.dropped_burst", l, s.fault_dropped_burst);
          rows.counter("net.fault.dropped_partition", l, s.fault_dropped_partition);
          rows.counter("net.fault.duplicated", l, s.fault_duplicated);
          rows.counter("net.fault.delayed", l, s.fault_delayed);
          rows.counter("net.fault.reordered", l, s.fault_reordered);
      })) {}

void Network::set_fault_plan(FaultPlan plan, std::uint64_t seed) {
    // Announce each scheduled window on the trace ring so a soak's event
    // log shows *why* traffic stopped. Instants fire when the window
    // actually opens/heals, not at install time.
    for (const PartitionWindow& w : plan.partitions) {
        if (w.from > sim_.now()) {
            sim_.schedule_at(w.from, [this]() {
                obs::TraceBuffer::global().instant("net.network", "net.partition",
                                                   {{"net", obs_label_}, {"state", "cut"}});
            });
        }
        if (w.until != SimTime::max()) {
            sim_.schedule_at(w.until, [this]() {
                obs::TraceBuffer::global().instant("net.network", "net.partition",
                                                   {{"net", obs_label_}, {"state", "heal"}});
            });
        }
    }
    injector_ = std::make_unique<FaultInjector>(std::move(plan), seed);
    // Key link streams by stable node names: the same logical link draws
    // the same fault pattern however ids were allocated (shard layouts
    // build their node subsets in different orders).
    injector_->set_key_fn([this](NodeId id) {
        const auto* n = find(id);
        return n ? fnv1a64(n->name) : id.value;
    });
}

void Network::clear_fault_plan() { injector_.reset(); }

NodeId Network::add_node(const std::string& name, Position pos, double range) {
    NodeId id = node_ids_.next();
    nodes_.emplace(id, NodeState{name, pos, range, nullptr, nullptr, /*epoch=*/1});
    return id;
}

void Network::remove_node(NodeId id) {
    auto* node = find(id);
    if (!node || node->removed) return;
    // Bumping the epoch invalidates in-flight deliveries without having
    // to chase down their timers. The handler/tap std::functions are NOT
    // destroyed here: remove_node may be running *inside* the node's own
    // handler (a crash-point firing mid-dispatch), and freeing the closure
    // under its own feet is UB. The `removed` flag keeps them from ever
    // running again; compact() frees them on a fresh event.
    ++node->epoch;
    node->range = 0;
    node->removed = true;
    std::erase_if(wires_, [id](const auto& w) { return w.first == id || w.second == id; });
    // Compact on a fresh event (not inline): a handler removing its own
    // node must not free the std::function it is executing from.
    sim_.schedule_after(Duration{0}, [this, id]() { compact(id); });
}

void Network::compact(NodeId id) {
    auto it = nodes_.find(id);
    if (it != nodes_.end() && it->second.removed && it->second.in_flight == 0) {
        nodes_.erase(it);
    }
}

void Network::set_handler(NodeId id, Handler handler) {
    if (auto* node = find(id)) {
        node->handler = std::move(handler);
    } else {
        throw RemoteError("set_handler: unknown node " + id.str());
    }
}

void Network::set_tap(NodeId id, Handler tap) {
    if (auto* node = find(id)) {
        node->tap = std::move(tap);
    } else {
        throw RemoteError("set_tap: unknown node " + id.str());
    }
}

void Network::move_node(NodeId id, Position pos) {
    if (auto* node = find(id)) {
        node->pos = pos;
    } else {
        throw RemoteError("move_node: unknown node " + id.str());
    }
}

Position Network::position_of(NodeId id) const {
    const auto* node = find(id);
    if (!node) throw RemoteError("position_of: unknown node " + id.str());
    return node->pos;
}

std::string Network::name_of(NodeId id) const {
    const auto* node = find(id);
    return node ? node->name : "<gone>";
}

std::optional<NodeId> Network::find_node(const std::string& name) const {
    for (const auto& [id, node] : nodes_) {
        if (!node.removed && node.name == name) return id;
    }
    return std::nullopt;
}

bool Network::deliver_local(const Message& msg) {
    auto it = nodes_.find(msg.to);
    if (it == nodes_.end() || it->second.removed || !it->second.handler) {
        ++stats_.dropped_out_of_range;
        return false;
    }
    ++stats_.delivered;
    stats_.bytes_delivered += msg.wire_size();
    obs::TraceBuffer::ContextScope scope(obs::TraceBuffer::global(), msg.trace);
    if (it->second.tap) it->second.tap(msg);
    it->second.handler(msg);
    return true;
}

void Network::add_wire(NodeId a, NodeId b) {
    if (a == b) return;
    wires_.insert(a < b ? std::pair{a, b} : std::pair{b, a});
}

bool Network::in_contact(NodeId a, NodeId b) const {
    const auto* na = find(a);
    const auto* nb = find(b);
    if (!na || !nb || a == b) return false;
    if (na->removed || nb->removed) return false;
    if (wires_.contains(a < b ? std::pair{a, b} : std::pair{b, a})) return true;
    double dist = na->pos.distance_to(nb->pos);
    return dist <= na->range && dist <= nb->range;
}

std::vector<NodeId> Network::neighbors(NodeId id) const {
    std::vector<NodeId> out;
    for (const auto& [other_id, _] : nodes_) {
        if (other_id != id && in_contact(id, other_id)) out.push_back(other_id);
    }
    return out;
}

Duration Network::transit_time(const Message& msg) {
    auto size_cost = Duration{kPerKilobyte.count() *
                              static_cast<std::int64_t>(msg.wire_size()) / 1024};
    auto jitter = config_.jitter.count() > 0
                      ? Duration{static_cast<std::int64_t>(
                            rng_.next_below(static_cast<std::uint64_t>(config_.jitter.count())))}
                      : Duration{0};
    return config_.base_latency + size_cost + jitter;
}

void Network::schedule_delivery(const Message& msg, std::uint64_t to_epoch,
                                Duration extra_delay) {
    if (auto* receiver = find(msg.to)) ++receiver->in_flight;
    sim_.schedule_after(transit_time(msg) + extra_delay, [this, msg, to_epoch]() {
        auto it = nodes_.find(msg.to);
        if (it == nodes_.end()) {
            ++stats_.dropped_out_of_range;
            return;
        }
        NodeState& receiver = it->second;
        if (receiver.in_flight > 0) --receiver.in_flight;
        if (receiver.removed) {
            ++stats_.dropped_out_of_range;
            if (receiver.in_flight == 0) nodes_.erase(it);  // tombstone drained
            return;
        }
        if (receiver.epoch != to_epoch || !receiver.handler) {
            ++stats_.dropped_out_of_range;
            return;
        }
        // A partition window may have opened while the message was in
        // flight: the jammed radio swallows it at delivery time.
        if (injector_ && injector_->partitioned(msg.from, msg.to, sim_.now())) {
            ++stats_.fault_dropped_partition;
            return;
        }
        // Radio check at delivery time: the receiver may have roamed out of
        // range while the message was in flight. If the *sender* died
        // mid-flight the frame already left its radio, so it still arrives
        // — the physics a crash-point like "install sent, then the base
        // dies" depends on. (With the sender gone we can no longer compute
        // range, so such frames deliver unconditionally.)
        const NodeState* sender = find(msg.from);
        bool sender_gone = !sender || sender->removed;
        if (!sender_gone && !in_contact(msg.from, msg.to)) {
            ++stats_.dropped_out_of_range;
            return;
        }
        ++stats_.delivered;
        stats_.bytes_delivered += msg.wire_size();
        // The frame's causal context becomes ambient for the duration of
        // the delivery: every span/instant the handler records joins the
        // sender's trace.
        obs::TraceBuffer::ContextScope scope(obs::TraceBuffer::global(), msg.trace);
        if (receiver.tap) receiver.tap(msg);
        receiver.handler(msg);
    });
}

bool Network::send(const Message& msg) {
    ++stats_.sent;
    const auto* receiver = find(msg.to);
    if (!receiver || !in_contact(msg.from, msg.to)) {
        ++stats_.dropped_out_of_range;
        return false;
    }
    if (config_.loss_probability > 0 && rng_.chance(config_.loss_probability)) {
        ++stats_.dropped_loss;
        return false;
    }
    Duration extra_delay{0};
    bool fault_duplicate = false;
    if (injector_) {
        FaultInjector::Verdict verdict = injector_->judge(msg.from, msg.to, sim_.now());
        switch (verdict.drop) {
            case FaultInjector::Drop::kLoss:
                ++stats_.fault_dropped_loss;
                return false;
            case FaultInjector::Drop::kBurst:
                ++stats_.fault_dropped_burst;
                return false;
            case FaultInjector::Drop::kPartition:
                ++stats_.fault_dropped_partition;
                return false;
            case FaultInjector::Drop::kNone:
                break;
        }
        extra_delay = verdict.extra_delay;
        fault_duplicate = verdict.duplicate;
        if (verdict.reordered) ++stats_.fault_reordered;
        if (extra_delay.count() > 0) ++stats_.fault_delayed;
    }
    schedule_delivery(msg, receiver->epoch, extra_delay);
    if (fault_duplicate) {
        ++stats_.fault_duplicated;
        schedule_delivery(msg, receiver->epoch, extra_delay);
    }
    if (config_.duplicate_probability > 0 && rng_.chance(config_.duplicate_probability)) {
        ++stats_.duplicated;
        schedule_delivery(msg, receiver->epoch);
    }
    return true;
}

std::size_t Network::broadcast(NodeId from, const std::string& kind, Bytes payload) {
    std::size_t scheduled = 0;
    for (NodeId neighbor : neighbors(from)) {
        Message copy{from, neighbor, kind, payload};
        copy.trace = obs::TraceBuffer::global().current();
        if (send(copy)) ++scheduled;
    }
    return scheduled;
}

const Network::NodeState* Network::find(NodeId id) const {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? nullptr : &it->second;
}

Network::NodeState* Network::find(NodeId id) {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? nullptr : &it->second;
}

}  // namespace pmp::net
