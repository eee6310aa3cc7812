// Simulated wireless network.
//
// Models the paper's deployment substrate: mobile nodes and base stations on
// a 2-D plane, communicating over a shared radio. A pair of nodes can
// exchange messages while they are within radio range of each other; range
// is what makes "entering / leaving a production hall" observable to the
// middleware (discovery fires on entry, lease renewals start failing on
// exit). Latency, jitter and loss are configurable so tests can inject
// failures deterministically.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/rng.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace pmp::net {

/// 2-D position in metres.
struct Position {
    double x = 0;
    double y = 0;

    double distance_to(const Position& other) const;
    bool operator==(const Position&) const = default;
};

/// One datagram. `kind` is the protocol discriminator (e.g. "disco.request",
/// "midas.install"); `payload` is the protocol-specific encoding.
struct Message {
    NodeId from;
    NodeId to;
    std::string kind;
    Bytes payload;
    /// Causal context riding the datagram (a real radio would put a few
    /// bytes of it in a header). The router stamps the sender's ambient
    /// context here; delivery restores it around the receiving handler,
    /// so cross-node chains share one trace. Observability metadata —
    /// deliberately excluded from wire_size(). A duplicated frame copies
    /// the whole Message, context included, so duplicates attach to the
    /// original's trace.
    obs::TraceContext trace;

    /// Approximate on-air size, used for the per-byte latency component.
    std::size_t wire_size() const { return kind.size() + payload.size() + 16; }
};

/// Radio and link-quality parameters.
struct NetworkConfig {
    Duration base_latency = microseconds(500);   ///< fixed per-hop cost
    Duration jitter = microseconds(200);         ///< uniform in [0, jitter]
    double loss_probability = 0.0;               ///< per-message drop chance
    double duplicate_probability = 0.0;          ///< per-message dup chance
    /// Explicit obs label (metrics family + trace kv). Empty = the next
    /// process-wide "netN". Worlds that must render byte-identical traces
    /// across runs (the determinism gate) set this: the auto counter keeps
    /// advancing per process, so "netN" differs run to run.
    std::string obs_label;
};

/// One network's radio counters, exported as `net.*{obs_label}`.
struct NetworkStats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped_out_of_range = 0;
    std::uint64_t dropped_loss = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t bytes_delivered = 0;
    /// Drops and duplicates attributed to an installed FaultPlan
    /// (`net.fault.*` in the registry), by cause.
    std::uint64_t fault_dropped_loss = 0;
    std::uint64_t fault_dropped_burst = 0;
    std::uint64_t fault_dropped_partition = 0;
    std::uint64_t fault_duplicated = 0;
    std::uint64_t fault_delayed = 0;
    std::uint64_t fault_reordered = 0;
};

/// The shared radio medium. All nodes of one simulated world attach here.
class Network {
public:
    using Handler = std::function<void(const Message&)>;

    Network(sim::Simulator& sim, NetworkConfig config, std::uint64_t seed);

    /// Attach a node. `range` is its radio range in metres (base stations
    /// typically get a large range covering their hall; handhelds a small
    /// one). Returns the node's network identity.
    NodeId add_node(const std::string& name, Position pos, double range);

    /// Remove a node from the air (simulates power-off / crash). Pending
    /// deliveries to it are dropped; frames it already sent are still in
    /// flight and deliver (they left the radio before the power died). The
    /// entry itself is compacted once its in-flight deliveries have
    /// drained, so churn does not grow `nodes_`. Safe to call from inside
    /// the node's own receive handler (crash-points fire mid-dispatch).
    void remove_node(NodeId id);

    /// Attached node entries, including tombstones awaiting compaction
    /// (bounded: each tombstone lives only until its in-flight deliveries
    /// drain).
    std::size_t node_count() const { return nodes_.size(); }

    /// Install the receive callback for a node.
    void set_handler(NodeId id, Handler handler);

    /// Install a passive tap on a node: observes every message delivered to
    /// it, before the handler runs, without consuming anything. One tap per
    /// node; pass nullptr to remove. (The eavesdropper in the secure-hall
    /// example, packet captures in tests.)
    void set_tap(NodeId id, Handler tap);

    /// Teleport a node (the mobility model calls this every tick).
    void move_node(NodeId id, Position pos);

    Position position_of(NodeId id) const;
    std::string name_of(NodeId id) const;

    /// Resolve a node by its attached name (linear; directory lookups are
    /// control-plane, not per-message). Tombstoned nodes do not match.
    std::optional<NodeId> find_node(const std::string& name) const;

    /// Connect two nodes with a wired link: they stay in contact regardless
    /// of position (the backbone between base stations of adjacent halls).
    void add_wire(NodeId a, NodeId b);

    /// True if the two nodes can currently exchange messages — wired, or
    /// by radio (symmetric: each must be inside the other's range).
    bool in_contact(NodeId a, NodeId b) const;

    /// All attached nodes currently in contact with `id` (excluding itself).
    std::vector<NodeId> neighbors(NodeId id) const;

    /// Unicast. Checks contact at send time and again at delivery time (the
    /// receiver may have moved away mid-flight). Returns false if dropped at
    /// send time.
    bool send(const Message& msg);

    /// Broadcast to every node currently in contact with the sender.
    /// Returns the number of deliveries scheduled.
    std::size_t broadcast(NodeId from, const std::string& kind, Bytes payload);

    /// Local ingress for frames that arrive from outside this radio — the
    /// cross-shard backbone (net::ShardMesh) terminates here. Runs the tap
    /// and handler inline under the message's causal context, bypassing
    /// contact/fault checks (those belong to the medium the frame actually
    /// crossed). `msg.from` may name a node of another network. Returns
    /// false (counted as a range drop) if the target is gone or mute.
    bool deliver_local(const Message& msg);

    /// Install a fault plan: from now on every send/delivery is judged by
    /// a FaultInjector seeded with `seed` (deterministic per seed). Each
    /// partition window additionally emits `net.partition` trace instants
    /// when it opens ("cut") and heals ("heal"). Replaces any prior plan.
    void set_fault_plan(FaultPlan plan, std::uint64_t seed);
    void clear_fault_plan();
    const FaultInjector* fault() const { return injector_.get(); }

    const NetworkStats& stats() const { return stats_; }
    void reset_stats() { stats_ = {}; }

    /// The obs label this instance reports under (e.g. "net3").
    const std::string& obs_label() const { return obs_label_; }

    sim::Simulator& simulator() { return sim_; }

private:
    struct NodeState {
        std::string name;
        Position pos;
        double range = 0;
        Handler handler;
        Handler tap;
        std::uint64_t epoch = 0;  // bumped on remove; stale deliveries check it
        bool removed = false;     // tombstoned; compacted when in_flight drains
        std::uint64_t in_flight = 0;  // deliveries scheduled to this node
    };

    void schedule_delivery(const Message& msg, std::uint64_t to_epoch,
                           Duration extra_delay = Duration{0});
    /// Erase a tombstoned node once its in-flight deliveries have drained.
    void compact(NodeId id);
    Duration transit_time(const Message& msg);
    const NodeState* find(NodeId id) const;
    NodeState* find(NodeId id);

    sim::Simulator& sim_;
    NetworkConfig config_;
    Rng rng_;
    IdGenerator<NodeId> node_ids_;
    std::unordered_map<NodeId, NodeState> nodes_;
    std::set<std::pair<NodeId, NodeId>> wires_;  // normalized (min, max) pairs
    std::unique_ptr<FaultInjector> injector_;    // null: no plan installed

    std::string obs_label_;
    NetworkStats stats_;
    obs::Source obs_source_;  // last: unregisters before the stats it reads
};

}  // namespace pmp::net
