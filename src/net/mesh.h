// Cross-shard backbone between per-shard radio networks.
//
// Under the sharded kernel each shard owns one Network (its hall's radio).
// Traffic inside a hall stays on that radio; traffic *between* halls — the
// wired backbone between base stations — crosses shards, and anything that
// crosses shards must respect the kernel's lookahead contract. ShardMesh
// is that backbone: a send is clamped to at least sender-now + lookahead
// by ShardedSimulator::post(), travels a configurable backbone latency,
// and terminates in the destination network via Network::deliver_local().
//
// Addressing is by stable node *name* (ids are per-network): the
// destination network resolves the name at delivery time, so a receiver
// that crashed mid-flight drops the frame exactly like a radio would.
//
// Determinism: per-lane loss draws come from an RNG keyed by
// (world seed, "mesh", src, dst), and draws happen in the sender shard's
// event order — both independent of worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "net/network.h"
#include "sim/shard.h"

namespace pmp::net {

struct MeshOptions {
    /// One-way backbone latency added on top of the kernel's lookahead
    /// clamp (delivery at max(sender_now + lookahead, sender_now + latency)).
    Duration latency = milliseconds(2);
    /// Per-frame loss on the backbone (deterministic per lane).
    double loss = 0.0;
};

class ShardMesh {
public:
    ShardMesh(sim::ShardedSimulator& shards, MeshOptions opts = {});

    ShardMesh(const ShardMesh&) = delete;
    ShardMesh& operator=(const ShardMesh&) = delete;

    /// Attach shard `i`'s network. The pointer must outlive the mesh or be
    /// detached first; attach/detach are coordinator-side (between windows).
    void attach(std::size_t shard, Network& net);
    void detach(std::size_t shard);

    /// Send `kind`/`payload` from a node on `src_shard` to the node named
    /// `to_name` on `dst_shard`. Callable from an event executing on the
    /// source shard (the usual case) or from the coordinator between
    /// windows. The sender's ambient trace context rides along, so
    /// cross-shard chains render as one causal tree. Returns false if the
    /// backbone dropped the frame at send time (delivery-time failures —
    /// unknown name, crashed node — count on the destination network).
    bool send(std::size_t src_shard, std::size_t dst_shard, const std::string& from_name,
              const std::string& to_name, Symbol kind, Bytes payload);

    std::uint64_t sent() const {
        std::lock_guard<std::mutex> lock(mu_);
        return sent_;
    }
    std::uint64_t dropped() const {
        std::lock_guard<std::mutex> lock(mu_);
        return dropped_;
    }

private:
    struct Lane {
        Rng rng;
        std::uint64_t sent = 0;
    };

    sim::ShardedSimulator& shards_;
    MeshOptions opts_;
    /// Directory and lanes are touched from worker threads (send) and the
    /// coordinator (attach/detach): one mutex, control-plane traffic only.
    mutable std::mutex mu_;
    std::vector<Network*> nets_;
    std::vector<std::unique_ptr<Lane>> lanes_;  ///< [src * shards + dst]
    std::uint64_t sent_ = 0;
    std::uint64_t dropped_ = 0;
};

}  // namespace pmp::net
