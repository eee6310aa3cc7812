#include "net/mesh.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pmp::net {

namespace {
struct MeshMetrics {
    obs::Counter& sent = obs::Registry::global().counter("net.mesh.sent");
    obs::Counter& dropped = obs::Registry::global().counter("net.mesh.dropped");
    obs::Counter& delivered = obs::Registry::global().counter("net.mesh.delivered");
    obs::Counter& unresolved = obs::Registry::global().counter("net.mesh.unresolved");
};
MeshMetrics& mesh_metrics() {
    static MeshMetrics m;
    return m;
}
}  // namespace

ShardMesh::ShardMesh(sim::ShardedSimulator& shards, MeshOptions opts)
    : shards_(shards), opts_(opts) {
    std::size_t n = shards_.shard_count();
    nets_.assign(n, nullptr);
    lanes_.reserve(n * n);
    for (std::size_t src = 0; src < n; ++src) {
        for (std::size_t dst = 0; dst < n; ++dst) {
            // Lane streams key off (seed, "mesh", src, dst) — stable at
            // any worker count, independent of attach order.
            auto lane = std::make_unique<Lane>(
                Lane{Rng(shards_.shard_seed(src * n + dst, "mesh")), 0});
            lanes_.push_back(std::move(lane));
        }
    }
}

void ShardMesh::attach(std::size_t shard, Network& net) {
    std::lock_guard<std::mutex> lock(mu_);
    nets_[shard] = &net;
}

void ShardMesh::detach(std::size_t shard) {
    std::lock_guard<std::mutex> lock(mu_);
    nets_[shard] = nullptr;
}

bool ShardMesh::send(std::size_t src_shard, std::size_t dst_shard, const std::string& from_name,
                     const std::string& to_name, Symbol kind, Bytes payload) {
    // The sender's ambient context (its shard buffer's, when called from a
    // window) rides the frame — id namespaces are disjoint per shard, so
    // carrying it into another shard's buffer cannot collide.
    obs::TraceContext ctx = obs::TraceBuffer::global().current();
    {
        std::lock_guard<std::mutex> lock(mu_);
        Lane& lane = *lanes_[src_shard * shards_.shard_count() + dst_shard];
        ++lane.sent;
        ++sent_;
        if (opts_.loss > 0 && lane.rng.chance(opts_.loss)) {
            ++dropped_;
            mesh_metrics().dropped.inc();
            return false;
        }
    }
    mesh_metrics().sent.inc();
    SimTime when = shards_.shard(src_shard).now() + opts_.latency;
    shards_.post(
        src_shard, dst_shard, when,
        [this, dst_shard, from_name, to_name, kind, payload = std::move(payload), ctx]() {
            Network* net;
            {
                std::lock_guard<std::mutex> lock(mu_);
                net = nets_[dst_shard];
            }
            if (net == nullptr) {
                mesh_metrics().unresolved.inc();
                return;
            }
            auto to = net->find_node(to_name);
            if (!to) {
                mesh_metrics().unresolved.inc();
                return;
            }
            // `from` is not an id on the destination network (ids are
            // per-network); the hop instant below records the sender's
            // stable name, and protocols embed it in payloads themselves.
            Message msg{NodeId{}, *to, kind, payload, ctx};
            {
                auto& tb = obs::TraceBuffer::global();
                obs::TraceBuffer::ContextScope scope(tb, ctx);
                tb.instant("net.mesh", "mesh.deliver",
                           {{"from", from_name}, {"to", to_name}, {"kind", kind}});
            }
            if (net->deliver_local(msg)) mesh_metrics().delivered.inc();
        });
    return true;
}

}  // namespace pmp::net
