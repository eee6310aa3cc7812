// Federation-scale machinery: the deterministic renewal jitter, the
// receiver's bounded install caches, and the cell-level batched lease
// protocol (one delta-encoded frame per cell per period; see midas/cell.h
// and docs/federation.md). The batched path carries the same
// promises as the direct one — healthy nodes never lose a lease, breaker /
// epoch / failure-ledger semantics are unchanged — and a chaos band checks
// them under dropped, duplicated and reordered frames across many seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "crypto/sha256.h"
#include "midas/node.h"
#include "net/fault.h"

namespace pmp::midas {
namespace {

using rt::Value;

ExtensionPackage policy_pkg(const std::string& name,
                            const std::string& body = "fun onEntry() { }") {
    ExtensionPackage pkg;
    pkg.name = name;
    pkg.script = body;
    pkg.bindings = {{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    return pkg;
}

// ------------------------------------------------------- renewal jitter ----

TEST(RenewalJitter, SpreadIsBoundedDeterministicAndWide) {
    const Duration lease = seconds(2);
    const std::int64_t lo = lease.count() * 3 / 8;
    const std::int64_t hi = lease.count() * 5 / 8;
    std::set<std::int64_t> phases;
    std::int64_t min_seen = lease.count();
    std::int64_t max_seen = 0;
    for (std::uint64_t l = 1; l <= 256; ++l) {
        Duration p = disco::lease_renewal_phase(NodeId{42}, LeaseId{l}, lease);
        // Replay-stable: the phase is a pure function of (registrar, lease).
        EXPECT_EQ(p, disco::lease_renewal_phase(NodeId{42}, LeaseId{l}, lease));
        // Bounded: worst case (renew at 5/8·d, lost and timed out at
        // 7/8·d, retried d/16 later) still lands at 15/16·d, inside the
        // lease.
        EXPECT_GE(p.count(), lo) << "lease " << l;
        EXPECT_LE(p.count(), hi) << "lease " << l;
        phases.insert(p.count());
        min_seen = std::min(min_seen, p.count());
        max_seen = std::max(max_seen, p.count());
    }
    // The regression this guards: 256 leases granted in the same instant
    // must NOT renew in the same instant forever (the pre-fix behavior —
    // every phase was exactly duration/2, one thundering herd per period).
    EXPECT_GT(phases.size(), 64u);
    EXPECT_LT(min_seen, lease.count() / 2 - lease.count() / 16);
    EXPECT_GT(max_seen, lease.count() / 2 + lease.count() / 16);
}

TEST(RenewalJitter, LostRenewRetriesPromptlyInsideTheLease) {
    // One registrar, one client, 16 leases with first-renewal phases
    // spread over [3/8·d, 5/8·d] (d = 2 s). A 660 ms partition swallows
    // every first renewal — each fails fast with *unreachable* (the
    // network refuses the send), so the lease still has over half its
    // life left when the failure lands. The holder must keep retrying on
    // the d/16 cadence until the granted budget is gone: the window lifts
    // well before any lease expires, so every one must recover. The
    // regression this guards is the old fixed single retry, which landed
    // back inside the partition and tore down all 16 leases over a blip
    // a third the length of the lease.
    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 808);
    NodeStack host(net, "reg", net::Position{0, 0}, 200.0);
    disco::Registrar registrar(host.router(), host.rpc());
    NodeStack client(net, "client", net::Position{10, 0}, 200.0);
    sim.run_for(seconds(1));

    int registered = 0;
    int lost = 0;
    std::vector<std::shared_ptr<disco::LeasedResource>> handles;
    SimTime t_issue = sim.now();
    for (int i = 0; i < 16; ++i) {
        client.discovery().register_service(
            host.id(), "svc/" + std::to_string(i), rt::Dict{}, [&lost] { ++lost; },
            [&](std::shared_ptr<disco::LeasedResource> h, std::exception_ptr e) {
                ASSERT_FALSE(e);
                handles.push_back(std::move(h));
                ++registered;
            });
    }
    SimTime deadline = sim.now() + seconds(2);
    while (sim.now() < deadline && registered < 16) {
        sim.run_until(sim.now() + milliseconds(10));
    }
    ASSERT_EQ(registered, 16);
    // The window math below assumes all grants happened within this slop.
    ASSERT_LT(sim.now() - t_issue, milliseconds(100));

    // First renewals fire in [750 ms, 1250 ms] after each grant. Black out
    // the registrar across that whole band; every lease's expiry (grant +
    // 2 s) falls safely after the window lifts, so the retry loop always
    // gets at least one attempt on a healed network.
    net::FaultPlan plan;
    plan.partitions.push_back(net::PartitionWindow{
        t_issue + milliseconds(700), t_issue + milliseconds(1360), {host.id()}, {}});
    net.set_fault_plan(plan, 1);

    sim.run_for(seconds(4));  // two lease lifetimes
    EXPECT_EQ(lost, 0);
    for (auto& h : handles) EXPECT_TRUE(h->alive());
    EXPECT_EQ(registrar.registration_count(), 16u);
}

// -------------------------------------------------- receiver LRU caches ----

TEST(ReceiverCaches, CompileCacheIsBoundedAndEvictionsAreCounted) {
    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 7);
    BaseConfig bc;
    bc.issuer = "hall";
    BaseStation hall(net, "hall", net::Position{0, 0}, 120.0, bc);
    hall.keys().add_key("hall", to_bytes("k"));

    MobileNode robot(net, "robot", net::Position{10, 0}, 120.0);
    robot.trust().trust("hall", to_bytes("k"));

    // More distinct scripts than the compile cap and more distinct
    // pointcuts than the pointcut cap: every one is a cache miss, and each
    // miss past a cap evicts exactly one entry.
    constexpr std::size_t kCompileCap = AdaptationService::kCompileCacheCap;
    constexpr std::size_t kPointcutCap = AdaptationService::kPointcutCacheCap;
    static_assert(kPointcutCap >= kCompileCap);
    const std::size_t n = kPointcutCap + 4;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string tag = std::to_string(i);
        ExtensionPackage pkg =
            policy_pkg("hall/p" + tag, "fun onEntry() { let x = " + tag + "; }");
        pkg.bindings[0].pointcut = "call(* Motor.*(..)) && !call(* Motor.op" + tag + "(..))";
        hall.base().add_extension(pkg);
    }
    SimTime deadline = sim.now() + seconds(60);
    while (sim.now() < deadline && robot.receiver().installed_count() < n) {
        sim.run_until(sim.now() + milliseconds(100));
    }
    ASSERT_EQ(robot.receiver().installed_count(), n);

    EXPECT_EQ(robot.receiver().compile_cache_size(), kCompileCap);
    EXPECT_EQ(robot.receiver().pointcut_cache_size(), kPointcutCap);
    EXPECT_GE(robot.receiver().stats().cache_evictions,
              (n - kCompileCap) + (n - kPointcutCap));

    // The caches are an optimization, not a correctness device: everything
    // still installed and stays alive past a lease lifetime.
    sim.run_for(seconds(3));
    EXPECT_EQ(robot.receiver().installed_count(), n);
    EXPECT_EQ(robot.receiver().stats().expirations, 0u);
}

// ------------------------------------------------- batched cell protocol ----

/// A far-away base, a cell anchor (registrar + relay) on the backhaul, and
/// `n` nodes that can reach only the cell anchor: base <-> anchor at
/// distance 100, nodes clustered past x=130 with 60 m radios. Everything
/// the base learns about the cell and everything it keeps alive flows
/// through one batch frame per period.
struct CellWorld {
    sim::Simulator sim;
    net::Network net;
    std::unique_ptr<BaseStation> hub;
    std::unique_ptr<CellStation> anchor;
    std::vector<std::unique_ptr<MobileNode>> nodes;

    explicit CellWorld(std::uint64_t seed, int n, BaseConfig bc = make_config(),
                       net::NetworkConfig nc = {})
        : net(sim, std::move(nc), seed) {
        hub = std::make_unique<BaseStation>(net, "hub", net::Position{0, 0}, 120.0, bc);
        hub->keys().add_key("hub", to_bytes("hk"));
        anchor = std::make_unique<CellStation>(net, "cell-east",
                                               net::Position{100, 0}, 120.0);
        ReceiverConfig rc;
        rc.cell = "cell-east";
        for (int i = 0; i < n; ++i) {
            net::Position pos{130.0 + 5.0 * (i % 6), 5.0 * (i / 6)};
            auto node = std::make_unique<MobileNode>(
                net, "n" + std::to_string(i), pos, 60.0, rc);
            node->trust().trust("hub", to_bytes("hk"));
            nodes.push_back(std::move(node));
        }
        hub->base().attach_cell("cell-east", anchor->id());
        hub->base().add_extension(policy_pkg("hub/policy"));
    }

    static BaseConfig make_config() {
        BaseConfig bc;
        bc.issuer = "hub";
        // Room for a couple of lost rounds before anything lapses — the
        // relay link is a backhaul, not a radio whisper.
        bc.extension_lease = seconds(4);
        bc.max_keepalive_failures = 4;
        return bc;
    }

    bool run_until(const std::function<bool()>& pred, Duration timeout = seconds(30)) {
        SimTime deadline = sim.now() + timeout;
        while (sim.now() < deadline) {
            if (pred()) return true;
            sim.run_until(sim.now() + milliseconds(100));
        }
        return pred();
    }

    bool converged() {
        for (auto& n : nodes) {
            if (n->receiver().installed_count() != 1) return false;
        }
        return true;
    }

    std::uint64_t expirations() {
        std::uint64_t total = 0;
        for (auto& n : nodes) total += n->receiver().stats().expirations;
        return total;
    }
};

TEST(CellBatch, OneFrameAndOneBlobPerPeriodAdaptsAWholeCell) {
    const int kNodes = 8;
    CellWorld w(303, kNodes);
    // The base never hears the nodes directly (they are out of its radio
    // range); membership arrives as join records through the relay, and
    // every install flows through the batch path.
    ASSERT_TRUE(w.run_until([&] { return w.converged(); }));
    EXPECT_EQ(w.hub->base().adapted_count(), static_cast<std::size_t>(kNodes));
    // The reply to frame N carries the results collected since frame N-1:
    // give the pipeline one more period to surface the install statuses.
    ASSERT_TRUE(w.run_until([&] {
        return w.hub->base().cell_stats("cell-east").statuses >=
               static_cast<std::uint64_t>(kNodes);
    }));

    ExtensionBase::CellStats cs = w.hub->base().cell_stats("cell-east");
    EXPECT_EQ(cs.joins, static_cast<std::uint64_t>(kNodes));
    // Content-hash policy sync: one policy, one blob on the wire — not one
    // per node.
    EXPECT_EQ(cs.blobs_sent, 1u);
    EXPECT_EQ(w.anchor->relay().roster_size(), static_cast<std::size_t>(kNodes));
    EXPECT_EQ(w.anchor->relay().cached_blobs(), 1u);

    // Steady state: frame cost per period is O(1) in the cell size. Over a
    // 4 s window (5 keep-alive periods at 800 ms) the base sends ~5 frames;
    // the direct path would have sent kNodes keep-alives per period.
    std::uint64_t frames0 = w.hub->base().cell_stats("cell-east").frames_sent;
    std::uint64_t fanout0 = w.anchor->relay().stats().fanout_calls;
    w.sim.run_for(seconds(4));
    std::uint64_t frames = w.hub->base().cell_stats("cell-east").frames_sent - frames0;
    std::uint64_t fanout = w.anchor->relay().stats().fanout_calls - fanout0;
    EXPECT_GE(frames, 4u);
    EXPECT_LE(frames, 7u);  // one per period, +slack for boundary ticks
    // The relay did the per-node work locally: ~kNodes keep-alives per
    // period left the anchor while ~1 frame per period crossed the backhaul.
    EXPECT_GE(fanout, frames * (kNodes - 1));
    // And nobody lapsed while batched keep-alives carried the cell.
    EXPECT_EQ(w.expirations(), 0u);
    EXPECT_EQ(w.hub->base().stats().nodes_dropped, 0u);

    // A policy change propagates through the same path: replacing the
    // package bumps the version, ships exactly one new blob to the cell,
    // and every node converges onto the replacement.
    std::uint64_t replaced0 = 0;
    for (auto& n : w.nodes) replaced0 += n->receiver().stats().replacements;
    w.hub->base().add_extension(policy_pkg("hub/policy", "fun onEntry() { let y = 1; }"));
    ASSERT_TRUE(w.run_until([&] {
        std::uint64_t replaced = 0;
        for (auto& n : w.nodes) replaced += n->receiver().stats().replacements;
        return replaced - replaced0 == kNodes;
    }));
    EXPECT_EQ(w.hub->base().cell_stats("cell-east").blobs_sent, 2u);
    EXPECT_EQ(w.expirations(), 0u);
}

TEST(CellBatch, RelayDeathDetachesTheCellAndNodesFallBackToDirect) {
    // Everything in mutual range this time: the nodes advertise to the
    // hub's registrar too (their advertisement carries attrs["cell"]), so
    // when the relay dies the direct per-node path can take over.
    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 404);
    BaseConfig bc = CellWorld::make_config();
    // The fallback window must fit inside a lease: with the default
    // threshold the base detaches ~3 periods after the relay dies and the
    // very next tick renews directly, comfortably under a 5 s lease.
    bc.extension_lease = seconds(5);
    bc.max_keepalive_failures = 2;
    BaseStation hub(net, "hub", net::Position{0, 0}, 150.0, bc);
    hub.keys().add_key("hub", to_bytes("hk"));
    auto anchor = std::make_unique<CellStation>(net, "cell-east",
                                                net::Position{40, 0}, 150.0);
    ReceiverConfig rc;
    rc.cell = "cell-east";
    std::vector<std::unique_ptr<MobileNode>> nodes;
    for (int i = 0; i < 4; ++i) {
        auto node = std::make_unique<MobileNode>(
            net, "n" + std::to_string(i), net::Position{20.0 + 10 * i, 20}, 150.0, rc);
        node->trust().trust("hub", to_bytes("hk"));
        nodes.push_back(std::move(node));
    }
    hub.base().attach_cell("cell-east", anchor->id());
    hub.base().add_extension(policy_pkg("hub/policy"));

    auto run_until = [&](const std::function<bool()>& pred, Duration timeout) {
        SimTime deadline = sim.now() + timeout;
        while (sim.now() < deadline) {
            if (pred()) return true;
            sim.run_until(sim.now() + milliseconds(100));
        }
        return pred();
    };
    auto converged = [&] {
        return std::all_of(nodes.begin(), nodes.end(), [](auto& n) {
            return n->receiver().installed_count() == 1;
        });
    };
    ASSERT_TRUE(run_until(converged, seconds(30)));
    // Batching is in effect.
    ASSERT_GT(hub.base().cell_stats("cell-east").frames_sent, 0u);

    // The anchor dies. Frames start failing; past max_keepalive_failures
    // consecutive failures the base detaches the cell and the members fall
    // back to direct keep-alives — without any node losing its lease
    // (frame failures say nothing about member health, so no failure
    // ledger moves).
    net.remove_node(anchor->id());
    ASSERT_TRUE(run_until(
        [&] { return hub.base().cell_stats("cell-east").frames_sent == 0; },
        seconds(15)));  // detached cells read back as zeros

    sim.run_for(seconds(8));  // two lease lifetimes on the direct path
    EXPECT_TRUE(converged());
    for (auto& n : nodes) {
        EXPECT_EQ(n->receiver().stats().expirations, 0u) << n->label();
    }
    EXPECT_EQ(hub.base().stats().nodes_dropped, 0u);
    EXPECT_EQ(hub.base().adapted_count(), 4u);
    // Direct keep-alives are flowing again (counted per (node, ext) per
    // period once the cell no longer swallows them into frames).
    std::uint64_t ka0 = hub.base().stats().keepalives_sent;
    sim.run_for(seconds(2));
    EXPECT_GT(hub.base().stats().keepalives_sent, ka0);
}

TEST(CellBatch, NeedBlobOnSyncedRosterForcesPutResendWithBlob) {
    // A scripted relay stands in for a real one so the protocol corner is
    // deterministic: the roster reaches full sync (no ops flowing), the
    // blob was delivered — and THEN the relay claims it lost its blob
    // cache (a restart), via a kNeedBlob status. Blobs only ride frames
    // next to put ops, so erasing relay_has alone is not enough: the base
    // must also un-sync the entries naming that hash, or no op is ever
    // generated again and the install stalls forever.
    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 606);
    BaseConfig bc = CellWorld::make_config();
    BaseStation hub(net, "hub", net::Position{0, 0}, 200.0, bc);
    hub.keys().add_key("hub", to_bytes("hk"));
    NodeStack relayhost(net, "relayhost", net::Position{50, 0}, 200.0);
    NodeStack member(net, "m0", net::Position{60, 0}, 200.0);

    struct ScriptState {
        std::uint64_t member = 0;
        bool sent_join = false;
        bool blob_delivered = false;
        bool reported_need_blob = false;
        bool reblobbed = false;  // a frame carried the blob again after the report
    } script;
    script.member = member.id().value;

    auto& runtime = relayhost.rpc().runtime();
    auto type =
        rt::TypeInfo::Builder("ScriptedCellRelay")
            .method("batch", rt::TypeKind::kDict, {{"frame", rt::TypeKind::kDict}},
                    [&script](rt::ServiceObject&, rt::List& args) -> Value {
                        const rt::Dict& frame = args[0].as_dict();
                        std::int64_t seq = frame.at("seq").as_int();
                        bool has_ops = !frame.at("ops").as_list().empty();
                        bool has_blob = !frame.at("blobs").as_dict().empty();
                        if (has_blob) {
                            if (script.reported_need_blob) script.reblobbed = true;
                            script.blob_delivered = true;
                        }
                        rt::List statuses;
                        rt::List joins;
                        if (!script.sent_join) {
                            script.sent_join = true;
                            joins.push_back(Value{rt::Dict{
                                {"id", Value{std::int64_t{1}}},
                                {"node",
                                 Value{static_cast<std::int64_t>(script.member)}},
                                {"label", Value{std::string("m0")}}}});
                        } else if (script.blob_delivered && !has_ops &&
                                   !script.reported_need_blob) {
                            script.reported_need_blob = true;
                            statuses.push_back(Value{rt::Dict{
                                {"id", Value{std::int64_t{2}}},
                                {"node",
                                 Value{static_cast<std::int64_t>(script.member)}},
                                {"name", Value{std::string("hub/policy")}},
                                {"code",
                                 Value{std::int64_t{cellproto::kNeedBlob}}},
                                {"ext", Value{std::int64_t{0}}}}});
                        }
                        return Value{rt::Dict{
                            {"applied", Value{seq}},
                            {"resync", Value{false}},
                            {"bitmap_seq", Value{seq}},
                            {"ok", Value{Bytes{}}},
                            {"statuses", Value{std::move(statuses)}},
                            {"joins", Value{std::move(joins)}}}};
                    })
            .build();
    runtime.register_type(type);
    auto relay_object = runtime.create("ScriptedCellRelay", "midas.cell");
    relayhost.rpc().export_object("midas.cell");

    hub.base().attach_cell("cell-x", relayhost.id());
    hub.base().add_extension(policy_pkg("hub/policy"));

    SimTime deadline = sim.now() + seconds(20);
    while (sim.now() < deadline && !script.reblobbed) {
        sim.run_until(sim.now() + milliseconds(100));
    }
    EXPECT_TRUE(script.reported_need_blob);
    // The regression: without the un-sync, desired == synced after the
    // report, no frame ever carries an op again, and the blob never comes.
    EXPECT_TRUE(script.reblobbed);
}

TEST(CellBatch, NeedBlobForCanaryLineResendsTheCanaryBlob) {
    // Same scripted relay, but the member sits in a rollout's canary
    // cohort: its roster line carries the canary's hash, not the policy's.
    // When the relay reports it lost that blob, the base must un-sync the
    // line and re-send the canary blob. The regression: the status was
    // mapped back to the policy's hash, so the canary hash stayed in
    // relay_has, the line stayed synced, and the blob never came again.
    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 616);
    BaseConfig bc = CellWorld::make_config();
    bc.rollout.stages = {1.0};               // the member is in the cohort
    bc.rollout.stage_window = seconds(3600);  // and stays a canary
    BaseStation hub(net, "hub", net::Position{0, 0}, 200.0, bc);
    hub.keys().add_key("hub", to_bytes("hk"));
    NodeStack relayhost(net, "relayhost", net::Position{50, 0}, 200.0);
    NodeStack member(net, "m0", net::Position{60, 0}, 200.0);

    struct ScriptState {
        std::uint64_t member = 0;
        bool sent_join = false;
        std::set<std::string> blobs_seen;  // hashes delivered so far
        std::string canary;                // the second hash ever delivered
        bool reported_need_blob = false;
        bool reblobbed = false;  // a frame carried the canary blob after the report
    } script;
    script.member = member.id().value;

    auto& runtime = relayhost.rpc().runtime();
    auto type =
        rt::TypeInfo::Builder("ScriptedCanaryRelay")
            .method("batch", rt::TypeKind::kDict, {{"frame", rt::TypeKind::kDict}},
                    [&script](rt::ServiceObject&, rt::List& args) -> Value {
                        const rt::Dict& frame = args[0].as_dict();
                        std::int64_t seq = frame.at("seq").as_int();
                        bool has_ops = !frame.at("ops").as_list().empty();
                        for (const auto& [hash, _] : frame.at("blobs").as_dict()) {
                            if (script.reported_need_blob && hash == script.canary) {
                                script.reblobbed = true;
                            }
                            if (script.blobs_seen.insert(hash).second &&
                                script.blobs_seen.size() == 2) {
                                script.canary = hash;
                            }
                        }
                        rt::List statuses;
                        rt::List joins;
                        if (!script.sent_join) {
                            script.sent_join = true;
                            joins.push_back(Value{rt::Dict{
                                {"id", Value{std::int64_t{1}}},
                                {"node",
                                 Value{static_cast<std::int64_t>(script.member)}},
                                {"label", Value{std::string("m0")}}}});
                        } else if (!script.canary.empty() && !has_ops &&
                                   !script.reported_need_blob) {
                            script.reported_need_blob = true;
                            statuses.push_back(Value{rt::Dict{
                                {"id", Value{std::int64_t{2}}},
                                {"node",
                                 Value{static_cast<std::int64_t>(script.member)}},
                                {"name", Value{std::string("hub/policy")}},
                                {"code",
                                 Value{std::int64_t{cellproto::kNeedBlob}}},
                                {"ext", Value{std::int64_t{0}}}}});
                        }
                        return Value{rt::Dict{
                            {"applied", Value{seq}},
                            {"resync", Value{false}},
                            {"bitmap_seq", Value{seq}},
                            {"ok", Value{Bytes{}}},
                            {"statuses", Value{std::move(statuses)}},
                            {"joins", Value{std::move(joins)}}}};
                    })
            .build();
    runtime.register_type(type);
    auto relay_object = runtime.create("ScriptedCanaryRelay", "midas.cell");
    relayhost.rpc().export_object("midas.cell");

    hub.base().attach_cell("cell-x", relayhost.id());
    hub.base().add_extension(policy_pkg("hub/policy"));
    auto run_until = [&](const std::function<bool()>& pred) {
        SimTime deadline = sim.now() + seconds(20);
        while (sim.now() < deadline && !pred()) sim.run_until(sim.now() + milliseconds(100));
        return pred();
    };
    ASSERT_TRUE(run_until([&] { return script.blobs_seen.size() == 1; }));

    hub.base().begin_rollout(policy_pkg("hub/policy", "fun onEntry() { let canary = 1; }"));
    ASSERT_TRUE(hub.base().rollout().selects_canary("hub/policy", "m0"));
    ASSERT_TRUE(run_until([&] { return script.reblobbed; }));
    EXPECT_TRUE(script.reported_need_blob);
    EXPECT_EQ(script.blobs_seen.size(), 2u);
}

TEST(CellBatch, ReattachToSurvivingRelayResyncsInOneRound) {
    // The relay outlives a detach/re-attach (e.g. a transient backhaul
    // partition makes the base give up on the cell, then re-adopt it).
    // The fresh CellState restarts at seq 0 while the relay still holds
    // its applied high-water mark — the base must adopt it from the first
    // resync reply. The regression: counting up one seq per period until
    // it passes the relay's mark, with no fan-out the whole time, which
    // outlasts the 4 s extension lease and expires every healthy member.
    CellWorld w(707, 6);
    ASSERT_TRUE(w.run_until([&] { return w.converged(); }));
    // Let the relay's applied_seq_ climb well past lease/period.
    w.sim.run_for(seconds(8));
    ASSERT_EQ(w.expirations(), 0u);
    std::uint64_t resyncs0 = w.anchor->relay().stats().resyncs;

    w.hub->base().detach_cell("cell-east");
    w.hub->base().attach_cell("cell-east", w.anchor->id());

    w.sim.run_for(seconds(6));
    EXPECT_TRUE(w.converged());
    EXPECT_EQ(w.expirations(), 0u);
    EXPECT_EQ(w.hub->base().stats().nodes_dropped, 0u);
    // Recovery cost one resync round (plus slack for a boundary tick),
    // not applied_seq_ rounds.
    EXPECT_LE(w.anchor->relay().stats().resyncs - resyncs0, 2u);
}

TEST(CellBatch, StaleFrameLeavesRelayEpochAndLeaseUntouched) {
    CellWorld w(808, 4);
    ASSERT_TRUE(w.run_until([&] { return w.converged(); }));
    std::uint64_t epoch0 = w.anchor->relay().epoch();
    std::int64_t lease0 = w.anchor->relay().lease_ms();
    ASSERT_GT(lease0, 0);
    std::uint64_t resyncs0 = w.anchor->relay().stats().resyncs;

    // A late-delivered old frame (possible when a timeout makes the base
    // pipeline a newer frame behind a delayed one): stale seq, a
    // rolled-back epoch and a poisonous 1 ms lease. It must be refused
    // with resync AND leave the relay's adopted epoch/lease untouched —
    // the regression assigned them before the staleness check, handing
    // the next fan-out round stale values for every receiver.
    rt::Dict frame{{"seq", Value{std::int64_t{1}}},
                   {"base", Value{std::int64_t{0}}},
                   {"epoch", Value{std::int64_t{4242}}},
                   {"lease_ms", Value{std::int64_t{1}}},
                   {"ack", Value{std::int64_t{0}}},
                   {"pause", Value{rt::List{}}},
                   {"ops", Value{rt::List{}}},
                   {"blobs", Value{rt::Dict{}}}};
    bool replied = false;
    bool resync = false;
    w.hub->rpc().call_async(w.anchor->id(), "midas.cell", "batch",
                            {Value{std::move(frame)}},
                            [&](Value result, std::exception_ptr error) {
                                ASSERT_FALSE(error);
                                replied = true;
                                resync = result.as_dict().at("resync").as_bool();
                            });
    ASSERT_TRUE(w.run_until([&] { return replied; }, seconds(5)));
    EXPECT_TRUE(resync);
    EXPECT_EQ(w.anchor->relay().stats().resyncs, resyncs0 + 1);
    EXPECT_EQ(w.anchor->relay().epoch(), epoch0);
    EXPECT_EQ(w.anchor->relay().lease_ms(), lease0);

    // And the cell rides on unharmed.
    w.sim.run_for(seconds(3));
    EXPECT_TRUE(w.converged());
    EXPECT_EQ(w.expirations(), 0u);
}

TEST(CellBatch, InstallsGoOutPrerequisitesFirst) {
    // "hub/access" implies "hub/session" (paper: adding access control
    // adds session management) but sorts before it by name. The relay must
    // send the prerequisite first. A jitter-free radio and two packages of
    // equal sealed size make the order installs arrive in the order they
    // were sent.
    net::NetworkConfig still;
    still.jitter = Duration{0};
    CellWorld w(909, 4, CellWorld::make_config(), still);
    ASSERT_TRUE(w.run_until([&] { return w.converged(); }));

    std::map<std::string, std::vector<std::string>> order;  // node -> installs
    for (auto& n : w.nodes) {
        n->receiver().on_event([&order, label = n->label()](
                                   const std::string& event, const AdaptationService::Installed& e) {
            if (event == "install") order[label].push_back(e.name);
        });
    }
    ExtensionPackage session = policy_pkg("hub/session");
    ExtensionPackage access = policy_pkg("hub/access");
    access.implies = {"hub/session"};
    while (session.seal(w.hub->keys(), "hub").size() < access.seal(w.hub->keys(), "hub").size()) {
        session.script += " ";
    }
    ASSERT_EQ(session.seal(w.hub->keys(), "hub").size(),
              access.seal(w.hub->keys(), "hub").size());
    w.hub->base().add_extension(access);
    w.hub->base().add_extension(session);

    ASSERT_TRUE(w.run_until([&] {
        return std::all_of(w.nodes.begin(), w.nodes.end(),
                           [](auto& n) { return n->receiver().installed_count() == 3; });
    }));
    for (auto& n : w.nodes) {
        EXPECT_EQ(order[n->label()], (std::vector<std::string>{"hub/session", "hub/access"}))
            << n->label();
    }
}

TEST(CellBatch, ReplacementRacingAnInFlightInstallIsInstalled) {
    // A scripted base drives a real relay: frame 1 puts v1 of a package for
    // the member, frame 2 puts v2 while v1's install is still on the air.
    // v1's reply lands on a line that names v2 by then: the relay must
    // ignore it and install v2. The regression took v1's extension id for
    // the line, so the base's hash check passed and the relay renewed v1
    // forever.
    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 919);
    NodeStack hub(net, "hub", net::Position{0, 0}, 200.0);
    CellStation anchor(net, "cell-x", net::Position{50, 0}, 200.0);
    MobileNode member(net, "m0", net::Position{60, 0}, 200.0);
    crypto::KeyStore keys;
    keys.add_key("hub", to_bytes("hk"));
    member.trust().trust("hub", to_bytes("hk"));

    auto sealed = [&keys](std::uint32_t version, const std::string& body) {
        ExtensionPackage pkg = policy_pkg("hub/policy", body);
        pkg.version = version;
        return pkg.seal(keys, "hub");
    };
    auto hash_of = [](const Bytes& blob) {
        return crypto::to_hex(crypto::Sha256::hash(std::span<const std::uint8_t>(blob)));
    };
    const Bytes v1 = sealed(1, "fun onEntry() { }");
    const Bytes v2 = sealed(2, "fun onEntry() { let y = 1; }");

    std::int64_t seq = 0;
    std::int64_t ack = 0;
    std::vector<std::int64_t> installed_exts;  // kInstalled records, in order
    auto send = [&](rt::List ops, rt::Dict blobs) {
        ++seq;
        rt::Dict frame{{"seq", Value{seq}},
                       {"base", Value{seq - 1}},
                       {"epoch", Value{std::int64_t{1}}},
                       {"lease_ms", Value{std::int64_t{2000}}},
                       {"ack", Value{ack}},
                       {"pause", Value{rt::List{}}},
                       {"ops", Value{std::move(ops)}},
                       {"blobs", Value{std::move(blobs)}}};
        hub.rpc().call_async(anchor.id(), "midas.cell", "batch", {Value{std::move(frame)}},
                             [&](Value reply, std::exception_ptr error) {
                                 ASSERT_FALSE(error);
                                 for (const Value& sv : reply.as_dict().at("statuses").as_list()) {
                                     const rt::Dict& st = sv.as_dict();
                                     if (st.at("id").as_int() <= ack) continue;
                                     ack = st.at("id").as_int();
                                     if (st.at("code").as_int() == cellproto::kInstalled) {
                                         installed_exts.push_back(st.at("ext").as_int());
                                     }
                                 }
                             });
    };
    auto put = [&member](const std::string& hash) {
        return Value{rt::Dict{{"op", Value{"put"}},
                              {"node", Value{static_cast<std::int64_t>(member.id().value)}},
                              {"name", Value{"hub/policy"}},
                              {"ext", Value{std::int64_t{0}}},
                              {"hash", Value{hash}}}};
    };
    sim.run_for(milliseconds(100));
    send(rt::List{put(hash_of(v1))}, rt::Dict{{hash_of(v1), Value{v1}}});
    sim.run_for(milliseconds(1));
    send(rt::List{put(hash_of(v2))}, rt::Dict{{hash_of(v2), Value{v2}}});
    // Steady state: empty frames, one per period, acking the records.
    for (int i = 0; i < 10; ++i) {
        sim.run_for(milliseconds(800));
        send(rt::List{}, rt::Dict{});
    }
    sim.run_for(milliseconds(100));

    ASSERT_EQ(member.receiver().installed_count(), 1u);
    const auto installed = member.receiver().installed();
    EXPECT_EQ(installed[0].version, 2u);
    EXPECT_EQ(member.receiver().stats().expirations, 0u);
    // One install reported, and it is v2's.
    ASSERT_EQ(installed_exts.size(), 1u);
    EXPECT_EQ(static_cast<std::uint64_t>(installed_exts[0]), installed[0].id.value);
}

TEST(CellBatch, MemberThatRefusesAPackageStaysInTheBook) {
    // Only silence drops a node. A member whose receiver refuses the
    // cell's only package (it grants the issuer no "net" capability)
    // answers every install with an error: alive, in range, and still in
    // the base's book. The regression counted each refusal toward the
    // drop, and the relay never re-reports a member whose registration
    // stays live, so the member was lost for good.
    CellWorld w(929, 3);
    w.hub->base().remove_extension("hub/policy");
    ExtensionPackage net_pkg = policy_pkg("hub/net");
    net_pkg.capabilities = {"net"};
    w.hub->base().add_extension(net_pkg);
    for (std::size_t i = 1; i < w.nodes.size(); ++i) {
        w.nodes[i]->receiver().allow_capabilities("hub", {"net"});
    }

    w.sim.run_for(seconds(30));
    EXPECT_EQ(w.hub->base().stats().nodes_dropped, 0u);
    EXPECT_EQ(w.hub->base().adapted_count(), w.nodes.size());
    EXPECT_GE(w.hub->base().stats().install_failures, 2u);
    EXPECT_EQ(w.nodes[0]->receiver().installed_count(), 0u);
    for (std::size_t i = 1; i < w.nodes.size(); ++i) {
        EXPECT_EQ(w.nodes[i]->receiver().installed_count(), 1u) << w.nodes[i]->label();
        EXPECT_EQ(w.nodes[i]->receiver().stats().expirations, 0u) << w.nodes[i]->label();
    }
}

// -------------------------------------------------- batched-frame chaos ----

/// The CellWorld under a hostile backhaul and radio: loss, heavy
/// duplication, reordering, delay jitter, plus a scheduled 1.2 s blackout
/// of the hub (shorter than the extension lease). The protocol's promise:
/// no duplicated/reordered/replayed frame or reply ever double-applies a
/// renewal or counts a phantom failure — so across the whole band, zero
/// healthy-node expirations and zero drops.
struct CellChaosWorld : CellWorld {
    explicit CellChaosWorld(std::uint64_t seed, int n = 6)
        : CellWorld(seed, n) {
        net::FaultPlan plan;
        plan.loss = 0.02;
        plan.delay_jitter = milliseconds(5);
        plan.duplicate = 0.15;  // the interesting hazard for a seq protocol
        plan.reorder = 0.10;
        plan.partitions.push_back(net::PartitionWindow{
            SimTime::zero() + seconds(6), SimTime::zero() + milliseconds(7200),
            {hub->id()},
            {}});
        net.set_fault_plan(plan, seed * 1000003ULL + 17);
    }
};

TEST(CellChaos, BatchedFramesSurviveLossDupAndReorderAcrossSeeds) {
    std::uint64_t total_resyncs = 0;
    std::uint64_t total_dups = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        CellChaosWorld w(seed);
        // Ride through the fault band including the hub blackout.
        w.sim.run_for(seconds(12));
        ASSERT_TRUE(w.run_until([&] { return w.converged(); })) << "seed " << seed;
        // Hold: the batched keep-alive stream outruns the ongoing faults.
        w.sim.run_for(seconds(5));
        ASSERT_TRUE(w.run_until([&] { return w.converged(); })) << "seed " << seed;

        // The core acceptance bar: a healthy node never pays for a dropped,
        // duplicated or reordered *frame* — no expirations, no drops, every
        // member still adapted, exactly one install per node (duplicates
        // never double-applied).
        EXPECT_EQ(w.expirations(), 0u) << "seed " << seed;
        EXPECT_EQ(w.hub->base().stats().nodes_dropped, 0u) << "seed " << seed;
        EXPECT_EQ(w.hub->base().adapted_count(), w.nodes.size()) << "seed " << seed;
        for (auto& n : w.nodes) {
            EXPECT_EQ(n->receiver().stats().installs, 1u)
                << "seed " << seed << " " << n->label();
        }

        net::NetworkStats s = w.net.stats();
        // Duplication inflates deliveries past sends; the books balance
        // once the duplicated frames are counted.
        EXPECT_LE(s.delivered, s.sent + s.fault_duplicated) << "seed " << seed;
        EXPECT_GT(s.fault_dropped_partition, 0u) << "seed " << seed;
        total_dups += s.fault_duplicated;
        total_resyncs += w.hub->base().cell_stats("cell-east").resyncs;
    }
    // The band actually exercised the machinery it certifies: duplicated
    // frames were injected, and lost replies forced full-roster resyncs.
    EXPECT_GT(total_dups, 0u);
    EXPECT_GT(total_resyncs, 0u);
}

TEST(CellChaos, SameSeedReplaysIdentically) {
    auto fingerprint = [](std::uint64_t seed) {
        CellChaosWorld w(seed);
        w.sim.run_for(seconds(15));
        net::NetworkStats s = w.net.stats();
        ExtensionBase::CellStats cs = w.hub->base().cell_stats("cell-east");
        return std::tuple{s.sent,
                          s.delivered,
                          s.fault_dropped_loss,
                          s.fault_dropped_partition,
                          s.fault_duplicated,
                          s.fault_delayed,
                          s.fault_reordered,
                          cs.frames_sent,
                          cs.frame_failures,
                          cs.resyncs,
                          cs.statuses,
                          cs.joins,
                          w.anchor->relay().stats().frames,
                          w.anchor->relay().stats().fanout_calls,
                          w.anchor->relay().stats().resyncs,
                          w.nodes[0]->receiver().stats().installs,
                          w.nodes[1]->receiver().stats().refreshes};
    };
    EXPECT_EQ(fingerprint(7), fingerprint(7));
    EXPECT_NE(fingerprint(7), fingerprint(8));
}

}  // namespace
}  // namespace pmp::midas
