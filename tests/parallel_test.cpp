// Tests for the deterministic parallel simulation kernel and the
// epoch/RCU hook-table publication path it leans on:
//   - EpochDomain grace periods (participants, read guards, reclamation)
//   - concurrent advice dispatch vs. weave/withdraw on live threads
//   - window/mailbox semantics of ShardedSimulator
//   - the determinism contract: identical seeds produce byte-identical
//     merged traces and journals at 1, 2 and 4 workers (the ShardChaos
//     soak drives shard-local radios, faults and cross-shard mesh traffic
//     to make that comparison mean something).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "core/weaver.h"
#include "net/mesh.h"
#include "net/network.h"
#include "net/router.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "rt/runtime.h"
#include "sim/shard.h"

namespace pmp {
namespace {

// ----------------------------------------------------------- EpochDomain ----

TEST(EpochDomain, ReclaimsOnceParticipantsQuiesce) {
    EpochDomain domain;
    std::atomic<bool> freed{false};

    std::atomic<int> phase{0};
    std::thread worker([&]() {
        EpochDomain::Participant p(domain);
        phase.store(1);
        while (phase.load() != 2) std::this_thread::yield();
        p.quiescent();
        phase.store(3);
        while (phase.load() != 4) std::this_thread::yield();
    });
    while (phase.load() != 1) std::this_thread::yield();

    domain.retire([&]() { freed.store(true); });
    // The worker registered before the retirement and has not quiesced
    // since: the entry must be deferred.
    domain.reap();
    EXPECT_FALSE(freed.load());
    EXPECT_EQ(domain.pending(), 1u);

    phase.store(2);
    while (phase.load() != 3) std::this_thread::yield();
    domain.reap();
    EXPECT_TRUE(freed.load());
    EXPECT_EQ(domain.pending(), 0u);
    phase.store(4);
    worker.join();
}

TEST(EpochDomain, ParticipantDestructionCountsAsQuiescence) {
    EpochDomain domain;
    bool freed = false;
    std::thread worker([&]() {
        EpochDomain::Participant p(domain);
        domain.retire([&]() { freed = true; });
        // No quiescent() call: destruction must release the entry.
    });
    worker.join();
    domain.reap();
    EXPECT_TRUE(freed);
}

TEST(EpochDomain, ReadGuardPinsReclamation) {
    // Guards from unregistered threads (this one) defer everything,
    // including entries retired by the guarded thread itself — the
    // withdraw-from-inside-advice shape.
    auto& domain = EpochDomain::global();
    bool freed = false;
    {
        EpochDomain::ReadGuard guard;
        domain.retire([&]() { freed = true; });
        domain.reap();
        EXPECT_FALSE(freed);
    }
    domain.reap();
    EXPECT_TRUE(freed);
}

TEST(EpochDomain, NestedGuardsReleaseOnce) {
    auto& domain = EpochDomain::global();
    bool freed = false;
    {
        EpochDomain::ReadGuard outer;
        {
            EpochDomain::ReadGuard inner;
            domain.retire([&]() { freed = true; });
        }
        domain.reap();
        EXPECT_FALSE(freed);  // outer guard still live
    }
    domain.reap();
    EXPECT_TRUE(freed);
}

TEST(EpochDomain, CountersTrackRetirements) {
    EpochDomain domain;
    std::uint64_t before = domain.retired_total();
    domain.retire([]() {});
    domain.retire([]() {});
    EXPECT_EQ(domain.retired_total(), before + 2);
    domain.reap();
    EXPECT_EQ(domain.reclaimed_total(), domain.retired_total());
}

TEST(EpochDomain, GuardReleaseReclaimsWhatWasRetiredUnderIt) {
    // No explicit reap(): the last guard's release is the reap.
    auto& domain = EpochDomain::global();
    bool freed = false;
    {
        EpochDomain::ReadGuard guard;
        domain.retire([&]() { freed = true; });
        EXPECT_FALSE(freed);
    }
    EXPECT_TRUE(freed);
    EXPECT_EQ(domain.pending(), 0u);
}

TEST(EpochDomain, RetiredWithNoGuardLiveIsReclaimedByTheNextReap) {
    // Nothing pins the global domain here: retire()'s own reap frees it.
    bool freed = false;
    EpochDomain::global().retire([&]() { freed = true; });
    EXPECT_TRUE(freed);
    EXPECT_EQ(EpochDomain::global().pending(), 0u);

    // A participant that has not quiesced defers an entry; its next
    // quiescent() is the next reap and frees it.
    EpochDomain domain;
    std::atomic<bool> freed_later{false};
    std::thread worker([&]() {
        EpochDomain::Participant p(domain);
        domain.retire([&]() { freed_later.store(true); });
        EXPECT_FALSE(freed_later.load());
        EXPECT_EQ(domain.pending(), 1u);
        p.quiescent();
        EXPECT_TRUE(freed_later.load());
        EXPECT_EQ(domain.pending(), 0u);
    });
    worker.join();
}

TEST(EpochDomain, QuietGuardCyclesReclaimNothingAndLoseNothing) {
    // A release with nothing pending returns before the domain lock; one
    // with something pending still reclaims it. Interleave both shapes,
    // plus retirements between guards, and account for every entry.
    auto& domain = EpochDomain::global();
    domain.reap();
    ASSERT_EQ(domain.pending(), 0u);
    std::uint64_t retired = 0, freed = 0;
    for (int i = 0; i < 100'000; ++i) {
        const std::uint64_t reclaimed0 = domain.reclaimed_total();
        const bool under_guard = i % 97 == 0;
        {
            EpochDomain::ReadGuard guard;
            if (under_guard) {
                domain.retire([&]() { ++freed; });
                ++retired;
                ASSERT_EQ(freed + 1, retired);
            }
        }
        ASSERT_EQ(domain.reclaimed_total() - reclaimed0, under_guard ? 1u : 0u) << i;
        if (i % 89 == 0) {
            domain.retire([&]() { ++freed; });
            ++retired;
        }
        ASSERT_EQ(freed, retired) << i;
    }
    EXPECT_EQ(domain.pending(), 0u);
}

TEST(EpochDomain, GuardReleaseRacingRetireFreesNothingEarlyAndLosesNothing) {
    // A reader thread cycles guards while this thread retires. `gen` is
    // odd exactly while the reader holds its guard, so an entry retired
    // after seeing odd `gen` must not be freed while `gen` still reads the
    // same value. Every entry must be gone once the reader stops: either
    // its final release or the retirer's own reap saw it.
    auto& domain = EpochDomain::global();
    std::atomic<std::uint64_t> gen{0};
    std::atomic<bool> done{false};
    std::atomic<int> early{0}, freed{0};
    std::thread reader([&]() {
        while (!done.load()) {
            EpochDomain::ReadGuard guard;
            gen.fetch_add(1);
            for (int spin = 0; spin < 32; ++spin) (void)done.load(std::memory_order_relaxed);
            gen.fetch_add(1);
        }
    });
    constexpr int kEntries = 5'000;
    std::uint64_t last = 0;
    for (int i = 0; i < kEntries; ++i) {
        // One retirement per reader step, so the two really interleave.
        while (gen.load() == last) std::this_thread::yield();
        const std::uint64_t seen = last = gen.load();
        domain.retire([&, seen]() {
            if (seen % 2 == 1 && gen.load() == seen) early.fetch_add(1);
            freed.fetch_add(1);
        });
    }
    done.store(true);
    reader.join();
    EXPECT_EQ(early.load(), 0);
    EXPECT_EQ(freed.load(), kEntries);
    EXPECT_EQ(domain.pending(), 0u);
}

// ------------------------------------------------- RCU hook publication ----

std::shared_ptr<rt::TypeInfo> calc_type() {
    return rt::TypeInfo::Builder("Calc")
        .method("add", rt::TypeKind::kInt, {{"x", rt::TypeKind::kInt}},
                [](rt::ServiceObject&, rt::List& args) -> rt::Value {
                    return rt::Value{args[0].as_int() + 1};
                })
        .build();
}

TEST(RcuDispatch, ConcurrentReadersSurviveHookChurn) {
    // Raw reader threads hammer dispatch while this thread publishes and
    // retires hook tables as fast as it can. Failure mode without the
    // epoch scheme: use-after-free of a superseded table mid-chain.
    rt::Runtime runtime("rcu-node");
    runtime.register_type(calc_type());
    auto obj = runtime.create("Calc", "calc:1");
    rt::Method* add = obj->type().method("add");

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> calls{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&]() {
            // One trace buffer per thread — the same contract the shard
            // workers follow (trace.h: buffers are thread-compatible).
            obs::TraceBuffer local(256);
            obs::TraceBuffer::Redirect redirect(local);
            while (!stop.load(std::memory_order_relaxed)) {
                rt::Value v = obj->call("add", {rt::Value{std::int64_t{41}}});
                // The body's result is stable whatever advice is woven.
                ASSERT_EQ(v.as_int(), 42);
                calls.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    // Don't start churning until every reader is demonstrably in its loop,
    // or the whole mutation phase can finish before the first dispatch.
    while (calls.load(std::memory_order_relaxed) < 16) std::this_thread::yield();

    std::atomic<std::uint64_t> advised{0};
    for (int round = 0; round < 400; ++round) {
        add->add_entry_hook(/*owner=*/7, /*priority=*/0,
                            [&](rt::CallFrame&) { advised.fetch_add(1); });
        add->add_exit_hook(/*owner=*/7, /*priority=*/0, [&](rt::CallFrame&) {});
        add->remove_hooks(7);
    }
    stop.store(true);
    for (auto& t : readers) t.join();
    EXPECT_GT(calls.load(), 0u);
    EXPECT_FALSE(add->woven());
    EpochDomain::global().reap();
    EXPECT_EQ(EpochDomain::global().pending(), 0u);
}

TEST(RcuDispatch, ConcurrentReadersSurviveWeaveWithdraw) {
    // Same shape one layer up: the Weaver publishes via the same RCU path
    // and retires each Woven through the domain; reader threads must never
    // observe a dangling Woven from a withdrawn aspect.
    rt::Runtime runtime("rcu-weave-node");
    runtime.register_type(calc_type());
    auto obj = runtime.create("Calc", "calc:2");
    prose::Weaver weaver(runtime);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> calls{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
        readers.emplace_back([&]() {
            obs::TraceBuffer local(256);
            obs::TraceBuffer::Redirect redirect(local);
            while (!stop.load(std::memory_order_relaxed)) {
                ASSERT_EQ(obj->call("add", {rt::Value{std::int64_t{1}}}).as_int(), 2);
                calls.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    while (calls.load(std::memory_order_relaxed) < 8) std::this_thread::yield();
    for (int round = 0; round < 200; ++round) {
        auto aspect = std::make_shared<prose::Aspect>("churn");
        aspect->before("call(* Calc.add(..))", [](rt::CallFrame&) {});
        AspectId id = weaver.weave(aspect);
        weaver.withdraw(id);
    }
    stop.store(true);
    for (auto& t : readers) t.join();
    EXPECT_GT(calls.load(), 0u);
}

TEST(RcuDispatch, ConcurrentReadersSurviveWeaverTeardown) {
    // A node's weaver owns its advice-profile sites, and a hook captures
    // its site by pointer. Readers still walking a superseded hook table
    // after ~Weaver must find the site alive: the retired Woven holds it
    // until the grace period ends.
    rt::Runtime runtime("rcu-teardown-node");
    runtime.register_type(calc_type());
    auto obj = runtime.create("Calc", "calc:3");

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> calls{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
        readers.emplace_back([&]() {
            obs::TraceBuffer local(256);
            obs::TraceBuffer::Redirect redirect(local);
            while (!stop.load(std::memory_order_relaxed)) {
                ASSERT_EQ(obj->call("add", {rt::Value{std::int64_t{1}}}).as_int(), 2);
                calls.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    while (calls.load(std::memory_order_relaxed) < 8) std::this_thread::yield();
    std::uint64_t advised = 0;
    for (int round = 0; round < 200; ++round) {
        auto weaver = std::make_unique<prose::Weaver>(runtime);
        auto aspect = std::make_shared<prose::Aspect>("teardown");
        aspect->before("call(* Calc.add(..))", [](rt::CallFrame&) {});
        weaver->weave(aspect);
        const std::uint64_t before = calls.load(std::memory_order_relaxed);
        while (calls.load(std::memory_order_relaxed) < before + 2) std::this_thread::yield();
        advised += weaver->site("teardown", "call(* Calc.add(..))")->calls.value();
        weaver.reset();
    }
    stop.store(true);
    for (auto& t : readers) t.join();
    EXPECT_GT(advised, 0u);
    EXPECT_FALSE(obj->type().method("add")->woven());
}

// ---------------------------------------------------- window semantics ----

TEST(ShardedSimulator, PostClampsToLookahead) {
    sim::ShardOptions opts;
    opts.shards = 2;
    opts.workers = 2;
    opts.lookahead = Duration{1000};
    sim::ShardedSimulator shards(opts);

    SimTime delivered = SimTime::zero();
    // Ask for instant delivery; the lookahead clamp must defer it.
    shards.post(0, 1, SimTime::zero(), [&]() { delivered = shards.shard(1).now(); });
    shards.run_until(SimTime{5000});
    EXPECT_EQ(delivered, SimTime{1000});
}

TEST(ShardedSimulator, MailboxesDrainInDstSrcFifoOrder) {
    sim::ShardOptions opts;
    opts.shards = 3;
    opts.workers = 1;
    opts.lookahead = Duration{10};
    sim::ShardedSimulator shards(opts);

    // All messages land on shard 0 at the same instant; the drain order
    // (src ascending, FIFO within a lane) decides the seq tie-breakers.
    std::vector<int> order;
    SimTime when{50};
    shards.post(2, 0, when, [&]() { order.push_back(20); });
    shards.post(2, 0, when, [&]() { order.push_back(21); });
    shards.post(1, 0, when, [&]() { order.push_back(10); });
    shards.post(0, 0, when, [&]() { order.push_back(0); });
    shards.run_until(SimTime{100});
    EXPECT_EQ(order, (std::vector<int>{0, 10, 20, 21}));
}

TEST(ShardedSimulator, CrossShardPingPongConverges) {
    sim::ShardOptions opts;
    opts.shards = 2;
    opts.workers = 2;
    opts.lookahead = Duration{100};
    sim::ShardedSimulator shards(opts);

    int volleys = 0;
    std::function<void(std::size_t)> volley = [&](std::size_t at) {
        ++volleys;
        if (volleys >= 10) return;
        std::size_t other = 1 - at;
        shards.post(at, other, shards.shard(at).now(), [&volley, other]() { volley(other); });
    };
    shards.shard(0).schedule_at(SimTime{0}, [&]() { volley(0); });
    shards.run_until(SimTime{10000});
    EXPECT_EQ(volleys, 10);
    EXPECT_GE(shards.windows(), 10u);  // each volley needs its own window
    EXPECT_EQ(shards.now(), SimTime{10000});
}

TEST(ShardedSimulator, ShardPlacementAndSeedsAreStable) {
    sim::ShardOptions opts;
    opts.shards = 4;
    opts.seed = 77;
    sim::ShardedSimulator a(opts);
    sim::ShardedSimulator b(opts);
    for (auto name : {"hall/0", "hall/1", "robot/7", "base/entrance"}) {
        EXPECT_EQ(a.shard_of(name), b.shard_of(name));
    }
    EXPECT_EQ(a.shard_seed(2, "radio"), b.shard_seed(2, "radio"));
    EXPECT_NE(a.shard_seed(2, "radio"), a.shard_seed(3, "radio"));
    EXPECT_NE(a.shard_seed(2, "radio"), a.shard_seed(2, "mobility"));
}

// ------------------------------------------------------- determinism ----

/// One ShardChaos world: per shard a small radio network (a hub and two
/// leaves) with burst loss and a mid-run partition, local broadcast
/// traffic, and cross-shard mesh pings hub -> next hub. Journals record
/// every delivery in shard-event order.
struct ChaosRun {
    std::string trace_render;
    std::vector<std::string> journals;       // one per shard, '\n'-joined
    std::vector<std::uint64_t> delivered;    // per shard
    std::uint64_t mesh_sent = 0;
    std::uint64_t executed = 0;
    std::uint64_t windows = 0;
};

ChaosRun run_shard_chaos(std::size_t workers) {
    constexpr std::size_t kShards = 4;
    sim::ShardOptions opts;
    opts.shards = kShards;
    opts.workers = workers;
    opts.lookahead = microseconds(200);
    opts.seed = 424242;
    opts.trace_capacity = 8192;
    sim::ShardedSimulator shards(opts);
    net::ShardMesh mesh(shards, net::MeshOptions{microseconds(500), /*loss=*/0.1});

    struct ShardWorld {
        std::unique_ptr<net::Network> net;
        NodeId hub, leaf_a, leaf_b;
        std::unique_ptr<net::MessageRouter> hub_router;
        std::unique_ptr<net::MessageRouter> leaf_a_router;
        std::unique_ptr<net::MessageRouter> leaf_b_router;
        std::vector<std::string> journal;
    };
    std::vector<ShardWorld> worlds(kShards);

    for (std::size_t i = 0; i < kShards; ++i) {
        ShardWorld& w = worlds[i];
        net::NetworkConfig cfg;
        cfg.jitter = microseconds(50);
        cfg.obs_label = "chaos-hall" + std::to_string(i);
        w.net = std::make_unique<net::Network>(shards.shard(i), cfg,
                                               shards.shard_seed(i, "radio"));
        std::string tag = "s" + std::to_string(i);
        w.hub = w.net->add_node("hub/" + tag, {0, 0}, 100);
        w.leaf_a = w.net->add_node("leaf-a/" + tag, {10, 0}, 100);
        w.leaf_b = w.net->add_node("leaf-b/" + tag, {0, 10}, 100);
        net::FaultPlan plan;
        plan.burst_enter = 0.05;
        plan.delay_jitter = microseconds(80);
        plan.partitions.push_back(net::PartitionWindow{
            SimTime{0} + milliseconds(20), SimTime{0} + milliseconds(30),
            {w.leaf_b}, {}, false});
        w.net->set_fault_plan(std::move(plan), shards.shard_seed(i, "faults"));

        w.hub_router = std::make_unique<net::MessageRouter>(*w.net, w.hub);
        w.leaf_a_router = std::make_unique<net::MessageRouter>(*w.net, w.leaf_a);
        w.leaf_b_router = std::make_unique<net::MessageRouter>(*w.net, w.leaf_b);
        w.hub_router->attach_mesh(mesh, i);

        auto journal_handler = [&w, i](const char* who) {
            return [&w, i, who](const net::Message& m) {
                w.journal.push_back(std::string(who) + " got " + m.kind.str() + " at " +
                                    to_string(w.net->simulator().now()));
                obs::TraceBuffer::global().instant("chaos.node", "deliver",
                                                   {{"who", who}, {"kind", m.kind}});
            };
        };
        w.leaf_a_router->route("tick", journal_handler("leaf-a"));
        w.leaf_b_router->route("tick", journal_handler("leaf-b"));
        w.hub_router->route("mesh.ping", journal_handler("hub"));

        // Local traffic: the hub broadcasts a tick every 700us, and every
        // third tick pings the next shard's hub across the backbone.
        shards.shard(i).schedule_every(microseconds(700), [&w, i]() {
            std::uint64_t span = obs::TraceBuffer::global().begin_span(
                "chaos.hub", "tick", {{"shard", std::to_string(i)}});
            w.hub_router->broadcast("tick", Bytes{1, 2, 3});
            if (w.journal.size() % 3 == 0) {
                std::size_t next = (i + 1) % kShards;
                w.hub_router->send_remote(next, "hub/s" + std::to_string(next),
                                          "mesh.ping", Bytes{9});
            }
            obs::TraceBuffer::global().end_span(span);
        });
    }
    // A mid-run crash on shard 2's leaf-a: deliveries to it stop cleanly.
    shards.shard(2).schedule_at(SimTime{0} + milliseconds(25),
                                [&worlds]() { worlds[2].net->remove_node(worlds[2].leaf_a); });

    shards.run_until(SimTime{0} + milliseconds(60));

    ChaosRun out;
    for (const auto& tree : obs::build_trace_trees(shards.merged_trace())) {
        out.trace_render += obs::render_tree(tree);
        out.trace_render += '\n';
    }
    for (std::size_t i = 0; i < kShards; ++i) {
        std::string j;
        for (const auto& line : worlds[i].journal) {
            j += line;
            j += '\n';
        }
        out.journals.push_back(std::move(j));
        out.delivered.push_back(worlds[i].net->stats().delivered);
    }
    out.mesh_sent = mesh.sent();
    out.executed = shards.executed();
    out.windows = shards.windows();
    return out;
}

TEST(ShardChaos, ByteIdenticalAcrossWorkerCounts) {
    ChaosRun one = run_shard_chaos(1);
    ChaosRun two = run_shard_chaos(2);
    ChaosRun four = run_shard_chaos(4);

    // The world actually did something worth comparing.
    ASSERT_GT(one.executed, 100u);
    ASSERT_GT(one.mesh_sent, 0u);
    ASSERT_FALSE(one.trace_render.empty());

    EXPECT_EQ(one.trace_render, two.trace_render);
    EXPECT_EQ(one.trace_render, four.trace_render);
    EXPECT_EQ(one.journals, two.journals);
    EXPECT_EQ(one.journals, four.journals);
    EXPECT_EQ(one.delivered, two.delivered);
    EXPECT_EQ(one.delivered, four.delivered);
    EXPECT_EQ(one.mesh_sent, two.mesh_sent);
    EXPECT_EQ(one.mesh_sent, four.mesh_sent);
    EXPECT_EQ(one.executed, two.executed);
    EXPECT_EQ(one.executed, four.executed);
    EXPECT_EQ(one.windows, two.windows);
    EXPECT_EQ(one.windows, four.windows);
}

TEST(ShardChaos, RepeatRunIsIdenticalTooWithSameWorkers) {
    ChaosRun a = run_shard_chaos(2);
    ChaosRun b = run_shard_chaos(2);
    EXPECT_EQ(a.trace_render, b.trace_render);
    EXPECT_EQ(a.journals, b.journals);
}

}  // namespace
}  // namespace pmp
