// Chaos soak: the full platform (two halls, a small robot fleet) under a
// seeded hostile radio — burst loss, duplication, delay jitter, reordering
// and a scheduled blackout — across many seeds. The leasing design's
// promise is convergence, not uptime: after the faults settle, every
// reachable node must hold exactly its hall's policy, extensions must not
// outlive their base, and the same seed must replay the identical run.
#include <gtest/gtest.h>

#include <cstdlib>

#include "midas/node.h"
#include "midas/supervisor.h"
#include "obs/export.h"
#include "robot/devices.h"

namespace pmp::midas {
namespace {

using rt::Value;

ExtensionPackage policy_pkg(const std::string& name) {
    ExtensionPackage pkg;
    pkg.name = name;
    pkg.script = "fun onEntry() { }";
    pkg.bindings = {{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    return pkg;
}

struct ChaosWorld {
    sim::Simulator sim;
    net::Network net;
    std::unique_ptr<BaseStation> hall_a;
    std::unique_ptr<BaseStation> hall_b;
    std::vector<std::unique_ptr<MobileNode>> robots;

    explicit ChaosWorld(std::uint64_t seed, bool with_faults = true)
        : net(sim, net::NetworkConfig{}, seed) {
        BaseConfig bca;
        bca.issuer = "hallA";
        hall_a = std::make_unique<BaseStation>(net, "hallA", net::Position{0, 0}, 120.0, bca);
        hall_a->keys().add_key("hallA", to_bytes("ka"));
        BaseConfig bcb;
        bcb.issuer = "hallB";
        hall_b =
            std::make_unique<BaseStation>(net, "hallB", net::Position{300, 0}, 120.0, bcb);
        hall_b->keys().add_key("hallB", to_bytes("kb"));

        // Two robots live in hall A's cell, one in hall B's; the halls are
        // out of each other's reach.
        const net::Position spots[] = {{10, 0}, {20, 10}, {310, 0}};
        for (int i = 0; i < 3; ++i) {
            auto robot = std::make_unique<MobileNode>(net, "robot" + std::to_string(i),
                                                      spots[i], 120.0);
            robot->trust().trust("hallA", to_bytes("ka"));
            robot->trust().trust("hallB", to_bytes("kb"));
            robots.push_back(std::move(robot));
        }
        hall_a->base().add_extension(policy_pkg("hallA/policy"));
        hall_b->base().add_extension(policy_pkg("hallB/policy"));

        if (with_faults) {
            net::FaultPlan plan;
            plan.loss = 0.05;
            plan.burst_enter = 0.02;
            plan.burst_exit = 0.3;
            plan.delay_jitter = milliseconds(10);
            plan.duplicate = 0.1;
            plan.reorder = 0.05;
            // Mid-run blackout: robot0 loses all connectivity for 4s —
            // long past its lease — then heals.
            plan.partitions.push_back(net::PartitionWindow{
                SimTime::zero() + seconds(8), SimTime::zero() + seconds(12),
                {robots[0]->id()},
                {}});
            net.set_fault_plan(plan, seed * 1000003ULL + 17);
        }
    }

    bool run_until(const std::function<bool()>& pred, Duration timeout = seconds(60)) {
        SimTime deadline = sim.now() + timeout;
        while (sim.now() < deadline) {
            if (pred()) return true;
            sim.run_until(sim.now() + milliseconds(100));
        }
        return pred();
    }

    bool converged() {
        return robots[0]->receiver().installed_count() == 1 &&
               robots[1]->receiver().installed_count() == 1 &&
               robots[2]->receiver().installed_count() == 1;
    }
};

TEST(ChaosSoak, ConvergesUnderInjectedFaultsAcrossSeeds) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        ChaosWorld w(seed);
        // Ride through the fault-heavy phase including the blackout.
        w.sim.run_for(seconds(12));
        // Invariant 1: after the blackout heals, everything re-converges —
        // each robot holds exactly its hall's policy.
        ASSERT_TRUE(w.run_until([&] { return w.converged(); })) << "seed " << seed;
        // Invariant 2: it stays converged (keep-alives outrun the ongoing
        // background loss; blips must heal within the window).
        w.sim.run_for(seconds(5));
        ASSERT_TRUE(w.run_until([&] { return w.converged(); }, seconds(30)))
            << "seed " << seed;
        // Invariant 3: the books balance — nothing delivered that was not
        // sent, and the blackout actually bit.
        net::NetworkStats s = w.net.stats();
        EXPECT_LE(s.delivered, s.sent) << "seed " << seed;
        EXPECT_GT(s.fault_dropped_partition, 0u) << "seed " << seed;
        EXPECT_GT(s.fault_dropped_loss + s.fault_dropped_burst, 0u) << "seed " << seed;
    }
}

TEST(ChaosSoak, SameSeedReplaysIdentically) {
    auto fingerprint = [](std::uint64_t seed) {
        ChaosWorld w(seed);
        w.sim.run_for(seconds(20));
        net::NetworkStats s = w.net.stats();
        return std::tuple{s.sent,
                          s.delivered,
                          s.fault_dropped_loss,
                          s.fault_dropped_burst,
                          s.fault_dropped_partition,
                          s.fault_duplicated,
                          s.fault_delayed,
                          s.fault_reordered,
                          w.robots[0]->receiver().stats().installs,
                          w.robots[1]->receiver().stats().refreshes,
                          w.hall_a->base().stats().installs_sent,
                          w.hall_b->base().stats().keepalives_sent};
    };
    EXPECT_EQ(fingerprint(7), fingerprint(7));
    EXPECT_NE(fingerprint(7), fingerprint(8));
}

TEST(ChaosSoak, ExtensionsDoNotOutliveTheirBase) {
    ChaosWorld w(3, /*with_faults=*/false);
    ASSERT_TRUE(w.run_until([&] { return w.converged(); }));

    // Hall A's base station dies. Its extensions must evaporate from both
    // of its robots within a lease plus keep-alive slack — the receivers
    // withdraw autonomously, no teardown message required.
    w.net.remove_node(w.hall_a->id());
    SimTime gone_at = w.sim.now();
    ASSERT_TRUE(w.run_until([&] {
        return w.robots[0]->receiver().installed_count() == 0 &&
               w.robots[1]->receiver().installed_count() == 0;
    }, seconds(15)));
    EXPECT_LE(w.sim.now() - gone_at, seconds(10));
    // Hall B and its robot are untouched.
    EXPECT_EQ(w.robots[2]->receiver().installed_count(), 1u);
}

TEST(ChaosSoak, BlackedOutNodeRecoversItsPolicy) {
    ChaosWorld w(5);
    ASSERT_TRUE(w.run_until([&] { return w.converged(); }, seconds(8)));
    // During the blackout robot0's lease expires and hall A gives it up.
    w.sim.run_until(SimTime::zero() + seconds(11));
    EXPECT_EQ(w.robots[0]->receiver().installed_count(), 0u);
    // After the heal the ordinary discovery + adaptation loop must bring
    // the policy back without any operator involvement.
    ASSERT_TRUE(w.run_until([&] { return w.converged(); }));
}

// ---------------------------------------------------------------------------
// Crash chaos: the same hostile radio PLUS process crashes. Hall A runs
// durable (journal + epoch recovery) under a Supervisor; one robot crashes
// and restarts as a fresh, memory-less device. The promise is unchanged —
// convergence, not uptime — with two additions: the restarted hall's
// database must retain everything journaled before the power cut, and the
// whole run (crashes included) must replay bit-identically per seed.

struct CrashChaosWorld {
    sim::Simulator sim;
    net::Network net;
    Supervisor sup;
    std::shared_ptr<db::JournalStorage> disk_a;
    std::unique_ptr<BaseStation> hall_a;
    std::unique_ptr<BaseStation> hall_b;
    std::vector<std::unique_ptr<MobileNode>> robots;

    explicit CrashChaosWorld(std::uint64_t seed)
        : net(sim, net::NetworkConfig{}, seed),
          sup(net),
          disk_a(std::make_shared<db::JournalStorage>()) {
        disk_a->name = "hallA";
        robots.resize(3);

        sup.manage("hallA", Supervisor::Lifecycle{
                                [this]() {
                                    BaseConfig bc;
                                    bc.issuer = "hallA";
                                    // Group commit + chunked snapshots ON:
                                    // the PR 3 invariants below must hold
                                    // unchanged. batch_ms of 20 ms keeps
                                    // any record older than a tick flushed
                                    // well before a scheduled power cut.
                                    bc.journal = db::JournalConfig{
                                        .batch_bytes = 1024,
                                        .batch_ms = milliseconds(20),
                                        .snapshot_chunk_bytes = 256};
                                    hall_a = std::make_unique<BaseStation>(
                                        net, "hallA", net::Position{0, 0}, 120.0, bc,
                                        disco::RegistrarConfig{}, disk_a);
                                    hall_a->keys().add_key("hallA", to_bytes("ka"));
                                },
                                [this]() { return hall_a->id(); },
                                [this]() {
                                    if (hall_a && hall_a->journal())
                                        hall_a->journal()->power_off();
                                },
                                [this]() { hall_a.reset(); },
                            });
        BaseConfig bcb;
        bcb.issuer = "hallB";
        hall_b =
            std::make_unique<BaseStation>(net, "hallB", net::Position{300, 0}, 120.0, bcb);
        hall_b->keys().add_key("hallB", to_bytes("kb"));

        // Captured by the supervised restart lifecycle below, which runs
        // long after this constructor frame is gone — no reference captures.
        auto make_robot = [this](int i) {
            const net::Position spots[] = {{10, 0}, {20, 10}, {310, 0}};
            auto robot = std::make_unique<MobileNode>(net, "robot" + std::to_string(i),
                                                      spots[i], 120.0);
            robot->trust().trust("hallA", to_bytes("ka"));
            robot->trust().trust("hallB", to_bytes("kb"));
            return robot;
        };
        robots[0] = make_robot(0);
        robots[2] = make_robot(2);
        // robot1 is supervised: its crash loses all volatile state (no
        // journal) and its restart is a brand-new device with a new id.
        sup.manage("robot1", Supervisor::Lifecycle{
                                 [this, make_robot]() { robots[1] = make_robot(1); },
                                 [this]() { return robots[1]->id(); },
                                 []() {},
                                 [this]() { robots[1].reset(); },
                             });

        hall_a->base().add_extension(policy_pkg("hallA/policy"));
        hall_b->base().add_extension(policy_pkg("hallB/policy"));

        // The radio misbehaves exactly like the plain chaos soak.
        net::FaultPlan plan;
        plan.loss = 0.05;
        plan.burst_enter = 0.02;
        plan.burst_exit = 0.3;
        plan.delay_jitter = milliseconds(10);
        plan.duplicate = 0.1;
        plan.reorder = 0.05;
        plan.partitions.push_back(net::PartitionWindow{SimTime::zero() + seconds(8),
                                                       SimTime::zero() + seconds(12),
                                                       {robots[0]->id()},
                                                       {}});
        net.set_fault_plan(plan, seed * 1000003ULL + 17);

        // And on top of it, the power misbehaves: hall A dies mid-run,
        // robot1 dies once on schedule and again at random in a late
        // Poisson window. All faults are over by t=19s.
        net::CrashPlan crashes;
        crashes.events.push_back(
            net::CrashEvent{"hallA", SimTime::zero() + seconds(6), milliseconds(2500)});
        crashes.events.push_back(
            net::CrashEvent{"robot1", SimTime::zero() + seconds(9), milliseconds(1500)});
        crashes.windows.push_back(net::CrashWindow{"robot1", SimTime::zero() + seconds(14),
                                                   SimTime::zero() + seconds(18), 0.25,
                                                   seconds(1)});
        sup.apply(crashes, seed * 7919ULL + 3);
    }

    bool run_until(const std::function<bool()>& pred, Duration timeout = seconds(60)) {
        SimTime deadline = sim.now() + timeout;
        while (sim.now() < deadline) {
            if (pred()) return true;
            sim.run_until(sim.now() + milliseconds(100));
        }
        return pred();
    }

    /// Every in-range node holds exactly its hall's policy.
    bool converged() {
        for (int i = 0; i < 3; ++i) {
            if (!robots[i] || robots[i]->receiver().installed_count() != 1) return false;
        }
        return robots[0]->receiver().installed()[0].name == "hallA/policy" &&
               robots[1]->receiver().installed()[0].name == "hallA/policy" &&
               robots[2]->receiver().installed()[0].name == "hallB/policy";
    }
};

std::uint64_t chaos_seed_base() {
    // CI sweeps disjoint seed ranges by exporting PMP_CHAOS_SEED_BASE.
    if (const char* env = std::getenv("PMP_CHAOS_SEED_BASE")) {
        return std::strtoull(env, nullptr, 10);
    }
    return 1;
}

TEST(CrashChaos, ConvergesAndHallDbSurvivesAcrossSeeds) {
    const std::uint64_t base = chaos_seed_base();
    for (std::uint64_t seed = base; seed < base + 20; ++seed) {
        CrashChaosWorld w(seed);
        ASSERT_TRUE(w.run_until([&] { return w.converged(); })) << "seed " << seed;

        // Hall activity lands in the database (and so in the journal)
        // before the power cut at t=6s.
        for (std::int64_t i = 1; i <= 5; ++i) {
            w.hall_a->store().append("op", w.sim.now(), Value{i});
        }

        // Ride out every scheduled fault: blackout, both crashes, the
        // Poisson window. Then the platform must re-converge and hold.
        w.sim.run_until(SimTime::zero() + seconds(20));
        ASSERT_TRUE(w.run_until([&] { return w.converged(); })) << "seed " << seed;
        w.sim.run_for(seconds(5));
        ASSERT_TRUE(w.run_until([&] { return w.converged(); }, seconds(30)))
            << "seed " << seed;

        // Hall A really died and recovered, under a bumped epoch.
        EXPECT_GE(w.sup.stats().crashes, 2u) << "seed " << seed;
        EXPECT_EQ(w.sup.stats().restarts, w.sup.stats().crashes) << "seed " << seed;
        ASSERT_TRUE(w.hall_a != nullptr);
        EXPECT_GE(w.hall_a->base().epoch(), 2u) << "seed " << seed;

        // The hall database retains every record journaled before the
        // crash, in order.
        ASSERT_EQ(w.hall_a->store().size(), 5u) << "seed " << seed;
        for (std::uint64_t i = 1; i <= 5; ++i) {
            EXPECT_EQ(w.hall_a->store().at(i).data.as_int(),
                      static_cast<std::int64_t>(i))
                << "seed " << seed;
        }
        EXPECT_LE(w.net.stats().delivered, w.net.stats().sent) << "seed " << seed;
    }
}

TEST(CrashChaos, SameSeedReplaysIdenticallyWithCrashes) {
    auto fingerprint = [](std::uint64_t seed) {
        CrashChaosWorld w(seed);
        w.sim.run_for(seconds(4));  // fixed instant, before the first crash
        for (std::int64_t i = 1; i <= 3; ++i) {
            w.hall_a->store().append("op", w.sim.now(), Value{i});
        }
        w.sim.run_for(seconds(21));
        net::NetworkStats s = w.net.stats();
        return std::tuple{s.sent,
                          s.delivered,
                          s.fault_dropped_loss,
                          s.fault_dropped_burst,
                          s.fault_dropped_partition,
                          s.fault_duplicated,
                          s.fault_reordered,
                          w.sup.stats().crashes,
                          w.sup.stats().restarts,
                          w.hall_a->base().epoch(),
                          w.hall_a->store().size(),
                          w.robots[0]->receiver().stats().installs,
                          w.robots[2]->receiver().stats().refreshes,
                          w.hall_b->base().stats().keepalives_sent};
    };
    EXPECT_EQ(fingerprint(7), fingerprint(7));
    EXPECT_NE(fingerprint(7), fingerprint(8));
}

// ---------------------------------------------------------------------------
// Overload chaos: an application storm at 10x the admission rate on top of
// the usual lossy radio, plus a robot yanked mid-run so the hall's breaker
// trips. The overload-protection promise (docs/overload.md): control
// traffic survives — no healthy node ever loses a lease — excess load is
// shed with typed errors rather than timeouts, the per-extension governor
// throttles the advice the storm drives, and once the storm passes the
// fleet re-converges within a few keep-alive periods. And, as always:
// the same seed replays the identical run.

/// Process-wide families (admission sheds) and rows of components the
/// test holds no handle to (the hall's breaker), read off an export.
std::uint64_t counter_now(const std::string& name, const std::string& label = "") {
    return obs::snapshot_metrics().counter(name, label);
}

struct OverloadChaosWorld {
    sim::Simulator sim;
    net::Network net;
    std::unique_ptr<BaseStation> hall_a;
    std::unique_ptr<BaseStation> hall_b;
    std::vector<std::unique_ptr<MobileNode>> robots;
    std::unique_ptr<MobileNode> victim;  ///< near hall A, yanked mid-run
    std::unique_ptr<NodeStack> flood;    ///< the storm source
    std::vector<std::shared_ptr<rt::ServiceObject>> motors;

    explicit OverloadChaosWorld(std::uint64_t seed)
        : net(sim, net::NetworkConfig{}, seed) {
        BaseConfig bca;
        bca.issuer = "hallA";
        bca.keepalive_period = milliseconds(400);
        // Open fast toward the yanked robot — well before the base would
        // give it up — so the soak provably exercises the breaker.
        bca.breaker.threshold = 2;
        bca.breaker.open_period = milliseconds(500);
        bca.max_keepalive_failures = 4;
        hall_a = std::make_unique<BaseStation>(net, "hallA", net::Position{0, 0}, 120.0, bca);
        hall_a->keys().add_key("hallA", to_bytes("ka"));
        BaseConfig bcb;
        bcb.issuer = "hallB";
        bcb.keepalive_period = milliseconds(400);
        hall_b =
            std::make_unique<BaseStation>(net, "hallB", net::Position{300, 0}, 120.0, bcb);
        hall_b->keys().add_key("hallB", to_bytes("kb"));

        // The robots police their own advice: ~8 admitted app calls land
        // per 400ms lease window during the storm, so a budget of 8 keeps
        // the governor throttling for the storm's whole duration. No
        // quarantine — this is load, not malice.
        ReceiverConfig rc;
        rc.governor_invocation_budget = 8;
        rc.governor_suspend_factor = 4.0;
        rc.governor_throttle_keep = 4;
        rc.governor_quarantine_after = 0;
        const net::Position spots[] = {{10, 0}, {20, 10}, {310, 0}};
        for (int i = 0; i < 3; ++i) {
            auto robot = std::make_unique<MobileNode>(net, "robot" + std::to_string(i),
                                                      spots[i], 120.0, rc);
            robot->trust().trust("hallA", to_bytes("ka"));
            robot->trust().trust("hallB", to_bytes("kb"));
            // Tight admission, an order of magnitude below the storm: the
            // overflow must shed, and control must still cut the line.
            net::AdmissionConfig ac;
            ac.rate_per_sec = 50.0;
            ac.burst = 16.0;
            ac.queue_cap = {16, 8, 24};
            robot->router().admission().set_config(ac);
            motors.push_back(robot::make_motor(robot->runtime(), "motor:" + std::to_string(i)));
            robot->rpc().export_object("motor:" + std::to_string(i));
            robots.push_back(std::move(robot));
        }
        victim = std::make_unique<MobileNode>(net, "victim", net::Position{30, 0}, 120.0);
        victim->trust().trust("hallA", to_bytes("ka"));
        flood = std::make_unique<NodeStack>(net, "flood", net::Position{15, 5}, 120.0);

        hall_a->base().add_extension(policy_pkg("hallA/policy"));
        hall_b->base().add_extension(policy_pkg("hallB/policy"));

        // Background radio misbehaviour, continuous — no blackout windows;
        // the storm is the event here.
        net::FaultPlan plan;
        plan.loss = 0.02;
        plan.delay_jitter = milliseconds(5);
        plan.duplicate = 0.05;
        plan.reorder = 0.05;
        net.set_fault_plan(plan, seed * 1000003ULL + 17);
    }

    bool run_until(const std::function<bool()>& pred, Duration timeout = seconds(60)) {
        SimTime deadline = sim.now() + timeout;
        while (sim.now() < deadline) {
            if (pred()) return true;
            sim.run_until(sim.now() + milliseconds(100));
        }
        return pred();
    }

    bool converged() {
        return robots[0]->receiver().installed_count() == 1 &&
               robots[1]->receiver().installed_count() == 1 &&
               robots[2]->receiver().installed_count() == 1;
    }

    /// A node is "established" once it has seen a lease renewal: the base's
    /// install rpc was acked and the node sits in the keep-alive rotation.
    /// Installed-but-unrenewed is not enough — if the storm starts while
    /// the install ack is still in flight, the base times out, never sends
    /// keep-alives, and the node loses a lease through no fault of the
    /// overload machinery (the invariant is about *healthy adapted* nodes).
    bool established() {
        auto ok = [](MobileNode& n) {
            return n.receiver().installed_count() == 1 && n.receiver().stats().renewals >= 1;
        };
        return ok(*robots[0]) && ok(*robots[1]) && ok(*robots[2]) && ok(*victim);
    }

    /// Drive the whole scripted run: converge, yank the victim, then blast
    /// robot0's motor at 500 calls/s for 5 virtual seconds and let three
    /// keep-alive periods pass. Returns {ok, errors} seen by the flood.
    std::pair<int, int> storm() {
        if (!run_until([&] { return established(); }, seconds(5))) {
            return {-1, -1};
        }
        net.remove_node(victim->id());
        int ok = 0;
        int errors = 0;
        SimTime storm_end = sim.now() + seconds(5);
        while (sim.now() < storm_end) {
            for (int i = 0; i < 5; ++i) {
                flood->rpc().call_async(
                    robots[0]->id(), "motor:0", "rotate", {rt::Value{1.0}},
                    [&](rt::Value, std::exception_ptr e) { ++(e ? errors : ok); });
            }
            sim.run_until(sim.now() + milliseconds(10));
        }
        sim.run_for(milliseconds(1200));  // 3 keep-alive periods of quiet
        return {ok, errors};
    }
};

TEST(OverloadChaos, ControlTrafficSurvivesStormsAcrossSeeds) {
    const std::uint64_t base = chaos_seed_base();
    for (std::uint64_t seed = base; seed < base + 20; ++seed) {
        OverloadChaosWorld w(seed);
        const std::uint64_t shed0 = counter_now("net.admission.shed");
        const std::uint64_t opens0 = counter_now("rpc.breaker_opens", "hallA");

        auto [ok, errors] = w.storm();
        ASSERT_GE(ok, 0) << "seed " << seed << ": fleet never converged pre-storm";

        // The point of the whole subsystem: a 10x storm plus a dead peer
        // never cost a healthy node its lease, and the fleet is converged
        // again within three keep-alive periods of the storm ending.
        for (int i = 0; i < 3; ++i) {
            EXPECT_EQ(w.robots[i]->receiver().stats().expirations, 0u)
                << "seed " << seed << " robot" << i;
        }
        EXPECT_TRUE(w.converged()) << "seed " << seed;

        // Every layer of protection demonstrably fired...
        EXPECT_GT(counter_now("net.admission.shed") - shed0, 0u) << "seed " << seed;
        EXPECT_GT(counter_now("rpc.breaker_opens", "hallA") - opens0, 0u)
            << "seed " << seed;
        EXPECT_GT(w.robots[0]->receiver().stats().governor_throttles, 0u) << "seed " << seed;
        EXPECT_GT(errors, 0) << "seed " << seed;  // sheds surfaced as typed errors
        EXPECT_GT(ok, 0) << "seed " << seed;      // ...while service continued
        // ...and the governor stood down once the storm passed.
        ASSERT_EQ(w.robots[0]->receiver().installed_count(), 1u) << "seed " << seed;
        EXPECT_EQ(w.robots[0]->receiver().governor_mode(
                      w.robots[0]->receiver().installed()[0].id),
                  AdaptationService::GovernorMode::kNormal)
            << "seed " << seed;
    }
}

TEST(OverloadChaos, SameSeedReplaysIdenticallyUnderStorm) {
    auto fingerprint = [](std::uint64_t seed) {
        OverloadChaosWorld w(seed);
        const std::uint64_t shed0 = counter_now("net.admission.shed");
        auto [ok, errors] = w.storm();
        net::NetworkStats s = w.net.stats();
        return std::tuple{s.sent,
                          s.delivered,
                          s.fault_dropped_loss,
                          s.fault_duplicated,
                          s.fault_delayed,
                          s.fault_reordered,
                          counter_now("net.admission.shed") - shed0,
                          w.robots[0]->receiver().stats().governor_throttles,
                          w.robots[0]->receiver().stats().installs,
                          w.robots[0]->receiver().stats().refreshes,
                          w.hall_a->base().stats().keepalives_sent,
                          ok,
                          errors};
    };
    EXPECT_EQ(fingerprint(7), fingerprint(7));
    EXPECT_NE(fingerprint(7), fingerprint(8));
}

}  // namespace
}  // namespace pmp::midas
