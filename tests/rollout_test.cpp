// Staged canary rollout (midas/rollout.h, docs/rollout.md): a new
// extension version walks a deterministic cohort ladder gated on health
// windows fed by the quarantine / governor / install-refusal / latency
// signals, and a breached gate rolls the whole cohort back to the pinned
// incumbent automatically. The promises under test:
//
//   * a healthy canary promotes through every stage and graduates into
//     the policy set; the blast radius while staged never exceeds the
//     stage cohort (membership is the public selects_canary predicate);
//   * a poisoned canary aborts on its first cohort quarantine and every
//     touched node re-converges on the incumbent — including a node that
//     once quarantined the incumbent's exact version (rollback amnesty);
//   * add_extension is refused with a typed error while a rollout is in
//     flight, and an aborted canary's version number is never reissued;
//   * a node that joins mid-rollout outside the cohort is pushed the
//     *pinned incumbent*, and reaches the canary only with the cohort;
//   * a base crash mid-rollout resumes at the journaled stage with a
//     fresh health window; an abort survives the crash too;
//   * the new durable record types stay total under version skew
//     (unknown ops, malformed fields, snapshots without the key);
//   * and the whole machine, under a hostile radio plus a mid-run base
//     crash, keeps the poison inside the cohort, converges the fleet
//     back to the incumbent, and replays bit-identically per seed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>

#include "midas/node.h"
#include "midas/rollout.h"
#include "midas/supervisor.h"
#include "obs/profile.h"
#include "robot/devices.h"

namespace pmp::midas {
namespace {

using rt::Dict;
using rt::List;
using rt::Value;

ExtensionPackage policy_pkg(const std::string& name,
                            const std::string& body = "fun onEntry() { }") {
    ExtensionPackage pkg;
    pkg.name = name;
    pkg.script = body;
    pkg.bindings = {{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    return pkg;
}

std::uint64_t chaos_seed_base() {
    // CI sweeps disjoint seed ranges by exporting PMP_CHAOS_SEED_BASE.
    if (const char* env = std::getenv("PMP_CHAOS_SEED_BASE")) {
        return std::strtoull(env, nullptr, 10);
    }
    return 101;
}

/// Fast-cadence rollout knobs shared by the direct-fleet tests: the
/// 1 → 4 → 8 cohort ladder of "hall/policy" over robot0..robot7 (FNV-1a
/// buckets: robot5 alone under 25%, +robot0/1/6 under 50%).
RolloutConfig fast_rollout() {
    RolloutConfig rc;
    rc.stages = {0.25, 0.5, 1.0};
    rc.stage_window = seconds(1);
    rc.tick_period = milliseconds(100);
    return rc;
}

/// One hall, `n` direct robots (each with a motor so advice actually
/// dispatches), every robot in radio range of the hall (rows of 16).
struct FleetWorld {
    sim::Simulator sim;
    net::Network net;
    std::unique_ptr<BaseStation> hall;
    std::vector<std::unique_ptr<MobileNode>> robots;
    std::vector<std::shared_ptr<rt::ServiceObject>> motors;

    FleetWorld(std::uint64_t seed, int n, BaseConfig bc, ReceiverConfig rc = {})
        : net(sim, net::NetworkConfig{}, seed) {
        bc.issuer = "hall";
        hall = std::make_unique<BaseStation>(net, "hall", net::Position{0, 0}, 200.0, bc);
        hall->keys().add_key("hall", to_bytes("k"));
        for (int i = 0; i < n; ++i) {
            auto robot = std::make_unique<MobileNode>(
                net, "robot" + std::to_string(i),
                net::Position{10.0 + 10.0 * (i % 16), (i % 2) * 10.0 + 15.0 * (i / 16)},
                200.0, rc);
            robot->trust().trust("hall", to_bytes("k"));
            motors.push_back(robot::make_motor(robot->runtime(), "motor:" + std::to_string(i)));
            robots.push_back(std::move(robot));
        }
    }

    bool run_until(const std::function<bool()>& pred, Duration timeout = seconds(60)) {
        SimTime deadline = sim.now() + timeout;
        while (sim.now() < deadline) {
            if (pred()) return true;
            sim.run_until(sim.now() + milliseconds(50));
        }
        return pred();
    }

    /// Robots currently holding `name` at exactly `version`.
    std::set<std::string> on_version(const std::string& name, std::uint32_t version) {
        std::set<std::string> out;
        for (auto& r : robots) {
            for (const auto& info : r->receiver().installed()) {
                if (info.name == name && info.version == version) {
                    out.insert(r->label());
                }
            }
        }
        return out;
    }

    bool all_on(const std::string& name, std::uint32_t version) {
        return on_version(name, version).size() == robots.size();
    }
};

// ------------------------------------------------------------- basics ----

TEST(RolloutBasics, HealthyRolloutCompletesThroughStages) {
    BaseConfig bc;
    bc.rollout = fast_rollout();
    FleetWorld w(11, 8, bc);
    w.hall->base().add_extension(policy_pkg("hall/policy"));
    ASSERT_TRUE(w.run_until([&] { return w.all_on("hall/policy", 1); }));

    std::uint32_t v2 = w.hall->base().begin_rollout(
        policy_pkg("hall/policy", "fun onEntry() { let x = 1; }"));
    EXPECT_EQ(v2, 2u);
    const RolloutController& rc = w.hall->base().rollout();
    ASSERT_TRUE(rc.active("hall/policy"));

    // The stage-0 cohort from the public predicate: a strict, non-empty
    // subset of the fleet.
    std::set<std::string> cohort0;
    for (auto& r : w.robots) {
        if (rc.selects_canary("hall/policy", r->label())) cohort0.insert(r->label());
    }
    ASSERT_FALSE(cohort0.empty());
    ASSERT_LT(cohort0.size(), w.robots.size());

    // Blast-radius invariant while stage 0 runs: the canary never appears
    // outside the stage-0 cohort.
    SimTime guard = w.sim.now() + seconds(30);
    while (w.sim.now() < guard) {
        auto v = rc.view("hall/policy");
        ASSERT_TRUE(v.has_value());
        if (v->status != RolloutController::Status::kActive || v->stage != 0) break;
        for (const std::string& label : w.on_version("hall/policy", v2)) {
            EXPECT_TRUE(cohort0.contains(label))
                << label << " got the canary while stage 0 covered only the cohort";
        }
        w.sim.run_until(w.sim.now() + milliseconds(50));
    }

    ASSERT_TRUE(w.run_until([&] {
        auto v = rc.view("hall/policy");
        return v && v->status == RolloutController::Status::kComplete;
    }));
    // Graduation: everyone converges on the canary, which is now policy.
    ASSERT_TRUE(w.run_until([&] { return w.all_on("hall/policy", v2); }));
    EXPECT_FALSE(rc.active("hall/policy"));
    EXPECT_EQ(rc.stats().promotions, 2u);
    EXPECT_EQ(rc.stats().completions, 1u);
    auto v = rc.view("hall/policy");
    ASSERT_TRUE(v.has_value());
    EXPECT_GE(v->verdicts.size(), 3u);  // two promotions + the completion
}

TEST(RolloutBasics, PoisonedCanaryAbortsAndRollsBackTheCohort) {
    BaseConfig bc;
    bc.rollout = fast_rollout();
    FleetWorld w(13, 8, bc);
    w.hall->base().add_extension(policy_pkg("hall/policy"));
    ASSERT_TRUE(w.run_until([&] { return w.all_on("hall/policy", 1); }));

    std::uint32_t v2 = w.hall->base().begin_rollout(
        policy_pkg("hall/policy", "fun onEntry() { throw \"poison\"; }"));
    const RolloutController& rc = w.hall->base().rollout();

    // Drive the motors so advice actually dispatches; canary holders blow
    // up each call and quarantine after three. Track where the canary was
    // ever seen and who the controller ever selected.
    std::set<std::string> v2_seen;
    std::set<std::string> cohort_seen;
    SimTime deadline = w.sim.now() + seconds(30);
    while (w.sim.now() < deadline) {
        auto v = rc.view("hall/policy");
        ASSERT_TRUE(v.has_value());
        if (v->status == RolloutController::Status::kAborted) break;
        for (std::size_t i = 0; i < w.robots.size(); ++i) {
            if (rc.selects_canary("hall/policy", w.robots[i]->label())) {
                cohort_seen.insert(w.robots[i]->label());
            }
            try {
                w.motors[i]->call("rotate", {Value{1.0}});
            } catch (const std::exception&) {
                // the poisoned advice surfacing to the app
            }
        }
        for (const std::string& label : w.on_version("hall/policy", v2)) {
            v2_seen.insert(label);
        }
        w.sim.run_until(w.sim.now() + milliseconds(100));
    }

    auto v = rc.view("hall/policy");
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(v->status, RolloutController::Status::kAborted);
    EXPECT_EQ(v->abort_cause.rfind("quarantine:", 0), 0u) << v->abort_cause;
    EXPECT_EQ(rc.stats().aborts, 1u);

    // Blast radius: the poison never escaped the cohort, and the cohort
    // never reached the whole fleet.
    EXPECT_FALSE(v2_seen.empty());
    for (const std::string& label : v2_seen) {
        EXPECT_TRUE(cohort_seen.contains(label)) << label;
    }
    EXPECT_LT(cohort_seen.size(), w.robots.size());

    // Automatic rollback: every node back on the incumbent, which still
    // dispatches cleanly; the canary version stays quarantined where it bit.
    ASSERT_TRUE(w.run_until([&] { return w.all_on("hall/policy", 1); }));
    bool someone_quarantined_v2 = false;
    for (auto& r : w.robots) {
        if (r->receiver().is_quarantined("hall/policy", v2)) someone_quarantined_v2 = true;
    }
    EXPECT_TRUE(someone_quarantined_v2);
    w.motors[0]->call("rotate", {Value{1.0}});
}

TEST(RolloutBasics, GovernorEscalationGatesPromotion) {
    BaseConfig bc;
    bc.rollout = fast_rollout();
    bc.rollout.escalation_tolerance = 1;
    ReceiverConfig rc;
    rc.governor_step_budget = 50;  // one busy advice invocation blows this
    rc.governor_suspend_factor = 20.0;
    rc.governor_throttle_keep = 1;
    rc.governor_quarantine_after = 0;  // isolate the escalation gate
    FleetWorld w(17, 8, bc, rc);
    w.hall->base().add_extension(policy_pkg("hall/policy"));
    ASSERT_TRUE(w.run_until([&] { return w.all_on("hall/policy", 1); }));

    w.hall->base().begin_rollout(policy_pkg(
        "hall/policy", "fun onEntry() { let i = 0; while (i < 50) { i = i + 1; } }"));
    const RolloutController& rolc = w.hall->base().rollout();

    // Drive only cohort members: their canary advice overruns the step
    // budget, the governor throttles, the gate counts the escalation.
    SimTime deadline = w.sim.now() + seconds(30);
    while (w.sim.now() < deadline) {
        auto v = rolc.view("hall/policy");
        ASSERT_TRUE(v.has_value());
        if (v->status == RolloutController::Status::kAborted) break;
        for (std::size_t i = 0; i < w.robots.size(); ++i) {
            if (!rolc.selects_canary("hall/policy", w.robots[i]->label())) continue;
            try {
                w.motors[i]->call("rotate", {Value{1.0}});
            } catch (const std::exception&) {
            }
        }
        w.sim.run_until(w.sim.now() + milliseconds(100));
    }
    auto v = rolc.view("hall/policy");
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(v->status, RolloutController::Status::kAborted);
    EXPECT_EQ(v->abort_cause.rfind("governor-escalation:", 0), 0u) << v->abort_cause;
    ASSERT_TRUE(w.run_until([&] { return w.all_on("hall/policy", 1); }));
}

TEST(RolloutBasics, LatencyRegressionGateAbortsWhenArmed) {
    BaseConfig bc;
    bc.rollout = fast_rollout();
    bc.rollout.stage_window = seconds(60);  // the gate must fire, not the ladder
    bc.rollout.latency_factor = 2.0;
    bc.rollout.latency_min_samples = 10;
    FleetWorld w(19, 2, bc);
    w.hall->base().add_extension(policy_pkg("hall/lat"));
    ASSERT_TRUE(w.run_until([&] { return w.all_on("hall/lat", 1); }));

    // The incumbent's advice cost, as the profiler would have recorded it.
    obs::Profiler::Site site =
        obs::Profiler::global().site("hall/lat", "call(* Motor.*(..))");
    for (int i = 0; i < 20; ++i) site.record(1'000.0);

    w.hall->base().begin_rollout(policy_pkg("hall/lat", "fun onEntry() { let x = 2; }"));
    const RolloutController& rolc = w.hall->base().rollout();
    {
        auto v = rolc.view("hall/lat");
        ASSERT_TRUE(v.has_value());
        EXPECT_GT(v->health.baseline_p95_ns, 0.0);
    }

    // The canary's windowed samples: 100x the incumbent. Next health poll
    // must breach the 2x factor and abort.
    for (int i = 0; i < 20; ++i) site.record(100'000.0);
    ASSERT_TRUE(w.run_until(
        [&] {
            auto v = rolc.view("hall/lat");
            return v && v->status == RolloutController::Status::kAborted;
        },
        seconds(5)));
    auto v = rolc.view("hall/lat");
    EXPECT_EQ(v->abort_cause.rfind("latency-regression:", 0), 0u) << v->abort_cause;
}

// Regression: the quarantine gate once read each cohort node's
// `quarantined` counter out of the process-global registry, whose 64-label
// cap aliased every node past the 64th onto one shared slot — a single
// quarantine among them read as one per late cohort node. The gate now
// counts the nodes whose receiver refused the canary as quarantined,
// straight off the install replies.
TEST(RolloutScale, QuarantineCountIsExactPastTheLabelCap) {
    BaseConfig bc;
    bc.rollout.stages = {0.2, 1.0};
    bc.rollout.stage_window = seconds(60);  // stage 0 holds for the whole test
    bc.rollout.tick_period = milliseconds(100);
    bc.rollout.quarantine_tolerance = 3;  // one quarantine keeps the rollout running
    bc.rollout.refusal_tolerance = 0;     // ...and so do its re-push bounces
    FleetWorld w(53, 100, bc);
    w.hall->base().add_extension(policy_pkg("hall/policy"));
    ASSERT_TRUE(w.run_until([&] { return w.all_on("hall/policy", 1); }));

    std::uint32_t v2 = w.hall->base().begin_rollout(
        policy_pkg("hall/policy", "fun onEntry() { throw \"poison\"; }"));
    const RolloutController& rc = w.hall->base().rollout();
    std::vector<std::size_t> late_cohort;  // cohort robots created after the 64th
    for (std::size_t i = 64; i < w.robots.size(); ++i) {
        if (rc.selects_canary("hall/policy", w.robots[i]->label())) late_cohort.push_back(i);
    }
    ASSERT_GE(late_cohort.size(), 2u);

    // Exactly one of them runs its poisoned canary into quarantine.
    const std::size_t victim = late_cohort.front();
    ASSERT_TRUE(w.run_until(
        [&] { return w.on_version("hall/policy", v2).contains(w.robots[victim]->label()); }));
    for (int i = 0; i < 3; ++i) {
        EXPECT_THROW(w.motors[victim]->call("rotate", {Value{1.0}}), std::exception);
    }
    ASSERT_TRUE(w.run_until([&] { return rc.view("hall/policy")->health.quarantines >= 1; },
                            seconds(10)));
    w.sim.run_for(seconds(3));  // more ticks, more re-pushes bouncing off the victim

    auto v = rc.view("hall/policy");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->status, RolloutController::Status::kActive) << v->abort_cause;
    EXPECT_EQ(v->health.quarantines, 1);
}

// -------------------------------------------------------------- guards ----

TEST(RolloutGuards, AddExtensionRejectedWhileRolloutInFlight) {
    BaseConfig bc;
    bc.rollout = fast_rollout();
    FleetWorld w(23, 3, bc);
    w.hall->base().add_extension(policy_pkg("hall/policy"));
    ASSERT_TRUE(w.run_until([&] { return w.all_on("hall/policy", 1); }));

    std::uint32_t v2 = w.hall->base().begin_rollout(
        policy_pkg("hall/policy", "fun onEntry() { let x = 1; }"));
    // Same name: typed refusal. A different name is untouched.
    EXPECT_THROW(w.hall->base().add_extension(policy_pkg("hall/policy")), RolloutInFlight);
    EXPECT_THROW(w.hall->base().begin_rollout(policy_pkg("hall/policy")), RolloutInFlight);
    w.hall->base().add_extension(policy_pkg("hall/other"));

    const RolloutController& rc = w.hall->base().rollout();
    ASSERT_TRUE(w.run_until([&] {
        auto v = rc.view("hall/policy");
        return v && v->status == RolloutController::Status::kComplete;
    }));
    // After completion the guard lifts, and the next version continues
    // past the canary's number.
    w.hall->base().add_extension(policy_pkg("hall/policy"));
    ASSERT_TRUE(w.run_until(
        [&] { return w.on_version("hall/policy", v2 + 1).size() == w.robots.size(); }));
}

TEST(RolloutGuards, AbortedCanaryVersionIsNeverReissued) {
    BaseConfig bc;
    bc.rollout = fast_rollout();
    bc.rollout.refusal_tolerance = 0;  // quarantine gate only
    FleetWorld w(29, 8, bc);
    w.hall->base().add_extension(policy_pkg("hall/policy"));
    ASSERT_TRUE(w.run_until([&] { return w.all_on("hall/policy", 1); }));

    std::uint32_t v2 = w.hall->base().begin_rollout(
        policy_pkg("hall/policy", "fun onEntry() { throw \"poison\"; }"));
    const RolloutController& rc = w.hall->base().rollout();
    SimTime deadline = w.sim.now() + seconds(30);
    while (w.sim.now() < deadline) {
        auto v = rc.view("hall/policy");
        if (v && v->status == RolloutController::Status::kAborted) break;
        for (std::size_t i = 0; i < w.robots.size(); ++i) {
            try {
                w.motors[i]->call("rotate", {Value{1.0}});
            } catch (const std::exception&) {
            }
        }
        w.sim.run_until(w.sim.now() + milliseconds(100));
    }
    ASSERT_EQ(rc.view("hall/policy")->status, RolloutController::Status::kAborted);

    // The canary's number died with it: the next add_extension must land
    // strictly above it, or a node still quarantining v2 would silently
    // refuse what the base believes is a fresh version.
    w.hall->base().add_extension(policy_pkg("hall/policy"));
    ASSERT_TRUE(w.run_until(
        [&] { return w.on_version("hall/policy", v2 + 1).size() == w.robots.size(); }));
}

TEST(RolloutGuards, LateJoinerOutsideTheCohortIsPushedThePinnedIncumbent) {
    BaseConfig bc;
    bc.rollout.stages = {0.5, 1.0};
    bc.rollout.stage_window = seconds(10);
    bc.rollout.tick_period = milliseconds(100);
    FleetWorld w(31, 4, bc);
    w.hall->base().add_extension(policy_pkg("hall/policy"));
    ASSERT_TRUE(w.run_until([&] { return w.all_on("hall/policy", 1); }));

    std::uint32_t v2 = w.hall->base().begin_rollout(
        policy_pkg("hall/policy", "fun onEntry() { let x = 1; }"));
    const RolloutController& rc = w.hall->base().rollout();
    ASSERT_TRUE(rc.active("hall/policy"));
    ASSERT_TRUE(w.run_until([&] { return !w.on_version("hall/policy", v2).empty(); }));
    ASSERT_EQ(rc.view("hall/policy")->stage, 0u);

    // A newcomer whose label the stage-0 cohort does not pick enters mid-rollout.
    std::string label;
    for (int i = 0; label.empty(); ++i) {
        std::string candidate = "late" + std::to_string(i);
        if (!rc.selects_canary("hall/policy", candidate)) label = candidate;
    }
    auto late = std::make_unique<MobileNode>(w.net, label, net::Position{0, 40}, 200.0);
    late->trust().trust("hall", to_bytes("k"));
    w.motors.push_back(robot::make_motor(late->runtime(), "motor:late"));
    MobileNode& joiner = *late;
    w.robots.push_back(std::move(late));

    auto joiner_version = [&]() -> std::uint32_t {
        for (const auto& info : joiner.receiver().installed()) {
            if (info.name == "hall/policy") return info.version;
        }
        return 0;
    };
    ASSERT_TRUE(w.run_until([&] { return joiner_version() != 0; }, seconds(8)));
    // Pushed the incumbent, while the canary runs in the cohort next door.
    EXPECT_EQ(joiner_version(), 1u);
    EXPECT_EQ(rc.view("hall/policy")->stage, 0u);
    EXPECT_FALSE(w.on_version("hall/policy", v2).empty());
    w.sim.run_for(seconds(1));
    EXPECT_EQ(joiner_version(), 1u);
    EXPECT_EQ(joiner.receiver().stats().replacements, 0u);

    // The final stage takes the joiner too, and the canary graduates.
    ASSERT_TRUE(w.run_until([&] {
        auto v = rc.view("hall/policy");
        return v && v->status == RolloutController::Status::kComplete;
    }));
    ASSERT_TRUE(w.run_until([&] { return w.all_on("hall/policy", v2); }));
}

// ------------------------------------------- quarantine rollback amnesty ----

struct QuarantineWorld {
    sim::Simulator sim;
    net::Network net;
    std::shared_ptr<db::JournalStorage> robot_disk;
    std::unique_ptr<BaseStation> hall;
    std::unique_ptr<MobileNode> robot;
    std::shared_ptr<rt::ServiceObject> motor;

    explicit QuarantineWorld(BaseConfig bc = {})
        : net(sim, net::NetworkConfig{}, 37),
          robot_disk(std::make_shared<db::JournalStorage>()) {
        robot_disk->name = "robot";
        bc.issuer = "hall";
        hall = std::make_unique<BaseStation>(net, "hall", net::Position{0, 0}, 100.0, bc);
        hall->keys().add_key("hall", to_bytes("k"));
        start_robot();
    }

    void start_robot() {
        robot = std::make_unique<MobileNode>(net, "robot", net::Position{10, 0}, 100.0,
                                             ReceiverConfig{}, robot_disk);
        robot->trust().trust("hall", to_bytes("k"));
        motor = robot::make_motor(robot->runtime(), "motor:x");
    }

    bool run_until(const std::function<bool()>& pred, Duration timeout = seconds(30)) {
        SimTime deadline = sim.now() + timeout;
        while (sim.now() < deadline) {
            if (pred()) return true;
            sim.run_until(sim.now() + milliseconds(50));
        }
        return pred();
    }

    void trip_quarantine(std::uint32_t version) {
        for (int i = 0; i < 3; ++i) {
            EXPECT_THROW(motor->call("rotate", {Value{1.0}}), std::exception);
        }
        sim.run_for(milliseconds(10));  // deferred withdrawal
        ASSERT_TRUE(robot->receiver().is_quarantined("hall/policy", version));
    }
};

// Regression for the original quarantine contract: (name, version) pairs
// were refused "until a newer version" — which strands a deliberate
// rollback to a once-quarantined incumbent forever. The explicit
// unquarantine is the rollback-scoped amnesty.
TEST(QuarantineRollback, ExplicitUnquarantineRestoresARefusedVersion) {
    QuarantineWorld w;
    w.hall->base().add_extension(policy_pkg("hall/policy", "fun onEntry() { throw \"x\"; }"));
    ASSERT_TRUE(w.run_until([&] { return w.robot->receiver().installed_count() == 1; }));
    std::uint32_t v1 = w.robot->receiver().installed()[0].version;
    w.trip_quarantine(v1);

    // The base keeps pushing; the pair keeps bouncing.
    w.sim.run_for(seconds(3));
    EXPECT_EQ(w.robot->receiver().installed_count(), 0u);

    const std::uint64_t unq0 = w.robot->receiver().stats().unquarantined;
    EXPECT_TRUE(w.robot->receiver().unquarantine("hall/policy", v1));
    EXPECT_FALSE(w.robot->receiver().unquarantine("hall/policy", v1));  // idempotent
    EXPECT_EQ(w.robot->receiver().stats().unquarantined - unq0, 1u);
    EXPECT_FALSE(w.robot->receiver().is_quarantined("hall/policy", v1));
    // The very version that was refused is accepted again.
    ASSERT_TRUE(w.run_until([&] {
        return w.robot->receiver().installed_count() == 1 &&
               w.robot->receiver().installed()[0].version == v1;
    }));
}

TEST(QuarantineRollback, NewerVersionLiftsOlderEntriesDurably) {
    QuarantineWorld w;
    w.hall->base().add_extension(policy_pkg("hall/policy", "fun onEntry() { throw \"x\"; }"));
    ASSERT_TRUE(w.run_until([&] { return w.robot->receiver().installed_count() == 1; }));
    std::uint32_t v1 = w.robot->receiver().installed()[0].version;
    w.trip_quarantine(v1);

    // A fixed, newer version lands — and its arrival lifts the older
    // entry (the documented "until a newer version" contract, now made
    // durable instead of implicit).
    w.hall->base().add_extension(policy_pkg("hall/policy"));
    ASSERT_TRUE(w.run_until([&] {
        return w.robot->receiver().installed_count() == 1 &&
               w.robot->receiver().installed()[0].version > v1;
    }));
    EXPECT_FALSE(w.robot->receiver().is_quarantined("hall/policy", v1));

    // ...and stays lifted across a crash-restart over the same disk.
    w.robot->journal()->power_off();
    w.net.remove_node(w.robot->id());
    w.robot.reset();
    w.sim.run_for(seconds(1));
    w.start_robot();
    EXPECT_FALSE(w.robot->receiver().is_quarantined("hall/policy", v1));
}

// End-to-end: the incumbent itself was once quarantined on the node, the
// node was then upgraded to the canary, the canary aborts — rollback must
// unquarantine the incumbent or the node is stranded with nothing.
TEST(QuarantineRollback, RollbackReinstallsAOnceQuarantinedIncumbent) {
    BaseConfig bc;
    bc.rollout.stages = {1.0};
    bc.rollout.stage_window = seconds(5);
    bc.rollout.tick_period = milliseconds(100);
    QuarantineWorld w(bc);
    w.hall->base().add_extension(policy_pkg("hall/policy", "fun onEntry() { throw \"x\"; }"));
    ASSERT_TRUE(w.run_until([&] { return w.robot->receiver().installed_count() == 1; }));
    std::uint32_t v1 = w.robot->receiver().installed()[0].version;
    w.trip_quarantine(v1);

    // The canary (also poisoned) is a *different* version, so the node
    // accepts it — then quarantines it too, which aborts the rollout.
    std::uint32_t v2 = w.hall->base().begin_rollout(
        policy_pkg("hall/policy", "fun onEntry() { throw \"y\"; }"));
    const RolloutController& rc = w.hall->base().rollout();
    SimTime deadline = w.sim.now() + seconds(20);
    while (w.sim.now() < deadline) {
        auto v = rc.view("hall/policy");
        if (v && v->status == RolloutController::Status::kAborted) break;
        try {
            w.motor->call("rotate", {Value{1.0}});
        } catch (const std::exception&) {
        }
        w.sim.run_until(w.sim.now() + milliseconds(100));
    }
    ASSERT_EQ(rc.view("hall/policy")->status, RolloutController::Status::kAborted);

    // Rollback amnesty: the once-quarantined incumbent v1 comes back.
    ASSERT_TRUE(w.run_until([&] {
        return w.robot->receiver().installed_count() == 1 &&
               w.robot->receiver().installed()[0].version == v1;
    }));
    EXPECT_FALSE(w.robot->receiver().is_quarantined("hall/policy", v1));
    EXPECT_TRUE(w.robot->receiver().is_quarantined("hall/policy", v2));
}

// ------------------------------------------------------ crash recovery ----

struct DurableRolloutWorld {
    sim::Simulator sim;
    net::Network net;
    Supervisor sup;
    std::shared_ptr<db::JournalStorage> disk;
    std::unique_ptr<BaseStation> hall;
    std::vector<std::unique_ptr<MobileNode>> robots;
    std::vector<std::shared_ptr<rt::ServiceObject>> motors;

    DurableRolloutWorld(std::uint64_t seed, RolloutConfig rollout)
        : net(sim, net::NetworkConfig{}, seed),
          sup(net),
          disk(std::make_shared<db::JournalStorage>()) {
        disk->name = "hall";
        sup.manage("hall", Supervisor::Lifecycle{
                               [this, rollout]() {
                                   BaseConfig bc;
                                   bc.issuer = "hall";
                                   bc.rollout = rollout;
                                   bc.journal = db::JournalConfig{
                                       .batch_bytes = 1024,
                                       .batch_ms = milliseconds(20),
                                       .snapshot_chunk_bytes = 256};
                                   hall = std::make_unique<BaseStation>(
                                       net, "hall", net::Position{0, 0}, 200.0, bc,
                                       disco::RegistrarConfig{}, disk);
                                   hall->keys().add_key("hall", to_bytes("k"));
                               },
                               [this]() { return hall->id(); },
                               [this]() {
                                   if (hall && hall->journal()) hall->journal()->power_off();
                               },
                               [this]() { hall.reset(); },
                           });
        for (int i = 0; i < 8; ++i) {
            auto robot = std::make_unique<MobileNode>(
                net, "robot" + std::to_string(i),
                net::Position{10.0 + 10.0 * i, (i % 2) * 10.0}, 200.0);
            robot->trust().trust("hall", to_bytes("k"));
            motors.push_back(robot::make_motor(robot->runtime(), "motor:" + std::to_string(i)));
            robots.push_back(std::move(robot));
        }
    }

    bool run_until(const std::function<bool()>& pred, Duration timeout = seconds(60)) {
        SimTime deadline = sim.now() + timeout;
        while (sim.now() < deadline) {
            if (pred()) return true;
            sim.run_until(sim.now() + milliseconds(50));
        }
        return pred();
    }

    std::set<std::string> on_version(const std::string& name, std::uint32_t version) {
        std::set<std::string> out;
        for (auto& r : robots) {
            for (const auto& info : r->receiver().installed()) {
                if (info.name == name && info.version == version) out.insert(r->label());
            }
        }
        return out;
    }
};

TEST(RolloutRecovery, MidRolloutRestartResumesAtTheJournaledStage) {
    RolloutConfig rc = fast_rollout();
    rc.stage_window = milliseconds(1500);
    DurableRolloutWorld w(41, rc);
    w.hall->base().add_extension(policy_pkg("hall/policy"));
    ASSERT_TRUE(w.run_until([&] { return w.on_version("hall/policy", 1).size() == 8; }));

    std::uint32_t v2 = w.hall->base().begin_rollout(
        policy_pkg("hall/policy", "fun onEntry() { let x = 1; }"));
    ASSERT_TRUE(w.run_until([&] {
        auto v = w.hall->base().rollout().view("hall/policy");
        return v && v->stage >= 1;
    }));

    // Power cut mid-rollout. The journaled stage is the resume point —
    // give the 20ms group commit one window to flush the stage record
    // first (a promotion that never hit the WAL legitimately resumes a
    // stage earlier).
    w.sim.run_for(milliseconds(100));
    w.sup.crash("hall", milliseconds(1500));
    ASSERT_TRUE(w.run_until([&] { return w.sup.stats().restarts >= 1 && w.hall; },
                            seconds(10)));
    EXPECT_GE(w.hall->base().epoch(), 2u);
    {
        auto v = w.hall->base().rollout().view("hall/policy");
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(v->status, RolloutController::Status::kActive);
        EXPECT_GE(v->stage, 1u);  // resumed, not restarted at 0%
        ASSERT_FALSE(v->verdicts.empty());
        EXPECT_NE(v->verdicts.back().find("recovered at stage"), std::string::npos);
    }

    // And the resumed rollout still finishes the job.
    ASSERT_TRUE(w.run_until([&] {
        auto v = w.hall->base().rollout().view("hall/policy");
        return v && v->status == RolloutController::Status::kComplete;
    }));
    ASSERT_TRUE(w.run_until([&] { return w.on_version("hall/policy", v2).size() == 8; }));
}

TEST(RolloutRecovery, AbortSurvivesTheRestart) {
    DurableRolloutWorld w(43, fast_rollout());
    w.hall->base().add_extension(policy_pkg("hall/policy"));
    ASSERT_TRUE(w.run_until([&] { return w.on_version("hall/policy", 1).size() == 8; }));

    std::uint32_t v2 = w.hall->base().begin_rollout(
        policy_pkg("hall/policy", "fun onEntry() { throw \"poison\"; }"));
    SimTime deadline = w.sim.now() + seconds(30);
    while (w.sim.now() < deadline) {
        auto v = w.hall->base().rollout().view("hall/policy");
        if (v && v->status == RolloutController::Status::kAborted) break;
        for (std::size_t i = 0; i < w.robots.size(); ++i) {
            try {
                w.motors[i]->call("rotate", {Value{1.0}});
            } catch (const std::exception&) {
            }
        }
        w.sim.run_until(w.sim.now() + milliseconds(100));
    }
    auto before = w.hall->base().rollout().view("hall/policy");
    ASSERT_TRUE(before && before->status == RolloutController::Status::kAborted);
    w.sim.run_for(milliseconds(100));  // let the group commit flush the abort

    w.sup.crash("hall", milliseconds(1500));
    ASSERT_TRUE(w.run_until([&] { return w.sup.stats().restarts >= 1 && w.hall; },
                            seconds(10)));
    auto after = w.hall->base().rollout().view("hall/policy");
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->status, RolloutController::Status::kAborted);
    EXPECT_EQ(after->abort_cause, before->abort_cause);
    // The restarted base keeps serving the incumbent, never the dead canary.
    ASSERT_TRUE(w.run_until([&] { return w.on_version("hall/policy", 1).size() == 8; }));
    EXPECT_TRUE(w.on_version("hall/policy", v2).empty());
}

// ------------------------------------------------- durable version skew ----

BaseDurableState::RolloutEntry sample_entry() {
    BaseDurableState::RolloutEntry e;
    e.name = "hall/policy";
    e.version = 7;
    e.sealed = to_bytes("sealed-bytes");
    e.incumbent_version = 6;
    e.stages_bp = {2500, 5000, 10000};
    e.stage = 1;
    e.status = 0;
    e.abort_cause = "";
    return e;
}

TEST(DurableSkew, UnknownAndMalformedRolloutRecordsSkipTotally) {
    auto disk = std::make_shared<db::JournalStorage>();
    {
        db::Journal j(disk);
        j.append(BaseDurableState::rec_epoch(3));
        j.append(BaseDurableState::rec_rollout_begin(sample_entry()));
        // A future op this build has never heard of.
        j.append(Value{Dict{{"op", Value{"rollout-pause"}}, {"name", Value{"hall/policy"}}}});
        // A malformed begin: version is a string.
        Value bad = BaseDurableState::rec_rollout_begin(sample_entry());
        {
            Dict d = bad.as_dict();
            d.set("version", Value{"seven"});
            d.set("name", Value{"hall/broken"});
            bad = Value{std::move(d)};
        }
        j.append(bad);
        // Stage/abort records for a rollout that was never begun: ignored
        // without being counted as damage (an old journal truncated at a
        // snapshot boundary looks exactly like this).
        j.append(BaseDurableState::rec_rollout_stage("hall/ghost", 2));
        j.append(BaseDurableState::rec_rollout_abort("hall/ghost", "x"));
        j.append(BaseDurableState::rec_rollout_stage("hall/policy", 2));
    }
    BaseDurableState st = BaseDurableState::replay(db::Journal(disk).restore());
    EXPECT_EQ(st.skipped_records, 2u);  // the unknown op + the malformed begin
    ASSERT_EQ(st.rollouts.size(), 1u);
    const auto& r = st.rollouts.at("hall/policy");
    EXPECT_EQ(r.version, 7u);
    EXPECT_EQ(r.stage, 2u);
    EXPECT_EQ(r.incumbent_version, 6u);
    EXPECT_EQ(r.stages_bp, (std::vector<std::uint32_t>{2500, 5000, 10000}));
    // The canary's number is claimed even if only the journal knows it.
    EXPECT_GE(st.last_version["hall/policy"], 7u);
}

TEST(DurableSkew, EveryFieldMutationOfABeginRecordStaysTotal) {
    // Deterministic single-field fuzz: for every key of a valid
    // rollout-begin record, replace the value with each of a few wrong
    // types. Replay must never throw — each mutant either skips or decodes
    // to something harmless.
    Value good = BaseDurableState::rec_rollout_begin(sample_entry());
    std::vector<std::string> keys;
    for (const auto& [k, _] : good.as_dict()) keys.push_back(k);
    const Value wrong[] = {Value{"x"}, Value{std::int64_t{-1}}, Value{List{}},
                           Value{Dict{}}};
    for (const std::string& key : keys) {
        for (const Value& w : wrong) {
            auto disk = std::make_shared<db::JournalStorage>();
            {
                db::Journal j(disk);
                Dict d = good.as_dict();
                d.set(key, w);
                j.append(Value{std::move(d)});
                // Dropped-key variant too.
                Dict d2 = good.as_dict();
                d2.erase(key);
                j.append(Value{std::move(d2)});
            }
            BaseDurableState st;
            ASSERT_NO_THROW(st = BaseDurableState::replay(db::Journal(disk).restore()))
                << "key=" << key;
            EXPECT_LE(st.rollouts.size(), 2u) << "key=" << key;
        }
    }
}

TEST(DurableSkew, SnapshotsCrossRolloutVersionsBothWays) {
    // A rollout begun after the last compaction: the snapshot holds no
    // rollout-begin record, and the WAL's begin still applies on top.
    BaseDurableState old_state;
    old_state.epoch = 2;
    auto disk = std::make_shared<db::JournalStorage>();
    {
        db::Journal j(disk);
        j.compact(old_state.to_snapshot());
        j.append(BaseDurableState::rec_rollout_begin(sample_entry()));
    }
    BaseDurableState st = BaseDurableState::replay(db::Journal(disk).restore());
    EXPECT_EQ(st.skipped_records, 0u);
    EXPECT_EQ(st.epoch, 2u);
    ASSERT_TRUE(st.rollouts.contains("hall/policy"));

    // A rollout compacted into the snapshot by a *newer* build (an extra
    // field on its rollout-begin record) reads back with nothing skipped,
    // and the WAL's promotion after the snapshot still applies.
    BaseDurableState new_state;
    new_state.epoch = 5;
    new_state.rollouts["hall/policy"] = sample_entry();
    List records = new_state.to_snapshot().as_list();
    bool found = false;
    for (Value& r : records) {
        Dict d = r.as_dict();
        if (d.at("op").as_str() != "rollout-begin") continue;
        d.set("pause_until_ns", Value{std::int64_t{99}});  // future field
        r = Value{std::move(d)};
        found = true;
    }
    ASSERT_TRUE(found);
    auto disk2 = std::make_shared<db::JournalStorage>();
    {
        db::Journal j(disk2);
        j.compact(Value{std::move(records)});
        j.append(BaseDurableState::rec_rollout_stage("hall/policy", 2));
    }
    BaseDurableState st2 = BaseDurableState::replay(db::Journal(disk2).restore());
    EXPECT_EQ(st2.skipped_records, 0u);
    EXPECT_EQ(st2.epoch, 5u);
    ASSERT_TRUE(st2.rollouts.contains("hall/policy"));
    EXPECT_EQ(st2.rollouts.at("hall/policy").stage, 2u);
    EXPECT_EQ(st2.last_version.at("hall/policy"), 7u);
}

// ---------------------------------------------------------- chaos soak ----
// A poisoned canary under a hostile radio plus a mid-run base power cut.
// The promises: the poison never escapes the canary cohort, the whole
// fleet re-converges on the incumbent after the automatic rollback, the
// rollout's terminal state survives the crash, and the same seed replays
// the identical run.

struct RolloutChaosWorld {
    sim::Simulator sim;
    net::Network net;
    Supervisor sup;
    std::shared_ptr<db::JournalStorage> disk;
    std::unique_ptr<BaseStation> hall;
    std::vector<std::unique_ptr<MobileNode>> robots;
    std::vector<std::shared_ptr<rt::ServiceObject>> motors;

    explicit RolloutChaosWorld(std::uint64_t seed)
        : net(sim, net::NetworkConfig{}, seed),
          sup(net),
          disk(std::make_shared<db::JournalStorage>()) {
        disk->name = "hall";
        sup.manage("hall", Supervisor::Lifecycle{
                               [this]() {
                                   BaseConfig bc;
                                   bc.issuer = "hall";
                                   bc.rollout.stages = {0.25, 0.5, 1.0};
                                   bc.rollout.stage_window = seconds(2);
                                   bc.rollout.tick_period = milliseconds(200);
                                   bc.journal = db::JournalConfig{
                                       .batch_bytes = 1024,
                                       .batch_ms = milliseconds(20),
                                       .snapshot_chunk_bytes = 256};
                                   hall = std::make_unique<BaseStation>(
                                       net, "hall", net::Position{0, 0}, 200.0, bc,
                                       disco::RegistrarConfig{}, disk);
                                   hall->keys().add_key("hall", to_bytes("k"));
                               },
                               [this]() { return hall->id(); },
                               [this]() {
                                   if (hall && hall->journal()) hall->journal()->power_off();
                               },
                               [this]() { hall.reset(); },
                           });
        for (int i = 0; i < 8; ++i) {
            auto robot = std::make_unique<MobileNode>(
                net, "robot" + std::to_string(i),
                net::Position{10.0 + 10.0 * i, (i % 2) * 10.0}, 200.0);
            robot->trust().trust("hall", to_bytes("k"));
            motors.push_back(robot::make_motor(robot->runtime(), "motor:" + std::to_string(i)));
            robots.push_back(std::move(robot));
        }

        net::FaultPlan plan;
        plan.loss = 0.05;
        plan.burst_enter = 0.02;
        plan.burst_exit = 0.3;
        plan.delay_jitter = milliseconds(10);
        plan.duplicate = 0.1;
        plan.reorder = 0.05;
        net.set_fault_plan(plan, seed * 1000003ULL + 17);

        // The power cut lands while the rollout drama is typically still
        // unfolding (converge ~2s, canary lands, quarantine, abort).
        net::CrashPlan crashes;
        crashes.events.push_back(
            net::CrashEvent{"hall", SimTime::zero() + seconds(3), milliseconds(2000)});
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

    std::set<std::string> on_version(const std::string& name, std::uint32_t version) {
        std::set<std::string> out;
        for (auto& r : robots) {
            for (const auto& info : r->receiver().installed()) {
                if (info.name == name && info.version == version) out.insert(r->label());
            }
        }
        return out;
    }

    /// Drive one scripted poisoned-canary incident and return when the
    /// rollout is terminal (or the deadline passes). Samples cohort
    /// membership and canary sightings every 100ms along the way.
    struct Incident {
        bool converged = false;
        bool aborted = false;
        std::uint32_t canary_version = 0;
        std::set<std::string> cohort_seen;
        std::set<std::string> v2_seen;
    };
    Incident run_incident() {
        Incident out;
        hall->base().add_extension(policy_pkg("hall/policy"));
        if (!run_until([&] { return on_version("hall/policy", 1).size() == 8 && hall; },
                       seconds(30))) {
            return out;
        }
        out.converged = true;
        out.canary_version = hall->base().begin_rollout(
            policy_pkg("hall/policy", "fun onEntry() { throw \"poison\"; }"));
        SimTime deadline = sim.now() + seconds(40);
        while (sim.now() < deadline) {
            if (hall) {
                const RolloutController& rc = hall->base().rollout();
                for (auto& r : robots) {
                    if (rc.selects_canary("hall/policy", r->label())) {
                        out.cohort_seen.insert(r->label());
                    }
                }
                auto v = rc.view("hall/policy");
                if (v && v->status == RolloutController::Status::kAborted &&
                    sim.now() >= SimTime::zero() + seconds(6)) {
                    // Terminal, and the crash window is behind us.
                    out.aborted = true;
                    break;
                }
            }
            for (const std::string& label : on_version("hall/policy", out.canary_version)) {
                out.v2_seen.insert(label);
            }
            for (std::size_t i = 0; i < robots.size(); ++i) {
                try {
                    motors[i]->call("rotate", {Value{1.0}});
                } catch (const std::exception&) {
                }
            }
            sim.run_until(sim.now() + milliseconds(100));
        }
        if (!out.aborted && hall) {
            auto v = hall->base().rollout().view("hall/policy");
            out.aborted = v && v->status == RolloutController::Status::kAborted;
        }
        return out;
    }
};

TEST(RolloutChaos, PoisonNeverEscapesTheCohortAcrossSeeds) {
    const std::uint64_t base = chaos_seed_base();
    for (std::uint64_t seed = base; seed < base + 20; ++seed) {
        RolloutChaosWorld w(seed);
        RolloutChaosWorld::Incident inc = w.run_incident();
        ASSERT_TRUE(inc.converged) << "seed " << seed << ": fleet never converged";
        ASSERT_TRUE(inc.aborted) << "seed " << seed << ": poisoned canary not aborted";

        // Blast radius: the canary was only ever seen inside the cohort,
        // and the cohort never reached the whole fleet.
        EXPECT_FALSE(inc.v2_seen.empty()) << "seed " << seed;
        for (const std::string& label : inc.v2_seen) {
            EXPECT_TRUE(inc.cohort_seen.contains(label)) << "seed " << seed << " " << label;
        }
        EXPECT_LT(inc.cohort_seen.size(), w.robots.size()) << "seed " << seed;

        // The crash really happened, and the journaled verdict survived it.
        EXPECT_GE(w.sup.stats().crashes, 1u) << "seed " << seed;
        ASSERT_TRUE(w.run_until([&] { return w.sup.stats().restarts >= 1 && w.hall; },
                                seconds(10)))
            << "seed " << seed;
        EXPECT_GE(w.hall->base().epoch(), 2u) << "seed " << seed;
        auto v = w.hall->base().rollout().view("hall/policy");
        ASSERT_TRUE(v.has_value()) << "seed " << seed;
        EXPECT_EQ(v->status, RolloutController::Status::kAborted) << "seed " << seed;

        // Automatic rollback: every node back on the incumbent, despite
        // the radio and the power cut.
        ASSERT_TRUE(w.run_until(
            [&] { return w.on_version("hall/policy", 1).size() == 8; }, seconds(60)))
            << "seed " << seed;
        EXPECT_TRUE(w.on_version("hall/policy", inc.canary_version).empty())
            << "seed " << seed;
        EXPECT_LE(w.net.stats().delivered, w.net.stats().sent) << "seed " << seed;
    }
}

TEST(RolloutChaos, SameSeedReplaysIdentically) {
    auto fingerprint = [](std::uint64_t seed) {
        RolloutChaosWorld w(seed);
        RolloutChaosWorld::Incident inc = w.run_incident();
        w.run_until([&] { return w.on_version("hall/policy", 1).size() == 8; },
                    seconds(60));
        net::NetworkStats s = w.net.stats();
        // The restarted base's controller: its own life's counts.
        RolloutController::Stats rs =
            w.hall ? w.hall->base().rollout().stats() : RolloutController::Stats{};
        return std::tuple{s.sent,
                          s.delivered,
                          s.fault_dropped_loss,
                          s.fault_dropped_burst,
                          s.fault_duplicated,
                          s.fault_reordered,
                          inc.aborted,
                          inc.canary_version,
                          inc.cohort_seen,
                          inc.v2_seen,
                          w.sup.stats().crashes,
                          w.sup.stats().restarts,
                          w.hall ? w.hall->base().epoch() : 0,
                          rs.aborts,
                          rs.strikes,
                          rs.rollback_installs,
                          w.robots[0]->receiver().stats().installs,
                          w.robots[5]->receiver().stats().installs};
    };
    EXPECT_EQ(fingerprint(7), fingerprint(7));
    EXPECT_NE(fingerprint(7), fingerprint(8));
}

}  // namespace
}  // namespace pmp::midas
