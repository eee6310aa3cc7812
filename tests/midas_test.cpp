// MIDAS integration tests: discovery-driven adaptation, leasing and
// autonomous withdrawal, policy replacement, trust and capability policy,
// implicit prerequisites, and the symmetric peer-to-peer mode.
#include <gtest/gtest.h>

#include "midas/node.h"
#include "obs/metrics.h"
#include "robot/devices.h"

namespace pmp::midas {
namespace {

using rt::Dict;
using rt::Value;

constexpr const char* kMonitoringScript = R"(
    let posts = 0;
    fun onEntry() {
        owner.post("collector", "post",
                   [sys.node(), {"device": ctx.target(), "action": ctx.method()}]);
        posts = posts + 1;
    }
    fun onShutdown(reason) { }
)";

ExtensionPackage monitoring_package() {
    ExtensionPackage pkg;
    pkg.name = "hall-a/monitoring";
    pkg.script = kMonitoringScript;
    pkg.bindings = {
        PackageBinding{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    pkg.capabilities = {"net"};
    return pkg;
}

class MidasTest : public ::testing::Test {
protected:
    MidasTest() : net_(sim_, net::NetworkConfig{}, 21) {
        BaseConfig bc;
        bc.issuer = "hall-a";
        base_ = std::make_unique<BaseStation>(net_, "base-a", net::Position{0, 0}, 100.0, bc);
        base_->keys().add_key("hall-a", to_bytes("hall-a-key"));

        robot_ = std::make_unique<MobileNode>(net_, "robot:1:1", net::Position{10, 0}, 100.0);
        robot_->trust().trust("hall-a", to_bytes("hall-a-key"));
        robot_->receiver().allow_capabilities("hall-a", {"net", "log", "target"});

        motor_ = robot::make_motor(robot_->runtime(), "motor:x");
    }

    /// Run the simulation until `pred` holds or `timeout` elapses.
    bool run_until(const std::function<bool()>& pred, Duration timeout = seconds(10)) {
        SimTime deadline = sim_.now() + timeout;
        while (sim_.now() < deadline) {
            if (pred()) return true;
            sim_.run_until(sim_.now() + milliseconds(100));
        }
        return pred();
    }

    sim::Simulator sim_;
    net::Network net_;
    std::unique_ptr<BaseStation> base_;
    std::unique_ptr<MobileNode> robot_;
    std::shared_ptr<rt::ServiceObject> motor_;
};

// A node's stats are its own: exact for the 100th receiver of a fleet, well
// past the 64-label cap at which an export starts aggregating rows.
TEST(ReceiverStats, ExactForEveryNodeOfALargeFleet) {
    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 5);
    crypto::KeyStore keys;
    keys.add_key("hall", to_bytes("k"));
    std::vector<std::unique_ptr<MobileNode>> fleet;
    for (int i = 0; i < 100; ++i) {
        auto node = std::make_unique<MobileNode>(net, "node" + std::to_string(i),
                                                 net::Position{0, 0}, 10.0);
        node->trust().trust("hall", to_bytes("k"));
        // Node i installs i + 1 successive versions of one extension.
        for (std::uint32_t v = 1; v <= static_cast<std::uint32_t>(i + 1); ++v) {
            ExtensionPackage pkg;
            pkg.name = "hall/counter";
            pkg.version = v;
            pkg.script = "fun onEntry() { }";
            pkg.bindings = {PackageBinding{prose::AdviceKind::kBefore, "call(* Motor.*(..))",
                                           "onEntry", 0}};
            node->receiver().install_from(NodeId{}, pkg.seal(keys, "hall"), 1000);
        }
        fleet.push_back(std::move(node));
    }
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        EXPECT_EQ(fleet[i]->receiver().stats().installs, i + 1) << fleet[i]->label();
    }
    // The export folds labels past its cap into one row but loses nothing.
    std::uint64_t exported = 0;
    obs::Registry::global().visit_counters(
        [&](const std::string& name, const std::string&, const obs::Counter& c) {
            if (name == "midas.installs") exported += c.value();
        });
    EXPECT_EQ(exported, 100u * 101u / 2u);
}

TEST_F(MidasTest, NodeIsAdaptedOnEnteringTheHall) {
    base_->base().add_extension(monitoring_package());
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 1; }));

    auto installed = robot_->receiver().installed();
    ASSERT_EQ(installed.size(), 1u);
    EXPECT_EQ(installed[0].name, "hall-a/monitoring");
    EXPECT_EQ(installed[0].issuer, "hall-a");
    EXPECT_EQ(base_->base().adapted_count(), 1u);
}

TEST_F(MidasTest, InterceptedActionsLandInHallDatabase) {
    base_->base().add_extension(monitoring_package());
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 1; }));

    motor_->call("rotate", {Value{30.0}});
    motor_->call("rotate", {Value{-10.0}});
    motor_->call("stop", {});
    ASSERT_TRUE(run_until([&] { return base_->store().size() == 3; }));

    auto records = base_->store().query(db::Query{});
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].source, "robot:1:1");
    EXPECT_EQ(records[0].data.as_dict().at("device").as_str(), "motor:x");
    EXPECT_EQ(records[0].data.as_dict().at("action").as_str(), "rotate");
    EXPECT_EQ(records[2].data.as_dict().at("action").as_str(), "stop");
}

TEST_F(MidasTest, KeepalivesSustainExtensionWhileInRange) {
    base_->base().add_extension(monitoring_package());
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 1; }));
    // Far longer than the extension lease: keep-alives must sustain it.
    sim_.run_for(seconds(30));
    EXPECT_EQ(robot_->receiver().installed_count(), 1u);
    EXPECT_EQ(robot_->receiver().stats().expirations, 0u);
}

TEST_F(MidasTest, ExtensionsWithdrawnWhenNodeLeaves) {
    base_->base().add_extension(monitoring_package());
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 1; }));

    robot_->move_to({1000, 0});
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 0; }));
    EXPECT_GE(robot_->receiver().stats().expirations, 1u);
    // The motor dispatch is back to baseline.
    EXPECT_FALSE(motor_->type().method("rotate")->woven());
    // The base eventually notices the node is gone.
    ASSERT_TRUE(run_until([&] { return base_->base().adapted_count() == 0; }));
}

TEST_F(MidasTest, ShutdownProcedureRunsOnLeaseExpiry) {
    // Shutdown posts a farewell marker into a global; we inspect via the
    // receiver event hook instead (black-box: observe the expire event).
    std::vector<std::string> events;
    robot_->receiver().on_event(
        [&](const std::string& event, const AdaptationService::Installed& info) {
            events.push_back(event + ":" + info.name);
        });
    base_->base().add_extension(monitoring_package());
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 1; }));
    robot_->move_to({1000, 0});
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 0; }));
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front(), "install:hall-a/monitoring");
    EXPECT_EQ(events.back(), "expire:hall-a/monitoring");
}

TEST_F(MidasTest, ReturningNodeIsReAdapted) {
    base_->base().add_extension(monitoring_package());
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 1; }));
    robot_->move_to({1000, 0});
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 0; }));

    robot_->move_to({10, 0});
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 1; }));
    EXPECT_GE(robot_->receiver().stats().installs, 2u);
}

TEST_F(MidasTest, PolicyChangeReplacesExtensionOnAdaptedNodes) {
    base_->base().add_extension(monitoring_package());
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 1; }));
    std::uint32_t v1 = robot_->receiver().installed()[0].version;

    // The hall's policy evolves: same name, new content.
    ExtensionPackage updated = monitoring_package();
    updated.script = std::string(kMonitoringScript) + "\nfun helper() { return 1; }";
    base_->base().add_extension(updated);

    ASSERT_TRUE(run_until(
        [&] { return robot_->receiver().stats().replacements >= 1; }));
    EXPECT_EQ(robot_->receiver().installed_count(), 1u);
    EXPECT_GT(robot_->receiver().installed()[0].version, v1);
}

TEST_F(MidasTest, RemoveExtensionRevokesEverywhere) {
    base_->base().add_extension(monitoring_package());
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 1; }));

    base_->base().remove_extension("hall-a/monitoring");
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 0; }));
    EXPECT_GE(robot_->receiver().stats().revocations, 1u);
    EXPECT_FALSE(motor_->type().method("rotate")->woven());
}

TEST_F(MidasTest, UntrustedIssuerIsRejected) {
    // A rogue base station the robot does not trust.
    BaseConfig bc;
    bc.issuer = "mallory";
    BaseStation rogue(net_, "rogue", net::Position{20, 0}, 100.0, bc);
    rogue.keys().add_key("mallory", to_bytes("mallory-key"));
    ExtensionPackage evil = monitoring_package();
    evil.name = "mallory/spyware";
    evil.capabilities = {};  // even a capability-free package is refused
    rogue.base().add_extension(evil);

    ASSERT_TRUE(run_until([&] { return robot_->receiver().stats().rejections >= 1; }));
    for (const auto& inst : robot_->receiver().installed()) {
        EXPECT_NE(inst.issuer, "mallory");
    }
}

TEST_F(MidasTest, UngrantableCapabilityIsRejected) {
    ExtensionPackage greedy = monitoring_package();
    greedy.name = "hall-a/greedy";
    greedy.capabilities = {"net", "robot.control"};  // robot.control not allowed
    base_->base().add_extension(greedy);

    ASSERT_TRUE(run_until([&] { return robot_->receiver().stats().rejections >= 1; }));
    EXPECT_EQ(robot_->receiver().installed_count(), 0u);
    EXPECT_GE(base_->base().stats().install_failures, 1u);
}

TEST_F(MidasTest, ImpliedExtensionInstallsFirst) {
    // Access control implies session management (the paper's example).
    ExtensionPackage session;
    session.name = "hall-a/session";
    session.script = "fun onEntry() { }";
    session.bindings = {
        PackageBinding{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", -10}};
    base_->base().add_extension(session);

    ExtensionPackage access = monitoring_package();
    access.name = "hall-a/access-control";
    access.implies = {"hall-a/session"};
    base_->base().add_extension(access);

    std::vector<std::string> installs;
    robot_->receiver().on_event(
        [&](const std::string& event, const AdaptationService::Installed& info) {
            if (event == "install") installs.push_back(info.name);
        });
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 2; }));
    // Dependencies install before dependents on each adaptation pass.
    auto session_pos = std::find(installs.begin(), installs.end(), "hall-a/session");
    auto access_pos = std::find(installs.begin(), installs.end(), "hall-a/access-control");
    ASSERT_NE(session_pos, installs.end());
    ASSERT_NE(access_pos, installs.end());
    EXPECT_LT(session_pos - installs.begin(), access_pos - installs.begin());
}

TEST_F(MidasTest, BaseActivityLogRecordsAdaptations) {
    base_->base().add_extension(monitoring_package());
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 1; }));
    bool saw_adapt = false, saw_install = false;
    for (const auto& activity : base_->base().activity()) {
        if (activity.event == "adapt" && activity.node_label == "robot:1:1") saw_adapt = true;
        if (activity.event == "install" && activity.extension == "hall-a/monitoring") {
            saw_install = true;
        }
    }
    EXPECT_TRUE(saw_adapt);
    EXPECT_TRUE(saw_install);
}

TEST_F(MidasTest, RoamingBetweenHallsSwapsPolicies) {
    // Hall B sits far from hall A with its own policy and key.
    BaseConfig bc;
    bc.issuer = "hall-b";
    BaseStation hall_b(net_, "base-b", net::Position{500, 0}, 100.0, bc);
    hall_b.keys().add_key("hall-b", to_bytes("hall-b-key"));
    robot_->trust().trust("hall-b", to_bytes("hall-b-key"));
    robot_->receiver().allow_capabilities("hall-b", {"net"});

    ExtensionPackage policy_b = monitoring_package();
    policy_b.name = "hall-b/limits";
    hall_b.base().add_extension(policy_b);
    base_->base().add_extension(monitoring_package());

    // In hall A.
    ASSERT_TRUE(run_until([&] {
        auto installed = robot_->receiver().installed();
        return installed.size() == 1 && installed[0].issuer == "hall-a";
    }));

    // Roam to hall B: hall A's extension lapses, hall B's arrives.
    robot_->move_to({510, 0});
    ASSERT_TRUE(run_until(
        [&] {
            auto installed = robot_->receiver().installed();
            return installed.size() == 1 && installed[0].issuer == "hall-b";
        },
        seconds(20)));
    EXPECT_GE(robot_->receiver().stats().expirations, 1u);
}

TEST_F(MidasTest, TheMiddlewareItselfIsAdaptable) {
    // The paper's generality claim cuts both ways: the adaptation service
    // is an ordinary service object, so an aspect can observe MIDAS doing
    // its own work — every install/keepalive that reaches this node.
    std::vector<std::string> control_plane_calls;
    auto audit = std::make_shared<prose::Aspect>("meta-audit");
    audit->before("call(* AdaptationService.*(..))", [&](rt::CallFrame& f) {
        control_plane_calls.push_back(f.method.decl().name);
    });
    robot_->weaver().weave(audit);

    base_->base().add_extension(monitoring_package());
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 1; }));
    sim_.run_for(seconds(3));

    int installs = 0, keepalives = 0;
    for (const std::string& name : control_plane_calls) {
        installs += name == "install";
        keepalives += name == "keepalive";
    }
    EXPECT_GE(installs, 1);
    EXPECT_GE(keepalives, 1);
}

TEST_F(MidasTest, RemoteListShowsInstalledExtensions) {
    base_->base().add_extension(monitoring_package());
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 1; }));
    // Anyone in range can ask the adaptation service what it runs.
    Value listed = base_->rpc().call_sync(robot_->id(), "adaptation", "list", {});
    ASSERT_EQ(listed.as_list().size(), 1u);
    const Dict& entry = listed.as_list()[0].as_dict();
    EXPECT_EQ(entry.at("name").as_str(), "hall-a/monitoring");
    EXPECT_EQ(entry.at("issuer").as_str(), "hall-a");
}

TEST_F(MidasTest, LeaseGrantIsClampedByReceiver) {
    // Ask for an hour; the receiver grants at most its configured max (5s
    // default) — visible in the install reply.
    ExtensionPackage pkg = monitoring_package();
    Bytes sealed = pkg.seal(base_->keys(), "hall-a");
    sim_.run_for(seconds(2));  // let discovery settle
    Value reply = base_->rpc().call_sync(
        robot_->id(), "adaptation", "install",
        {Value{sealed}, Value{std::int64_t{3600 * 1000}}, Value{std::int64_t{1}}});
    EXPECT_LE(reply.as_dict().at("lease_ms").as_int(), 5000);
}

TEST_F(MidasTest, ReinstallSameVersionIsRefresh) {
    base_->base().add_extension(monitoring_package());
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 1; }));
    // Keep-alives already refresh; force an explicit duplicate install.
    ExtensionPackage pkg = monitoring_package();
    pkg.version = robot_->receiver().installed()[0].version;  // same version
    Bytes sealed = pkg.seal(base_->keys(), "hall-a");
    Value reply = base_->rpc().call_sync(robot_->id(), "adaptation", "install",
                                         {Value{sealed}, Value{std::int64_t{1000}},
                                          Value{std::int64_t{1}}});
    EXPECT_EQ(static_cast<std::uint64_t>(reply.as_dict().at("ext").as_int()),
              robot_->receiver().installed()[0].id.value);
    EXPECT_GE(robot_->receiver().stats().refreshes, 1u);
    EXPECT_EQ(robot_->receiver().stats().installs, 1u);
    EXPECT_EQ(robot_->receiver().installed_count(), 1u);
}

TEST_F(MidasTest, KeepaliveForUnknownExtensionReportsFalse) {
    sim_.run_for(seconds(2));
    Value reply = base_->rpc().call_sync(robot_->id(), "adaptation", "keepalive",
                                         {Value{9999}, Value{std::int64_t{1000}},
                                          Value{std::int64_t{1}}});
    EXPECT_FALSE(reply.as_bool());
}

TEST_F(MidasTest, SecureChannelExtensionEncryptsRpc) {
    // The paper's application-blind encryption extension: the hall ships a
    // package whose top level keys the node's rpc channel. The hall's own
    // stack stays plaintext here, so we verify against a second adapted
    // node: robot <-> probe both encrypted, unadapted mallory locked out.
    ExtensionPackage secure;
    secure.name = "hall-a/secure-channel";
    secure.script = "rpc.set_channel(config.key);\nfun onEntry() { }";
    secure.bindings = {
        PackageBinding{prose::AdviceKind::kBefore, "call(* Motor.stop())", "onEntry", 0}};
    secure.capabilities = {"rpc"};
    secure.config = Value{Dict{{"key", Value{"hall-a-wire-key"}}}};
    robot_->receiver().allow_capabilities("hall-a", {"rpc"});

    // A second adapted node that talks to the robot.
    MobileNode probe(net_, "probe", net::Position{12, 0}, 100.0);
    probe.trust().trust("hall-a", to_bytes("hall-a-key"));
    probe.receiver().allow_capabilities("hall-a", {"rpc"});

    // The robot exports a service the others call.
    robot_->rpc().export_object("motor:x");

    base_->base().add_extension(secure);
    ASSERT_TRUE(run_until([&] {
        return robot_->receiver().installed_count() == 1 &&
               probe.receiver().installed_count() == 1;
    }));
    EXPECT_EQ(robot_->rpc().wire_filter_count(), 1u);

    // Stability: the control plane is filter-exempt, so keep-alives keep
    // flowing and the extension does not flap.
    sim_.run_for(seconds(10));
    EXPECT_EQ(robot_->receiver().installed_count(), 1u);
    EXPECT_EQ(robot_->receiver().stats().expirations, 0u);

    // Adapted <-> adapted: works.
    Value status = probe.rpc().call_sync(robot_->id(), "motor:x", "status", {});
    EXPECT_TRUE(status.as_dict().contains("position"));

    // Unadapted node: its plaintext call is dropped by the robot.
    midas::NodeStack mallory(net_, "mallory-node", net::Position{-5, 0}, 100.0);
    EXPECT_THROW(mallory.rpc().call_sync(robot_->id(), "motor:x", "status", {},
                                         milliseconds(500)),
                 RemoteError);

    // Leaving the hall removes the channel along with the extension.
    robot_->move_to({1000, 0});
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 0; }));
    EXPECT_EQ(robot_->rpc().wire_filter_count(), 0u);
}

TEST_F(MidasTest, HostBuiltinReachesOnlyExtensionsInstalledAfterIt) {
    ExtensionPackage pkg;
    pkg.name = "hall-a/uses-x";
    pkg.script = "let calls = 0; fun onEntry() { calls = calls + x(); }";
    pkg.bindings = {
        PackageBinding{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};

    // Before "x" exists the install-time check rejects the package.
    base_->base().add_extension(pkg);
    ASSERT_TRUE(run_until([&] { return robot_->receiver().stats().rejections >= 1; }));
    EXPECT_EQ(robot_->receiver().installed_count(), 0u);

    // Added now, "x" reaches the base's next attempt.
    int x_calls = 0;
    robot_->receiver().add_host_builtin("x", "", [&x_calls](rt::List&) -> Value {
        ++x_calls;
        return Value{std::int64_t{1}};
    });
    ASSERT_TRUE(run_until([&] { return robot_->receiver().installed_count() == 1; },
                          seconds(60)));
    motor_->call("rotate", {Value{1.0}});
    EXPECT_EQ(x_calls, 1);
}

TEST_F(MidasTest, ReceiversShareOneCoreLibrary) {
    MobileNode other(net_, "robot:1:2", net::Position{20, 0}, 100.0);
    const script::BuiltinRegistry::Entry* len = robot_->receiver().host_builtins().find("len");
    ASSERT_NE(len, nullptr);
    EXPECT_EQ(other.receiver().host_builtins().find("len"), len);
    // Host facilities are per receiver: each sys.node names its own node.
    EXPECT_NE(other.receiver().host_builtins().find("sys.node"),
              robot_->receiver().host_builtins().find("sys.node"));
}

TEST(MidasPeerTest, SymmetricPeersAdaptEachOther) {
    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 5);

    BaseConfig ca;
    ca.issuer = "peer-a";
    Peer a(net, "peer-a", {0, 0}, 50.0, ca);
    BaseConfig cb;
    cb.issuer = "peer-b";
    Peer b(net, "peer-b", {10, 0}, 50.0, cb);

    a.keys().add_key("peer-a", to_bytes("ka"));
    b.keys().add_key("peer-b", to_bytes("kb"));
    a.trust().trust("peer-b", to_bytes("kb"));
    b.trust().trust("peer-a", to_bytes("ka"));
    a.receiver().allow_capabilities("peer-b", {"net"});
    b.receiver().allow_capabilities("peer-a", {"net"});

    // Each peer shares one extension targeting any Motor.
    ExtensionPackage pa = monitoring_package();
    pa.name = "peer-a/monitor";
    a.base().add_extension(pa);
    ExtensionPackage pb = monitoring_package();
    pb.name = "peer-b/monitor";
    b.base().add_extension(pb);

    SimTime deadline = sim.now() + seconds(15);
    while (sim.now() < deadline &&
           !(a.receiver().installed_count() == 1 && b.receiver().installed_count() == 1)) {
        sim.run_until(sim.now() + milliseconds(100));
    }
    ASSERT_EQ(a.receiver().installed_count(), 1u);
    ASSERT_EQ(b.receiver().installed_count(), 1u);
    EXPECT_EQ(a.receiver().installed()[0].issuer, "peer-b");
    EXPECT_EQ(b.receiver().installed()[0].issuer, "peer-a");
}

}  // namespace
}  // namespace pmp::midas
