// Tests for the Jini-like lookup substrate: registration leases, lookup,
// watches with remote events, discovery probes, and lease-loss handling.
#include <gtest/gtest.h>

#include "disco/lookup.h"
#include "net/router.h"

namespace pmp::disco {
namespace {

using rt::Dict;
using rt::Value;

/// One node with router+runtime+rpc, optionally a registrar and/or client.
struct TestNode {
    TestNode(net::Network& net, const std::string& name, net::Position pos, double range)
        : id(net.add_node(name, pos, range)),
          router(net, id),
          runtime(name),
          rpc(router, runtime) {}

    NodeId id;
    net::MessageRouter router;
    rt::Runtime runtime;
    rt::RpcEndpoint rpc;
};

class DiscoTest : public ::testing::Test {
protected:
    DiscoTest()
        : net_(sim_, net::NetworkConfig{}, 11),
          base_(net_, "base", {0, 0}, 100),
          mobile_(net_, "mobile", {10, 0}, 100) {
        RegistrarConfig rc;
        rc.max_lease = seconds(2);
        registrar_ = std::make_unique<Registrar>(base_.router, base_.rpc, rc);
        client_ = std::make_unique<DiscoveryClient>(mobile_.router, mobile_.rpc);
    }

    sim::Simulator sim_;
    net::Network net_;
    TestNode base_, mobile_;
    std::unique_ptr<Registrar> registrar_;
    std::unique_ptr<DiscoveryClient> client_;
};

TEST_F(DiscoTest, ClientDiscoversRegistrarInRange) {
    sim_.run_for(seconds(2));
    auto found = client_->registrars();
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0], base_.id);
}

TEST_F(DiscoTest, RegistrarCallbackFiresOnAppearAndLoss) {
    std::vector<std::pair<NodeId, bool>> events;
    client_->on_registrar([&](NodeId node, bool ok) { events.emplace_back(node, ok); });
    sim_.run_for(seconds(2));
    ASSERT_GE(events.size(), 1u);
    EXPECT_TRUE(events[0].second);

    // Roam out of range: beacons stop arriving, timeout declares loss.
    net_.move_node(mobile_.id, {1000, 0});
    sim_.run_for(seconds(6));
    ASSERT_GE(events.size(), 2u);
    EXPECT_FALSE(events.back().second);
    EXPECT_TRUE(client_->registrars().empty());
}

TEST_F(DiscoTest, RegisterAndLookup) {
    sim_.run_for(seconds(1));
    std::shared_ptr<LeasedResource> handle;
    client_->register_service(
        base_.id, "drawing", Dict{{"node", Value{"robot:1"}}}, []() {},
        [&](std::shared_ptr<LeasedResource> h, std::exception_ptr e) {
            ASSERT_FALSE(e);
            handle = std::move(h);
        });
    sim_.run_for(seconds(1));
    ASSERT_NE(handle, nullptr);
    EXPECT_TRUE(handle->alive());

    auto items = registrar_->lookup("drawing");
    ASSERT_EQ(items.size(), 1u);
    EXPECT_EQ(items[0].provider, mobile_.id);
    EXPECT_EQ(items[0].attributes.at("node").as_str(), "robot:1");
    EXPECT_TRUE(registrar_->lookup("unknown-type").empty());
}

TEST_F(DiscoTest, RemoteLookup) {
    sim_.run_for(seconds(1));
    std::shared_ptr<LeasedResource> handle;
    client_->register_service(base_.id, "printing", {}, []() {},
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  handle = std::move(h);
                              });
    sim_.run_for(seconds(1));

    std::vector<ServiceItem> found;
    client_->lookup(base_.id, "printing",
                    [&](std::vector<ServiceItem> items, std::exception_ptr e) {
                        ASSERT_FALSE(e);
                        found = std::move(items);
                    });
    sim_.run_for(seconds(1));
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].type, "printing");
}

TEST_F(DiscoTest, LeaseRenewalKeepsRegistrationAlive) {
    sim_.run_for(seconds(1));
    std::shared_ptr<LeasedResource> handle;
    bool lost = false;
    client_->register_service(base_.id, "svc", {}, [&]() { lost = true; },
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  handle = std::move(h);
                              });
    // Run far beyond the lease duration: auto-renewal must keep it alive.
    sim_.run_for(seconds(20));
    EXPECT_FALSE(lost);
    ASSERT_NE(handle, nullptr);
    EXPECT_TRUE(handle->alive());
    EXPECT_EQ(registrar_->lookup("svc").size(), 1u);
}

TEST_F(DiscoTest, RegistrationExpiresWhenNodeLeaves) {
    sim_.run_for(seconds(1));
    std::shared_ptr<LeasedResource> handle;
    bool lost = false;
    client_->register_service(base_.id, "svc", {}, [&]() { lost = true; },
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  handle = std::move(h);
                              });
    sim_.run_for(seconds(1));
    ASSERT_EQ(registrar_->lookup("svc").size(), 1u);

    // The node roams away: renewals fail, the registrar expires the entry,
    // and the holder learns the lease was lost.
    net_.move_node(mobile_.id, {1000, 0});
    sim_.run_for(seconds(10));
    EXPECT_TRUE(registrar_->lookup("svc").empty());
    EXPECT_TRUE(lost);
    EXPECT_FALSE(handle->alive());
}

TEST_F(DiscoTest, CancelRemovesRegistration) {
    sim_.run_for(seconds(1));
    std::shared_ptr<LeasedResource> handle;
    client_->register_service(base_.id, "svc", {}, []() {},
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  handle = std::move(h);
                              });
    sim_.run_for(seconds(1));
    handle->cancel();
    sim_.run_for(seconds(1));
    EXPECT_TRUE(registrar_->lookup("svc").empty());
    EXPECT_FALSE(handle->alive());
}

TEST_F(DiscoTest, LocalWatchSeesAppearAndExpire) {
    std::vector<std::pair<std::string, bool>> events;
    registrar_->watch_local("svc", [&](const ServiceItem& item, bool appeared) {
        events.emplace_back(item.type, appeared);
    });

    sim_.run_for(seconds(1));
    std::shared_ptr<LeasedResource> handle;
    client_->register_service(base_.id, "svc", {}, []() {},
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  handle = std::move(h);
                              });
    sim_.run_for(seconds(1));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_TRUE(events[0].second);

    net_.move_node(mobile_.id, {1000, 0});
    sim_.run_for(seconds(10));
    ASSERT_EQ(events.size(), 2u);
    EXPECT_FALSE(events[1].second);
}

TEST_F(DiscoTest, LocalWatchCatchesUpOnExistingServices) {
    sim_.run_for(seconds(1));
    std::shared_ptr<LeasedResource> handle;
    client_->register_service(base_.id, "svc", {}, []() {},
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  handle = std::move(h);
                              });
    sim_.run_for(seconds(1));

    int appeared = 0;
    registrar_->watch_local("svc", [&](const ServiceItem&, bool ok) {
        if (ok) ++appeared;
    });
    EXPECT_EQ(appeared, 1);  // synchronous catch-up
}

TEST_F(DiscoTest, RemoteWatchDeliversEvents) {
    sim_.run_for(seconds(1));
    // A second mobile node watches for "drawing" services at the base.
    TestNode watcher(net_, "watcher", {20, 0}, 100);
    DiscoveryClient watcher_client(watcher.router, watcher.rpc);
    sim_.run_for(seconds(1));

    std::vector<std::pair<std::string, bool>> events;
    std::shared_ptr<LeasedResource> watch_handle;
    watcher_client.watch(
        base_.id, "drawing",
        [&](const ServiceItem& item, bool appeared) {
            const Value* label = item.attributes.find("node");
            events.emplace_back(label ? label->as_str() : "?", appeared);
        },
        []() {},
        [&](std::shared_ptr<LeasedResource> h, std::exception_ptr e) {
            ASSERT_FALSE(e);
            watch_handle = std::move(h);
        });
    sim_.run_for(seconds(1));
    ASSERT_NE(watch_handle, nullptr);

    std::shared_ptr<LeasedResource> reg_handle;
    client_->register_service(base_.id, "drawing", Dict{{"node", Value{"robot:9"}}},
                              []() {},
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  reg_handle = std::move(h);
                              });
    sim_.run_for(seconds(1));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0], (std::pair<std::string, bool>{"robot:9", true}));

    // Provider leaves: watcher gets the disappearance event.
    net_.move_node(mobile_.id, {1000, 0});
    sim_.run_for(seconds(10));
    ASSERT_GE(events.size(), 2u);
    EXPECT_FALSE(events.back().second);
}

TEST_F(DiscoTest, RemoteWatchCatchesUpOnExistingService) {
    sim_.run_for(seconds(1));
    std::shared_ptr<LeasedResource> reg_handle;
    client_->register_service(base_.id, "drawing", {}, []() {},
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  reg_handle = std::move(h);
                              });
    sim_.run_for(seconds(1));

    int appeared = 0;
    std::shared_ptr<LeasedResource> watch_handle;
    client_->watch(
        base_.id, "drawing", [&](const ServiceItem&, bool ok) { appeared += ok ? 1 : 0; },
        []() {},
        [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
            watch_handle = std::move(h);
        });
    sim_.run_for(seconds(1));
    EXPECT_EQ(appeared, 1);
}

TEST_F(DiscoTest, PermanentRegistrationNeverExpires) {
    registrar_->register_permanent("infra", rt::Dict{{"kind", Value{"tspace"}}});
    // Far beyond max_lease (2s in this fixture): still there, locally and
    // remotely.
    sim_.run_for(seconds(20));
    ASSERT_EQ(registrar_->lookup("infra").size(), 1u);
    std::vector<ServiceItem> found;
    client_->lookup(base_.id, "infra",
                    [&](std::vector<ServiceItem> items, std::exception_ptr) {
                        found = std::move(items);
                    });
    sim_.run_for(seconds(1));
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].provider, base_.id);
    EXPECT_EQ(found[0].attributes.at("kind").as_str(), "tspace");
}

TEST_F(DiscoTest, PermanentRegistrationFiresLocalWatch) {
    int appeared = 0;
    registrar_->watch_local("infra", [&](const ServiceItem&, bool ok) {
        appeared += ok ? 1 : 0;
    });
    registrar_->register_permanent("infra", {});
    EXPECT_EQ(appeared, 1);
}

TEST_F(DiscoTest, AnnounceAloneDiscoversRegistrar) {
    // A passive client that never probes still finds the registrar through
    // its periodic beacon.
    TestNode passive(net_, "passive", {15, 0}, 100);
    // Do not create a DiscoveryClient; listen for the beacon directly.
    bool heard = false;
    passive.router.route("disco.here", [&](const net::Message&) { heard = true; });
    sim_.run_for(seconds(3));
    EXPECT_TRUE(heard);
}

TEST_F(DiscoTest, CancelledWatchStopsEvents) {
    sim_.run_for(seconds(1));
    int events = 0;
    std::shared_ptr<LeasedResource> watch_handle;
    client_->watch(
        base_.id, "svc", [&](const ServiceItem&, bool) { ++events; }, []() {},
        [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
            watch_handle = std::move(h);
        });
    sim_.run_for(seconds(1));
    ASSERT_NE(watch_handle, nullptr);
    watch_handle->cancel();
    sim_.run_for(seconds(1));

    std::shared_ptr<LeasedResource> reg_handle;
    client_->register_service(base_.id, "svc", {}, []() {},
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  reg_handle = std::move(h);
                              });
    sim_.run_for(seconds(2));
    EXPECT_EQ(events, 0);
}

TEST_F(DiscoTest, LeaseGrantsAreClamped) {
    sim_.run_for(seconds(1));
    // Ask for a day; the registrar grants at most its max (2s in this
    // fixture) — visible through the granted duration in the reply.
    Value reply = mobile_.rpc.call_sync(
        base_.id, "registrar", "register",
        {Value{"svc"}, Value{Dict{}}, Value{std::int64_t{24 * 3600 * 1000}}});
    EXPECT_LE(reply.as_dict().at("duration_ms").as_int(), 2000);
}

TEST_F(DiscoTest, RenewUnknownLeaseFails) {
    sim_.run_for(seconds(1));
    Value reply = mobile_.rpc.call_sync(base_.id, "registrar", "renew",
                                        {Value{9999}, Value{1000}});
    EXPECT_FALSE(reply.as_dict().at("ok").as_bool());
}

TEST_F(DiscoTest, RefusedRenewalReportsLossAtOnce) {
    // The registrar is alive and answering but no longer knows the lease
    // (here a direct cancel call behind the handle's back; a registrar
    // restart or a sweep does the same). Its refusal is final: the holder must report the
    // loss on that first refused renew, not retry until the lease runs
    // out as it would after a transport failure.
    sim_.run_for(seconds(1));
    std::shared_ptr<LeasedResource> handle;
    SimTime granted_at{};
    SimTime lost_at{};
    int losses = 0;
    client_->register_service(base_.id, "svc", {},
                              [&]() {
                                  lost_at = sim_.now();
                                  ++losses;
                              },
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr e) {
                                  ASSERT_FALSE(e);
                                  granted_at = sim_.now();
                                  handle = std::move(h);
                              });
    sim_.run_for(milliseconds(100));
    ASSERT_NE(handle, nullptr);
    EXPECT_TRUE(mobile_.rpc
                    .call_sync(base_.id, "registrar", "cancel",
                               {Value{static_cast<std::int64_t>(handle->lease().value)}})
                    .as_bool());
    EXPECT_TRUE(registrar_->lookup("svc").empty());
    EXPECT_TRUE(handle->alive());  // the holder learns only when it renews

    sim_.run_for(seconds(4));
    EXPECT_EQ(losses, 1);
    EXPECT_FALSE(handle->alive());
    // Lost at the first renewal (phase after the grant, plus one round
    // trip), before a transport retry (d/16 later) could have been sent.
    const Duration lease = seconds(2);
    const Duration phase = lease_renewal_phase(base_.id, handle->lease(), lease);
    EXPECT_GE(lost_at - granted_at, phase);
    EXPECT_LT(lost_at - granted_at, phase + lease / 16);
    EXPECT_LT(lost_at - granted_at, lease);
}

}  // namespace
}  // namespace pmp::disco
