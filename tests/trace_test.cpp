// Causal distributed tracing (PR 6): TraceContext propagation through rpc
// and the radio, deterministic id assignment under seed replay, orphan-end
// accounting, the flight recorder (crash + quarantine black boxes), the
// per-extension profiler, and the causal-tree analysis behind trace_tool.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "db/journal.h"
#include "midas/node.h"
#include "midas/supervisor.h"
#include "net/fault.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/profile.h"
#include "robot/devices.h"

namespace pmp::midas {
namespace {

using rt::Dict;
using rt::List;
using rt::Value;

/// Restores the global enable flag so tests cannot leak a disabled state.
struct EnabledGuard {
    bool saved = obs::enabled();
    ~EnabledGuard() { obs::set_enabled(saved); }
};

bool has_kv(const obs::KeyValues& kv, const std::string& k, const std::string& v) {
    return std::find(kv.begin(), kv.end(), std::make_pair(k, v)) != kv.end();
}

// ------------------------------------------------------- context basics ----

TEST(TraceContext, SpanWithoutAmbientContextRootsAFreshTrace) {
    obs::TraceBuffer buf(64);
    std::uint64_t a = buf.begin_span("test", "a");
    std::uint64_t b = buf.begin_span("test", "b");
    auto events = buf.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_NE(events[0].trace, 0u);
    EXPECT_NE(events[1].trace, 0u);
    EXPECT_NE(events[0].trace, events[1].trace);  // independent roots
    EXPECT_EQ(events[0].parent, 0u);
    buf.end_span(a);
    buf.end_span(b);
}

TEST(TraceContext, ContextScopeParentsChildrenAndInstants) {
    obs::TraceBuffer buf(64);
    std::uint64_t root = buf.begin_span("test", "root");
    {
        obs::TraceBuffer::ContextScope scope(buf, buf.context_of(root));
        std::uint64_t child = buf.begin_span("test", "child");
        buf.instant("test", "mark");
        {
            obs::TraceBuffer::ContextScope inner(buf, buf.context_of(child));
            buf.instant("test", "deep");
        }
        buf.end_span(child);
    }
    buf.end_span(root);

    auto events = buf.events();
    ASSERT_EQ(events.size(), 6u);
    std::uint64_t trace = events[0].trace;
    for (const auto& ev : events) EXPECT_EQ(ev.trace, trace);  // one tree
    EXPECT_EQ(events[1].name, "child");
    EXPECT_EQ(events[1].parent, root);
    EXPECT_EQ(events[2].name, "mark");
    EXPECT_EQ(events[2].parent, root);
    EXPECT_EQ(events[3].name, "deep");
    EXPECT_EQ(events[3].parent, events[1].span);
    // end events inherit the begin's linkage
    EXPECT_EQ(events[4].trace, trace);
    EXPECT_EQ(events[5].span, root);
}

TEST(TraceContext, ContextOfClosedOrUnknownSpanIsInvalid) {
    obs::TraceBuffer buf(64);
    EXPECT_FALSE(buf.context_of(0).valid());
    EXPECT_FALSE(buf.context_of(999).valid());
    std::uint64_t s = buf.begin_span("test", "s");
    EXPECT_TRUE(buf.context_of(s).valid());
    buf.end_span(s);
    EXPECT_FALSE(buf.context_of(s).valid());
}

TEST(TraceContext, NewRootAllocatesDistinctTraces) {
    obs::TraceBuffer buf(64);
    obs::TraceContext a = buf.new_root();
    obs::TraceContext b = buf.new_root();
    EXPECT_TRUE(a.valid());
    EXPECT_TRUE(b.valid());
    EXPECT_NE(a.trace_id, b.trace_id);
    // A span recorded under such a root joins it at root position.
    obs::TraceBuffer::ContextScope scope(buf, a);
    buf.begin_span("test", "attempt");
    EXPECT_EQ(buf.events().back().trace, a.trace_id);
    EXPECT_EQ(buf.events().back().parent, 0u);
}

TEST(TraceContext, IdAssignmentIsDeterministicAcrossClear) {
    obs::TraceBuffer buf(64);
    auto record = [&buf]() {
        std::uint64_t r = buf.begin_span("test", "r");
        obs::TraceBuffer::ContextScope scope(buf, buf.context_of(r));
        buf.instant("test", "i");
        std::uint64_t c = buf.begin_span("test", "c");
        buf.end_span(c);
        buf.end_span(r);
        return buf.events();
    };
    auto first = record();
    buf.clear();
    auto second = record();
    EXPECT_EQ(first, second);  // TraceEvent has operator==
}

// ----------------------------------------------------------- orphan ends ----

TEST(TraceOrphans, EndAfterBeginEvictionIsCountedAndTagged) {
    EnabledGuard guard;
    obs::set_enabled(true);
    obs::TraceBuffer buf(2);  // tiny ring: the begin is evicted quickly
    auto& reg_counter = obs::Registry::global().counter("obs.trace.orphan_ends");
    std::uint64_t before = reg_counter.value();

    std::uint64_t s = buf.begin_span("test", "s");
    buf.instant("test", "a");
    buf.instant("test", "b");  // evicts the begin of s
    buf.end_span(s);

    EXPECT_EQ(buf.orphan_ends(), 1u);
    EXPECT_EQ(reg_counter.value(), before + 1);
    const auto events = buf.events();
    ASSERT_FALSE(events.empty());
    const obs::TraceEvent& end = events.back();
    EXPECT_EQ(end.kind, obs::EventKind::kSpanEnd);
    EXPECT_TRUE(has_kv(end.kv, "orphan", "true"));
    EXPECT_EQ(end.trace, 0u);  // no linkage invented
}

TEST(TraceOrphans, NormallyEndedSpansAreNotOrphans) {
    obs::TraceBuffer buf(16);
    std::uint64_t s = buf.begin_span("test", "s");
    buf.end_span(s);
    EXPECT_EQ(buf.orphan_ends(), 0u);
}

// ------------------------------------------------------- flight recorder ----

TEST(FlightRecorder, MirrorsTheGlobalBufferOnly) {
    obs::TraceBuffer::global().clear();
    obs::FlightRecorder::global().clear();

    obs::TraceBuffer::global().instant("test", "global-event");
    obs::TraceBuffer scratch(16);
    scratch.instant("test", "scratch-event");  // must NOT reach the black box

    auto tail = obs::FlightRecorder::global().tail();
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_EQ(tail[0].name, "global-event");
}

TEST(FlightRecorder, DumpFreezesTheTail) {
    obs::TraceBuffer::global().clear();
    obs::FlightRecorder::global().clear();
    obs::TraceBuffer::global().instant("test", "before-death");

    const auto& dump =
        obs::FlightRecorder::global().dump("node-x", "crash", SimTime{123});
    EXPECT_EQ(dump.node, "node-x");
    EXPECT_EQ(dump.reason, "crash");
    EXPECT_EQ(dump.at.ns, 123);
    ASSERT_EQ(dump.events.size(), 1u);
    EXPECT_EQ(dump.events[0].name, "before-death");

    // Later traffic does not disturb the frozen dump.
    obs::TraceBuffer::global().instant("test", "after-death");
    EXPECT_EQ(obs::FlightRecorder::global().dumps()[0].events.size(), 1u);
}

TEST(FlightRecorder, DumpsAreBounded) {
    obs::FlightRecorder::global().clear();
    for (std::size_t i = 0; i < obs::FlightRecorder::kMaxDumps + 5; ++i) {
        obs::FlightRecorder::global().dump("n", "r" + std::to_string(i), SimTime{});
    }
    EXPECT_EQ(obs::FlightRecorder::global().dumps().size(), obs::FlightRecorder::kMaxDumps);
    // Oldest forgotten first.
    EXPECT_EQ(obs::FlightRecorder::global().dumps().front().reason, "r5");
    obs::FlightRecorder::global().clear();
}

// --------------------------------------------------------- causal trees ----

TEST(TraceTrees, BuildsRenderAndWalksCriticalPath) {
    obs::TraceBuffer buf(64);
    std::uint64_t clock = 0;
    auto at = [&clock]() { return SimTime{static_cast<std::int64_t>(clock)}; };

    clock = 1'000'000;
    std::uint64_t root = buf.begin_span_at(at(), "rt.rpc", "rpc.call", {{"obj", "m_R"}});
    std::uint64_t fast, slow;
    {
        obs::TraceBuffer::ContextScope scope(buf, buf.context_of(root));
        clock = 2'000'000;
        fast = buf.begin_span_at(at(), "prose.weaver", "weave", {});
        clock = 3'000'000;
        buf.end_span_at(at(), fast, {});
        slow = buf.begin_span_at(at(), "midas.receiver", "pkg.verify", {});
        {
            obs::TraceBuffer::ContextScope inner(buf, buf.context_of(slow));
            buf.instant_at(at(), "midas.receiver", "sig.ok", {});
        }
        clock = 9'000'000;
        buf.end_span_at(at(), slow, {});
    }
    clock = 10'000'000;
    buf.end_span_at(at(), root, {{"outcome", "ok"}});

    auto trees = obs::build_trace_trees(buf.events());
    ASSERT_EQ(trees.size(), 1u);
    const obs::TraceTree& tree = trees[0];
    ASSERT_EQ(tree.spans.size(), 3u);
    ASSERT_EQ(tree.roots.size(), 1u);
    EXPECT_EQ(tree.spans[tree.roots[0]].span, root);
    EXPECT_EQ(tree.spans[tree.roots[0]].children.size(), 2u);
    ASSERT_EQ(tree.instants.size(), 1u);
    EXPECT_EQ(tree.instants[0].parent, slow);

    // Rendering is deterministic and mentions every span.
    std::string text = obs::render_tree(tree);
    EXPECT_EQ(text, obs::render_tree(tree));
    EXPECT_NE(text.find("rpc.call"), std::string::npos);
    EXPECT_NE(text.find("pkg.verify"), std::string::npos);
    EXPECT_NE(text.find("weave"), std::string::npos);

    // The critical path follows the child that bounded completion: the
    // 6ms verify, not the 1ms weave.
    auto path = obs::critical_path(tree);
    ASSERT_EQ(path.size(), 2u);
    EXPECT_EQ(path[0].span, root);
    EXPECT_EQ(path[1].span, slow);
    EXPECT_EQ(path[0].total, milliseconds(9));
    EXPECT_EQ(path[1].total, milliseconds(6));
    EXPECT_EQ(path[0].self, milliseconds(3));
}

TEST(TraceTrees, ChromeExportContainsSpansAndInstants) {
    obs::TraceBuffer buf(64);
    std::uint64_t s = buf.begin_span_at(SimTime{1'000'000}, "rt.rpc", "rpc.call", {});
    {
        obs::TraceBuffer::ContextScope scope(buf, buf.context_of(s));
        buf.instant_at(SimTime{1'500'000}, "rt.rpc", "rpc.shed", {{"obj", "m_R"}});
    }
    buf.end_span_at(SimTime{2'000'000}, s, {});

    std::string json = obs::to_chrome_trace(buf.events());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete span
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("rpc.call"), std::string::npos);
}

TEST(TraceTrees, JsonRoundTripPreservesCausalFields) {
    obs::Snapshot snap;
    obs::TraceEvent ev;
    ev.at = SimTime{42};
    ev.kind = obs::EventKind::kSpanBegin;
    ev.span = 7;
    ev.trace = 3;
    ev.parent = 5;
    ev.component = "rt.rpc";
    ev.name = "rpc.call";
    ev.kv = {{"obj", "m_R"}};
    snap.trace.push_back(ev);
    obs::Snapshot back = obs::snapshot_from_json(obs::to_json(snap));
    EXPECT_EQ(back, snap);
}

// --------------------------------------------------------------- profiler ----

TEST(Profiler, AttributionFoldsSitesIntoExtensionBills) {
    obs::Profiler::Site site_a = obs::Profiler::global().site("extA", "call(* T.m(..))");
    obs::Profiler::Site site_b = obs::Profiler::global().site("extA", "fieldset(T.f)");
    obs::Profiler::Site site_c = obs::Profiler::global().site("extB", "call(* T.m(..))");
    site_a.record(1000.0);
    site_a.record(3000.0);
    site_b.record(500.0);
    site_c.record(50.0);
    obs::Profiler::global().step_counter("extA")->inc(25);

    auto bills = obs::attribution_from(obs::snapshot_metrics());
    auto find = [&](const std::string& name) -> const obs::ExtensionCost* {
        for (const auto& b : bills) {
            if (b.extension == name) return &b;
        }
        return nullptr;
    };
    const obs::ExtensionCost* a = find("extA");
    ASSERT_NE(a, nullptr);
    EXPECT_GE(a->invocations, 3u);
    EXPECT_GE(a->total_ns, 4500.0);
    EXPECT_GE(a->steps, 25u);
    ASSERT_GE(a->sites.size(), 2u);
    // Sites sorted by descending total cost.
    EXPECT_GE(a->sites[0].total_ns, a->sites[1].total_ns);
    ASSERT_NE(find("extB"), nullptr);
    // The heavier extension bills first.
    EXPECT_EQ(bills.front().extension, "extA");
}

// --------------------------------------------- end-to-end: install chain ----

ExtensionPackage motor_monitor_pkg() {
    ExtensionPackage pkg;
    pkg.name = "hall/monitor";
    pkg.script = "fun onEntry() { let x = 1 + 2; }";
    pkg.bindings = {
        PackageBinding{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    return pkg;
}

struct TraceWorld {
    sim::Simulator sim;
    net::Network net;
    std::unique_ptr<BaseStation> hall;
    std::unique_ptr<MobileNode> robot;
    std::shared_ptr<rt::ServiceObject> motor;

    explicit TraceWorld(std::uint64_t seed = 42) : net(sim, net::NetworkConfig{}, seed) {
        BaseConfig bc;
        bc.issuer = "hall";
        hall = std::make_unique<BaseStation>(net, "hall", net::Position{0, 0}, 100.0, bc);
        hall->keys().add_key("hall", to_bytes("k"));
        robot = std::make_unique<MobileNode>(net, "robot", net::Position{10, 0}, 100.0);
        robot->trust().trust("hall", to_bytes("k"));
        robot->receiver().allow_capabilities("hall", {"net", "target", "log"});
        motor = robot::make_motor(robot->runtime(), "motor:x");
    }

    bool run_until(const std::function<bool()>& pred, Duration timeout = seconds(20)) {
        SimTime deadline = sim.now() + timeout;
        while (sim.now() < deadline) {
            if (pred()) return true;
            sim.run_until(sim.now() + milliseconds(100));
        }
        return pred();
    }
};

/// Runs the install scenario from a clean global trace ring; returns the
/// full event stream after one advice dispatch.
std::vector<obs::TraceEvent> run_install_scenario(std::uint64_t seed,
                                                  net::FaultPlan* plan = nullptr) {
    obs::TraceBuffer::global().clear();
    obs::FlightRecorder::global().clear();
    TraceWorld w(seed);
    if (plan) w.net.set_fault_plan(*plan, seed);
    w.hall->base().add_extension(motor_monitor_pkg());
    EXPECT_TRUE(w.run_until([&] { return w.robot->receiver().installed_count() == 1; }));
    w.motor->call("rotate", {Value{1.0}});  // first advice dispatch
    w.sim.run_for(milliseconds(200));
    return obs::TraceBuffer::global().events();
}

TEST(InstallChain, ReconstructsAsOneTreeSpanningBothNodes) {
    EnabledGuard guard;
    obs::set_enabled(true);
    auto events = run_install_scenario(42);
    auto trees = obs::build_trace_trees(events);

    // Find the tree carrying the package push.
    const obs::TraceTree* install_tree = nullptr;
    for (const auto& tree : trees) {
        for (const auto& span : tree.spans) {
            if (span.name == "pkg.push") install_tree = &tree;
        }
    }
    ASSERT_NE(install_tree, nullptr) << "no pkg.push span traced";

    std::set<std::string> span_names;
    std::set<std::string> components;
    for (const auto& span : install_tree->spans) {
        span_names.insert(span.name);
        components.insert(span.component);
    }
    std::set<std::string> instant_names;
    for (const auto& inst : install_tree->instants) instant_names.insert(inst.name);

    // Base-side (hall) and receiver-side (robot) work share the tree: the
    // push span, both halves of the rpc round-trip, the package verify,
    // the weave — and the first advice dispatch, which happened later on
    // an unrelated local call but is causally the install's.
    EXPECT_TRUE(span_names.contains("pkg.push"));
    EXPECT_TRUE(span_names.contains("rpc.call"));
    EXPECT_TRUE(span_names.contains("rpc.serve"));
    EXPECT_TRUE(span_names.contains("pkg.verify"));
    EXPECT_TRUE(span_names.contains("weave"));
    EXPECT_TRUE(components.contains("midas.base"));     // hall side
    EXPECT_TRUE(components.contains("midas.receiver")); // robot side
    EXPECT_TRUE(instant_names.contains("pkg.install"));
    EXPECT_TRUE(instant_names.contains("advice.first_dispatch"));

    // The serve span is the call span's child; verify nests under serve.
    for (const auto& span : install_tree->spans) {
        if (span.name != "rpc.serve") continue;
        const auto& parent = *std::find_if(
            install_tree->spans.begin(), install_tree->spans.end(),
            [&](const obs::SpanNode& s) { return s.span == span.parent; });
        EXPECT_EQ(parent.name, "rpc.call");
    }
}

TEST(InstallChain, CellInstallTracesAsOneTreeFromTheBatchFrame) {
    // The base reaches a cell member only through the relay: the base's
    // `batch` call, the relay serving it, the relay's push span for the
    // install, and the member's verify and weave must form one tree.
    EnabledGuard guard;
    obs::set_enabled(true);
    obs::TraceBuffer::global().clear();
    obs::FlightRecorder::global().clear();
    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 43);
    BaseConfig bc;
    bc.issuer = "hub";
    BaseStation hub(net, "hub", net::Position{0, 0}, 120.0, bc);
    hub.keys().add_key("hub", to_bytes("k"));
    CellStation anchor(net, "cell-east", net::Position{100, 0}, 120.0);
    ReceiverConfig rc;
    rc.cell = "cell-east";
    MobileNode robot(net, "robot", net::Position{140, 0}, 60.0, rc);
    robot.trust().trust("hub", to_bytes("k"));
    hub.base().attach_cell("cell-east", anchor.id());
    hub.base().add_extension(motor_monitor_pkg());
    SimTime deadline = sim.now() + seconds(20);
    while (sim.now() < deadline && robot.receiver().installed_count() == 0) {
        sim.run_until(sim.now() + milliseconds(100));
    }
    ASSERT_EQ(robot.receiver().installed_count(), 1u);

    auto trees = obs::build_trace_trees(obs::TraceBuffer::global().events());
    const obs::TraceTree* install_tree = nullptr;
    for (const auto& tree : trees) {
        for (const auto& span : tree.spans) {
            if (span.name == "pkg.push" && span.component == "midas.cell") install_tree = &tree;
        }
    }
    ASSERT_NE(install_tree, nullptr) << "no midas.cell pkg.push span traced";
    const auto& spans = install_tree->spans;
    auto parent_of = [&spans](const obs::SpanNode& s) -> const obs::SpanNode* {
        auto it = std::find_if(spans.begin(), spans.end(),
                               [&](const obs::SpanNode& p) { return p.span == s.parent; });
        return it == spans.end() ? nullptr : &*it;
    };

    std::set<std::string> span_names;
    std::set<std::string> components;
    for (const auto& span : spans) {
        span_names.insert(span.name);
        components.insert(span.component);
    }
    EXPECT_TRUE(span_names.contains("pkg.verify"));
    EXPECT_TRUE(span_names.contains("weave"));
    EXPECT_TRUE(components.contains("midas.receiver"));

    // pkg.push <- rpc.serve(batch) on the relay <- rpc.call(batch) on the base.
    for (const auto& span : spans) {
        if (span.name != "pkg.push") continue;
        EXPECT_TRUE(has_kv(span.kv, "cell", "cell-east"));
        const obs::SpanNode* serve = parent_of(span);
        ASSERT_NE(serve, nullptr);
        EXPECT_EQ(serve->name, "rpc.serve");
        EXPECT_TRUE(has_kv(serve->kv, "method", "batch"));
        const obs::SpanNode* call = parent_of(*serve);
        ASSERT_NE(call, nullptr);
        EXPECT_EQ(call->name, "rpc.call");
        EXPECT_TRUE(has_kv(call->kv, "method", "batch"));
        EXPECT_EQ(call->parent, 0u);  // the frame roots the tree
    }
}

TEST(InstallChain, SeedReplayYieldsByteIdenticalTrees) {
    EnabledGuard guard;
    obs::set_enabled(true);
    auto render_all = [](const std::vector<obs::TraceEvent>& events) {
        std::string out;
        for (const auto& tree : obs::build_trace_trees(events)) {
            out += obs::render_tree(tree);
        }
        return out;
    };
    std::string first = render_all(run_install_scenario(7));
    std::string second = render_all(run_install_scenario(7));
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(InstallChain, RpcSpansCarryOutcomeCause) {
    EnabledGuard guard;
    obs::set_enabled(true);
    obs::TraceBuffer::global().clear();
    obs::FlightRecorder::global().clear();
    TraceWorld w;
    // Remote error: the object is not exported.
    EXPECT_THROW(w.hall->rpc().call_sync(w.robot->id(), "nope", "x", {}), RemoteError);
    // Transport failure: nobody at that position.
    bool failed = false;
    w.hall->rpc().call_async(NodeId{9999}, "m", "x", {},
                             [&](Value, std::exception_ptr e) { failed = e != nullptr; },
                             milliseconds(200));
    w.sim.run_for(seconds(1));
    EXPECT_TRUE(failed);

    bool saw_remote_cause = false, saw_transport_cause = false;
    for (const auto& ev : obs::TraceBuffer::global().events()) {
        if (ev.kind != obs::EventKind::kSpanEnd) continue;
        if (has_kv(ev.kv, "outcome", "error") && has_kv(ev.kv, "cause", "RemoteError")) {
            saw_remote_cause = true;
        }
        if (has_kv(ev.kv, "cause", "transport")) saw_transport_cause = true;
    }
    EXPECT_TRUE(saw_remote_cause);
    EXPECT_TRUE(saw_transport_cause);
}

TEST(InstallChain, ProfilerBillsTheInstalledExtension) {
    EnabledGuard guard;
    obs::set_enabled(true);
    run_install_scenario(42);
    auto bills = obs::attribution_from(obs::snapshot_metrics());
    const obs::ExtensionCost* monitor = nullptr;
    for (const auto& b : bills) {
        if (b.extension == "hall/monitor") monitor = &b;
    }
    ASSERT_NE(monitor, nullptr);
    EXPECT_GE(monitor->invocations, 1u);
    EXPECT_GT(monitor->total_ns, 0.0);
    EXPECT_GE(monitor->steps, 1u);  // the script engine's step feed
    ASSERT_GE(monitor->sites.size(), 1u);
    EXPECT_EQ(monitor->sites[0].pointcut, "call(* Motor.*(..))");
}

// --------------------------------------- satellite: 20-seed chaos replay ----

TEST(TraceSoak, DuplicationAndReorderingReplayIdenticallyPerSeed) {
    EnabledGuard guard;
    obs::set_enabled(true);
    // Duplication + reordering only: partition instants carry the network
    // instance label, which is a process-global sequence and would differ
    // between the two runs of a pair.
    net::FaultPlan plan;
    plan.duplicate = 0.30;
    plan.reorder = 0.25;
    plan.reorder_hold = milliseconds(5);

    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        auto run = [&](std::vector<obs::TraceEvent>* out) {
            *out = run_install_scenario(seed, &plan);
        };
        std::vector<obs::TraceEvent> first, second;
        run(&first);
        run(&second);

        // Identical trace trees, byte for byte.
        std::string ra, rb;
        for (const auto& t : obs::build_trace_trees(first)) ra += obs::render_tree(t);
        for (const auto& t : obs::build_trace_trees(second)) rb += obs::render_tree(t);
        EXPECT_FALSE(ra.empty()) << "seed " << seed;
        EXPECT_EQ(ra, rb) << "seed " << seed;

        // Zero double-counted spans: a duplicated frame must never open a
        // second span with the same id (the dup is answered from the reply
        // cache, not re-dispatched).
        std::set<std::uint64_t> begins;
        for (const auto& ev : first) {
            if (ev.kind != obs::EventKind::kSpanBegin) continue;
            EXPECT_TRUE(begins.insert(ev.span).second)
                << "span " << ev.span << " began twice (seed " << seed << ")";
        }
    }
}

// ----------------------------------- flight recorder: quarantine + crash ----

ExtensionPackage throwing_pkg() {
    ExtensionPackage pkg;
    pkg.name = "hall/flaky";
    pkg.script = "fun onEntry() { throw \"boom\"; }";
    pkg.bindings = {
        PackageBinding{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    return pkg;
}

TEST(FlightRecorder, QuarantineDumpIsJournaledAndRecovered) {
    EnabledGuard guard;
    obs::set_enabled(true);
    obs::TraceBuffer::global().clear();
    obs::FlightRecorder::global().clear();

    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 31);
    auto disk = std::make_shared<db::JournalStorage>();
    disk->name = "robot";
    BaseConfig bc;
    bc.issuer = "hall";
    BaseStation hall(net, "hall", net::Position{0, 0}, 100.0, bc);
    hall.keys().add_key("hall", to_bytes("k"));
    auto robot = std::make_unique<MobileNode>(net, "robot", net::Position{10, 0}, 100.0,
                                              ReceiverConfig{}, disk);
    robot->trust().trust("hall", to_bytes("k"));
    robot->receiver().allow_capabilities("hall", {"net", "target", "log"});
    auto motor = robot::make_motor(robot->runtime(), "motor:x");

    auto run_until = [&](const std::function<bool()>& pred) {
        SimTime deadline = sim.now() + seconds(20);
        while (sim.now() < deadline) {
            if (pred()) return true;
            sim.run_until(sim.now() + milliseconds(100));
        }
        return pred();
    };

    hall.base().add_extension(throwing_pkg());
    ASSERT_TRUE(run_until([&] { return robot->receiver().installed_count() == 1; }));
    for (int i = 0; i < 3; ++i) {
        EXPECT_THROW(motor->call("rotate", {Value{1.0}}), std::exception);
    }
    sim.run_for(milliseconds(10));  // deferred quarantine fires
    ASSERT_EQ(robot->receiver().flight_dumps().size(), 1u);
    // Copy: the receiver (and its dump) dies in the crash below.
    const auto dump = robot->receiver().flight_dumps()[0];
    EXPECT_EQ(dump.reason, "quarantine:hall/flaky");
    EXPECT_FALSE(dump.events.empty());
    std::size_t dumped_events = dump.events.size();

    // The supervisor-style black box saw it too.
    ASSERT_FALSE(obs::FlightRecorder::global().dumps().empty());
    EXPECT_EQ(obs::FlightRecorder::global().dumps().back().reason, "quarantine:hall/flaky");

    // Crash-restart over the same disk: the journaled dump comes back.
    robot->journal()->power_off();
    net.remove_node(robot->id());
    robot.reset();
    sim.run_for(seconds(1));
    robot = std::make_unique<MobileNode>(net, "robot", net::Position{10, 0}, 100.0,
                                         ReceiverConfig{}, disk);
    ASSERT_EQ(robot->receiver().flight_dumps().size(), 1u);
    EXPECT_EQ(robot->receiver().flight_dumps()[0].reason, "quarantine:hall/flaky");
    EXPECT_EQ(robot->receiver().flight_dumps()[0].events.size(), dumped_events);
    EXPECT_EQ(robot->receiver().flight_dumps()[0].events, dump.events);
}

TEST(FlightRecorder, SupervisorCrashFreezesATail) {
    EnabledGuard guard;
    obs::set_enabled(true);
    obs::TraceBuffer::global().clear();
    obs::FlightRecorder::global().clear();

    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 29);
    Supervisor sup(net);
    std::unique_ptr<NodeStack> node;
    sup.manage("victim", Supervisor::Lifecycle{
                             [&]() {
                                 node = std::make_unique<NodeStack>(
                                     net, "victim", net::Position{0, 0}, 50.0);
                             },
                             [&]() { return node->id(); },
                             [&]() {},
                             [&]() { node.reset(); },
                         });
    sim.run_for(milliseconds(10));
    sup.crash("victim", seconds(1));
    sim.run_for(milliseconds(10));

    ASSERT_EQ(obs::FlightRecorder::global().dumps().size(), 1u);
    const auto& dump = obs::FlightRecorder::global().dumps()[0];
    EXPECT_EQ(dump.node, "victim");
    EXPECT_EQ(dump.reason, "crash");
    // The node.crash instant is recorded before the chip is read, so the
    // dump's last event is the death itself.
    ASSERT_FALSE(dump.events.empty());
    EXPECT_EQ(dump.events.back().name, "node.crash");
    sim.run_for(seconds(2));  // restart completes; nothing double-dumps
    EXPECT_EQ(obs::FlightRecorder::global().dumps().size(), 1u);
}

// ---------------------------------------------- durable flight round-trip ----

TEST(DurableFlight, RecordRoundTripsThroughJournal) {
    obs::TraceEvent ev;
    ev.at = SimTime{1'000'000};
    ev.kind = obs::EventKind::kInstant;
    ev.trace = 4;
    ev.parent = 2;
    ev.component = "midas.receiver";
    ev.name = "pkg.quarantine";
    ev.kv = {{"pkg", "hall/flaky"}, {"version", "1"}};

    auto disk = std::make_shared<db::JournalStorage>();
    {
        db::Journal j(disk);
        j.append(ReceiverDurableState::rec_quarantine("hall/flaky", 1));
        j.append(ReceiverDurableState::rec_flight("quarantine:hall/flaky",
                                                  SimTime{2'000'000}, {ev}));
    }
    auto st = ReceiverDurableState::replay(db::Journal(disk).restore());
    EXPECT_EQ(st.skipped_records, 0u);
    ASSERT_EQ(st.flights.size(), 1u);
    EXPECT_EQ(st.flights[0].reason, "quarantine:hall/flaky");
    EXPECT_EQ(st.flights[0].at.ns, 2'000'000);
    ASSERT_EQ(st.flights[0].events.size(), 1u);
    EXPECT_EQ(st.flights[0].events[0], ev);

    // And through snapshot compaction.
    {
        db::Journal j(disk);
        j.compact(st.to_snapshot());
    }
    auto st2 = ReceiverDurableState::replay(db::Journal(disk).restore());
    ASSERT_EQ(st2.flights.size(), 1u);
    EXPECT_EQ(st2.flights[0].events[0], ev);
}

}  // namespace
}  // namespace pmp::midas
