// Unit tests for the observability subsystem: metrics registry semantics,
// component sources, quantile interpolation, trace ring eviction, label
// cardinality capping, log-line component families, and the JSON snapshot
// round-trip.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/log.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace pmp::obs {
namespace {

/// Restores the global enable flag so tests cannot leak a disabled state.
struct EnabledGuard {
    bool saved = enabled();
    ~EnabledGuard() { set_enabled(saved); }
};

// ------------------------------------------------------------- metrics ----

TEST(Counter, IncrementAndReset) {
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, DisabledFlagSuppressesIncrements) {
    EnabledGuard guard;
    Counter c;
    set_enabled(false);
    c.inc(100);
    EXPECT_EQ(c.value(), 0u);
    set_enabled(true);
    c.inc(2);
    EXPECT_EQ(c.value(), 2u);
}

TEST(Gauge, SetAddReset) {
    Gauge g;
    g.set(10);
    g.add(-3);
    EXPECT_EQ(g.value(), 7);
    g.reset();
    EXPECT_EQ(g.value(), 0);
}

TEST(Histogram, CountsSumAndBuckets) {
    Histogram h({10.0, 20.0, 30.0});
    h.observe(5);
    h.observe(10);   // inclusive upper edge: lands in the first bucket
    h.observe(25);
    h.observe(100);  // overflow
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 140.0);
    ASSERT_EQ(h.buckets().size(), 4u);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[1], 0u);
    EXPECT_EQ(h.buckets()[2], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_DOUBLE_EQ(h.mean(), 35.0);
}

TEST(Histogram, QuantileInterpolatesInsideBucket) {
    Histogram h({100.0});
    for (int i = 0; i < 10; ++i) h.observe(1);
    // All ten samples sit in [0, 100]; the median rank is halfway through
    // the bucket, so linear interpolation lands on 50.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 50.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(Histogram, QuantileCrossesBuckets) {
    Histogram h({10.0, 20.0});
    h.observe(5);
    h.observe(15);
    EXPECT_DOUBLE_EQ(h.quantile(0.25), 5.0);   // halfway into [0,10]
    EXPECT_DOUBLE_EQ(h.quantile(0.75), 15.0);  // halfway into (10,20]
}

TEST(Histogram, QuantileClampsOverflowToLastBound) {
    Histogram h({10.0});
    h.observe(1000);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 10.0);
}

TEST(Histogram, EmptyQuantileIsZero) {
    Histogram h({10.0});
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, DefaultBoundsAreLatencyNs) {
    Histogram h({});
    EXPECT_EQ(h.bounds(), Histogram::latency_ns_bounds());
    EXPECT_EQ(h.buckets().size(), h.bounds().size() + 1);
}

// ------------------------------------------------------------ registry ----

TEST(Registry, PinnedAccessorsShareOneSlot) {
    Registry reg;
    reg.counter("a.hits").inc();
    reg.counter("a.hits").inc();
    EXPECT_EQ(reg.counter("a.hits").value(), 2u);
    EXPECT_EQ(reg.size(), 1u);
    // A different label is a different slot within the family.
    reg.counter("a.hits", "n1").inc(5);
    EXPECT_EQ(reg.counter("a.hits").value(), 2u);
    EXPECT_EQ(reg.counter("a.hits", "n1").value(), 5u);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, ResetZeroesButKeepsSlots) {
    Registry reg;
    reg.counter("c").inc(3);
    reg.gauge("g").set(7);
    reg.histogram("h", {}, {1.0}).observe(0.5);
    reg.reset();
    EXPECT_EQ(reg.counter("c").value(), 0u);
    EXPECT_EQ(reg.gauge("g").value(), 0);
    EXPECT_EQ(reg.histogram("h").count(), 0u);
    EXPECT_EQ(reg.size(), 3u);
}

TEST(Registry, LabelCardinalityCapCollapsesToOverflow) {
    Registry reg;
    for (std::size_t i = 0; i < Registry::kLabelCap; ++i) {
        reg.counter("spam", "l" + std::to_string(i)).inc();
    }
    // The family is full: new labels all collapse into one overflow slot.
    reg.counter("spam", "straw").inc();
    reg.counter("spam", "camel").inc();
    EXPECT_EQ(reg.counter("spam", Registry::kOverflowLabel).value(), 2u);

    std::size_t slots = 0;
    bool saw_overflow = false;
    reg.visit_counters([&](const std::string& name, const std::string& label, const Counter&) {
        ASSERT_EQ(name, "spam");
        ++slots;
        if (label == Registry::kOverflowLabel) saw_overflow = true;
    });
    EXPECT_EQ(slots, Registry::kLabelCap + 1);
    EXPECT_TRUE(saw_overflow);
}

/// A component in miniature: its own stats, reported through one source.
struct FakeComponent {
    std::uint64_t sent;
    Source source;

    FakeComponent(Registry& reg, std::string label, std::uint64_t sent0 = 0)
        : sent(sent0),
          source(reg.add_source([this, label = std::move(label)](Rows& rows) {
              rows.counter("net.sent", label, sent);
          })) {}
};

std::vector<std::string> counter_rows(const Registry& reg) {
    std::vector<std::string> out;
    reg.visit_counters(
        [&](const std::string& name, const std::string& label, const Counter& c) {
            out.push_back(name + "/" + label + "=" + std::to_string(c.value()));
        });
    return out;
}

TEST(Registry, SourceUnregistersWithItsOwner) {
    Registry reg;
    {
        FakeComponent net(reg, "net1", 3);
        EXPECT_EQ(snapshot_metrics(reg).counter("net.sent", "net1"), 3u);
    }
    EXPECT_TRUE(counter_rows(reg).empty());
    EXPECT_EQ(reg.size(), 0u);  // exporting pinned nothing
}

TEST(Registry, SuccessorWithTheSameLabelStartsFromZero) {
    Registry reg;
    { FakeComponent net(reg, "net1", 3); }
    FakeComponent again(reg, "net1");
    EXPECT_EQ(counter_rows(reg), (std::vector<std::string>{"net.sent/net1=0"}));
}

TEST(Registry, ExportSumsOverflowLabelsDeterministically) {
    // 70 labelled sources registered in two different orders: the export
    // keeps the first kLabelCap labels in sorted order either way and sums
    // the rest into the overflow row.
    auto run = [](bool reversed) {
        Registry reg;
        std::vector<std::unique_ptr<FakeComponent>> fleet;
        for (int i = 0; i < 70; ++i) {
            const int n = reversed ? 69 - i : i;
            char label[8];
            std::snprintf(label, sizeof(label), "n%02d", n);
            fleet.push_back(
                std::make_unique<FakeComponent>(reg, label, static_cast<std::uint64_t>(n)));
        }
        return counter_rows(reg);
    };
    std::vector<std::string> rows = run(false);
    EXPECT_EQ(rows, run(true));
    ASSERT_EQ(rows.size(), Registry::kLabelCap + 1);
    EXPECT_EQ(rows.front(), "net.sent/n00=0");
    EXPECT_EQ(rows[Registry::kLabelCap - 1], "net.sent/n63=63");
    EXPECT_EQ(rows.back(), "net.sent/~other=" + std::to_string(64 + 65 + 66 + 67 + 68 + 69));
}

TEST(Registry, PinnedAndSourcedRowsMergeInSortedOrder) {
    Registry reg;
    reg.counter("b").inc(1);
    reg.counter("a", "z").inc(2);
    Source source = reg.add_source([](Rows& rows) {
        rows.counter("c", "", 7);
        rows.counter("a", "z", 10);  // same row as the pinned one: summed
        rows.counter("a", "m", 5);
        rows.gauge("g", "x", -4);
    });
    EXPECT_EQ(counter_rows(reg),
              (std::vector<std::string>{"a/m=5", "a/z=12", "b/=1", "c/=7"}));
    Snapshot snap = snapshot_metrics(reg);
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_EQ(snap.gauges[0].name, "g");
    EXPECT_EQ(snap.gauges[0].value, -4);
}

TEST(Registry, SourcesComeAndGoWhileExportsRun) {
    // Shard workers build and tear down nodes while an exporter runs: no
    // export may read a component whose destructor has begun.
    Registry reg;
    std::atomic<bool> stop{false};
    std::thread exporter([&] {
        while (!stop.load()) (void)snapshot_metrics(reg);
    });
    std::vector<std::thread> workers;
    for (int w = 0; w < 3; ++w) {
        workers.emplace_back([&reg, w] {
            for (std::uint64_t i = 0; i < 200; ++i) {
                FakeComponent node(reg, "w" + std::to_string(w), i);
            }
        });
    }
    for (auto& t : workers) t.join();
    stop = true;
    exporter.join();
    EXPECT_TRUE(counter_rows(reg).empty());
}

TEST(Registry, VisitOrderIsDeterministic) {
    Registry reg;
    reg.counter("b");
    reg.counter("a", "z");
    reg.counter("a", "a");
    std::vector<std::string> seen;
    reg.visit_counters([&](const std::string& name, const std::string& label, const Counter&) {
        seen.push_back(name + "/" + label);
    });
    EXPECT_EQ(seen, (std::vector<std::string>{"a/a", "a/z", "b/"}));
}

// --------------------------------------------------------------- trace ----

TEST(Trace, RingEvictsOldestFirst) {
    TraceBuffer buf(4);
    for (int i = 0; i < 6; ++i) {
        buf.instant_at(SimTime{i}, "test", "e" + std::to_string(i));
    }
    EXPECT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf.dropped(), 2u);
    EXPECT_EQ(buf.recorded(), 6u);
    auto events = buf.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().name, "e2");
    EXPECT_EQ(events.back().name, "e5");
    for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_LE(events[i - 1].at, events[i].at);
    }
}

TEST(Trace, SpanBeginEndLink) {
    TraceBuffer buf(8);
    std::uint64_t span = buf.begin_span("rt.rpc", "rpc.call", {{"obj", "motor"}});
    EXPECT_NE(span, 0u);
    buf.end_span(span, {{"outcome", "ok"}});
    auto events = buf.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, EventKind::kSpanBegin);
    EXPECT_EQ(events[1].kind, EventKind::kSpanEnd);
    EXPECT_EQ(events[0].span, span);
    EXPECT_EQ(events[1].span, span);
    EXPECT_EQ(events[0].component, "rt.rpc");
}

TEST(Trace, DisabledRecordsNothing) {
    EnabledGuard guard;
    TraceBuffer buf(8);
    set_enabled(false);
    EXPECT_EQ(buf.begin_span("x", "y"), 0u);
    buf.instant("x", "z");
    EXPECT_EQ(buf.size(), 0u);
}

TEST(Trace, SimulatorDrivesTheClock) {
    TraceBuffer& buf = TraceBuffer::global();
    buf.clear();
    {
        sim::Simulator sim;
        sim.schedule_after(seconds(3), [&]() { buf.instant("test", "tick"); });
        sim.run();
        auto events = buf.events();
        ASSERT_EQ(events.size(), 1u);
        EXPECT_EQ(events[0].at, SimTime::zero() + seconds(3));
    }
    // The simulator is gone; the buffer falls back to time zero.
    buf.instant("test", "after");
    EXPECT_EQ(buf.events().back().at, SimTime::zero());
    buf.clear();
}

// ----------------------------------------------------------------- log ----

TEST(Log, LinesCountUnderTheFamilyBeforeTheAt) {
    std::vector<std::string> lines;
    Log::set_sink([&](LogLevel, const std::string& line) { lines.push_back(line); });
    const std::uint64_t before = snapshot_metrics().counter("log.lines", "midas.base");
    log_warn(SimTime::zero(), "midas.base@hall", "hello");
    Log::set_sink(nullptr);

    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find(" midas.base@hall: hello"), std::string::npos) << lines[0];
    EXPECT_EQ(snapshot_metrics().counter("log.lines", "midas.base") - before, 1u);
}

// ------------------------------------------------------------ snapshot ----

Snapshot make_snapshot() {
    static Registry reg;       // static: pinned references must outlive use
    static TraceBuffer trace(8);
    reg.reset();
    trace.clear();
    reg.counter("profile.advice_calls", "logger").inc(12);
    reg.counter("net.sent").inc(3);
    reg.gauge("midas.extensions", "robot-1").set(2);
    auto& h = reg.histogram("rpc.roundtrip_ms", "", {1.0, 10.0, 100.0});
    h.observe(0.5);
    h.observe(42.0);
    std::uint64_t span = trace.begin_span("prose.weaver", "weave", {{"aspect", "log \"all\""}});
    trace.end_span(span, {{"methods", "3"}});
    trace.instant("midas.receiver", "lease.expire", {{"node", "a\nb"}});
    return snapshot(reg, trace);
}

TEST(Snapshot, CounterLookupHelper) {
    Snapshot snap = make_snapshot();
    EXPECT_EQ(snap.counter("net.sent"), 3u);
    EXPECT_EQ(snap.counter("profile.advice_calls", "logger"), 12u);
    EXPECT_EQ(snap.counter("no.such.metric"), 0u);
}

TEST(Snapshot, JsonRoundTripIsExact) {
    Snapshot snap = make_snapshot();
    std::string json = to_json(snap);
    Snapshot back = snapshot_from_json(json);
    EXPECT_EQ(back, snap);
    // And rendering the parsed snapshot again is byte-identical.
    EXPECT_EQ(to_json(back), json);
}

TEST(Snapshot, JsonRejectsGarbage) {
    EXPECT_THROW(snapshot_from_json("{"), std::runtime_error);
    EXPECT_THROW(snapshot_from_json("[]"), std::runtime_error);
    EXPECT_THROW(snapshot_from_json(R"({"counters": [}]})"), std::runtime_error);
}

TEST(Snapshot, TextRenderingMentionsEveryMetric) {
    Snapshot snap = make_snapshot();
    std::string text = to_text(snap);
    EXPECT_NE(text.find("profile.advice_calls"), std::string::npos);
    EXPECT_NE(text.find("net.sent"), std::string::npos);
    EXPECT_NE(text.find("midas.extensions"), std::string::npos);
    EXPECT_NE(text.find("rpc.roundtrip_ms"), std::string::npos);
    EXPECT_NE(text.find("lease.expire"), std::string::npos);
}

}  // namespace
}  // namespace pmp::obs
