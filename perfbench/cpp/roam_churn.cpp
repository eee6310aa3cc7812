// Workload roam_churn: the write side of adaptation, open loop in virtual
// time.
//
// A row of four federated, durable halls, each with its own policy: hall 0
// posts Motor actions to its collector, hall 1 weaves a no-op before on
// Motor.*, hall 2 clamps Motor.rotate, hall 3 runs the monitoring body on
// Motor.set_power and bumps its policy revision on a fixed period (new
// script text, so every receiver in range misses its compile cache). About
// 200 durable robots walk hall to hall on short dwells (net::PathMover) and
// make application calls at a low rate. Every hop costs a federation
// claim, a withdraw, an open+verify, a compile, a weave and journal appends.
#include <cmath>
#include <numbers>

#include "harness.h"
#include "midas/federation.h"
#include "net/mobility.h"

namespace perfbench {

namespace {

constexpr int kHalls = 4;
constexpr double kSpacing = 400.0;  // metres between hall centres
constexpr double kRange = 100.0;    // radio range of halls and robots
constexpr int kBumpHall = 3;
constexpr int kClamp = 45;
constexpr Duration kTravel = seconds(3);
constexpr Duration kTick = milliseconds(100);  // PathMover default tick
constexpr Duration kAdaptDeadline = seconds(5);
constexpr Duration kReplaceDeadline = seconds(2);
constexpr Duration kRevokeBound = milliseconds(2000 + 800);  // lease + one keep-alive
constexpr Duration kBumpPeriod = seconds(2);
// Replacement latency is measured on robots that entered the hall at least
// this long before the push. A robot that has just arrived can still be
// re-adopted by the hall it left (README.md, "Findings"), which delays the
// push by up to one keep-alive period; that churn belongs to adapt_ms, and
// keeping it out leaves replace_ms to the push path itself.
constexpr Duration kSettle = seconds(3);
constexpr Duration kDrain = seconds(5);
constexpr int kSensorReads = 4;

struct Sizes {
    int robots;
    Duration window;
    double dwell_min_s, dwell_max_s;
    double calls_per_s;
};

Sizes sizes(bool small) {
    if (small) return {80, seconds(16), 4.0, 8.0, 0.5};
    return {200, seconds(80), 4.0, 8.0, 0.25};
}

std::string issuer_of(int h) { return "hall-" + std::to_string(h); }

midas::ExtensionPackage hall_policy(int h, int revision) {
    switch (h) {
        case 0: return post_pkg("hall-0/monitor", revision);
        case 1: return noop_pkg("hall-1/noop", "call(* Motor.*(..))", revision);
        case 2: return clamp_pkg("hall-2/clamp", kClamp);
        default: return monitor_pkg("hall-3/monitor", "call(* Motor.set_power(..))", revision);
    }
}

net::Position hall_centre(int h) { return {kSpacing * h, 0.0}; }

/// A range transition of one robot, at a PathMover tick.
struct Transition {
    SimTime at;
    int hall;
    bool enter;
    bool done = false;
};

struct Walker {
    Robot r;
    std::vector<net::Waypoint> path;
    std::vector<Transition> moves;  ///< inside the window, in time order
    std::unique_ptr<net::PathMover> mover;
    int start_hall = 0;
    bool replace_due = false;
    std::uint32_t replace_version = 0;
    SimTime replace_from{};
    Gen calls{0};

    /// Hall whose range the robot is in at `t` (-1 between halls).
    int hall_at(SimTime t) const {
        int h = start_hall;
        for (const Transition& m : moves) {
            if (m.at > t) break;
            h = m.enter ? m.hall : -1;
        }
        return h;
    }
    /// When the robot last crossed a range boundary at or before `t`
    /// (zero: not since the window opened).
    SimTime last_move(SimTime t) const {
        SimTime at = SimTime::zero();
        for (const Transition& m : moves) {
            if (m.at > t) break;
            at = m.at;
        }
        return at;
    }
};

/// Where PathMover puts a node at tick `t` — its interpolation, restated so
/// the benchmark knows the exact tick at which each range boundary is
/// crossed without polling the network.
net::Position position_at(net::Position origin, SimTime start,
                          const std::vector<net::Waypoint>& wps, SimTime t) {
    net::Position prev_pos = origin;
    SimTime prev_time = start;
    for (const auto& wp : wps) {
        if (t <= wp.arrival) {
            auto leg = wp.arrival - prev_time;
            if (leg.count() <= 0) return wp.target;
            double f = static_cast<double>((t - prev_time).count()) /
                       static_cast<double>(leg.count());
            return net::Position{prev_pos.x + (wp.target.x - prev_pos.x) * f,
                                 prev_pos.y + (wp.target.y - prev_pos.y) * f};
        }
        prev_pos = wp.target;
        prev_time = wp.arrival;
    }
    return wps.back().target;
}

int hall_in_range(net::Position p) {
    for (int h = 0; h < kHalls; ++h) {
        if (p.distance_to(hall_centre(h)) <= kRange) return h;
    }
    return -1;
}

net::Position spot_in(int h, Gen& g) {
    double rad = 30.0 * std::sqrt(g.uniform());
    double ang = 2.0 * std::numbers::pi * g.uniform();
    net::Position c = hall_centre(h);
    return {c.x + rad * std::cos(ang), c.y + rad * std::sin(ang)};
}

}  // namespace

Rep run_roam_churn(const Options& opt) {
    Rep rep;
    const Sizes sz = sizes(opt.small);
    Gen gen(opt.seed);
    Gen place = gen.fork(1);
    Observer observer(opt.traced);
    const Counters c_start = read_counters();

    // ---- set-up: four federated durable halls, durable robots, adaptation
    Clock::time_point t_setup = Clock::now();
    sim::Simulator sim;
    net::NetworkConfig ncfg;
    ncfg.obs_label = kNetLabel;
    net::Network net(sim, ncfg, opt.seed);
    std::vector<std::unique_ptr<midas::BaseStation>> halls;
    std::vector<std::unique_ptr<midas::Federation>> feds;
    std::vector<std::string> policy_names;
    std::vector<std::string> issuers;
    for (int h = 0; h < kHalls; ++h) {
        midas::BaseConfig bc;
        bc.issuer = issuer_of(h);
        auto hall = std::make_unique<midas::BaseStation>(
            net, issuer_of(h), hall_centre(h), kRange, bc, disco::RegistrarConfig{},
            std::make_shared<db::JournalStorage>(), quiet_discovery());
        hall->keys().add_key(bc.issuer, to_bytes(bc.issuer + "-key"));
        observer.tap(net, hall->id(), Role::kBase);
        midas::ExtensionPackage pkg = hall_policy(h, 1);
        policy_names.push_back(pkg.name);
        issuers.push_back(bc.issuer);
        hall->base().add_extension(pkg);
        feds.push_back(std::make_unique<midas::Federation>(hall->rpc(), hall->base(),
                                                           bc.issuer));
        halls.push_back(std::move(hall));
    }
    for (int h = 0; h + 1 < kHalls; ++h) {
        net.add_wire(halls[h]->id(), halls[h + 1]->id());
        feds[h]->add_neighbor(halls[h + 1]->id());
        feds[h + 1]->add_neighbor(halls[h]->id());
    }

    bool in_window = false;
    Tally whole, window;
    std::vector<double> unwoven_ns, noop_ns, around_ns, monitor_ns;
    std::vector<Walker> walkers(static_cast<std::size_t>(sz.robots));
    std::size_t settled = 0;
    std::uint32_t bump_version = 1;

    for (int i = 0; i < sz.robots; ++i) {
        Walker& w = walkers[static_cast<std::size_t>(i)];
        w.start_hall = i % kHalls;  // even start, so hall occupancy does not vary by seed
        w.calls = gen.fork(1000 + static_cast<std::uint64_t>(i));
        w.r.node = std::make_unique<midas::MobileNode>(
            net, "robot:" + std::to_string(i), spot_in(w.start_hall, place), kRange,
            midas::ReceiverConfig{}, std::make_shared<db::JournalStorage>(), quiet_discovery());
        w.r.equip(issuers, {"net"});
        observer.tap(net, w.r.node->id(), Role::kReceiver);
        w.r.node->receiver().on_event([&, wp = &w](const std::string& event,
                                                   const midas::AdaptationService::Installed& info) {
            const bool had = wp->r.held.contains(info.name);
            apply_event(wp->r.held, event, info);
            whole.add(event);
            if (in_window) window.add(event);
            int h = 0;
            while (h < kHalls && policy_names[h] != info.name) ++h;
            if (h == kHalls) return;
            if (!in_window && !had && event == "install" && h == wp->start_hall) ++settled;
            // Adaptation completes an open enter; withdrawal an open exit.
            const bool gained = !had && event == "install";
            const bool lost = had && !wp->r.held.contains(info.name);
            for (Transition& m : wp->moves) {
                if (m.at > sim.now()) break;
                if (m.done || m.hall != h) continue;
                if ((m.enter && gained) || (!m.enter && lost)) {
                    m.done = true;
                    (m.enter ? rep.adapt_ms : rep.revoke_ms).push_back(ms_of(sim.now() - m.at));
                    break;
                }
            }
            if (wp->replace_due && event == "install" && h == kBumpHall &&
                info.version == wp->replace_version) {
                wp->replace_due = false;
                rep.replace_ms.push_back(ms_of(sim.now() - wp->replace_from));
            }
        });
        if (i % 50 == 49) sim.run_until(sim.now() + milliseconds(20));
    }
    SimTime deadline = sim.now() + seconds(20);
    while (settled < walkers.size() && sim.now() < deadline) {
        sim.run_until(sim.now() + milliseconds(10));
    }
    rep.check(settled == walkers.size(), "robots not adapted by their first hall within 20 s");
    const SimTime ws = aligned_window_start(sim.now());
    sim.run_until(ws);

    // Seeded walks: dwell, travel to a neighbouring hall, dwell, ...
    const SimTime we = ws + sz.window;
    for (Walker& w : walkers) {
        int h = w.start_hall;
        net::Position at = w.r.node->position();
        SimTime t = ws + Duration{static_cast<std::int64_t>(
                             place.uniform(0.0, sz.dwell_max_s) * 1e9)};
        while (t < we + kDrain) {
            int next = h == 0 ? 1 : h == kHalls - 1 ? h - 1 : h + (place.below(2) ? 1 : -1);
            net::Position to = spot_in(next, place);
            w.path.push_back({at, t});
            w.path.push_back({to, t + kTravel});
            t = t + kTravel + Duration{static_cast<std::int64_t>(
                                  place.uniform(sz.dwell_min_s, sz.dwell_max_s) * 1e9)};
            h = next;
            at = to;
        }
        // Each robot's PathMover starts at its own offset into the first
        // tick, so range crossings do not all land on one 100 ms grid.
        const SimTime start = ws + microseconds(place.below(100'000));
        int prev = w.start_hall;
        const net::Position origin = w.r.node->position();
        for (SimTime tick = start + kTick; tick <= we; tick = tick + kTick) {
            int cur = hall_in_range(position_at(origin, start, w.path, tick));
            if (cur == prev) continue;
            if (prev >= 0) w.moves.push_back({tick, prev, false});
            if (cur >= 0) w.moves.push_back({tick, cur, true});
            prev = cur;
        }
        sim.schedule_at(start, [&, wp = &w]() {
            observer.mark_app();
            wp->mover = std::make_unique<net::PathMover>(net, wp->r.node->id(), wp->path, kTick);
        });
    }
    rep.setup_s = secs(t_setup, Clock::now());

    // ---- the seeded schedule: calls and policy bumps
    std::function<void(Walker*, SimTime)> schedule_calls = [&](Walker* w, SimTime t) {
        if (t >= we - milliseconds(500)) return;
        sim.schedule_at(t, [&, w]() {
            observer.mark_app();
            const auto& held = w->r.held;
            int deg = static_cast<int>(w->calls.below(241)) - 120;
            int power = 1 + static_cast<int>(w->calls.below(7));
            const bool clamp = held.contains(policy_names[2]);
            Clock::time_point a = Clock::now();
            bool ok = app_call(w->r, Op::kRotate, deg, clamp ? kClamp : 0);
            Clock::time_point b = Clock::now();
            ok = app_call(w->r, Op::kSetPower, power, 0) && ok;
            Clock::time_point c = Clock::now();
            for (int k = 0; k < kSensorReads; ++k) ok = app_call(w->r, Op::kRead, 0, 0) && ok;
            Clock::time_point d = Clock::now();
            rep.call_ns.push_back(nanos(a, b));
            rep.call_ns.push_back(nanos(b, c));
            for (int k = 0; k < kSensorReads; ++k) rep.call_ns.push_back(nanos(c, d) / kSensorReads);
            rep.calls += 2 + kSensorReads;
            rep.attempted += 2 + kSensorReads;
            if (!ok) rep.fail("wrong result from an application call on " + w->r.node->label());
            // Unit costs by what the call met, when exactly one hall's
            // policy was woven (mid-hop robots may briefly hold two).
            unwoven_ns.push_back(nanos(c, d) / kSensorReads);
            if (held.size() == 1) {
                const std::string& only = held.begin()->first;
                if (only == policy_names[1]) noop_ns.push_back(nanos(a, b));
                if (only == policy_names[2]) around_ns.push_back(nanos(a, b));
                if (only == policy_names[0]) monitor_ns.push_back(nanos(a, b));
                if (only == policy_names[3]) monitor_ns.push_back(nanos(b, c));
            } else if (held.empty()) {
                unwoven_ns.push_back(nanos(a, b));
            }
            schedule_calls(w, sim.now() + Duration{static_cast<std::int64_t>(
                                              w->calls.exponential(1e9 / sz.calls_per_s))});
        });
    };
    for (Walker& w : walkers) {
        schedule_calls(&w, ws + Duration{static_cast<std::int64_t>(
                                    w.calls.exponential(1e9 / sz.calls_per_s))});
    }
    for (SimTime t = ws + kBumpPeriod / 2; t + kReplaceDeadline <= we; t = t + kBumpPeriod) {
        sim.schedule_at(t, [&, t]() {
            observer.mark_app();
            std::uint32_t version = ++bump_version;
            for (Walker& w : walkers) {
                // Settled in hall 3 (adapted, in range since at least kSettle
                // ago) and staying in range for the whole deadline.
                bool stays = w.hall_at(t) == kBumpHall && w.last_move(t) + kSettle <= t &&
                             w.r.held.contains(policy_names[kBumpHall]);
                for (const Transition& m : w.moves) {
                    if (m.at > t && m.at <= t + kReplaceDeadline && !m.enter) stays = false;
                }
                if (!stays) continue;
                w.replace_due = true;
                w.replace_version = version;
                w.replace_from = t;
                rep.attempted += 1;
            }
            halls[kBumpHall]->base().add_extension(
                hall_policy(kBumpHall, static_cast<int>(version)));
        });
        sim.schedule_at(t + kReplaceDeadline, [&]() {
            observer.mark_app();
            for (Walker& w : walkers) {
                if (!w.replace_due) continue;
                w.replace_due = false;
                rep.fail(w.r.node->label() + " not on hall 3's new revision in time");
            }
        });
    }

    // ---- measured window
    in_window = true;
    const Counters c_open = read_counters();
    observer.open_window();
    Clock::time_point t_run = Clock::now();
    observer.run_until(sim, we);
    rep.run_s = secs(t_run, Clock::now());
    rep.window_s = (we - ws).count() / 1e9;
    rep.node_seconds = rep.window_s * static_cast<double>(walkers.size());
    rep.frames = observer.frames;
    rep.bytes = observer.bytes;
    rep.backhaul = observer.backhaul;
    const Counters c_close = read_counters();

    if (opt.traced) {
        put_loop_metrics(rep, observer);
        put_count_metrics(rep, c_close - c_open, c_close - c_start, window, whole);
        rep.put("rt.unwoven_ns", median(unwoven_ns), "ns");
        rep.put("core.woven_noop_ns", median(noop_ns), "ns");
        rep.put("core.around_ns", median(around_ns), "ns");
        rep.put("script.monitor_ns", median(monitor_ns), "ns");
        rep.put("obs.woven_share", 0, "ratio");
        put_probe_metrics(rep, ProbeInputs{hall_policy(kBumpHall, 1), issuer_of(kBumpHall),
                                           db::JournalConfig{}, &halls[0]->registrar(), 100});
    }

    // ---- drain: let the window's last hops complete, then check
    sim.run_until(we + kDrain);
    in_window = false;
    for (Walker& w : walkers) {
        for (const Transition& m : w.moves) {
            rep.attempted += 1;
            if (!m.done) {
                rep.fail(w.r.node->label() + (m.enter ? " never adapted by hall "
                                                      : " kept the policy of hall ") +
                         std::to_string(m.hall));
            }
        }
        check_woven_matches_installed(rep, w.r);
    }
    for (double ms : rep.adapt_ms) {
        if (ms > ms_of(kAdaptDeadline)) rep.fail("arrival adapted after the deadline");
    }
    for (double ms : rep.revoke_ms) {
        if (ms > ms_of(kRevokeBound)) rep.fail("extension outlived lease + one keep-alive");
    }
    return rep;
}

}  // namespace perfbench
