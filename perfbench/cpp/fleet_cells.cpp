// Workload fleet_cells: the end-to-end fleet scenario, open loop in
// virtual time.
//
// About 10^3 robots sit in radio cells of 100, each cell anchored by a
// CellStation relay wired to one durable BaseStation (the batched lease
// protocol of midas/cell.h). The base serves one monitoring extension that
// posts every Motor action to the hall collector. Robots arrive on a seeded
// schedule (a fixed number at uniform instants), are adapted (verify ->
// compile -> weave), make application
// calls at a low rate, then move out of range and lose the extension when
// its lease lapses. One policy replacement lands mid-window.
#include <algorithm>
#include <cmath>
#include <deque>
#include <numbers>

#include "harness.h"

namespace perfbench {

namespace {

constexpr const char* kIssuer = "hall";
constexpr const char* kPolicy = "hall/monitor";
constexpr Duration kAdaptDeadline = seconds(5);
constexpr Duration kReplaceDeadline = seconds(5);
constexpr Duration kRevokeBound = milliseconds(2000 + 800);  // lease + one keep-alive
constexpr Duration kCallMargin = milliseconds(500);  // no calls this close to leaving
constexpr int kSensorReads = 4;                       // un-woven calls per call group

struct Sizes {
    int cells;
    int residents_per_cell;
    Duration window;
    double arrivals_per_s;
    double dwell_min_s, dwell_max_s;
    double calls_per_s;  ///< call groups per robot per simulated second
};

Sizes sizes(bool small) {
    if (small) return {2, 40, seconds(12), 4.0, 6.0, 14.0, 0.5};
    return {10, 100, seconds(16), 25.0, 20.0, 60.0, 0.2};
}

struct Member {
    Robot r;
    int cell = 0;
    SimTime arrived{};
    SimTime leave = SimTime::max();
    bool in_window = false;   ///< arrived during the measured window
    bool adapted = false;
    bool left = false;
    bool withdrawn = false;
    bool replace_due = false;
    SimTime replace_from{};
    SimTime left_at{};
    Gen calls{0};
};

/// Exports "collector" on a cell station and forwards every post to the
/// base's collector over the backhaul. Cell-routed installs are performed
/// by the relay, so `owner.post` in an extension reaches the relay, not the
/// base; without this forwarder the hall would never see those records.
void export_collector_forwarder(midas::CellStation& station, NodeId base) {
    rt::Runtime& runtime = station.runtime();
    rt::RpcEndpoint* rpc = &station.rpc();
    runtime.register_type(
        rt::TypeInfo::Builder("CollectorForwarder")
            .method("post", rt::TypeKind::kInt,
                    {{"source", rt::TypeKind::kStr}, {"data", rt::TypeKind::kAny}},
                    [rpc, base](rt::ServiceObject&, rt::List& args) -> rt::Value {
                        rpc->call_async(base, "collector", "post", args,
                                        [](rt::Value, std::exception_ptr) {});
                        return rt::Value{0};
                    })
            .build());
    runtime.create("CollectorForwarder", "collector");
    station.rpc().export_object("collector");
}

}  // namespace

Rep run_fleet_cells(const Options& opt) {
    Rep rep;
    const Sizes sz = sizes(opt.small);
    Gen gen(opt.seed);
    Gen place = gen.fork(1);
    Gen arrivals_gen = gen.fork(2);
    Observer observer(opt.traced);
    const Counters c_start = read_counters();

    // ---- set-up: base, cells, residents, adaptation
    Clock::time_point t_setup = Clock::now();
    sim::Simulator sim;
    net::NetworkConfig ncfg;
    ncfg.obs_label = kNetLabel;
    net::Network net(sim, ncfg, opt.seed);
    midas::BaseConfig bc;
    bc.issuer = kIssuer;
    auto disk = std::make_shared<db::JournalStorage>();
    midas::BaseStation hall(net, "hall", {0, -5000}, 1.0, bc, {}, disk, quiet_discovery());
    hall.keys().add_key(kIssuer, to_bytes(std::string(kIssuer) + "-key"));
    observer.tap(net, hall.id(), Role::kBase);
    hall.base().add_extension(post_pkg(kPolicy, 1));

    std::vector<std::unique_ptr<midas::CellStation>> stations;
    for (int c = 0; c < sz.cells; ++c) {
        auto st = std::make_unique<midas::CellStation>(
            net, "cell:" + std::to_string(c), net::Position{1000.0 * c, 0.0}, 120.0,
            midas::CellRelayConfig{}, disco::RegistrarConfig{}, quiet_discovery());
        net.add_wire(hall.id(), st->id());
        hall.base().attach_cell(st->label(), st->id());
        export_collector_forwarder(*st, hall.id());
        observer.tap(net, st->id(), Role::kRelay);
        stations.push_back(std::move(st));
    }

    bool in_window = false;
    Tally whole, window;
    std::size_t expected_records = 0;
    std::size_t residents_adapted = 0;
    std::vector<double> unwoven_ns, monitored_ns;
    std::deque<Member> members;
    std::uint64_t next_id = 0;

    auto add_member = [&](int cell, bool resident) -> Member& {
        Member& m = members.emplace_back();
        m.cell = cell;
        m.arrived = sim.now();
        m.in_window = !resident;
        m.calls = gen.fork(1000 + next_id);
        midas::ReceiverConfig rc;
        rc.cell = "cell:" + std::to_string(cell);
        double rad = 40.0 * std::sqrt(place.uniform());
        double ang = 2.0 * std::numbers::pi * place.uniform();
        m.r.node = std::make_unique<midas::MobileNode>(
            net, "robot:" + std::to_string(next_id++),
            net::Position{1000.0 * cell + rad * std::cos(ang), rad * std::sin(ang)}, 60.0,
            rc, nullptr, quiet_discovery());
        m.r.equip({kIssuer}, {"net"});
        observer.tap(net, m.r.node->id(), Role::kReceiver);
        m.r.node->receiver().on_event([&, mp = &m](const std::string& event,
                                                   const midas::AdaptationService::Installed& info) {
            apply_event(mp->r.held, event, info);
            whole.add(event);
            if (in_window) window.add(event);
            if (!mp->adapted && mp->r.held.contains(kPolicy)) {
                mp->adapted = true;
                if (mp->in_window) {
                    rep.adapt_ms.push_back(ms_of(sim.now() - mp->arrived));
                } else {
                    ++residents_adapted;
                }
            }
            if (mp->replace_due && event == "install" && info.version == 2) {
                mp->replace_due = false;
                rep.replace_ms.push_back(ms_of(sim.now() - mp->replace_from));
            }
            if (mp->left && !mp->withdrawn && mp->r.held.empty()) {
                mp->withdrawn = true;
                rep.revoke_ms.push_back(ms_of(sim.now() - mp->left_at));
            }
        });
        return m;
    };

    const int residents = sz.cells * sz.residents_per_cell;
    for (int i = 0; i < residents; ++i) {
        add_member(i % sz.cells, /*resident=*/true);
        // Staggered power-on, as in bench_adaptation_scale (d).
        if (i % 100 == 99) sim.run_until(sim.now() + milliseconds(20));
    }
    SimTime deadline = sim.now() + seconds(30);
    while (residents_adapted < static_cast<std::size_t>(residents) && sim.now() < deadline) {
        sim.run_until(sim.now() + milliseconds(10));
    }
    rep.check(residents_adapted == static_cast<std::size_t>(residents),
              "residents not adapted within 30 s of power-on");
    const SimTime ws = aligned_window_start(sim.now());
    sim.run_until(ws);
    rep.setup_s = secs(t_setup, Clock::now());

    // ---- the seeded schedule: departures, arrivals, calls, one replacement
    const SimTime we = ws + sz.window;
    const SimTime last_leave = we - kRevokeBound - milliseconds(200);
    const SimTime last_arrival = we - kAdaptDeadline;

    std::function<void(Member*, SimTime)> schedule_calls = [&](Member* m, SimTime t) {
        SimTime stop = std::min(m->leave == SimTime::max() ? we : m->leave - kCallMargin,
                                we - kCallMargin);
        if (t >= stop) return;
        sim.schedule_at(t, [&, m]() {
            observer.mark_app();
            if (m->left) return;
            const bool woven = m->r.held.contains(kPolicy);
            int deg = static_cast<int>(m->calls.below(241)) - 120;
            Clock::time_point a = Clock::now();
            bool ok = app_call(m->r, Op::kRotate, deg, 0);
            Clock::time_point b = Clock::now();
            for (int k = 0; k < kSensorReads; ++k) ok = app_call(m->r, Op::kRead, 0, 0) && ok;
            Clock::time_point c = Clock::now();
            rep.call_ns.push_back(nanos(a, b));
            for (int k = 0; k < kSensorReads; ++k) rep.call_ns.push_back(nanos(b, c) / kSensorReads);
            (woven ? monitored_ns : unwoven_ns).push_back(nanos(a, b));
            unwoven_ns.push_back(nanos(b, c) / kSensorReads);
            rep.calls += 1 + kSensorReads;
            rep.attempted += 1 + kSensorReads;
            if (!ok) rep.fail("wrong result from a motor or sensor call on " + m->r.node->label());
            if (woven) ++expected_records;
            schedule_calls(m, sim.now() + Duration{static_cast<std::int64_t>(
                                              m->calls.exponential(1e9 / sz.calls_per_s))});
        });
    };
    auto schedule_leave = [&](Member* m) {
        if (m->leave > last_leave) {
            m->leave = SimTime::max();
            return;
        }
        sim.schedule_at(m->leave, [&, m]() {
            observer.mark_app();
            m->left = true;
            m->left_at = sim.now();
            rep.attempted += 1;
            m->r.node->move_to({1000.0 * m->cell, 10000.0 + static_cast<double>(members.size())});
        });
    };
    auto start_member = [&](Member* m, double dwell_s) {
        m->leave = sim.now() + Duration{static_cast<std::int64_t>(dwell_s * 1e9)};
        schedule_leave(m);
        schedule_calls(m, sim.now() + Duration{static_cast<std::int64_t>(
                                          m->calls.exponential(1e9 / sz.calls_per_s))});
    };
    // Residents are mid-stay: residual dwells spread evenly over the dwell
    // range (stratified, so every seed sees the same number of departures).
    for (std::size_t k = 0; k < members.size(); ++k) {
        double u = (static_cast<double>(k) + place.uniform()) / static_cast<double>(members.size());
        start_member(&members[k], u * sz.dwell_max_s);
    }
    // Arrivals: a fixed number per window at seeded uniform instants, so
    // the amount of work does not vary with the seed.
    const double span_s = (last_arrival - ws).count() / 1e9;
    std::vector<double> arrive_at;
    for (int k = 0; k < static_cast<int>(sz.arrivals_per_s * span_s); ++k) {
        arrive_at.push_back(arrivals_gen.uniform(0.0, span_s));
    }
    std::sort(arrive_at.begin(), arrive_at.end());
    for (double at_s : arrive_at) {
        SimTime t = ws + Duration{static_cast<std::int64_t>(at_s * 1e9)};
        int cell = static_cast<int>(arrivals_gen.below(static_cast<std::uint64_t>(sz.cells)));
        double dwell = arrivals_gen.uniform(sz.dwell_min_s, sz.dwell_max_s);
        sim.schedule_at(t, [&, cell, dwell]() {
            observer.mark_app();
            Member& m = add_member(cell, /*resident=*/false);
            rep.attempted += 1;
            start_member(&m, dwell);
        });
    }
    const SimTime t_rep = ws + sz.window / 2;
    sim.schedule_at(t_rep, [&]() {
        observer.mark_app();
        for (Member& m : members) {
            if (!m.left && m.leave > t_rep + kReplaceDeadline &&
                m.r.held.contains(kPolicy)) {
                m.replace_due = true;
                m.replace_from = t_rep;
                rep.attempted += 1;
            }
        }
        hall.base().add_extension(post_pkg(kPolicy, 2));
    });
    sim.schedule_at(t_rep + kReplaceDeadline, [&]() {
        observer.mark_app();
        for (Member& m : members) {
            if (m.replace_due) {
                m.replace_due = false;
                rep.fail(m.r.node->label() + " not on the new policy version in time");
            }
        }
    });

    // ---- measured window
    in_window = true;
    const Counters c_open = read_counters();
    observer.open_window();
    Clock::time_point t_run = Clock::now();
    observer.run_until(sim, we);
    rep.run_s = secs(t_run, Clock::now());
    in_window = false;
    rep.window_s = (we - ws).count() / 1e9;
    rep.frames = observer.frames;
    rep.bytes = observer.bytes;
    rep.backhaul = observer.backhaul;
    const Counters c_close = read_counters();
    for (const Member& m : members) {
        SimTime from = std::max(m.arrived, ws);
        SimTime to = m.left ? m.left_at : we;
        if (to > from) rep.node_seconds += (to - from).count() / 1e9;
    }

    if (opt.traced) {
        put_loop_metrics(rep, observer);
        put_count_metrics(rep, c_close - c_open, c_close - c_start, window, whole);
        rep.put("rt.unwoven_ns", median(unwoven_ns), "ns");
        rep.put("script.monitor_ns", median(monitored_ns), "ns");
        rep.put("core.woven_noop_ns", 0, "ns");
        rep.put("core.around_ns", 0, "ns");
        rep.put("obs.woven_share", 0, "ratio");
        put_probe_metrics(rep, ProbeInputs{post_pkg(kPolicy, 1), kIssuer, bc.journal,
                                           &stations[0]->registrar(),
                                           static_cast<std::size_t>(sz.residents_per_cell)});
    }

    // ---- drain the posts still in flight, then check the outputs
    sim.run_until(we + seconds(1));
    for (Member& m : members) {
        if (m.in_window && !m.adapted) rep.fail(m.r.node->label() + " never adapted");
        if (m.left) {
            if (!m.withdrawn) rep.fail(m.r.node->label() + " kept its extension after leaving");
            rep.check(m.r.node->receiver().installed_count() == 0 &&
                          m.r.node->weaver().woven_count() == 0,
                      m.r.node->label() + ": departed robot still holds extensions");
        } else {
            check_woven_matches_installed(rep, m.r);
        }
    }
    for (double ms : rep.adapt_ms) {
        if (ms > ms_of(kAdaptDeadline)) rep.fail("arrival adapted after the deadline");
    }
    for (double ms : rep.revoke_ms) {
        if (ms > ms_of(kRevokeBound)) rep.fail("extension outlived lease + one keep-alive");
    }
    rep.check(hall.store().size() == expected_records,
              "hall collector holds " + std::to_string(hall.store().size()) +
                  " records for " + std::to_string(expected_records) + " monitored calls");
    return rep;
}

}  // namespace perfbench
