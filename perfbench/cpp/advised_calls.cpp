// Workload advised_calls: the paper's §4.6 interception cost as the
// application sees it.
//
// One hall of a few hundred robots (more than the obs registry's 64-label
// cap). MIDAS pushes three signed script extensions onto every robot: a
// no-op `before` on Motor.stop, the monitoring body of bench_interception's
// VM row as a `before` on Motor.set_power, and a clamping `around` on
// Motor.rotate. Sensor methods stay un-woven. The benchmark thread then
// calls across all robots in a closed loop with a fixed mix (half of it
// un-woven), timed in batches, advancing the simulator briefly between
// batches so the leases stay live.
#include <algorithm>
#include <cmath>
#include <numbers>

#include "harness.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

constexpr const char* kIssuer = "hall";
constexpr int kClamp = 45;
constexpr int kBatch = 64;                                  // calls per timed batch
constexpr Duration kAdvance = microseconds(400);            // virtual time per batch
constexpr Duration kRevokeBound = milliseconds(2000 + 800);  // lease + one keep-alive

struct Call {
    std::uint32_t robot;
    Op op;
    int arg;
};

/// The seeded call mix: 30% Sensor.read, 20% Sensor.kind (un-woven), 20%
/// Motor.rotate (clamp around), 15% Motor.set_power (monitoring before),
/// 15% Motor.stop (no-op before).
std::vector<Call> make_calls(Gen& gen, std::size_t robots, std::size_t n) {
    std::vector<Call> calls;
    calls.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Call c{static_cast<std::uint32_t>(gen.below(robots)), Op::kRead, 0};
        std::uint64_t pick = gen.below(100);
        if (pick < 30) {
            c.op = Op::kRead;
        } else if (pick < 50) {
            c.op = Op::kKind;
        } else if (pick < 70) {
            c.op = Op::kRotate;
            c.arg = static_cast<int>(gen.below(241)) - 120;
        } else if (pick < 85) {
            c.op = Op::kSetPower;
            c.arg = 1 + static_cast<int>(gen.below(7));
        } else {
            c.op = Op::kStop;
        }
        calls.push_back(c);
    }
    return calls;
}

const char* op_name(Op op) {
    switch (op) {
        case Op::kRead: return "Sensor.read";
        case Op::kKind: return "Sensor.kind";
        case Op::kRotate: return "Motor.rotate";
        case Op::kSetPower: return "Motor.set_power";
        case Op::kStop: return "Motor.stop";
    }
    return "?";
}

}  // namespace

Rep run_advised_calls(const Options& opt) {
    Rep rep;
    const std::size_t n_robots = opt.small ? 80 : 256;
    // 10000 batches x 400 us = one 4 s window (see aligned_window_start).
    const std::size_t n_batches = opt.small ? 2000 : 10000;
    Gen gen(opt.seed);
    Gen place = gen.fork(1);
    Gen mix = gen.fork(2);
    Observer observer(opt.traced);
    const Counters c_start = read_counters();

    // ---- set-up: the hall, the policy, the robots, adaptation, one replacement
    Clock::time_point t_setup = Clock::now();
    sim::Simulator sim;
    net::NetworkConfig ncfg;
    ncfg.obs_label = kNetLabel;
    net::Network net(sim, ncfg, opt.seed);
    midas::BaseConfig bc;
    bc.issuer = kIssuer;
    midas::BaseStation hall(net, "hall", {0, 0}, 200.0, bc, {}, nullptr, quiet_discovery());
    hall.keys().add_key(kIssuer, to_bytes(std::string(kIssuer) + "-key"));
    observer.tap(net, hall.id(), Role::kBase);
    hall.base().add_extension(noop_pkg("hall/noop", "call(* Motor.stop(..))"));
    hall.base().add_extension(monitor_pkg("hall/monitor", "call(* Motor.set_power(..))"));
    hall.base().add_extension(clamp_pkg("hall/clamp", kClamp));
    const std::size_t policy_size = hall.base().policy_names().size();

    enum class Phase { kAdapt, kReplace, kWindow, kLeave };
    Phase phase = Phase::kAdapt;
    SimTime phase_start = sim.now();  // start of the replacement / window
    std::size_t adapted = 0, replaced = 0, withdrawn = 0;
    Tally whole, window;

    // Robots power on at seeded instants over the first two seconds, and
    // later leave at seeded instants over two seconds.
    std::vector<Robot> robots(n_robots);
    std::vector<SimTime> born(n_robots), gone(n_robots);
    std::vector<double> power_on;
    for (std::size_t i = 0; i < n_robots; ++i) power_on.push_back(place.uniform(0.0, 2.0));
    std::sort(power_on.begin(), power_on.end());
    for (std::size_t i = 0; i < n_robots; ++i) {
        sim.run_until(SimTime{static_cast<std::int64_t>(power_on[i] * 1e9)});
        born[i] = sim.now();
        Robot& r = robots[i];
        double rad = 40.0 * std::sqrt(place.uniform());
        double ang = 2.0 * std::numbers::pi * place.uniform();
        r.node = std::make_unique<midas::MobileNode>(
            net, "robot:" + std::to_string(i),
            net::Position{rad * std::cos(ang), rad * std::sin(ang)}, 100.0,
            midas::ReceiverConfig{}, nullptr, quiet_discovery());
        r.equip({kIssuer}, {});
        observer.tap(net, r.node->id(), Role::kReceiver);
        r.node->receiver().on_event([&, i](const std::string& event,
                                           const midas::AdaptationService::Installed& info) {
            Robot& ri = robots[i];
            const bool had_all = ri.held.size() == policy_size;
            apply_event(ri.held, event, info);
            whole.add(event);
            if (phase == Phase::kWindow) window.add(event);
            if (phase == Phase::kAdapt && !had_all && ri.held.size() == policy_size) {
                rep.adapt_ms.push_back(ms_of(sim.now() - born[i]));
                ++adapted;
            } else if (phase == Phase::kReplace && event == "install" &&
                       info.name == "hall/noop" && info.version == 2) {
                rep.replace_ms.push_back(ms_of(sim.now() - phase_start));
                ++replaced;
            } else if (phase == Phase::kLeave && ri.held.empty() && event != "install") {
                rep.revoke_ms.push_back(ms_of(sim.now() - gone[i]));
                ++withdrawn;
            }
        });
    }
    auto run_while = [&](const std::function<bool()>& pending, Duration limit) {
        SimTime deadline = sim.now() + limit;
        while (pending() && sim.now() < deadline) sim.run_until(sim.now() + milliseconds(10));
    };
    run_while([&] { return adapted < n_robots; }, seconds(20));
    rep.attempted += n_robots;
    for (std::size_t i = adapted; i < n_robots; ++i) rep.fail("arrival not adapted within 20 s");

    // One policy replacement: a new revision of the no-op extension.
    phase = Phase::kReplace;
    phase_start = sim.now();
    hall.base().add_extension(noop_pkg("hall/noop", "call(* Motor.stop(..))", 2));
    run_while([&] { return replaced < n_robots; }, seconds(10));
    rep.attempted += n_robots;
    for (std::size_t i = replaced; i < n_robots; ++i) rep.fail("replacement missing after 10 s");

    std::vector<Call> calls = make_calls(mix, n_robots, 8192);
    sim.run_until(aligned_window_start(sim.now()));
    rep.setup_s = secs(t_setup, Clock::now());

    // ---- measured window: closed loop, one client
    phase = Phase::kWindow;
    phase_start = sim.now();
    const Counters c_open = read_counters();
    observer.open_window();
    auto exec = [&](const Call& c) {
        Robot& r = robots[c.robot];
        if (!app_call(r, c.op, c.arg, c.op == Op::kRotate ? kClamp : 0)) {
            rep.fail(std::string("wrong result from ") + op_name(c.op) + " on " +
                     r.node->label());
        }
    };
    rep.call_ns.reserve(n_batches);
    std::size_t next = 0;
    Clock::time_point t_run = Clock::now();
    for (std::size_t b = 0; b < n_batches; ++b) {
        Clock::time_point a = Clock::now();
        for (int j = 0; j < kBatch; ++j) {
            exec(calls[next]);
            next = next + 1 == calls.size() ? 0 : next + 1;
        }
        Clock::time_point e = Clock::now();
        double ns = nanos(a, e);
        rep.call_ns.push_back(ns / kBatch);
        if (observer.traced()) observer.bucket_ns[kApp] += ns;
        observer.run_until(sim, sim.now() + kAdvance);
    }
    rep.run_s = secs(t_run, Clock::now());
    rep.calls = static_cast<double>(n_batches * kBatch);
    rep.attempted += n_batches * kBatch;
    rep.window_s = (sim.now() - phase_start).count() / 1e9;
    rep.node_seconds = rep.window_s * static_cast<double>(n_robots);
    rep.frames = observer.frames;
    rep.bytes = observer.bytes;
    rep.backhaul = observer.backhaul;
    const Counters c_close = read_counters();
    for (Robot& r : robots) check_woven_matches_installed(rep, r);

    if (opt.traced) {
        put_loop_metrics(rep, observer);
        put_count_metrics(rep, c_close - c_open, c_close - c_start, window, whole);
        // Per-class unit costs: batches drawn from the same mix, one class
        // at a time. Results are still checked.
        auto class_ns = [&](std::initializer_list<Op> ops) {
            std::vector<Call> pick;
            for (const Call& c : calls) {
                if (std::find(ops.begin(), ops.end(), c.op) != ops.end()) pick.push_back(c);
            }
            std::vector<double> per_call;
            std::size_t k = 0;
            for (int b = 0; b < 2000; ++b) {
                Clock::time_point a = Clock::now();
                for (int j = 0; j < kBatch; ++j) {
                    const Call& c = pick[k];
                    k = k + 1 == pick.size() ? 0 : k + 1;
                    rep.check(app_call(robots[c.robot], c.op, c.arg,
                                       c.op == Op::kRotate ? kClamp : 0),
                              std::string("class batch: wrong result from ") + op_name(c.op));
                }
                per_call.push_back(nanos(a, Clock::now()) / kBatch);
            }
            return median(per_call);
        };
        rep.put("rt.unwoven_ns", class_ns({Op::kRead, Op::kKind}), "ns");
        rep.put("core.woven_noop_ns", class_ns({Op::kStop}), "ns");
        rep.put("core.around_ns", class_ns({Op::kRotate}), "ns");
        rep.put("script.monitor_ns", class_ns({Op::kSetPower}), "ns");
        // obs.woven_share: the instrumentation's share of woven dispatch.
        // obs is toggled around one no-op-woven batch pair at a time and
        // restored straight after.
        std::vector<double> on, off;
        for (int p = 0; p < 1000; ++p) {
            Robot& r = robots[static_cast<std::size_t>(p) % n_robots];
            for (int side = 0; side < 2; ++side) {
                const bool was = obs::enabled();
                if (side == 1) obs::set_enabled(false);
                Clock::time_point a = Clock::now();
                for (int j = 0; j < kBatch; ++j) r.motor->call("stop");
                Clock::time_point e = Clock::now();
                obs::set_enabled(was);
                (side == 0 ? on : off).push_back(nanos(a, e) / kBatch);
            }
        }
        double m_on = median(on);
        rep.put("obs.woven_share", m_on > 0 ? 1.0 - median(off) / m_on : 0, "ratio");
        put_probe_metrics(rep, ProbeInputs{monitor_pkg("hall/monitor", "call(* Motor.set_power(..))"),
                                           kIssuer, bc.journal, &hall.registrar(), 100});
    }

    // ---- departure: every robot leaves the hall; leases must lapse
    phase = Phase::kLeave;
    const SimTime t_leave = sim.now();
    for (std::size_t i = 0; i < n_robots; ++i) {
        gone[i] = t_leave + Duration{static_cast<std::int64_t>(place.uniform(0.0, 2.0) * 1e9)};
        sim.schedule_at(gone[i], [&, i]() {
            robots[i].node->move_to({10000.0 + 10.0 * static_cast<double>(i), 10000.0});
        });
    }
    run_while([&] { return withdrawn < n_robots; },
              seconds(2) + kRevokeBound + milliseconds(500));
    rep.attempted += n_robots;
    for (double ms : rep.revoke_ms) {
        if (ms > ms_of(kRevokeBound)) rep.fail("extension outlived lease + one keep-alive");
    }
    for (std::size_t i = withdrawn; i < n_robots; ++i) rep.fail("departed robot kept extensions");
    for (Robot& r : robots) {
        rep.check(r.node->receiver().installed_count() == 0 &&
                      r.node->weaver().woven_count() == 0,
                  r.node->label() + ": departed robot still holds extensions");
    }
    return rep;
}

}  // namespace perfbench
