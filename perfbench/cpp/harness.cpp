#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/script_aspect.h"
#include "core/weaver.h"
#include "db/journal.h"
#include "db/store.h"
#include "obs/metrics.h"
#include "robot/devices.h"
#include "script/compile.h"
#include "script/parser.h"

namespace perfbench {

using rt::Dict;
using rt::List;
using rt::Value;

// ------------------------------------------------------------- basics ----

std::uint64_t Gen::next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double Gen::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

double Gen::exponential(double mean) { return -mean * std::log1p(-uniform()); }

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double f = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * f;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

Counters read_counters() {
    // Per-node families (midas.rejections, script.compile.*) overflow into
    // one shared slot past the registry's label cap, so summing every
    // label of a family stays exact.
    Counters c;
    obs::Registry::global().visit_counters(
        [&](const std::string& n, const std::string& label, const obs::Counter& v) {
            if (n == "net.sent" && label == kNetLabel) c.sent += v.value();
            if (n == "net.delivered" && label == kNetLabel) c.delivered += v.value();
            if (n == "net.admission.shed") c.shed += v.value();
            if (n == "rpc.retries") c.retries += v.value();
            if (n == "midas.rejections") c.rejections += v.value();
            if (n == "script.compile.cache_hits") c.compile_hits += v.value();
            if (n == "script.compile.cache_misses") c.compile_misses += v.value();
        });
    return c;
}

Counters operator-(const Counters& a, const Counters& b) {
    return Counters{a.sent - b.sent,
                    a.delivered - b.delivered,
                    a.shed - b.shed,
                    a.retries - b.retries,
                    a.rejections - b.rejections,
                    a.compile_hits - b.compile_hits,
                    a.compile_misses - b.compile_misses};
}

// ---------------------------------------------------- program inputs ----

std::int64_t expected_rotate_ms(double degrees, std::int64_t power) {
    power = std::clamp<std::int64_t>(power, 1, 7);
    double speed = 90.0 * static_cast<double>(power) / 7.0;
    double secs = std::fabs(degrees) / speed;
    return static_cast<std::int64_t>(secs * 1e9) / 1'000'000;
}

midas::ExtensionPackage noop_pkg(const std::string& name, const std::string& pointcut,
                                 int revision) {
    midas::ExtensionPackage pkg;
    pkg.name = name;
    pkg.script = "let revision = " + std::to_string(revision) + ";\nfun onEntry() { }\n";
    pkg.bindings = {{prose::AdviceKind::kBefore, pointcut, "onEntry", 0}};
    return pkg;
}

midas::ExtensionPackage monitor_pkg(const std::string& name, const std::string& pointcut,
                                    int salt) {
    midas::ExtensionPackage pkg;
    pkg.name = name;
    pkg.script =
        "let salt = " + std::to_string(salt) + ";\n"
        "let calls = 0;\n"
        "let total = 0;\n"
        "fun mix(h, i) {\n"
        "  return (h * 31 + i) % 1000000007;\n"
        "}\n"
        "fun onEntry() {\n"
        "  calls = calls + 1;\n"
        "  let h = ctx.arg(0);\n"
        "  let i = 0;\n"
        "  while (i < 8) {\n"
        "    h = mix(h, i);\n"
        "    i = i + 1;\n"
        "  }\n"
        "  total = total + h;\n"
        "}\n";
    pkg.bindings = {{prose::AdviceKind::kBefore, pointcut, "onEntry", 0}};
    return pkg;
}

midas::ExtensionPackage clamp_pkg(const std::string& name, int limit) {
    midas::ExtensionPackage pkg;
    pkg.name = name;
    pkg.script =
        "fun clamp() {\n"
        "  let d = ctx.arg(0);\n"
        "  if (d > config.limit) { ctx.set_arg(0, config.limit); }\n"
        "  if (d < 0 - config.limit) { ctx.set_arg(0, 0 - config.limit); }\n"
        "  return ctx.proceed();\n"
        "}\n";
    pkg.bindings = {{prose::AdviceKind::kAround, "call(* Motor.rotate(..))", "clamp", 0}};
    pkg.config = Value{Dict{{"limit", Value{limit}}}};
    return pkg;
}

midas::ExtensionPackage post_pkg(const std::string& name, int revision) {
    midas::ExtensionPackage pkg;
    pkg.name = name;
    pkg.script =
        "let logged = 0;\n"
        "fun onEntry() {\n"
        "  owner.post(\"collector\", \"post\",\n"
        "             [sys.node(), {\"device\": ctx.target(), \"action\": ctx.method(),\n"
        "                           \"at_ms\": sys.now_ms(), \"rev\": " +
        std::to_string(revision) +
        "}]);\n"
        "  logged = logged + 1;\n"
        "}\n";
    pkg.bindings = {{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    pkg.capabilities = {"net"};
    return pkg;
}

disco::DiscoveryConfig quiet_discovery() {
    disco::DiscoveryConfig c;
    c.probe_period = seconds(3600);
    return c;
}

// ------------------------------------------------------ observation ----

void Robot::equip(const std::vector<std::string>& issuers,
                  const std::set<std::string>& caps) {
    const std::string& label = node->label();
    motor = robot::make_motor(node->runtime(), "motor:" + label);
    sensor = robot::make_sensor(node->runtime(), "sensor:" + label, "touch");
    for (const std::string& issuer : issuers) {
        node->trust().trust(issuer, to_bytes(issuer + "-key"));
        node->receiver().allow_capabilities(issuer, caps);
    }
}

void apply_event(Holdings& held, const std::string& event,
                 const midas::AdaptationService::Installed& info) {
    if (event == "install" || event == "refresh") {
        held[info.name] = info.version;
    } else {
        held.erase(info.name);  // expire / revoke / quarantine
    }
}

bool app_call(Robot& r, Op op, int arg, int clamp_limit) {
    try {
        switch (op) {
            case Op::kRead: {
                Value v = r.sensor->call("read");
                return v.is_int() && v.as_int() == 0;
            }
            case Op::kKind: {
                Value v = r.sensor->call("kind");
                return v.is_str() && v.as_str() == "touch";
            }
            case Op::kRotate: {
                Value v = r.motor->call("rotate", {Value{static_cast<double>(arg)}});
                int deg = clamp_limit > 0 ? std::clamp(arg, -clamp_limit, clamp_limit) : arg;
                return v.is_int() &&
                       v.as_int() == expected_rotate_ms(static_cast<double>(deg), r.power);
            }
            case Op::kSetPower: {
                Value v = r.motor->call("set_power", {Value{static_cast<std::int64_t>(arg)}});
                r.power = arg;
                return v.is_null();
            }
            case Op::kStop:
                return r.motor->call("stop").is_null();
        }
    } catch (const std::exception&) {
    }
    return false;
}

void check_woven_matches_installed(Rep& rep, Robot& r) {
    midas::MobileNode& n = *r.node;
    auto installed = n.receiver().installed();
    bool ok = n.weaver().woven_count() == installed.size() &&
              installed.size() == r.held.size();
    for (const auto& info : installed) {
        ok = ok && n.weaver().find(info.aspect) != nullptr;
        auto it = r.held.find(info.name);
        ok = ok && it != r.held.end() && it->second == info.version;
    }
    rep.check(ok, n.label() + ": woven aspects differ from the receiver's installed set");
}

void Observer::tap(net::Network& net, NodeId id, Role role) {
    if (roles_.size() <= id.value) roles_.resize(id.value + 1, Role::kNone);
    roles_[id.value] = role;
    net.set_tap(id, [this, role](const net::Message& m) {
        ++frames;
        bytes += m.wire_size();
        // Control-plane rpc travels under the ".ctl" kinds (exempt objects:
        // adaptation, registrar, midas.cell, ...); application rpc such as
        // collector posts does not. Discovery beacons are broadcast
        // chatter and excluded, as in bench_adaptation_scale (d).
        const bool ctl = m.kind.ends_with(".ctl");
        if (ctl && (role == Role::kBase || role_of(m.from) == Role::kBase)) ++backhaul;
        if (!traced_) return;
        if (m.kind.starts_with("disco.")) {
            bucket_ = kDisco;
        } else if (role == Role::kBase) {
            bucket_ = kToBase;
        } else if (role == Role::kRelay) {
            bucket_ = kToRelay;
        } else {
            bucket_ = kToReceiver;
        }
    });
}

void Observer::run_until(sim::Simulator& sim, SimTime deadline) {
    if (!traced_) {
        sim.run_until(deadline);
        return;
    }
    // The same loop as Simulator::run_until, one event at a time.
    while (sim.next_event_time() <= deadline) {
        bucket_ = kTimer;
        Clock::time_point a = Clock::now();
        sim.step();
        Clock::time_point b = Clock::now();
        double d = nanos(a, b);
        bucket_ns[bucket_] += d;
        event_ns.push_back(d);
        ++events;
    }
    sim.advance_to(deadline);
}

void Observer::open_window() {
    frames = bytes = backhaul = events = 0;
    std::fill(std::begin(bucket_ns), std::end(bucket_ns), 0.0);
    event_ns.clear();
}

// ---------------------------------------------------------- results ----

void Rep::fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
}

void Rep::check(bool ok, const std::string& what) {
    if (ok) return;
    checks_ok = false;
    if (check_errors.size() < 8) check_errors.push_back(what);
}

std::string Rep::fingerprint() const {
    std::string out;
    char buf[96];
    auto add = [&](const char* tag, double v) {
        std::snprintf(buf, sizeof buf, "%s=%.6f;", tag, v);
        out += buf;
    };
    for (double v : adapt_ms) add("a", v);
    for (double v : revoke_ms) add("r", v);
    for (double v : replace_ms) add("p", v);
    add("ns", node_seconds);
    add("w", window_s);
    add("f", static_cast<double>(frames));
    add("b", static_cast<double>(bytes));
    add("h", static_cast<double>(backhaul));
    add("c", calls);
    add("at", static_cast<double>(attempted));
    add("fl", static_cast<double>(failed));
    return out;
}

// ----------------------------------------------------------- helpers ----

SimTime aligned_window_start(SimTime now) {
    const std::int64_t grid = 4'000'000'000;  // lcm of the 0.8 s and 1 s periods
    const std::int64_t offset = 1'200'000'000;  // 0.4 s past a keep-alive tick
    std::int64_t k = (now.ns - offset + grid - 1) / grid;
    if (k < 0) k = 0;
    return SimTime{k * grid + offset};
}

void put_loop_metrics(Rep& rep, const Observer& obs) {
    const double w = rep.window_s;
    const double run_s = rep.run_s;
    const double node_seconds = rep.node_seconds;
    auto per_s = [w](double ns) { return ns / 1e6 / w; };  // host ms per sim second
    rep.put("sim.events_per_sim_s", static_cast<double>(obs.events) / w, "1/s");
    rep.put("sim.event_ns_p50", quantile(obs.event_ns, 0.50), "ns");
    rep.put("sim.event_ns_p99", quantile(obs.event_ns, 0.99), "ns");
    rep.put("sim.timer_ms_per_sim_s", per_s(obs.bucket_ns[kTimer]), "ms/s");
    rep.put("net.frames_per_node_s",
            node_seconds > 0 ? static_cast<double>(obs.frames) / node_seconds : 0, "1/s");
    rep.put("disco.deliver_ms_per_sim_s", per_s(obs.bucket_ns[kDisco]), "ms/s");
    rep.put("midas.receiver_ms_per_sim_s", per_s(obs.bucket_ns[kToReceiver]), "ms/s");
    rep.put("midas.base_ms_per_sim_s", per_s(obs.bucket_ns[kToBase]), "ms/s");
    rep.put("midas.relay_ms_per_sim_s", per_s(obs.bucket_ns[kToRelay]), "ms/s");
    rep.put("app.ms_per_sim_s", per_s(obs.bucket_ns[kApp]), "ms/s");
    double attributed = 0;
    for (double ns : obs.bucket_ns) attributed += ns;
    rep.put("trace.attributed_ratio", run_s > 0 ? attributed / 1e9 / run_s : 0, "ratio");
}

void put_count_metrics(Rep& rep, const Counters& window, const Counters& whole,
                       const Tally& window_tally, const Tally& whole_tally) {
    const double w = rep.window_s;
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    // Over the whole repetition: a window's deltas would count deliveries of
    // frames sent before it opened.
    rep.put("net.delivered_ratio",
            ratio(static_cast<double>(whole.delivered), static_cast<double>(whole.sent)),
            "ratio");
    rep.put("net.admission_shed_per_sim_s", static_cast<double>(window.shed) / w, "1/s");
    rep.put("rt.rpc_retries_per_sim_s", static_cast<double>(window.retries) / w, "1/s");
    rep.put("core.weaves_per_sim_s", static_cast<double>(window_tally.installs) / w, "1/s");
    rep.put("midas.installs_per_sim_s",
            static_cast<double>(window_tally.installs + window_tally.refreshes +
                                window.rejections) / w,
            "1/s");
    rep.put("midas.useful_install_ratio",
            ratio(static_cast<double>(whole_tally.installs),
                  static_cast<double>(whole_tally.installs + whole_tally.refreshes +
                                      whole.rejections)),
            "ratio");
    rep.put("script.compile_hit_ratio",
            ratio(static_cast<double>(whole.compile_hits),
                  static_cast<double>(whole.compile_hits + whole.compile_misses)),
            "ratio");
}

namespace {

/// A cell-frame-shaped value: what the base sends a relay once per period.
Value cell_frame(std::size_t entries) {
    List ops;
    for (std::size_t i = 0; i < entries; ++i) {
        ops.push_back(Value{Dict{{"op", Value{"put"}},
                                 {"node", Value{static_cast<std::int64_t>(1000 + i)}},
                                 {"name", Value{"hall/policy"}},
                                 {"ext", Value{static_cast<std::int64_t>(i + 1)}},
                                 {"hash", Value{std::string(64, 'a')}}}});
    }
    return Value{Dict{{"seq", Value{41}},
                      {"base", Value{40}},
                      {"ack", Value{17}},
                      {"epoch", Value{1}},
                      {"lease_ms", Value{2000}},
                      {"ops", Value{std::move(ops)}},
                      {"pause", Value{List{}}}}};
}

/// A hall monitoring record as the collector stores it.
Value monitor_record(std::int64_t i) {
    return Value{Dict{{"device", Value{"motor:" + std::to_string(i % 100)}},
                      {"action", Value{"rotate"}},
                      {"at_ms", Value{i * 7}},
                      {"rev", Value{1}}}};
}

template <typename Fn>
double mean_ns(int reps, Fn&& fn) {
    Clock::time_point a = Clock::now();
    for (int i = 0; i < reps; ++i) fn(i);
    return nanos(a, Clock::now()) / reps;
}

/// Host builtins the receiver gives every extension, stubbed, so a probe
/// aspect compiles against the same world.
script::BuiltinRegistry probe_builtins() {
    script::BuiltinRegistry reg = script::BuiltinRegistry::with_core();
    reg.add("sys.now_ms", "", [](List&) -> Value { return Value{0}; });
    reg.add("sys.node", "", [](List&) -> Value { return Value{"probe"}; });
    reg.add("owner.post", "net", [](List&) -> Value { return Value{}; });
    reg.add("log.info", "log", [](List&) -> Value { return Value{}; });
    return reg;
}

}  // namespace

void put_probe_metrics(Rep& rep, const ProbeInputs& in) {
    // rt: marshaling a cell frame (encode + decode).
    {
        Value frame = cell_frame(in.cell_entries);
        std::size_t sink = 0;
        double ns = mean_ns(200, [&](int) {
            Bytes b = frame.encode();
            Value back = Value::decode(std::span<const std::uint8_t>(b));
            sink += back.as_dict().size();
        });
        rep.put("rt.marshal_ns", sink > 0 ? ns : 0, "ns");
    }
    // script: parse + bytecode compile of the workload's policy.
    {
        std::size_t sink = 0;
        double ns = mean_ns(200, [&](int) {
            auto unit = script::compile(
                std::make_shared<const script::Program>(script::parse(in.policy.script)));
            sink += unit->functions.size();
        });
        rep.put("script.compile_us", sink > 0 ? ns / 1e3 : 0, "us");
    }
    // crypto: open + verify of the workload's sealed package.
    {
        crypto::KeyStore keys;
        keys.add_key(in.issuer, to_bytes("probe-key"));
        crypto::TrustStore trust;
        trust.trust(in.issuer, to_bytes("probe-key"));
        Bytes sealed = in.policy.seal(keys, in.issuer);
        std::size_t sink = 0;
        double ns = mean_ns(200, [&](int) {
            auto [pkg, sig] = midas::ExtensionPackage::open(std::span<const std::uint8_t>(sealed));
            trust.verify(std::span<const std::uint8_t>(pkg.signed_payload()), sig);
            sink += pkg.script.size();
        });
        rep.put("crypto.open_us", sink > 0 ? ns / 1e3 : 0, "us");
    }
    // core: weave + withdraw of the policy on a node runtime of the
    // workload's shape (one Motor, one Sensor).
    {
        rt::Runtime runtime("probe");
        robot::make_motor(runtime, "motor:probe");
        robot::make_sensor(runtime, "sensor:probe", "touch");
        prose::Weaver weaver(runtime);
        auto unit = script::compile(
            std::make_shared<const script::Program>(script::parse(in.policy.script)));
        script::BuiltinRegistry builtins = probe_builtins();
        script::Sandbox sandbox;
        sandbox.capabilities.insert(in.policy.capabilities.begin(),
                                    in.policy.capabilities.end());
        constexpr int kReps = 100;
        double weave_ns = 0, withdraw_ns = 0;
        for (int i = 0; i < kReps; ++i) {
            std::vector<prose::ScriptBinding> bindings;
            for (const auto& b : in.policy.bindings) {
                bindings.push_back({b.kind, b.pointcut, b.function, b.priority, {}});
            }
            prose::ScriptAspect aspect(in.policy.name, unit, std::move(bindings), sandbox,
                                       builtins, in.policy.config);
            Clock::time_point a = Clock::now();
            AspectId id = weaver.weave(aspect.aspect());
            Clock::time_point b = Clock::now();
            weaver.withdraw(id);
            Clock::time_point c = Clock::now();
            weave_ns += nanos(a, b);
            withdraw_ns += nanos(b, c);
        }
        rep.put("core.weave_us", weave_ns / kReps / 1e3, "us");
        rep.put("core.withdraw_us", withdraw_ns / kReps / 1e3, "us");
    }
    // db: one journal append with the workload's JournalConfig, and one
    // hall event-store append of a monitor record.
    {
        db::Journal journal(std::make_shared<db::JournalStorage>(), in.journal, nullptr);
        Value rec = Value{Dict{{"k", Value{"event"}},
                               {"source", Value{"robot:probe"}},
                               {"at", Value{123456789}},
                               {"data", monitor_record(1)}}};
        double ns = mean_ns(1000, [&](int) { journal.append(rec); });
        rep.put("db.journal_append_us", ns / 1e3, "us");
        db::EventStore store;
        double sns = mean_ns(1000, [&](int i) {
            store.append("robot:probe", SimTime{i}, monitor_record(i));
        });
        rep.put("db.store_append_ns", sns, "ns");
    }
    // disco: one in-place scan over the live adaptation registrations.
    {
        std::size_t seen = 0;
        double ns = 0;
        if (in.registrar) {
            ns = mean_ns(50, [&](int) {
                in.registrar->for_each("midas.adaptation",
                                       [&seen](const disco::ServiceItem&) { ++seen; });
            });
        }
        rep.put("disco.scan_us", ns / 1e3, "us");
    }
}

}  // namespace perfbench
