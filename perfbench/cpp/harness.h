// Shared machinery of the repository benchmark (see perfbench/README.md).
//
// Everything here sits on the program's public API: the node assemblies in
// midas/node.h, Simulator, Network taps, ServiceObject::call and the obs
// registry's read side. Nothing in src/ knows the benchmark exists.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "midas/node.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace perfbench {

using namespace pmp;

// ------------------------------------------------------------- basics ----

using Clock = std::chrono::steady_clock;

inline double secs(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}
inline double nanos(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::nano>(b - a).count();
}
inline double ms_of(Duration d) { return static_cast<double>(d.count()) / 1e6; }

/// Seeded input generator (SplitMix64). The benchmark's own generator, so
/// that the generated inputs never depend on a program-internal RNG.
class Gen {
public:
    explicit Gen(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next();
    /// Uniform in [0, 1).
    double uniform();
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
    /// Uniform integer in [0, n).
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    /// Exponential with the given mean.
    double exponential(double mean);
    /// A derived, independent stream.
    Gen fork(std::uint64_t salt) { return Gen(next() ^ (salt * 0x9E3779B97F4A7C15ull)); }

private:
    std::uint64_t s_;
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// obs label of every benchmark world's Network (stable across runs).
inline constexpr const char* kNetLabel = "perfbench";

/// The few program counters the benchmark cannot observe from outside:
/// radio sends (taps only see deliveries), admission sheds, rpc retries,
/// install refusals and compile-cache outcomes. Read from the obs registry
/// as deltas, before the owning objects are destroyed.
struct Counters {
    std::uint64_t sent = 0, delivered = 0, shed = 0, retries = 0;
    std::uint64_t rejections = 0, compile_hits = 0, compile_misses = 0;
};
Counters read_counters();
Counters operator-(const Counters& a, const Counters& b);

// ---------------------------------------------------- program inputs ----

/// Expected return of Motor.rotate(degrees) at `power`, the physics of
/// robot/devices.cpp restated: ms = |degrees| / (90 deg/s * power / 7).
std::int64_t expected_rotate_ms(double degrees, std::int64_t power);

/// The policy packages the workloads ship. All are AdviceScript packages
/// signed by the hall that pushes them.
midas::ExtensionPackage noop_pkg(const std::string& name, const std::string& pointcut,
                                 int revision = 1);
/// The monitoring body of bench_interception's VM row: bump counters and
/// fold the first argument through a small hash loop.
midas::ExtensionPackage monitor_pkg(const std::string& name, const std::string& pointcut,
                                    int salt = 0);
/// Around advice on Motor.rotate clamping |degrees| to `limit`.
midas::ExtensionPackage clamp_pkg(const std::string& name, int limit);
/// Hall monitoring (paper Fig 3b): posts every intercepted Motor action to
/// the installing node's "collector" object.
midas::ExtensionPackage post_pkg(const std::string& name, int revision = 1);

/// Default discovery config for every node of the benchmark's worlds: a
/// single probe at power-on. Registrar beacons keep liveness fresh; the
/// periodic probe broadcast is an O(n^2) storm when hundreds of nodes share
/// one radio cell (bench_adaptation_scale (d) does the same).
disco::DiscoveryConfig quiet_discovery();

// ------------------------------------------------------ observation ----

/// Which role the benchmark assigned a node; deliveries are labelled by it.
enum class Role : std::uint8_t { kNone, kReceiver, kBase, kRelay };

/// Host-time buckets of the traced run. Every simulator event lands in
/// exactly one: the delivery it performed (disco.* by kind, everything else
/// by receiving role), the benchmark's own scheduled callbacks (arrivals,
/// departures, application calls), or "timer" when nothing was delivered.
enum Bucket : int { kTimer, kDisco, kToReceiver, kToBase, kToRelay, kApp, kBuckets };

/// Extension name -> version, as the benchmark sees a robot's holdings
/// through AdaptationService::on_event.
using Holdings = std::map<std::string, std::uint32_t>;

/// One robot: a mobile node carrying a Motor and a touch Sensor.
struct Robot {
    std::unique_ptr<midas::MobileNode> node;
    std::shared_ptr<rt::ServiceObject> motor;
    std::shared_ptr<rt::ServiceObject> sensor;
    Holdings held;
    std::int64_t power = 7;  ///< the benchmark's model of Motor.power

    /// Attach the devices and trust `issuers` (key "<issuer>-key"), granting
    /// each the capabilities its packages request.
    void equip(const std::vector<std::string>& issuers, const std::set<std::string>& caps);
};

/// Fold one AdaptationService event into the holdings.
void apply_event(Holdings& held, const std::string& event,
                 const midas::AdaptationService::Installed& info);

/// Application calls of the workloads' mixes.
enum class Op : std::uint8_t { kRead, kKind, kRotate, kSetPower, kStop };

/// Make one application call on `r` and check its result against what the
/// woven policy implies: rotate returns the physical duration of the move,
/// clamped to ±`clamp_limit` degrees when the clamp is woven (0 = not
/// woven); the rest return the devices' plain results. Returns false on a
/// wrong result or an unexpected throw.
bool app_call(Robot& r, Op op, int arg, int clamp_limit);

/// End-of-run invariants for one robot: every aspect the receiver lists is
/// woven, nothing else is, and the benchmark's view of the holdings agrees.
struct Rep;
void check_woven_matches_installed(Rep& rep, Robot& r);

/// Counts observed on the radio through Network taps, plus the stepped
/// event loop of the traced run.
class Observer {
public:
    explicit Observer(bool traced) : traced_(traced) {}

    bool traced() const { return traced_; }

    /// Tap node `id` as `role`. Every delivery to it is counted; in a traced
    /// run it also labels the current simulator step.
    void tap(net::Network& net, NodeId id, Role role);

    /// Label the current step as the benchmark's own callback.
    void mark_app() { bucket_ = kApp; }

    /// Run the simulator to `deadline` (inclusive, like run_until). The
    /// traced run steps one event at a time through next_event_time()/step()
    /// and bills each event's host time to its bucket.
    void run_until(sim::Simulator& sim, SimTime deadline);

    /// Start counting the measured window (resets the window tallies).
    void open_window();

    // Window tallies.
    std::uint64_t frames = 0;          ///< deliveries, all kinds
    std::uint64_t bytes = 0;           ///< delivered wire bytes
    std::uint64_t backhaul = 0;        ///< control-plane frames to/from a base
    std::uint64_t events = 0;          ///< traced: simulator events run
    double bucket_ns[kBuckets] = {};   ///< traced: host ns per bucket
    std::vector<double> event_ns;      ///< traced: per-event host ns

private:
    Role role_of(NodeId id) const {
        return id.value < roles_.size() ? roles_[id.value] : Role::kNone;
    }

    bool traced_;
    int bucket_ = kTimer;
    std::vector<Role> roles_;
};

// ---------------------------------------------------------- results ----

/// One repetition of a workload. Virtual-time numbers and counts are a
/// pure function of the seed; host-time numbers are measured.
struct Rep {
    // Host time.
    double setup_s = 0;
    double run_s = 0;
    double calls = 0;                 ///< application calls completed
    std::vector<double> call_ns;      ///< per-call latency samples

    // Virtual time and counts.
    std::vector<double> adapt_ms, revoke_ms, replace_ms;
    double node_seconds = 0;          ///< node presence inside the window
    double window_s = 0;              ///< virtual length of the window
    std::uint64_t frames = 0, bytes = 0, backhaul = 0;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;  ///< first few, for the report
    bool checks_ok = true;
    std::vector<std::string> check_errors;

    /// Per-layer metrics (traced runs only): name -> (value, unit).
    std::vector<std::pair<std::string, std::pair<double, std::string>>> layer;

    void fail(const std::string& what);
    void check(bool ok, const std::string& what);
    void put(const std::string& name, double value, const std::string& unit) {
        layer.push_back({name, {value, unit}});
    }
    /// Deterministic digest of the virtual-time results and counts; every
    /// repetition of one seed must produce the same one.
    std::string fingerprint() const;
};

struct Options {
    std::uint64_t seed = 1;
    bool traced = false;
    /// Shrinks every size knob (the determinism self-test).
    bool small = false;
};

Rep run_advised_calls(const Options& opt);
Rep run_fleet_cells(const Options& opt);
Rep run_roam_churn(const Options& opt);

// ----------------------------------------------------------- helpers ----

/// First instant >= `now` that sits mid-way between two keep-alive ticks
/// (800 ms grid) and just before a registrar beacon (1 s grid). Measured
/// windows start there and last a multiple of 4 s, so every window holds
/// the same number of whole periodic rounds whatever the seed.
SimTime aligned_window_start(SimTime now);

/// Traced-run fill-ins shared by the workloads: sim.*, net.*, midas role
/// times and the attribution self-check, from an Observer and the
/// repetition's run_s and node_seconds.
void put_loop_metrics(Rep& rep, const Observer& obs);

/// Install outcomes seen through AdaptationService::on_event.
struct Tally {
    std::uint64_t installs = 0;   ///< new installs and replacements (one weave each)
    std::uint64_t refreshes = 0;  ///< same-version re-installs (wasted pushes)

    void add(const std::string& event) {
        if (event == "install") ++installs;
        if (event == "refresh") ++refreshes;
    }
};

/// Rates and ratios built from registry deltas and install tallies:
/// `window` covers the measured window, `whole` the repetition from world
/// creation to the window's end.
void put_count_metrics(Rep& rep, const Counters& window, const Counters& whole,
                       const Tally& window_tally, const Tally& whole_tally);

/// Module probes on the workload's own inputs (timed public calls).
struct ProbeInputs {
    midas::ExtensionPackage policy;   ///< the workload's main package
    std::string issuer;               ///< who sealed it
    db::JournalConfig journal;        ///< the workload's journal settings
    disco::Registrar* registrar = nullptr;  ///< live registrations to scan
    std::size_t cell_entries = 100;   ///< roster lines in a cell frame
};
void put_probe_metrics(Rep& rep, const ProbeInputs& in);

}  // namespace perfbench
