// Caller-side circuit breaker, per target node.
//
// The receiving half of overload protection is admission control
// (net/admission.h): a struggling node sheds with Overloaded. This is the
// sending half: a caller that keeps getting Overloaded / timeout answers
// from one node stops hammering it entirely for a cool-down, then lets a
// single probe through (half-open) — success restores full traffic, another
// failure re-opens the breaker with a doubled cool-down. MIDAS bases wrap
// their install and keep-alive paths in one of these so a fleet-wide policy
// push cannot flatten a slow receiver (and a dead one costs nothing per
// tick once dropped).
//
// State machine (docs/overload.md):
//
//   closed --[threshold consecutive relevant failures]--> open
//   open ----[cool-down elapsed; next allow()]----------> half-open (1 probe)
//   half-open --[probe ok or remote app answer]---------> closed
//   half-open --[probe failed]--------------------------> open (period *= 2)
//
// "Relevant" failures are those that say the peer may be drowning or gone:
// Overloaded replies and transport failures (timeout / unreachable). A
// remote *application* error proves the peer alive and serving, so it
// counts as a success here.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/ids.h"
#include "common/time.h"
#include "obs/metrics.h"

namespace pmp::sim {
class Simulator;
}

namespace pmp::rt {

struct BreakerConfig {
    /// Consecutive relevant failures that trip the breaker. <= 0 disables
    /// the breaker entirely: allow() is always true.
    int threshold = 4;
    Duration open_period = seconds(1);   ///< first cool-down
    Duration open_max = seconds(8);      ///< cap for the doubling cool-down
};

class CircuitBreaker {
public:
    enum class State { kClosed, kOpen, kHalfOpen };

    /// `owner` labels the exported rows (rpc.breaker_opens /
    /// rpc.breaker_short_circuits, gauge rpc.breaker_state = tripped()),
    /// e.g. the base's issuer name.
    CircuitBreaker(sim::Simulator& sim, std::string owner, BreakerConfig config = {});

    /// May traffic go to `target` now? Open breakers answer false (counted
    /// as short-circuits) until their cool-down elapses, then exactly one
    /// caller gets true as the half-open probe.
    bool allow(NodeId target);

    void on_success(NodeId target);
    /// `relevant` selects breaker-triggering failures (Overloaded /
    /// transport); an irrelevant failure is an answer and counts as
    /// success.
    void on_failure(NodeId target, bool relevant);
    /// The target is gone from the caller's books; drop its slot.
    void forget(NodeId target);

    State state_of(NodeId target) const;
    /// Number of targets currently not closed (the rpc.breaker_state gauge).
    std::int64_t tripped() const;

    struct Stats {
        std::uint64_t opens = 0;           ///< trips into the open state
        std::uint64_t short_circuits = 0;  ///< calls refused while open
    };
    const Stats& stats() const { return stats_; }

    const BreakerConfig& config() const { return config_; }

private:
    struct Slot {
        State state = State::kClosed;
        int failures = 0;           ///< consecutive relevant, while closed
        SimTime open_until{};       ///< while open
        Duration period{0};         ///< current cool-down (doubles per re-open)
        bool probe_in_flight = false;
    };

    void trip(Slot& slot, NodeId target);
    void close(Slot& slot, NodeId target);

    sim::Simulator& sim_;
    std::string owner_;
    BreakerConfig config_;
    std::map<NodeId, Slot> slots_;
    Stats stats_;
    obs::Source obs_source_;  // last: unregisters before the state it reads
};

}  // namespace pmp::rt
