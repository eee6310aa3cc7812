#include "rt/breaker.h"

#include "obs/trace.h"
#include "sim/simulator.h"

namespace pmp::rt {

CircuitBreaker::CircuitBreaker(sim::Simulator& sim, std::string owner, BreakerConfig config)
    : sim_(sim),
      owner_(std::move(owner)),
      config_(config),
      obs_source_(obs::Registry::global().add_source([this](obs::Rows& rows) {
          rows.counter("rpc.breaker_opens", owner_, stats_.opens);
          rows.counter("rpc.breaker_short_circuits", owner_, stats_.short_circuits);
          rows.gauge("rpc.breaker_state", owner_, tripped());
      })) {}

bool CircuitBreaker::allow(NodeId target) {
    if (config_.threshold <= 0) return true;
    auto it = slots_.find(target);
    if (it == slots_.end()) return true;
    Slot& slot = it->second;
    switch (slot.state) {
        case State::kClosed:
            return true;
        case State::kOpen:
            if (sim_.now() < slot.open_until) {
                ++stats_.short_circuits;
                return false;
            }
            slot.state = State::kHalfOpen;
            slot.probe_in_flight = true;
            obs::TraceBuffer::global().instant(
                "rt.rpc", "rpc.breaker.half_open",
                {{"owner", owner_}, {"target", target.str()}});
            return true;
        case State::kHalfOpen:
            if (slot.probe_in_flight) {
                ++stats_.short_circuits;
                return false;
            }
            slot.probe_in_flight = true;
            return true;
    }
    return true;
}

void CircuitBreaker::on_success(NodeId target) {
    auto it = slots_.find(target);
    if (it == slots_.end()) return;
    close(it->second, target);
}

void CircuitBreaker::on_failure(NodeId target, bool relevant) {
    if (config_.threshold <= 0) return;
    if (!relevant) {
        // The peer answered (an application error): alive and serving.
        on_success(target);
        return;
    }
    Slot& slot = slots_[target];
    switch (slot.state) {
        case State::kClosed:
            if (++slot.failures >= config_.threshold) trip(slot, target);
            break;
        case State::kHalfOpen:
            // The probe failed: back to open with a doubled cool-down.
            trip(slot, target);
            break;
        case State::kOpen:
            // Stragglers from calls sent before the trip; nothing to learn.
            break;
    }
}

void CircuitBreaker::forget(NodeId target) {
    slots_.erase(target);
}

void CircuitBreaker::trip(Slot& slot, NodeId target) {
    slot.period = slot.period.count() == 0
                      ? config_.open_period
                      : std::min(slot.period * 2, config_.open_max);
    slot.state = State::kOpen;
    slot.open_until = sim_.now() + slot.period;
    slot.failures = 0;
    slot.probe_in_flight = false;
    ++stats_.opens;
    obs::TraceBuffer::global().instant(
        "rt.rpc", "rpc.breaker.open",
        {{"owner", owner_},
         {"target", target.str()},
         {"cooldown_ms", std::to_string(slot.period.count() / 1'000'000)}});
}

void CircuitBreaker::close(Slot& slot, NodeId target) {
    bool was_open = slot.state != State::kClosed;
    slot.state = State::kClosed;
    slot.failures = 0;
    slot.period = Duration{0};
    slot.probe_in_flight = false;
    if (was_open) {
        obs::TraceBuffer::global().instant(
            "rt.rpc", "rpc.breaker.close",
            {{"owner", owner_}, {"target", target.str()}});
    }
}

CircuitBreaker::State CircuitBreaker::state_of(NodeId target) const {
    auto it = slots_.find(target);
    return it == slots_.end() ? State::kClosed : it->second.state;
}

std::int64_t CircuitBreaker::tripped() const {
    std::int64_t n = 0;
    for (const auto& [_, slot] : slots_) n += slot.state != State::kClosed;
    return n;
}

}  // namespace pmp::rt
