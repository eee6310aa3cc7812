// Per-node admission control: bounded, class-prioritized inbound work queues.
//
// A node's inbound request work (rpc dispatch, mainly) passes through this
// gate before executing. Work is classified into three priority classes —
// control traffic (leases, keep-alives, discovery bookkeeping) ahead of
// extension installs ahead of advice-driven application traffic — and each
// class gets its own bounded FIFO. A shared token bucket (virtual time, see
// sim/token_bucket.h) paces execution: when tokens are available and nothing
// of equal or higher priority waits, work runs immediately (the unloaded
// fast path costs one bucket check); otherwise it queues, and when its
// class queue is full it is *shed* — the caller gets a typed Overloaded
// error with a retry-after hint instead of a timeout.
//
// The point (paper §3.3 meets the ROADMAP's "heavy traffic" north star): a
// base station blasting installs, or an application storm, must never
// starve the keep-alive traffic that keeps leases — and therefore the
// node's whole adaptation state — alive.
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <functional>

#include "sim/simulator.h"
#include "sim/token_bucket.h"

namespace pmp::net {

/// Priority classes, highest first. Numeric order is drain order.
enum class AdmitClass : int {
    kControl = 0,  ///< lease renewals, keep-alives, revokes, registrar ops
    kInstall = 1,  ///< extension package installs
    kApp = 2,      ///< everything else (advice-driven application traffic)
};
constexpr std::size_t kAdmitClasses = 3;

const char* to_string(AdmitClass cls);

struct AdmissionConfig {
    /// Shared execution budget across all classes. The defaults are sized
    /// to be invisible to well-behaved fleets (hundreds of calls/s/node)
    /// and to bite only under storm load; soaks tighten them explicitly.
    double rate_per_sec = 2000.0;
    double burst = 256.0;
    /// Per-class queue bounds; overflow is shed.
    std::array<std::size_t, kAdmitClasses> queue_cap{256, 64, 256};
};

class AdmissionQueue {
public:
    using Work = std::function<void()>;

    AdmissionQueue(sim::Simulator& sim, AdmissionConfig config = {});
    ~AdmissionQueue();

    AdmissionQueue(const AdmissionQueue&) = delete;
    AdmissionQueue& operator=(const AdmissionQueue&) = delete;

    struct Decision {
        bool admitted = true;     ///< false = shed; `work` was not (and will not be) run
        bool queued = false;      ///< true = parked; runs when a token accrues
        Duration retry_after{0};  ///< on shed: estimate of when capacity returns
    };

    /// Admit, queue, or shed `work`. Queued work runs from the simulator
    /// event loop in strict class-priority order (FIFO within a class) as
    /// tokens accrue. Shed work is dropped here — the caller owns telling
    /// its peer (rpc encodes an Overloaded reply).
    Decision offer(AdmitClass cls, Work work);

    std::size_t queued_total() const;
    std::size_t queued(AdmitClass cls) const { return queues_[static_cast<int>(cls)].size(); }

    /// Reconfigure (tests/soaks). Queued work is kept; the bucket restarts
    /// full at the new rate.
    void set_config(AdmissionConfig config);
    const AdmissionConfig& config() const { return config_; }

private:
    void arm_drain();
    void drain();

    sim::Simulator& sim_;
    AdmissionConfig config_;
    sim::TokenBucket bucket_;
    std::array<std::deque<Work>, kAdmitClasses> queues_;
    sim::TimerId drain_timer_{};
    bool drain_armed_ = false;
};

}  // namespace pmp::net
