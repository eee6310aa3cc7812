#include "net/admission.h"

#include "obs/metrics.h"

namespace pmp::net {

namespace {
// Process-wide totals; per-node sheds are counted by the rpc layer, which
// knows its node label (see rpc.shed).
struct AdmissionMetrics {
    obs::Counter& admitted = obs::Registry::global().counter("net.admission.admitted");
    obs::Counter& queued = obs::Registry::global().counter("net.admission.queued");
    obs::Counter& shed = obs::Registry::global().counter("net.admission.shed");
};

AdmissionMetrics& metrics() {
    static AdmissionMetrics m;
    return m;
}
}  // namespace

const char* to_string(AdmitClass cls) {
    switch (cls) {
        case AdmitClass::kControl: return "control";
        case AdmitClass::kInstall: return "install";
        case AdmitClass::kApp: return "app";
    }
    return "?";
}

AdmissionQueue::AdmissionQueue(sim::Simulator& sim, AdmissionConfig config)
    : sim_(sim), config_(config), bucket_(config.rate_per_sec, config.burst) {}

AdmissionQueue::~AdmissionQueue() {
    // Queued work dies with the node; remote callers time out, exactly as
    // for a crash. Nothing scheduled may touch us afterwards.
    if (drain_armed_) sim_.cancel(drain_timer_);
}

std::size_t AdmissionQueue::queued_total() const {
    std::size_t n = 0;
    for (const auto& q : queues_) n += q.size();
    return n;
}

void AdmissionQueue::set_config(AdmissionConfig config) {
    config_ = config;
    bucket_ = sim::TokenBucket(config.rate_per_sec, config.burst);
    if (queued_total() > 0) arm_drain();
}

AdmissionQueue::Decision AdmissionQueue::offer(AdmitClass cls, Work work) {
    const int c = static_cast<int>(cls);
    SimTime now = sim_.now();

    // Fast path: a token is on hand and nothing of equal or higher priority
    // waits, so running now cannot reorder anyone. This is the whole cost
    // of admission on an unloaded node.
    bool ahead = false;
    for (int i = 0; i <= c; ++i) ahead = ahead || !queues_[i].empty();
    if (!ahead && bucket_.try_take(now)) {
        metrics().admitted.inc();
        work();
        return Decision{};
    }

    if (queues_[c].size() >= config_.queue_cap[c]) {
        // Shed. Estimate when the backlog ahead of this call would have
        // drained: everything queued at this priority or better, plus one.
        std::size_t backlog = 1;
        for (int i = 0; i <= c; ++i) backlog += queues_[i].size();
        metrics().shed.inc();
        return Decision{.admitted = false,
                        .queued = false,
                        .retry_after = bucket_.time_until(now, static_cast<double>(backlog))};
    }

    queues_[c].push_back(std::move(work));
    metrics().queued.inc();
    arm_drain();
    return Decision{.admitted = true, .queued = true};
}

void AdmissionQueue::arm_drain() {
    if (drain_armed_) return;
    drain_armed_ = true;
    drain_timer_ = sim_.schedule_after(bucket_.time_until(sim_.now()), [this]() {
        drain_armed_ = false;
        drain();
    });
}

void AdmissionQueue::drain() {
    // Pop in strict class-priority order while tokens last. Work may
    // re-enter offer() (a dispatched handler making further calls); the
    // queues are plain deques and offer() never runs work synchronously
    // when anything is queued ahead, so recursion is bounded and order is
    // preserved.
    SimTime now = sim_.now();
    while (bucket_.available(now) >= 1.0) {
        int c = -1;
        for (int i = 0; i < static_cast<int>(kAdmitClasses); ++i) {
            if (!queues_[i].empty()) {
                c = i;
                break;
            }
        }
        if (c < 0) return;
        Work work = std::move(queues_[c].front());
        queues_[c].pop_front();
        bucket_.try_take(now);
        metrics().admitted.inc();
        work();
        now = sim_.now();
    }
    if (queued_total() > 0) arm_drain();
}

}  // namespace pmp::net
