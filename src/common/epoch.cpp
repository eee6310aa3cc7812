#include "common/epoch.h"

#include <algorithm>

#include "obs/metrics.h"

namespace pmp {

namespace {
// Set while a Participant lives on this thread: ReadGuard no-ops (the
// epoch protocol covers the thread) and quiescent() knows its slot.
thread_local EpochDomain::Participant* tl_participant = nullptr;
// Guard nesting depth for unregistered threads; only the 0 <-> 1
// transitions touch the shared counter.
thread_local int tl_guard_depth = 0;

struct EpochMetrics {
    obs::Counter& retired = obs::Registry::global().counter("rt.epoch.retired");
    obs::Counter& reclaimed = obs::Registry::global().counter("rt.epoch.reclaimed");
};

EpochMetrics& epoch_metrics() {
    static EpochMetrics m;
    return m;
}
}  // namespace

EpochDomain::EpochDomain() = default;

EpochDomain::~EpochDomain() {
    // Last chance: nothing can be mid-dispatch if the domain itself is
    // dying, so run every deleter regardless of epochs.
    std::vector<Retired> left;
    {
        std::lock_guard<std::mutex> lock(mu_);
        left.swap(retired_);
    }
    for (auto& r : left) r.reclaim();
    std::lock_guard<std::mutex> lock(mu_);
    for (Slot* s : slots_) delete s;
}

EpochDomain& EpochDomain::global() {
    static EpochDomain domain;
    return domain;
}

// ---------------------------------------------------------- Participant ----

EpochDomain::Participant::Participant(EpochDomain& domain) : domain_(domain) {
    slot_ = domain_.register_participant();
    tl_participant = this;
}

EpochDomain::Participant::~Participant() {
    tl_participant = nullptr;
    domain_.unregister_participant(slot_);
    domain_.reap();
}

void EpochDomain::Participant::quiescent() {
    Slot* s;
    {
        std::lock_guard<std::mutex> lock(domain_.mu_);
        s = domain_.slots_[slot_];
    }
    s->local.store(domain_.epoch_.load(), std::memory_order_seq_cst);
    domain_.reap();
}

std::size_t EpochDomain::register_participant() {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (!slots_[i]->active.load(std::memory_order_relaxed)) {
            slots_[i]->active.store(true, std::memory_order_relaxed);
            slots_[i]->local.store(epoch_.load(), std::memory_order_seq_cst);
            return i;
        }
    }
    Slot* s = new Slot();
    s->active.store(true, std::memory_order_relaxed);
    s->local.store(epoch_.load(), std::memory_order_seq_cst);
    slots_.push_back(s);
    return slots_.size() - 1;
}

void EpochDomain::unregister_participant(std::size_t slot) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_[slot]->active.store(false, std::memory_order_relaxed);
}

// ------------------------------------------------------------ ReadGuard ----

EpochDomain::ReadGuard::ReadGuard() : pinned_(nullptr) {
    if (tl_participant != nullptr) return;  // epoch-covered thread
    if (tl_guard_depth++ == 0) {
        pinned_ = &EpochDomain::global();
        pinned_->guards_.fetch_add(1, std::memory_order_seq_cst);
    }
}

EpochDomain::ReadGuard::~ReadGuard() {
    if (tl_participant != nullptr) return;
    --tl_guard_depth;
    // Only the guard that did the 0 -> 1 transition releases (guards are
    // strictly nested, so it is also the last one out).
    if (pinned_ != nullptr) {
        pinned_->guards_.fetch_sub(1, std::memory_order_seq_cst);
        pinned_->reap();
    }
}

// --------------------------------------------------------------- domain ----

void EpochDomain::retire(std::function<void()> reclaim) {
    // Stamp the entry with a *new* epoch: it is safe only once every
    // participant has quiesced after this point.
    std::uint64_t e = epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
    {
        std::lock_guard<std::mutex> lock(mu_);
        retired_.push_back(Retired{e, std::move(reclaim)});
    }
    retired_total_.fetch_add(1, std::memory_order_relaxed);
    epoch_metrics().retired.inc();
    reap();
}

std::vector<EpochDomain::Retired> EpochDomain::collect_ripe() {
    std::vector<Retired> ripe;
    // The guard check covers only entries retired before this snapshot: a
    // later one may be walked by a reader whose guard came after the check.
    const std::uint64_t seen = epoch_.load(std::memory_order_seq_cst);
    // Any live guard anywhere may have been taken before any retirement we
    // know about — defer everything. (Guards taken *after* a retirement
    // can only observe the new pointer, so this is conservative but safe.)
    // A guard on the *calling* thread pins the caller's own entries too:
    // withdraw-from-inside-advice must not free the table being walked.
    if (guards_.load(std::memory_order_seq_cst) != 0) return ripe;

    std::lock_guard<std::mutex> lock(mu_);
    if (retired_.empty()) return ripe;
    std::uint64_t min_local = UINT64_MAX;
    for (Slot* s : slots_) {
        if (!s->active.load(std::memory_order_relaxed)) continue;
        min_local = std::min(min_local, s->local.load(std::memory_order_seq_cst));
    }
    std::vector<Retired> keep;
    for (auto& r : retired_) {
        if (r.epoch <= min_local && r.epoch <= seen) {
            ripe.push_back(std::move(r));
        } else {
            keep.push_back(std::move(r));
        }
    }
    retired_.swap(keep);
    return ripe;
}

void EpochDomain::reap() {
    // Deleters run outside the lock: reclaiming a Woven can tear down
    // aspect state that itself logs, meters, or retires more entries.
    std::vector<Retired> ripe = collect_ripe();
    if (ripe.empty()) return;
    for (auto& r : ripe) r.reclaim();
    reclaimed_total_.fetch_add(ripe.size(), std::memory_order_relaxed);
    for (std::size_t i = 0; i < ripe.size(); ++i) epoch_metrics().reclaimed.inc();
}

std::size_t EpochDomain::pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return retired_.size();
}

}  // namespace pmp
