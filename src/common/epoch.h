// Epoch-based reclamation for RCU-published hook tables.
//
// The weaver mutates a Method's advice tables by building a fresh table
// aside, swapping one pointer, and *retiring* the old table here. The old
// table cannot be freed immediately: another shard's worker may be mid-
// dispatch through it. It can be freed once every thread that might hold
// the pointer has passed a point where it provably holds none — a grace
// period.
//
// Quiescent-state-based flavour (QSBR): readers pay nothing per dispatch.
// Each sharded-simulator worker registers a Participant and announces
// quiescence at every window barrier (where, by construction, it executes
// no events and holds no table pointers). A retired table is reclaimed
// once every participant has announced quiescence after the retirement.
//
// Threads that never register (the sequential tests, tools, a coordinator
// poking a node between windows) are covered by ReadGuard: the woven
// dispatch slow path holds one across the advice chain, and reclamation
// is deferred while any guard is live anywhere. The un-woven fast path
// takes no guard and stays a single load + branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace pmp {

class EpochDomain {
public:
    EpochDomain();
    ~EpochDomain();

    EpochDomain(const EpochDomain&) = delete;
    EpochDomain& operator=(const EpochDomain&) = delete;

    /// The process-wide domain every Method/Field retires into.
    static EpochDomain& global();

    /// One registered worker thread. Construct on the worker, call
    /// quiescent() at every window barrier, destroy when the worker
    /// retires (destruction counts as a final quiescent state).
    class Participant {
    public:
        explicit Participant(EpochDomain& domain = EpochDomain::global());
        ~Participant();

        Participant(const Participant&) = delete;
        Participant& operator=(const Participant&) = delete;

        /// Announce: this thread currently holds no retired-able pointer.
        void quiescent();

    private:
        EpochDomain& domain_;
        std::size_t slot_;
    };

    /// Pins reclamation for unregistered threads. No-op on a thread that
    /// carries a Participant (its safety comes from the epoch protocol).
    /// Nestable; cheap (one thread-local bump, one shared atomic bump on
    /// the 0 -> 1 transition). The last release reaps, which takes the
    /// domain lock only when something is waiting to be reclaimed.
    class ReadGuard {
    public:
        ReadGuard();
        ~ReadGuard();

        ReadGuard(const ReadGuard&) = delete;
        ReadGuard& operator=(const ReadGuard&) = delete;

    private:
        EpochDomain* pinned_;  ///< nullptr when this thread is a Participant
    };

    /// Queue `reclaim` to run once the grace period for the current epoch
    /// has elapsed. Safe from any thread, including from inside advice
    /// (a guard on the calling thread defers its own entry).
    void retire(std::function<void()> reclaim);

    /// Reclaim everything whose grace period has passed (called
    /// opportunistically from retire()/quiescent() and the last guard
    /// release; exposed for tests). Lock-free when nothing is pending.
    void reap();

    /// Retired entries not yet reclaimed.
    std::size_t pending() const;

    /// Total entries retired / reclaimed over the domain's lifetime.
    std::uint64_t retired_total() const { return retired_total_.load(std::memory_order_relaxed); }
    std::uint64_t reclaimed_total() const {
        return reclaimed_total_.load(std::memory_order_relaxed);
    }

private:
    struct Slot {
        std::atomic<std::uint64_t> local{0};
        std::atomic<bool> active{false};
    };
    struct Retired {
        std::uint64_t epoch;
        std::function<void()> reclaim;
    };

    std::size_t register_participant();
    void unregister_participant(std::size_t slot);
    /// Collect reclaimable entries under the lock; run them after.
    std::vector<Retired> collect_ripe();

    // Global epoch. A retired entry stamped E is safe once every active
    // participant's local epoch is >= E (each has quiesced after the
    // retirement) and no ReadGuard is live.
    std::atomic<std::uint64_t> epoch_{1};
    std::atomic<std::int64_t> guards_{0};

    std::mutex mu_;
    std::vector<Slot*> slots_;       // stable addresses; reused after unregister
    std::vector<Retired> retired_;
    // retired_.size(), stored under mu_ and read without it by reap().
    std::atomic<std::size_t> pending_{0};

    std::atomic<std::uint64_t> retired_total_{0};
    std::atomic<std::uint64_t> reclaimed_total_{0};
};

}  // namespace pmp
