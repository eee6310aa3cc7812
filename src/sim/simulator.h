// Discrete-event simulation kernel.
//
// Every dynamic behaviour in the platform — radio propagation, lease
// renewal timers, mobility, asynchronous extension uploads — is an event on
// this single virtual timeline. Events scheduled for the same instant fire
// in scheduling order (FIFO), which makes whole-system runs deterministic
// for a fixed seed.
//
// A Simulator is single-threaded by design; wall-clock parallelism comes
// from running *several* simulators as shards under sim::ShardedSimulator
// (see shard.h), which drives each one through bounded time windows via
// run_window()/advance_to() and never touches two from different threads
// without a barrier in between.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/time.h"

namespace pmp::obs {
class TraceBuffer;
}

namespace pmp::sim {

/// Handle to a scheduled event, usable to cancel it before it fires.
///
/// `value` packs `(generation << 32) | (slot + 1)`: the callback's slot in
/// the simulator's slot table and that slot's generation when the timer was
/// armed. Slots are reused once a timer fires or is cancelled, and reuse
/// bumps the generation, so a stale id never matches its slot's new
/// occupant. Ids are therefore NOT monotonic in scheduling order; zero is
/// never issued and means "no timer".
struct TimerId {
    std::uint64_t value = 0;
    bool valid() const { return value != 0; }
    auto operator<=>(const TimerId&) const = default;
};

/// The event loop. Single-threaded by design (Core Guidelines CP: shared
/// mutable state is avoided by having exactly one logical thread of control;
/// benchmarks that need wall-clock parallelism run separate simulators).
///
/// Layout: callbacks live in a slot table (callback, period, generation,
/// armed/queued bits; freed slots go on a free list), and the event heap
/// holds only trivially copyable 24-byte `{when, seq, slot, gen}` entries
/// ordered by `(when, seq)`. Firing moves the callback out of its slot, so
/// a callback is never copied. A repeating timer keeps its slot across
/// firings and re-pushes `{now + period, next seq}` after its callback
/// returns, if still armed.
///
/// Cancel frees the slot and bumps its generation in O(1); the heap entry
/// it leaves behind is *stale* (its gen no longer matches the slot) and is
/// dropped when it reaches the top. Once stale entries outnumber half the
/// live ones (stale * 2 > pending) the heap is filtered and rebuilt — a
/// compaction, counted by compactions() and `sim.compactions`.
class Simulator {
public:
    using Callback = std::function<void()>;

    /// Binds this simulator as a trace clock on the TraceBuffer that is
    /// current *on the constructing thread* (the thread's redirect target,
    /// else the root buffer) and remembers that buffer, so the destructor
    /// unbinds from the same one even if the thread's redirect has since
    /// changed. Clocks stack per buffer: nesting a scratch simulator inside
    /// a live one restores the outer clock on destruction instead of
    /// leaving the buffer clockless ("most recently constructed wins" is
    /// gone — binding is scoped to this object's lifetime).
    Simulator();
    /// Destroys every pending callback while the simulator is still whole:
    /// a capture whose destructor calls cancel() (which then returns false)
    /// or schedule_at() on this simulator is safe.
    ~Simulator();
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /// Current virtual time.
    SimTime now() const { return now_; }

    /// Schedule `fn` to run at absolute time `when` (>= now, else it runs at
    /// the current instant, never in the past).
    TimerId schedule_at(SimTime when, Callback fn);

    /// Schedule `fn` to run `delay` after now.
    TimerId schedule_after(Duration delay, Callback fn);

    /// Schedule `fn` every `period`, first firing after one period.
    /// Cancelling the returned id stops the repetition.
    TimerId schedule_every(Duration period, Callback fn);

    /// Cancel a pending event. Cancelling an already-fired, already-
    /// cancelled or unknown id is a no-op, even after its slot has been
    /// reused by another timer. Returns true if something was actually
    /// cancelled. A repeating timer may cancel itself from its own callback.
    bool cancel(TimerId id);

    /// Run the single next event. Returns false if the queue is empty.
    bool step();

    /// Run events until the queue is empty or `limit` events have fired.
    /// Returns the number of events executed.
    std::size_t run(std::size_t limit = SIZE_MAX);

    /// Run all events with time <= deadline; afterwards now() == deadline
    /// (even if the queue went empty earlier).
    void run_until(SimTime deadline);

    /// Convenience: run_until(now() + d).
    void run_for(Duration d);

    /// Time of the earliest live (non-cancelled) pending event, or
    /// SimTime::max() when the queue is empty. The sharded kernel's
    /// conservative synchronizer computes each window edge from the minimum
    /// of this across shards. Pops stale entries encountered at the top, so
    /// amortized cost stays with the cancels that created them.
    SimTime next_event_time();

    /// Run every event with `when` strictly before `horizon`, leaving
    /// events at exactly `horizon` queued for the next window. Does NOT
    /// advance now() past the last fired event — the caller advances the
    /// clock explicitly (advance_to) once the window barrier commits, which
    /// keeps "events < horizon fired, now() <= horizon" an invariant the
    /// sharded kernel can assert. Returns the number of events executed.
    std::size_t run_window(SimTime horizon);

    /// Move the clock forward to `t` without running anything (no-op if
    /// now() >= t already). Window barriers use this to line every shard
    /// up on the same instant before the next window's sends clamp against
    /// now() + lookahead.
    void advance_to(SimTime t);

    /// Number of events currently pending.
    std::size_t pending() const { return heap_.size() - stale_; }

    /// Times the stale-entry sweep has rebuilt the heap (metric
    /// `sim.compactions` counts the same thing process-wide).
    std::uint64_t compactions() const { return compactions_; }

private:
    struct Entry {
        SimTime when;
        std::uint64_t seq;  // tie-breaker: FIFO among same-time events
        std::uint32_t slot;
        std::uint32_t gen;  // live iff equal to slots_[slot].gen
    };
    static_assert(sizeof(Entry) == 24 && std::is_trivially_copyable_v<Entry>);
    struct Later {
        bool operator()(const Entry& a, const Entry& b) const {
            if (a.when != b.when) return a.when > b.when;
            return a.seq > b.seq;
        }
    };
    struct Slot {
        Callback fn;
        Duration period{0};
        std::uint32_t gen = 0;
        bool repeating = false;
        bool armed = false;   // occupied: the timer can still fire
        bool queued = false;  // a live heap entry exists (false while a
                              // repeating timer's callback runs)
    };

    TimerId arm(SimTime when, Duration period, bool repeating, Callback fn);
    void release(std::uint32_t slot);
    void push(const Entry& e);
    Entry pop();
    bool fire_next();
    void maybe_compact();

    SimTime now_ = SimTime::zero();
    std::uint64_t next_seq_ = 0;
    std::vector<Entry> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_;  // released slots, reused LIFO
    std::size_t stale_ = 0;            // heap entries whose slot moved on
    std::uint64_t compactions_ = 0;
    obs::TraceBuffer* trace_buffer_ = nullptr;  // buffer the clock is bound to
    std::uint64_t trace_clock_token_ = 0;       // obs trace-clock registration
};

}  // namespace pmp::sim
