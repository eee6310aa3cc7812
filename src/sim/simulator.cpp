#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pmp::sim {

Simulator::Simulator() {
    // Bind to the thread's current buffer, not root(): a shard simulator
    // constructed under a TraceBuffer::Redirect clocks its own shard buffer.
    trace_buffer_ = &obs::TraceBuffer::global();
    trace_clock_token_ = trace_buffer_->set_clock([this]() { return now_; });
}

Simulator::~Simulator() {
    // Disarm every slot before destroying any callback, so a capture whose
    // destructor re-enters finds a consistent table: cancel() of any old id
    // returns false, and a schedule_at() arms a fresh slot that the next
    // pass releases.
    for (;;) {
        std::vector<Callback> dying;
        for (std::uint32_t i = 0; i < slots_.size(); ++i) {
            if (!slots_[i].armed) continue;
            dying.push_back(std::exchange(slots_[i].fn, nullptr));
            release(i);
        }
        heap_.clear();
        stale_ = 0;
        if (dying.empty()) break;
    }
    trace_buffer_->clear_clock(trace_clock_token_);
}

void Simulator::push(const Entry& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Simulator::Entry Simulator::pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = heap_.back();
    heap_.pop_back();
    return e;
}

TimerId Simulator::arm(SimTime when, Duration period, bool repeating, Callback fn) {
    std::uint32_t idx;
    if (free_.empty()) {
        idx = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        idx = free_.back();
        free_.pop_back();
    }
    Slot& s = slots_[idx];
    s.fn = std::move(fn);
    s.period = period;
    s.repeating = repeating;
    s.armed = true;
    s.queued = true;
    push(Entry{when, ++next_seq_, idx, s.gen});
    return TimerId{(std::uint64_t{s.gen} << 32) | (std::uint64_t{idx} + 1)};
}

void Simulator::release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.armed = false;
    s.queued = false;
    // A slot whose generation would wrap is retired instead of reused, so
    // a stale heap entry or TimerId can never match a later occupant.
    if (++s.gen != std::numeric_limits<std::uint32_t>::max()) free_.push_back(slot);
}

TimerId Simulator::schedule_at(SimTime when, Callback fn) {
    if (when < now_) when = now_;
    return arm(when, Duration{0}, /*repeating=*/false, std::move(fn));
}

TimerId Simulator::schedule_after(Duration delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
}

TimerId Simulator::schedule_every(Duration period, Callback fn) {
    return arm(now_ + period, period, /*repeating=*/true, std::move(fn));
}

bool Simulator::cancel(TimerId id) {
    std::uint64_t slot = (id.value & 0xffffffffu) - 1;
    if (!id.valid() || slot >= slots_.size()) return false;
    Slot& s = slots_[slot];
    if (!s.armed || s.gen != id.value >> 32) return false;
    if (s.queued) ++stale_;
    // Destroyed on return, after the bookkeeping: its captures' destructors
    // may re-enter this simulator.
    Callback dead = std::exchange(s.fn, nullptr);
    release(static_cast<std::uint32_t>(slot));
    maybe_compact();
    return true;
}

void Simulator::maybe_compact() {
    // Rebuild the heap once stale entries exceed half the live set: a
    // workload that arms and cancels many timers (lease renewals across
    // handoffs) would otherwise drag a heap full of dead entries through
    // every push/pop. Each rebuild removes at least a third of the heap,
    // so the cost is amortized against the cancels that forced it.
    if (stale_ * 2 <= pending()) return;
    std::erase_if(heap_, [this](const Entry& e) { return slots_[e.slot].gen != e.gen; });
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    stale_ = 0;
    ++compactions_;
    obs::Registry::global().counter("sim.compactions").inc();
}

bool Simulator::fire_next() {
    while (!heap_.empty()) {
        Entry e = pop();
        Slot& s = slots_[e.slot];
        if (s.gen != e.gen) {
            --stale_;
            continue;
        }
        now_ = e.when;
        Callback fn = std::exchange(s.fn, nullptr);
        s.queued = false;
        if (!s.repeating) {
            release(e.slot);
            fn();
            return true;
        }
        fn();
        // Re-fetch: the callback may have grown the table. A cancel from
        // inside it released the slot (bumping its gen), and the slot may
        // already hold a new timer; either way this one must not re-arm.
        Slot& after = slots_[e.slot];
        if (after.gen == e.gen) {
            after.fn = std::move(fn);
            after.queued = true;
            push(Entry{now_ + after.period, ++next_seq_, e.slot, e.gen});
        }
        return true;
    }
    return false;
}

bool Simulator::step() { return fire_next(); }

std::size_t Simulator::run(std::size_t limit) {
    std::size_t executed = 0;
    while (executed < limit && fire_next()) ++executed;
    return executed;
}

void Simulator::run_until(SimTime deadline) {
    // next_event_time() skips stale entries, so a cancelled entry at the
    // top of the heap can never trick the loop into firing a live event
    // that lies beyond the deadline.
    while (next_event_time() <= deadline) {
        fire_next();
    }
    if (now_ < deadline) now_ = deadline;
}

void Simulator::run_for(Duration d) { run_until(now_ + d); }

SimTime Simulator::next_event_time() {
    while (!heap_.empty()) {
        const Entry& top = heap_.front();
        if (slots_[top.slot].gen == top.gen) return top.when;
        pop();
        --stale_;
    }
    return SimTime::max();
}

std::size_t Simulator::run_window(SimTime horizon) {
    // Strictly-before: an event at exactly `horizon` belongs to the next
    // window, after the barrier has drained cross-shard mailboxes whose
    // messages may land at that same instant (and must keep the global
    // (time, seq) FIFO order with it).
    std::size_t executed = 0;
    while (next_event_time() < horizon) {
        if (fire_next()) ++executed;
    }
    return executed;
}

void Simulator::advance_to(SimTime t) {
    if (now_ < t) now_ = t;
}

}  // namespace pmp::sim
