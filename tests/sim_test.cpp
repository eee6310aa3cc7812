// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <random>

#include "obs/trace.h"
#include "sim/simulator.h"

namespace pmp::sim {
namespace {

TEST(Simulator, StartsAtZero) {
    Simulator sim;
    EXPECT_EQ(sim.now(), SimTime::zero());
    EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(SimTime{300}, [&]() { order.push_back(3); });
    sim.schedule_at(SimTime{100}, [&]() { order.push_back(1); });
    sim.schedule_at(SimTime{200}, [&]() { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), SimTime{300});
}

TEST(Simulator, SameTimeIsFifo) {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule_at(SimTime{50}, [&order, i]() { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleAfterUsesNow) {
    Simulator sim;
    SimTime observed;
    sim.schedule_at(SimTime{1000}, [&]() {
        sim.schedule_after(Duration{500}, [&]() { observed = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(observed, SimTime{1500});
}

TEST(Simulator, PastSchedulingClampsToNow) {
    Simulator sim;
    sim.schedule_at(SimTime{100}, []() {});
    sim.run();
    bool fired = false;
    sim.schedule_at(SimTime{50}, [&]() {
        fired = true;
        EXPECT_EQ(sim.now(), SimTime{100});
    });
    sim.run();
    EXPECT_TRUE(fired);
}

TEST(Simulator, CancelPreventsExecution) {
    Simulator sim;
    bool fired = false;
    TimerId id = sim.schedule_after(Duration{10}, [&]() { fired = true; });
    EXPECT_TRUE(sim.cancel(id));
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, CancelUnknownIsNoop) {
    Simulator sim;
    EXPECT_FALSE(sim.cancel(TimerId{}));
    EXPECT_FALSE(sim.cancel(TimerId{9999}));
}

TEST(Simulator, DoubleCancelSecondReturnsFalse) {
    Simulator sim;
    TimerId id = sim.schedule_after(Duration{10}, []() {});
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, StepRunsExactlyOne) {
    Simulator sim;
    int fired = 0;
    sim.schedule_after(Duration{1}, [&]() { ++fired; });
    sim.schedule_after(Duration{2}, [&]() { ++fired; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunLimitStops) {
    Simulator sim;
    int fired = 0;
    for (int i = 0; i < 5; ++i) sim.schedule_after(Duration{i + 1}, [&]() { ++fired; });
    EXPECT_EQ(sim.run(3), 3u);
    EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockEvenWhenIdle) {
    Simulator sim;
    sim.run_until(SimTime{5000});
    EXPECT_EQ(sim.now(), SimTime{5000});
}

TEST(Simulator, RunUntilDoesNotRunLaterEvents) {
    Simulator sim;
    bool early = false, late = false;
    sim.schedule_at(SimTime{100}, [&]() { early = true; });
    sim.schedule_at(SimTime{201}, [&]() { late = true; });
    sim.run_until(SimTime{200});
    EXPECT_TRUE(early);
    EXPECT_FALSE(late);
    EXPECT_EQ(sim.now(), SimTime{200});
    sim.run();
    EXPECT_TRUE(late);
}

TEST(Simulator, RunForIsRelative) {
    Simulator sim;
    sim.run_until(SimTime{1000});
    sim.run_for(Duration{500});
    EXPECT_EQ(sim.now(), SimTime{1500});
}

TEST(Simulator, ScheduleEveryRepeats) {
    Simulator sim;
    int fired = 0;
    TimerId id = sim.schedule_every(Duration{100}, [&]() { ++fired; });
    sim.run_until(SimTime{1000});
    EXPECT_EQ(fired, 10);
    sim.cancel(id);
    sim.run_until(SimTime{2000});
    EXPECT_EQ(fired, 10);
}

TEST(Simulator, ScheduleEveryCanCancelItself) {
    Simulator sim;
    int fired = 0;
    TimerId id;
    id = sim.schedule_every(Duration{10}, [&]() {
        if (++fired == 3) sim.cancel(id);
    });
    sim.run_until(SimTime{1000});
    EXPECT_EQ(fired, 3);
}

TEST(Simulator, NestedSchedulingWithinEvent) {
    Simulator sim;
    std::vector<SimTime> at;
    sim.schedule_at(SimTime{10}, [&]() {
        at.push_back(sim.now());
        sim.schedule_after(Duration{5}, [&]() { at.push_back(sim.now()); });
    });
    sim.run();
    ASSERT_EQ(at.size(), 2u);
    EXPECT_EQ(at[0], SimTime{10});
    EXPECT_EQ(at[1], SimTime{15});
}


// ------------------------------------------------------- edge semantics ----
// These pin down the corners the sharded kernel leans on: cancellation
// from inside a firing callback, the strict horizon edge of run_window,
// rearm ordering for repeating timers, tombstone compaction, and the
// scoped trace-clock binding.

TEST(Simulator, CancelOtherTimerFromInsideFiringCallback) {
    Simulator sim;
    int fired = 0;
    TimerId victim = sim.schedule_at(SimTime{20}, [&]() { ++fired; });
    sim.schedule_at(SimTime{10}, [&]() {
        EXPECT_TRUE(sim.cancel(victim));
        // A second cancel of the same id from the same callback is a no-op.
        EXPECT_FALSE(sim.cancel(victim));
    });
    sim.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CancelSelfFromInsideFiringCallbackIsNoop) {
    // Once an event is firing it has already left the queue; cancelling
    // its own id must return false and must not poison a later event that
    // could reuse queue position.
    Simulator sim;
    TimerId self;
    int after = 0;
    self = sim.schedule_at(SimTime{5}, [&]() { EXPECT_FALSE(sim.cancel(self)); });
    sim.schedule_at(SimTime{6}, [&]() { ++after; });
    sim.run();
    EXPECT_EQ(after, 1);
}

TEST(Simulator, ScheduleAtNowDuringWindowRunsInSameWindow) {
    // An event that schedules a follow-up at the *current* instant must see
    // it fire inside the same window: now < horizon still holds.
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(SimTime{10}, [&]() {
        order.push_back(1);
        sim.schedule_at(sim.now(), [&]() { order.push_back(2); });
    });
    std::size_t ran = sim.run_window(SimTime{11});
    EXPECT_EQ(ran, 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RunWindowHorizonIsExclusive) {
    // Events exactly at the horizon belong to the *next* window — this
    // strictness is what makes the conservative barrier safe.
    Simulator sim;
    int at_horizon = 0;
    int before = 0;
    sim.schedule_at(SimTime{9}, [&]() { ++before; });
    sim.schedule_at(SimTime{10}, [&]() { ++at_horizon; });
    EXPECT_EQ(sim.run_window(SimTime{10}), 1u);
    EXPECT_EQ(before, 1);
    EXPECT_EQ(at_horizon, 0);
    EXPECT_EQ(sim.next_event_time(), SimTime{10});
    // The barrier commits the clock, then the next window picks it up.
    sim.advance_to(SimTime{10});
    EXPECT_EQ(sim.run_window(SimTime{11}), 1u);
    EXPECT_EQ(at_horizon, 1);
}

TEST(Simulator, AdvanceToNeverMovesBackwards) {
    Simulator sim;
    sim.advance_to(SimTime{100});
    EXPECT_EQ(sim.now(), SimTime{100});
    sim.advance_to(SimTime{50});
    EXPECT_EQ(sim.now(), SimTime{100});
}

TEST(Simulator, NextEventTimeSkipsTombstones) {
    Simulator sim;
    TimerId first = sim.schedule_at(SimTime{10}, []() {});
    sim.schedule_at(SimTime{20}, []() {});
    sim.cancel(first);
    EXPECT_EQ(sim.next_event_time(), SimTime{20});
    EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, NextEventTimeEmptyIsMax) {
    Simulator sim;
    EXPECT_EQ(sim.next_event_time(), SimTime::max());
}

TEST(Simulator, RearmCompetesFairlyWithSameInstantOneShots) {
    // A repeating timer that re-arms to t+period gets a *fresh* sequence
    // number at rearm time, so one-shots scheduled earlier for the same
    // instant fire first (FIFO by scheduling order, not by timer age).
    Simulator sim;
    std::vector<std::string> order;
    sim.schedule_every(Duration{10}, [&]() { order.push_back("every"); });
    sim.schedule_at(SimTime{20}, [&]() { order.push_back("shot"); });
    sim.run_until(SimTime{20});
    // t=10: every. t=20: the one-shot was scheduled before the rearm
    // (which happened while firing at t=10), so it wins the tie.
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "every");
    EXPECT_EQ(order[1], "shot");
    EXPECT_EQ(order[2], "every");
}

TEST(Simulator, RearmRunsAfterOneShotScheduledFromItsOwnCallback) {
    // The rearm event is pushed *after* the user callback returns, so a
    // one-shot the callback schedules for the same future instant takes an
    // earlier sequence number and wins the tie.
    Simulator sim;
    std::vector<std::string> order;
    sim.schedule_every(Duration{10}, [&]() {
        if (order.empty()) {
            // Runs at t=10, after the rearm for t=20 was pushed.
            sim.schedule_at(SimTime{20}, [&]() { order.push_back("late-shot"); });
        }
        order.push_back("every");
    });
    EXPECT_EQ(order.size(), 0u);
    sim.run_until(SimTime{20});
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[1], "late-shot");
    EXPECT_EQ(order[2], "every");
}

TEST(Simulator, CompactionFiresWhenTombstonesDominate) {
    Simulator sim;
    std::vector<TimerId> ids;
    for (int i = 0; i < 100; ++i) {
        ids.push_back(sim.schedule_at(SimTime{100 + i}, []() {}));
    }
    EXPECT_EQ(sim.compactions(), 0u);
    // Cancel from the back so early cancels stay under the threshold.
    for (int i = 99; i >= 30; --i) sim.cancel(ids[static_cast<std::size_t>(i)]);
    EXPECT_GT(sim.compactions(), 0u);
    EXPECT_EQ(sim.pending(), 30u);
    // Order of survivors is unchanged by compaction.
    std::vector<SimTime> fired_at;
    std::size_t executed = 0;
    while (sim.next_event_time() < SimTime::max() && executed < 30) {
        SimTime t = sim.next_event_time();
        sim.step();
        fired_at.push_back(t);
        ++executed;
    }
    for (std::size_t i = 1; i < fired_at.size(); ++i) {
        EXPECT_LE(fired_at[i - 1], fired_at[i]);
    }
    EXPECT_EQ(fired_at.size(), 30u);
    // Survivors are the first 30 scheduled, at 100..129.
    EXPECT_EQ(fired_at.front(), SimTime{100});
    EXPECT_EQ(fired_at.back(), SimTime{129});
}

TEST(Simulator, CompactionPreservesFifoWithinSameInstant) {
    Simulator sim;
    std::vector<int> order;
    std::vector<TimerId> doomed;
    sim.schedule_at(SimTime{10}, [&]() { order.push_back(1); });
    for (int i = 0; i < 8; ++i) {
        doomed.push_back(sim.schedule_at(SimTime{10}, [&, i]() { order.push_back(100 + i); }));
    }
    sim.schedule_at(SimTime{10}, [&]() { order.push_back(2); });
    sim.schedule_at(SimTime{10}, [&]() { order.push_back(3); });
    for (TimerId id : doomed) sim.cancel(id);
    EXPECT_GT(sim.compactions(), 0u);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ------------------------------------------------- slot reuse + teardown ----
// Ids name a (slot, generation) pair and slots are reused, so these pin
// down the ABA corners and the re-entrancy of capture destructors.

std::uint32_t slot_bits(TimerId id) { return static_cast<std::uint32_t>(id.value); }

// Runs `hook` when the last copy of the callback that captured it dies.
struct OnDestroy {
    std::function<void()> hook;
    ~OnDestroy() {
        if (hook) hook();
    }
};
std::shared_ptr<OnDestroy> on_destroy(std::function<void()> hook) {
    auto guard = std::make_shared<OnDestroy>();
    guard->hook = std::move(hook);
    return guard;
}

TEST(Simulator, StaleIdDoesNotCancelSlotsNewOccupant) {
    Simulator sim;
    int fired = 0;
    // Reuse after cancel.
    TimerId cancelled = sim.schedule_at(SimTime{10}, [&]() { fired += 100; });
    EXPECT_TRUE(sim.cancel(cancelled));
    TimerId second = sim.schedule_at(SimTime{20}, [&]() { ++fired; });
    EXPECT_EQ(slot_bits(second), slot_bits(cancelled));
    EXPECT_NE(second, cancelled);
    EXPECT_FALSE(sim.cancel(cancelled));
    EXPECT_EQ(sim.pending(), 1u);
    EXPECT_EQ(sim.next_event_time(), SimTime{20});
    // Reuse after fire.
    EXPECT_TRUE(sim.step());
    TimerId third = sim.schedule_at(SimTime{30}, [&]() { ++fired; });
    EXPECT_EQ(slot_bits(third), slot_bits(second));
    EXPECT_FALSE(sim.cancel(second));
    EXPECT_FALSE(sim.cancel(cancelled));
    EXPECT_EQ(sim.pending(), 1u);
    EXPECT_EQ(sim.next_event_time(), SimTime{30});
    sim.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, SelfCancelledRepeatingTimerDoesNotRearmOverSlotReuse) {
    // The callback cancels its own repeating timer and arms a new one,
    // which lands in the slot just freed. Re-arming after the callback
    // returns must notice the slot moved on and leave the new timer alone.
    Simulator sim;
    TimerId every, fresh;
    int every_fired = 0, fresh_fired = 0;
    every = sim.schedule_every(Duration{10}, [&]() {
        ++every_fired;
        EXPECT_TRUE(sim.cancel(every));
        fresh = sim.schedule_every(Duration{7}, [&]() { ++fresh_fired; });
        EXPECT_EQ(slot_bits(fresh), slot_bits(every));
        EXPECT_EQ(sim.pending(), 1u);
    });
    sim.run_until(SimTime{100});
    EXPECT_EQ(every_fired, 1);
    EXPECT_EQ(fresh_fired, 12);  // t = 17, 24, ..., 94
    EXPECT_FALSE(sim.cancel(every));
    EXPECT_EQ(sim.pending(), 1u);
    EXPECT_EQ(sim.next_event_time(), SimTime{101});
    EXPECT_TRUE(sim.cancel(fresh));
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.next_event_time(), SimTime::max());
}

TEST(Simulator, CaptureDestructorReentersAtCancel) {
    Simulator sim;
    int other_fired = 0, late_fired = 0;
    bool hook_ran = false;
    TimerId other = sim.schedule_at(SimTime{30}, [&]() { ++other_fired; });
    TimerId victim;
    {
        auto guard = on_destroy([&]() {
            hook_ran = true;
            EXPECT_FALSE(sim.cancel(victim));
            EXPECT_TRUE(sim.cancel(other));
            sim.schedule_at(SimTime{40}, [&]() { ++late_fired; });
        });
        victim = sim.schedule_at(SimTime{20}, [guard]() {});
    }
    EXPECT_EQ(sim.pending(), 2u);
    EXPECT_TRUE(sim.cancel(victim));
    EXPECT_TRUE(hook_ran);
    EXPECT_EQ(sim.pending(), 1u);
    EXPECT_EQ(sim.next_event_time(), SimTime{40});
    sim.run();
    EXPECT_EQ(other_fired, 0);
    EXPECT_EQ(late_fired, 1);
    EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CaptureDestructorReentersAtFire) {
    Simulator sim;
    int other_fired = 0, follow_fired = 0;
    bool hook_ran = false;
    TimerId self;
    TimerId other = sim.schedule_at(SimTime{20}, [&]() { ++other_fired; });
    {
        auto guard = on_destroy([&]() {
            hook_ran = true;
            EXPECT_FALSE(sim.cancel(self));
            EXPECT_TRUE(sim.cancel(other));
            sim.schedule_after(Duration{5}, [&]() { ++follow_fired; });
        });
        self = sim.schedule_at(SimTime{10}, [guard]() {});
    }
    EXPECT_TRUE(sim.step());  // the capture dies once the one-shot has run
    EXPECT_TRUE(hook_ran);
    EXPECT_EQ(sim.now(), SimTime{10});
    EXPECT_EQ(sim.pending(), 1u);
    EXPECT_EQ(sim.next_event_time(), SimTime{15});
    sim.run();
    EXPECT_EQ(other_fired, 0);
    EXPECT_EQ(follow_fired, 1);

    // A repeating timer that cancels itself drops its capture after the
    // callback returns; the hook's new timer must not be clobbered.
    TimerId every;
    hook_ran = false;
    {
        auto guard = on_destroy([&]() {
            hook_ran = true;
            EXPECT_FALSE(sim.cancel(every));
            sim.schedule_after(Duration{3}, [&]() { ++follow_fired; });
        });
        every = sim.schedule_every(Duration{10}, [&, guard]() { sim.cancel(every); });
    }
    EXPECT_TRUE(sim.step());
    EXPECT_TRUE(hook_ran);
    EXPECT_EQ(sim.pending(), 1u);
    EXPECT_EQ(sim.next_event_time(), sim.now() + Duration{3});
    sim.run();
    EXPECT_EQ(follow_fired, 2);
    EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CaptureDestructorReentersInSimulatorDestructor) {
    int destroyed = 0;
    std::vector<TimerId> ids;
    {
        Simulator sim;
        for (int i = 0; i < 3; ++i) {
            auto guard = on_destroy([&sim, &ids, &destroyed, i]() {
                ++destroyed;
                for (TimerId id : ids) EXPECT_FALSE(sim.cancel(id));
                if (i == 0) {
                    sim.schedule_after(Duration{1},
                                       [g = on_destroy([&]() { ++destroyed; })]() {});
                }
            });
            ids.push_back(i == 2 ? sim.schedule_every(Duration{5}, [guard]() {})
                                 : sim.schedule_at(SimTime{10 + i}, [guard]() {}));
        }
        // A stale heap entry is left behind too.
        EXPECT_TRUE(sim.cancel(sim.schedule_at(SimTime{50}, []() {})));
        EXPECT_EQ(sim.pending(), 3u);
    }
    EXPECT_EQ(destroyed, 4);
}

// ------------------------------------------------ differential reference ----
// Drives the Simulator and a plain reference model through the same random
// operations: the model is an ordered map keyed by (when, seq) plus the set
// of live timers, with seq assigned at the same points the simulator
// assigns it (schedule, and a repeating timer's rearm after its callback).
// Each fired callback checks it is the model's next event, then may cancel
// or schedule from inside; after every operation pending(),
// next_event_time() and compactions() are compared.

class SimDiff {
public:
    explicit SimDiff(std::uint64_t seed) : rng_(seed) {}

    void run(int ops) {
        for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
            switch (pick(20)) {
                case 0: case 1: case 2: case 3: case 4: schedule(0); break;
                case 5: case 6: case 7: schedule(1); break;
                case 8: schedule(2); break;
                case 9: case 10: case 11: case 12: case 13: cancel_one(); break;
                case 14: case 15: case 16: step(); break;
                default: run_until(); break;
            }
            check();
        }
    }

    std::uint64_t compactions() const { return sim_.compactions(); }
    std::size_t fired() const { return fired_; }

private:
    using Key = std::pair<std::int64_t, std::uint64_t>;  // (when ns, seq)
    struct Timer {
        TimerId id;
        bool repeating = false;
        Duration period{0};
    };

    std::size_t pick(std::size_t n) { return static_cast<std::size_t>(rng_() % n); }

    void schedule(int kind) {
        if (kind == 2 && live_repeating_ >= 16) kind = 0;
        std::size_t k = timers_.size();
        timers_.emplace_back();
        auto cb = [this, k]() { on_fire(k); };
        Timer t;
        SimTime when;
        if (kind == 0) {
            // May lie in the past: the simulator clamps it to now.
            SimTime at = now_ + Duration{static_cast<std::int64_t>(pick(60)) - 10};
            t.id = sim_.schedule_at(at, cb);
            when = std::max(at, now_);
        } else if (kind == 1) {
            Duration d{static_cast<std::int64_t>(pick(50))};
            t.id = sim_.schedule_after(d, cb);
            when = now_ + d;
        } else {
            t.repeating = true;
            t.period = Duration{1 + static_cast<std::int64_t>(pick(40))};
            t.id = sim_.schedule_every(t.period, cb);
            when = now_ + t.period;
            ++live_repeating_;
        }
        timers_[k] = t;
        Key key{when.ns, ++seq_};
        queue_[key] = k;
        live_[k] = key;
    }

    bool model_cancel(std::size_t k) {
        auto it = live_.find(k);
        if (it == live_.end()) return false;
        if (it->second) queue_.erase(*it->second);
        if (timers_[k].repeating) --live_repeating_;
        live_.erase(it);
        return true;
    }

    void cancel_one() {
        if (timers_.empty()) {
            EXPECT_FALSE(sim_.cancel(TimerId{}));
            return;
        }
        // Half from the whole history (mostly stale ids, whose slots have
        // been reused), half from the most recent timers (mostly live).
        std::size_t n = timers_.size();
        std::size_t k = pick(2) ? pick(n) : n - 1 - pick(std::min<std::size_t>(n, 32));
        bool want = model_cancel(k);
        EXPECT_EQ(sim_.cancel(timers_[k].id), want) << "timer " << k;
    }

    void step() {
        bool want = !queue_.empty();
        EXPECT_EQ(sim_.step(), want);
    }

    void run_until() {
        SimTime deadline = now_ + Duration{static_cast<std::int64_t>(pick(40))};
        sim_.run_until(deadline);
        if (!queue_.empty()) {
            EXPECT_GT(queue_.begin()->first.first, deadline.ns) << "event left behind";
        }
        now_ = std::max(now_, deadline);
        EXPECT_EQ(sim_.now(), now_);
    }

    void on_fire(std::size_t k) {
        ASSERT_FALSE(queue_.empty()) << "fired " << k << " with nothing pending";
        auto front = queue_.begin();
        ASSERT_EQ(front->second, k) << "fire order diverged at event " << fired_;
        ASSERT_EQ(sim_.now().ns, front->first.first);
        now_ = sim_.now();
        queue_.erase(front);
        ++fired_;
        Timer t = timers_[k];
        if (t.repeating) {
            live_[k] = std::nullopt;  // firing: cancellable, not queued
        } else {
            live_.erase(k);
        }
        switch (pick(8)) {
            case 0: cancel_one(); break;
            case 1: EXPECT_EQ(sim_.cancel(t.id), model_cancel(k)) << "self " << k; break;
            case 2: schedule(0); break;
            case 3: schedule(1); break;
            default: break;
        }
        EXPECT_EQ(sim_.pending(), queue_.size());
        if (auto it = live_.find(k); t.repeating && it != live_.end()) {
            Key key{(now_ + t.period).ns, ++seq_};
            queue_[key] = k;
            it->second = key;
        }
    }

    void check() {
        EXPECT_EQ(sim_.pending(), queue_.size());
        SimTime want = queue_.empty() ? SimTime::max() : SimTime{queue_.begin()->first.first};
        EXPECT_EQ(sim_.next_event_time(), want);
        EXPECT_GE(sim_.compactions(), last_compactions_);
        last_compactions_ = sim_.compactions();
    }

    Simulator sim_;
    std::mt19937_64 rng_;
    std::vector<Timer> timers_;  // every timer ever scheduled, by key
    std::map<Key, std::size_t> queue_;
    std::map<std::size_t, std::optional<Key>> live_;  // nullopt while firing
    std::size_t live_repeating_ = 0;
    std::uint64_t seq_ = 0;
    SimTime now_ = SimTime::zero();
    std::uint64_t last_compactions_ = 0;
    std::size_t fired_ = 0;
};

TEST(Simulator, MatchesReferenceModelOnRandomOperations) {
    std::uint64_t compactions = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        SimDiff diff(seed);
        diff.run(10'000);
        ASSERT_FALSE(::testing::Test::HasFailure());
        EXPECT_GT(diff.fired(), 1'000u);
        compactions += diff.compactions();
    }
    EXPECT_GT(compactions, 0u);  // the rebuild path ran
}

TEST(Simulator, ScopedTraceClockBindingRestoresOuter) {
    // Nested simulators on the same buffer: destroying the inner one must
    // restore the outer clock, and destroying them out of order must not
    // drop a live registration.
    auto& tb = obs::TraceBuffer::global();
    auto outer = std::make_unique<Simulator>();
    outer->advance_to(SimTime{111});
    EXPECT_EQ(tb.now(), SimTime{111});
    {
        Simulator inner;
        inner.advance_to(SimTime{222});
        EXPECT_EQ(tb.now(), SimTime{222});
    }
    // Inner gone: the outer simulator is the live clock again.
    EXPECT_EQ(tb.now(), SimTime{111});
    outer.reset();
    EXPECT_EQ(tb.now(), SimTime::zero());
}

TEST(Simulator, TraceClockBindsToRedirectedBuffer) {
    // A simulator constructed under a Redirect binds the *shard* buffer;
    // the root buffer's clock stack is untouched.
    auto& root = obs::TraceBuffer::global();
    obs::TraceBuffer shard_buf(64);
    auto sim = std::make_unique<Simulator>();
    sim->advance_to(SimTime{5});
    {
        obs::TraceBuffer::Redirect r(shard_buf);
        Simulator inner;
        inner.advance_to(SimTime{77});
        EXPECT_EQ(shard_buf.now(), SimTime{77});
        EXPECT_EQ(root.now(), SimTime{5});  // via the redirect-free handle
    }
    EXPECT_EQ(shard_buf.now(), SimTime::zero());
    EXPECT_EQ(root.now(), SimTime{5});
}

}  // namespace
}  // namespace pmp::sim
