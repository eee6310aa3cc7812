// Tests for the run-time weaver: matching, firing, withdrawal restoring the
// baseline, weaving into late-registered classes, shutdown notification, and
// the per-aspect guard at the advice composition point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

#include "common/error.h"
#include "core/weaver.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace pmp::prose {
namespace {

using rt::CallFrame;
using rt::List;
using rt::ServiceObject;
using rt::TypeKind;
using rt::Value;

std::shared_ptr<rt::TypeInfo> motor_type() {
    return rt::TypeInfo::Builder("Motor")
        .field("position", TypeKind::kReal, Value{0.0})
        .method("rotate", TypeKind::kInt, {{"degrees", TypeKind::kReal}},
                [](ServiceObject& self, List& args) -> Value {
                    self.set("position",
                             Value{self.peek("position").as_real() + args[0].as_real()});
                    return Value{std::int64_t{10}};
                })
        .method("stop", TypeKind::kVoid, {},
                [](ServiceObject&, List&) -> Value { return Value{}; })
        .build();
}

std::shared_ptr<rt::TypeInfo> sensor_type() {
    return rt::TypeInfo::Builder("Sensor")
        .method("read", TypeKind::kInt, {},
                [](ServiceObject&, List&) -> Value { return Value{7}; })
        .build();
}

class WeaverTest : public ::testing::Test {
protected:
    WeaverTest() : runtime_("node"), weaver_(runtime_) {
        runtime_.register_type(motor_type());
        runtime_.register_type(sensor_type());
        motor_ = runtime_.create("Motor", "motor:x");
        sensor_ = runtime_.create("Sensor", "sensor:t");
    }

    rt::Runtime runtime_;
    Weaver weaver_;
    std::shared_ptr<ServiceObject> motor_, sensor_;
};

TEST_F(WeaverTest, BeforeAdviceFiresOnMatchedMethodsOnly) {
    int fired = 0;
    auto aspect = std::make_shared<Aspect>("count-motor");
    aspect->before("call(* Motor.*(..))", [&](CallFrame&) { ++fired; });
    weaver_.weave(aspect);

    motor_->call("rotate", {Value{30.0}});
    motor_->call("stop", {});
    sensor_->call("read", {});
    EXPECT_EQ(fired, 2);
}

TEST_F(WeaverTest, WeaveReportCountsJoinPoints) {
    auto aspect = std::make_shared<Aspect>("a");
    aspect->before("call(* Motor.*(..))", [](CallFrame&) {});
    aspect->on_field_set("fieldset(Motor.position)",
                         [](ServiceObject&, const rt::FieldDecl&, const Value&, Value&) {});
    AspectId id = weaver_.weave(aspect);
    const WeaveReport* report = weaver_.report(id);
    ASSERT_NE(report, nullptr);
    EXPECT_EQ(report->methods_matched, 2u);  // rotate + stop
    EXPECT_EQ(report->fields_matched, 1u);
}

TEST_F(WeaverTest, WithdrawRestoresBaseline) {
    auto aspect = std::make_shared<Aspect>("boost");
    aspect->before("call(* Motor.rotate(..))",
                   [](CallFrame& f) { f.args[0] = Value{f.args[0].as_real() * 2}; });
    AspectId id = weaver_.weave(aspect);
    motor_->call("rotate", {Value{10.0}});
    EXPECT_DOUBLE_EQ(motor_->peek("position").as_real(), 20.0);

    EXPECT_TRUE(weaver_.withdraw(id));
    motor_->call("rotate", {Value{10.0}});
    EXPECT_DOUBLE_EQ(motor_->peek("position").as_real(), 30.0);
    EXPECT_FALSE(motor_->type().method("rotate")->woven());
    EXPECT_FALSE(weaver_.withdraw(id));  // already gone
}

TEST_F(WeaverTest, WeaveWithdrawIsIdempotentOnDispatchState) {
    // Property: weaving then withdrawing N times leaves dispatch unwoven.
    for (int round = 0; round < 5; ++round) {
        auto aspect = std::make_shared<Aspect>("tmp");
        aspect->before("call(* Motor.*(..))", [](CallFrame&) {});
        AspectId id = weaver_.weave(aspect);
        EXPECT_TRUE(motor_->type().method("rotate")->woven());
        weaver_.withdraw(id);
        EXPECT_FALSE(motor_->type().method("rotate")->woven());
        EXPECT_FALSE(motor_->type().method("stop")->woven());
    }
}

TEST_F(WeaverTest, LateRegisteredTypeGetsWoven) {
    int fired = 0;
    auto aspect = std::make_shared<Aspect>("all-rotate");
    aspect->before("call(* *.rotate(..))", [&](CallFrame&) { ++fired; });
    AspectId id = weaver_.weave(aspect);

    // A class that appears after weaving (the JIT "class loaded later" case).
    runtime_.register_type(
        rt::TypeInfo::Builder("Wheel")
            .method("rotate", TypeKind::kVoid, {{"deg", TypeKind::kReal}},
                    [](ServiceObject&, List&) -> Value { return Value{}; })
            .build());
    auto wheel = runtime_.create("Wheel", "wheel:1");
    wheel->call("rotate", {Value{5.0}});
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(weaver_.report(id)->methods_matched, 2u);  // Motor.rotate + Wheel.rotate
}

TEST_F(WeaverTest, FieldAdviceFiresThroughWeaver) {
    std::vector<double> observed;
    auto aspect = std::make_shared<Aspect>("qc");
    aspect->on_field_set("fieldset(Motor.position)",
                         [&](ServiceObject&, const rt::FieldDecl&, const Value&,
                             Value& new_v) { observed.push_back(new_v.as_real()); });
    weaver_.weave(aspect);
    motor_->call("rotate", {Value{15.0}});
    motor_->call("rotate", {Value{5.0}});
    EXPECT_EQ(observed, (std::vector<double>{15.0, 20.0}));
}

TEST_F(WeaverTest, MultipleAspectsCoexistAndWithdrawIndependently) {
    std::vector<std::string> order;
    auto first = std::make_shared<Aspect>("first");
    first->before("call(* Motor.rotate(..))", [&](CallFrame&) { order.push_back("first"); },
                  /*priority=*/0);
    auto second = std::make_shared<Aspect>("second");
    second->before("call(* Motor.rotate(..))", [&](CallFrame&) { order.push_back("second"); },
                   /*priority=*/-1);

    AspectId id1 = weaver_.weave(first);
    weaver_.weave(second);
    motor_->call("rotate", {Value{1.0}});
    EXPECT_EQ(order, (std::vector<std::string>{"second", "first"}));  // priority order

    order.clear();
    weaver_.withdraw(id1);
    motor_->call("rotate", {Value{1.0}});
    EXPECT_EQ(order, (std::vector<std::string>{"second"}));
}

TEST_F(WeaverTest, AroundAdviceThroughWeaver) {
    auto aspect = std::make_shared<Aspect>("limiter");
    aspect->around("call(* Motor.rotate(..))",
                   [](CallFrame& f, const std::function<Value()>& proceed) -> Value {
                       if (f.args[0].as_real() > 90.0) {
                           throw AccessDenied("rotation too large");
                       }
                       return proceed();
                   });
    weaver_.weave(aspect);
    EXPECT_NO_THROW(motor_->call("rotate", {Value{45.0}}));
    EXPECT_THROW(motor_->call("rotate", {Value{120.0}}), AccessDenied);
    EXPECT_DOUBLE_EQ(motor_->peek("position").as_real(), 45.0);
}

TEST_F(WeaverTest, AfterThrowingAdvice) {
    runtime_.register_type(
        rt::TypeInfo::Builder("Flaky")
            .method("boom", TypeKind::kVoid, {},
                    [](ServiceObject&, List&) -> Value { throw Error("kaput"); })
            .build());
    auto flaky = runtime_.create("Flaky", "flaky");

    std::string caught;
    auto aspect = std::make_shared<Aspect>("watcher");
    aspect->after_throwing("call(* Flaky.*(..))",
                           [&](CallFrame&, std::exception_ptr e) {
                               try {
                                   std::rethrow_exception(e);
                               } catch (const Error& err) {
                                   caught = err.what();
                               }
                           });
    weaver_.weave(aspect);
    EXPECT_THROW(flaky->call("boom", {}), Error);
    EXPECT_EQ(caught, "kaput");
}

TEST_F(WeaverTest, WithdrawNotifiesShutdownWithReason) {
    WithdrawReason seen{};
    bool notified = false;
    auto aspect = std::make_shared<Aspect>("with-shutdown");
    aspect->before("call(* Motor.*(..))", [](CallFrame&) {});
    aspect->on_withdraw([&](WithdrawReason reason) {
        notified = true;
        seen = reason;
    });
    AspectId id = weaver_.weave(aspect);
    weaver_.withdraw(id, WithdrawReason::kLeaseExpired);
    EXPECT_TRUE(notified);
    EXPECT_EQ(seen, WithdrawReason::kLeaseExpired);
}

TEST_F(WeaverTest, DestructorWithdrawsEverything) {
    int shutdowns = 0;
    {
        Weaver scoped(runtime_);
        for (int i = 0; i < 3; ++i) {
            auto aspect = std::make_shared<Aspect>("a" + std::to_string(i));
            aspect->before("call(* Motor.*(..))", [](CallFrame&) {});
            aspect->on_withdraw([&](WithdrawReason) { ++shutdowns; });
            scoped.weave(aspect);
        }
        EXPECT_TRUE(motor_->type().method("rotate")->woven());
    }
    EXPECT_EQ(shutdowns, 3);
    EXPECT_FALSE(motor_->type().method("rotate")->woven());
}

TEST_F(WeaverTest, FindAndCount) {
    auto aspect = std::make_shared<Aspect>("named");
    aspect->before("call(* Motor.*(..))", [](CallFrame&) {});
    AspectId id = weaver_.weave(aspect);
    EXPECT_EQ(weaver_.woven_count(), 1u);
    ASSERT_NE(weaver_.find(id), nullptr);
    EXPECT_EQ(weaver_.find(id)->name(), "named");
    EXPECT_EQ(weaver_.find(AspectId{999}), nullptr);
}

TEST_F(WeaverTest, BadPointcutThrowsAtConstruction) {
    auto aspect = std::make_shared<Aspect>("bad");
    EXPECT_THROW(aspect->before("call(", [](CallFrame&) {}), ParseError);
}

TEST_F(WeaverTest, MatchPlanCachesPointcutMatchesAcrossWeaves) {
    auto make = [] {
        auto aspect = std::make_shared<Aspect>("cached");
        aspect->before("call(* Motor.*(..))", [](CallFrame&) {});
        return aspect;
    };
    AspectId first = weaver_.weave(make());
    std::size_t entries_after_first = weaver_.plan().cached_entries();
    EXPECT_GT(entries_after_first, 0u);

    // Same pointcut, new aspect: the plan serves the cached member lists —
    // no new entries, identical report.
    AspectId second = weaver_.weave(make());
    EXPECT_EQ(weaver_.plan().cached_entries(), entries_after_first);
    EXPECT_EQ(weaver_.report(first)->methods_matched,
              weaver_.report(second)->methods_matched);
    weaver_.withdraw(first);
    weaver_.withdraw(second);
}

TEST_F(WeaverTest, HundredAspectsWeaveIdenticallyAndWithdrawCleanly) {
    // Acceptance sweep for the MatchPlan refactor: 100 aspects with the
    // same bindings must produce identical WeaveReports (the plan must not
    // change what matches), and withdrawing all of them must restore
    // pristine dispatch.
    std::vector<AspectId> ids;
    for (int i = 0; i < 100; ++i) {
        auto aspect = std::make_shared<Aspect>("a" + std::to_string(i));
        aspect->before("call(* Motor.*(..))", [](CallFrame&) {});
        aspect->around("call(int Sensor.read())",
                       [](CallFrame&, const std::function<Value()>& proceed) -> Value {
                           return proceed();
                       });
        aspect->on_field_set("fieldset(Motor.position)",
                             [](ServiceObject&, const rt::FieldDecl&, const Value&,
                                Value&) {});
        ids.push_back(weaver_.weave(aspect));
    }
    const WeaveReport* first = weaver_.report(ids.front());
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->methods_matched, 3u);  // Motor.rotate, Motor.stop, Sensor.read
    EXPECT_EQ(first->fields_matched, 1u);
    for (AspectId id : ids) {
        const WeaveReport* r = weaver_.report(id);
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->methods_matched, first->methods_matched);
        EXPECT_EQ(r->fields_matched, first->fields_matched);
    }
    for (AspectId id : ids) EXPECT_TRUE(weaver_.withdraw(id));
    EXPECT_FALSE(motor_->type().method("rotate")->woven());
    EXPECT_FALSE(sensor_->type().method("read")->woven());
    EXPECT_EQ(weaver_.woven_count(), 0u);
}

TEST_F(WeaverTest, ThrowingShutdownDoesNotBlockWithdrawal) {
    obs::TraceBuffer trace;
    obs::TraceBuffer::Redirect redirect(trace);
    auto aspect = std::make_shared<Aspect>("grumpy");
    aspect->before("call(* Motor.rotate(..))", [](CallFrame&) {});
    aspect->on_withdraw([](WithdrawReason) { throw std::runtime_error("will not go"); });
    AspectId id = weaver_.weave(aspect);

    EXPECT_TRUE(weaver_.withdraw(id));
    EXPECT_EQ(weaver_.woven_count(), 0u);
    EXPECT_FALSE(motor_->type().method("rotate")->woven());
    // The withdraw span still ends, and carries the handler's message.
    const auto events = trace.events();
    auto begin = std::find_if(events.begin(), events.end(), [](const obs::TraceEvent& e) {
        return e.kind == obs::EventKind::kSpanBegin && e.name == "withdraw";
    });
    ASSERT_NE(begin, events.end());
    auto end = std::find_if(begin, events.end(), [&](const obs::TraceEvent& e) {
        return e.kind == obs::EventKind::kSpanEnd && e.span == begin->span;
    });
    ASSERT_NE(end, events.end());
    EXPECT_EQ(end->kv, (obs::KeyValues{{"shutdown_error", "will not go"}}));
}

TEST_F(WeaverTest, ThrowingShutdownDoesNotBreakWeaverDestruction) {
    {
        Weaver scoped(runtime_);
        auto aspect = std::make_shared<Aspect>("grumpy");
        aspect->before("call(* Motor.*(..))", [](CallFrame&) {});
        aspect->on_withdraw([](WithdrawReason) { throw std::runtime_error("will not go"); });
        scoped.weave(aspect);
    }
    EXPECT_FALSE(motor_->type().method("rotate")->woven());
}

/// Every non-around advice kind, each bumping `fired_`, on `Flaky.boom`
/// (throws) and `Motor` (method + field read/write).
class GuardTest : public WeaverTest {
protected:
    GuardTest() {
        runtime_.register_type(
            rt::TypeInfo::Builder("Flaky")
                .method("boom", TypeKind::kVoid, {},
                        [](ServiceObject&, List&) -> Value { throw Error("kaput"); })
                .build());
        flaky_ = runtime_.create("Flaky", "flaky");
    }

    std::shared_ptr<Aspect> counting_aspect(bool& admit) {
        auto aspect = std::make_shared<Aspect>("counting");
        aspect->before("call(* Motor.rotate(..))", [this](CallFrame&) { ++fired_; });
        aspect->after("call(* Motor.rotate(..))", [this](CallFrame&) { ++fired_; });
        aspect->after_throwing("call(* Flaky.boom(..))",
                               [this](CallFrame&, std::exception_ptr) { ++fired_; });
        aspect->on_field_set("fieldset(Motor.position)",
                             [this](ServiceObject&, const rt::FieldDecl&, const Value&,
                                    Value&) { ++fired_; });
        aspect->on_field_get("fieldget(Motor.position)",
                             [this](ServiceObject&, const rt::FieldDecl&, Value&) { ++fired_; });
        aspect->set_guard({[&admit] { return admit; }, nullptr});
        return aspect;
    }

    /// One rotate (before + field set + after), one field read, one
    /// failing call (after-throwing): five advice executions.
    void exercise() {
        motor_->call("rotate", {Value{1.0}});
        motor_->get("position");
        EXPECT_THROW(flaky_->call("boom", {}), Error);
    }

    int fired_ = 0;
    std::shared_ptr<ServiceObject> flaky_;
};

TEST_F(GuardTest, AdmitFalseSkipsEveryNonAroundAdviceKind) {
    bool admit = false;
    weaver_.weave(counting_aspect(admit));
    exercise();
    EXPECT_EQ(fired_, 0);
    // The call itself still ran.
    EXPECT_DOUBLE_EQ(motor_->peek("position").as_real(), 1.0);

    admit = true;
    exercise();
    EXPECT_EQ(fired_, 5);
}

TEST_F(GuardTest, GatedAroundStillProceedsWithHandlerResult) {
    bool admit = false;
    int ran = 0;
    auto aspect = std::make_shared<Aspect>("override");
    aspect->around("call(* Motor.rotate(..))",
                   [&](CallFrame&, const std::function<Value()>&) -> Value {
                       ++ran;
                       return Value{std::int64_t{99}};  // swallows the call
                   });
    aspect->set_guard({[&admit] { return admit; }, nullptr});
    weaver_.weave(aspect);

    EXPECT_EQ(motor_->call("rotate", {Value{5.0}}).as_int(), 10);
    EXPECT_EQ(ran, 0);
    EXPECT_DOUBLE_EQ(motor_->peek("position").as_real(), 5.0);

    admit = true;
    EXPECT_EQ(motor_->call("rotate", {Value{5.0}}).as_int(), 99);
    EXPECT_EQ(ran, 1);
    EXPECT_DOUBLE_EQ(motor_->peek("position").as_real(), 5.0);
}

TEST_F(GuardTest, OutcomeSeesSuccessAndFailureWhichPropagatesUnchanged) {
    std::vector<std::string> outcomes;
    auto aspect = std::make_shared<Aspect>("picky");
    aspect->before("call(* Motor.rotate(..))", [](CallFrame& f) {
        if (f.args[0].as_real() > 90.0) throw AccessDenied("rotation too large");
    });
    aspect->set_guard({nullptr, [&](const std::exception* e) {
                           outcomes.push_back(e ? e->what() : "ok");
                       }});
    weaver_.weave(aspect);

    motor_->call("rotate", {Value{45.0}});
    try {
        motor_->call("rotate", {Value{120.0}});
        ADD_FAILURE() << "advice failure did not propagate";
    } catch (const AccessDenied& e) {
        EXPECT_STREQ(e.what(), "rotation too large");
    }
    EXPECT_EQ(outcomes, (std::vector<std::string>{"ok", "rotation too large"}));
    EXPECT_DOUBLE_EQ(motor_->peek("position").as_real(), 45.0);
}

TEST_F(GuardTest, SuspendedGuardedAspectLeavesUnguardedAspectAlone) {
    int guarded = 0, unguarded = 0;
    auto suspended = std::make_shared<Aspect>("suspended");
    suspended->before("call(* Motor.rotate(..))", [&](CallFrame&) { ++guarded; });
    suspended->set_guard({[] { return false; }, nullptr});
    auto plain = std::make_shared<Aspect>("plain");
    plain->before("call(* Motor.rotate(..))", [&](CallFrame&) { ++unguarded; });
    weaver_.weave(suspended);
    weaver_.weave(plain);

    motor_->call("rotate", {Value{1.0}});
    motor_->call("rotate", {Value{1.0}});
    EXPECT_EQ(guarded, 0);
    EXPECT_EQ(unguarded, 2);
}

// ------------------------------------------------- sampled advice timing ----

constexpr std::uint64_t kTimeEvery = AdviceSite::kTimeEvery;

std::uint64_t timed_of(std::uint64_t calls) { return (calls + kTimeEvery - 1) / kTimeEvery; }

TEST_F(WeaverTest, SampledTimingCountsEveryCallAndTimesOneInN) {
    const std::uint64_t calls = 5 * kTimeEvery + 3;  // not a multiple of N
    std::uint64_t outcomes = 0;
    auto sampled = [&] {
        auto aspect = std::make_shared<Aspect>("sampled-count");
        aspect->before("call(* Sensor.read(..))", [](CallFrame&) {});
        aspect->set_guard({nullptr, [&](const std::exception* e) { outcomes += e ? 0 : 1; }});
        return aspect;
    };
    AspectId id = weaver_.weave(sampled());
    const AdviceSite* site = weaver_.site("sampled-count", "call(* Sensor.read(..))");
    ASSERT_NE(site, nullptr);

    for (std::uint64_t i = 0; i < calls; ++i) sensor_->call("read", {});
    EXPECT_EQ(site->calls.value(), calls);
    // Executions 0, N, 2N, ... of the site are timed: the first call is one.
    EXPECT_EQ(site->advice_ns.count(), timed_of(calls));
    EXPECT_EQ(outcomes, calls);

    // A new weave of the same extension lands mid-period on the site's
    // count, and its first execution is timed all the same.
    weaver_.withdraw(id);
    weaver_.weave(sampled());
    EXPECT_EQ(weaver_.site("sampled-count", "call(* Sensor.read(..))"), site);
    sensor_->call("read", {});
    EXPECT_EQ(site->calls.value(), calls + 1);
    EXPECT_EQ(site->advice_ns.count(), timed_of(calls) + 1);
    EXPECT_EQ(outcomes, calls + 1);
}

TEST_F(WeaverTest, SampledTimingIsPerSiteUnderAPeriodicCallMix) {
    // N-1 rotates, then one read, over and over. A thread-wide 1-in-N
    // countdown would land on the same slot of this mix every time and
    // leave the other site with its first-dispatch sample alone.
    auto aspect = std::make_shared<Aspect>("sampled-mix");
    aspect->before("call(* Motor.rotate(..))", [](CallFrame&) {});
    aspect->before("call(* Sensor.read(..))", [](CallFrame&) {});
    weaver_.weave(aspect);
    const AdviceSite* rotate = weaver_.site("sampled-mix", "call(* Motor.rotate(..))");
    const AdviceSite* read = weaver_.site("sampled-mix", "call(* Sensor.read(..))");
    ASSERT_NE(rotate, nullptr);
    ASSERT_NE(read, nullptr);

    const std::uint64_t rounds = 3 * kTimeEvery;
    for (std::uint64_t r = 0; r < rounds; ++r) {
        for (std::uint64_t i = 0; i + 1 < kTimeEvery; ++i) motor_->call("rotate", {Value{1.0}});
        sensor_->call("read", {});
    }
    EXPECT_EQ(rotate->calls.value(), rounds * (kTimeEvery - 1));
    EXPECT_EQ(read->calls.value(), rounds);
    EXPECT_EQ(rotate->advice_ns.count(), timed_of(rounds * (kTimeEvery - 1)));
    EXPECT_EQ(read->advice_ns.count(), timed_of(rounds));
}

TEST(SampledTiming, QuantilesStayWithinOneBucketOfExactTiming) {
    // Two sites in the same period-N mix as above, fed seeded latencies:
    // each "exact" site records every call, each "sampled" site only the
    // calls its own count() selects — the weaver's decision.
    AdviceSite exact_fast, exact_slow, sampled_fast, sampled_slow;
    std::mt19937_64 rng(21);
    std::lognormal_distribution<double> fast(std::log(400.0), 0.6);
    std::lognormal_distribution<double> slow(std::log(6000.0), 0.9);
    auto feed = [](AdviceSite& exact, AdviceSite& sampled, double ns) {
        exact.calls.inc();
        exact.advice_ns.observe(ns);
        if (sampled.count()) sampled.advice_ns.observe(ns);
    };
    for (std::uint64_t r = 0; r < 500 * kTimeEvery; ++r) {
        for (std::uint64_t i = 0; i + 1 < kTimeEvery; ++i) {
            feed(exact_fast, sampled_fast, fast(rng));
        }
        feed(exact_slow, sampled_slow, slow(rng));
    }

    const std::vector<double>& bounds = obs::Histogram::latency_ns_bounds();
    auto bucket = [&](double v) {
        return static_cast<long>(std::lower_bound(bounds.begin(), bounds.end(), v) -
                                 bounds.begin());
    };
    for (auto [exact, sampled] : {std::pair{&exact_fast, &sampled_fast},
                                  std::pair{&exact_slow, &sampled_slow}}) {
        EXPECT_EQ(sampled->calls.value(), exact->calls.value());
        EXPECT_EQ(sampled->advice_ns.count(), timed_of(exact->calls.value()));
        for (double q : {0.50, 0.95}) {
            EXPECT_LE(std::abs(bucket(sampled->advice_ns.quantile(q)) -
                               bucket(exact->advice_ns.quantile(q))),
                      1)
                << "q=" << q << " exact=" << exact->advice_ns.quantile(q)
                << " sampled=" << sampled->advice_ns.quantile(q);
        }
    }
}

// --------------------------------------------- sites past the label cap ----

TEST_F(WeaverTest, SitesPastTheLabelCapStayExactAndFoldOnlyAtExport) {
    // More (extension, pointcut) sites than an export keeps labels, none
    // pinned anywhere. Site i is woven, called i + 1 times and withdrawn, so
    // every site holds a different exact count.
    constexpr std::size_t kSites = obs::Registry::kLabelCap + 6;
    const std::string pointcut = "call(* Sensor.read(..))";
    auto ext = [](std::size_t i) {
        char name[16];
        std::snprintf(name, sizeof(name), "cap-%03zu", i);
        return std::string(name);
    };
    for (std::size_t i = 0; i < kSites; ++i) {
        auto aspect = std::make_shared<Aspect>(ext(i));
        aspect->before(pointcut, [](CallFrame&) {});
        AspectId id = weaver_.weave(aspect);
        for (std::size_t n = 0; n <= i; ++n) sensor_->call("read", {});
        weaver_.withdraw(id);
    }
    std::uint64_t true_calls = 0, true_timed = 0;
    for (std::size_t i = 0; i < kSites; ++i) {
        const AdviceSite* site = weaver_.site(ext(i), pointcut);
        ASSERT_NE(site, nullptr) << ext(i);
        EXPECT_EQ(site->calls.value(), i + 1) << ext(i);
        EXPECT_EQ(site->advice_ns.count(), timed_of(i + 1)) << ext(i);
        true_calls += i + 1;
        true_timed += timed_of(i + 1);
    }

    // A second node weaving the first site adds to the same exported label.
    rt::Runtime other_runtime("other");
    Weaver other(other_runtime);
    other_runtime.register_type(sensor_type());
    auto other_sensor = other_runtime.create("Sensor", "sensor:u");
    auto first = std::make_shared<Aspect>(ext(0));
    first->before(pointcut, [](CallFrame&) {});
    other.weave(first);
    for (int n = 0; n < 5; ++n) other_sensor->call("read", {});
    EXPECT_EQ(other.site(ext(0), pointcut)->calls.value(), 5u);
    true_calls += 5;
    true_timed += timed_of(5);

    // The export keeps the first 64 labels in sorted order, each exact,
    // folds the rest into ~other, and the family sums to the true total.
    obs::Snapshot snap = obs::snapshot_metrics();
    std::vector<std::string> labels;
    std::uint64_t exported_calls = 0, overflow_calls = 0;
    for (const obs::CounterSample& c : snap.counters) {
        if (c.name != "profile.advice_calls") continue;
        exported_calls += c.value;
        if (c.label == obs::Registry::kOverflowLabel) {
            overflow_calls = c.value;
        } else {
            labels.push_back(c.label);
        }
    }
    ASSERT_EQ(labels.size(), obs::Registry::kLabelCap);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        EXPECT_EQ(labels[i], ext(i) + "|" + pointcut);
        EXPECT_EQ(snap.counter("profile.advice_calls", labels[i]), i == 0 ? 1u + 5u : i + 1);
    }
    std::uint64_t folded = 0;
    for (std::size_t i = obs::Registry::kLabelCap; i < kSites; ++i) folded += i + 1;
    EXPECT_EQ(overflow_calls, folded);
    EXPECT_EQ(exported_calls, true_calls);

    std::size_t histogram_labels = 0;
    std::uint64_t exported_timed = 0;
    for (const obs::HistogramSample& h : snap.histograms) {
        if (h.name != "profile.advice_ns") continue;
        ++histogram_labels;
        exported_timed += h.count;
    }
    EXPECT_EQ(histogram_labels, obs::Registry::kLabelCap + 1);
    EXPECT_EQ(exported_timed, true_timed);
}

}  // namespace
}  // namespace pmp::prose
