// Tests for the metaobject runtime: type building, dispatch with minimal
// hooks, advice chains, field hooks, and the per-node Runtime registry.
#include <gtest/gtest.h>

#include "common/error.h"
#include "rt/runtime.h"

namespace pmp::rt {
namespace {

std::shared_ptr<TypeInfo> make_calc_type() {
    return TypeInfo::Builder("Calc")
        .field("total", TypeKind::kInt, Value{std::int64_t{0}})
        .method("add", TypeKind::kInt, {{"x", TypeKind::kInt}},
                [](ServiceObject& self, List& args) -> Value {
                    std::int64_t total = self.peek("total").as_int() + args[0].as_int();
                    self.poke("total", Value{total});
                    return Value{total};
                })
        .method("fail", TypeKind::kVoid, {},
                [](ServiceObject&, List&) -> Value { throw Error("boom"); })
        .method("echo", TypeKind::kAny, {{"v", TypeKind::kAny}},
                [](ServiceObject&, List& args) -> Value { return args[0]; })
        .method("sum", TypeKind::kInt, {},
                [](ServiceObject&, List& args) -> Value {
                    std::int64_t s = 0;
                    for (const Value& v : args) s += v.as_int();
                    return Value{s};
                },
                /*varargs=*/true)
        .build();
}

class RtTest : public ::testing::Test {
protected:
    RtTest() : runtime_("test-node") {
        runtime_.register_type(make_calc_type());
        obj_ = runtime_.create("Calc", "calc:1");
    }

    Runtime runtime_;
    std::shared_ptr<ServiceObject> obj_;
};

TEST_F(RtTest, BasicInvocation) {
    EXPECT_EQ(obj_->call("add", {Value{5}}).as_int(), 5);
    EXPECT_EQ(obj_->call("add", {Value{3}}).as_int(), 8);
}

TEST_F(RtTest, UnknownMethodThrows) {
    EXPECT_THROW(obj_->call("nope", {}), TypeError);
}

TEST_F(RtTest, ArityChecked) {
    EXPECT_THROW(obj_->call("add", {}), TypeError);
    EXPECT_THROW(obj_->call("add", {Value{1}, Value{2}}), TypeError);
}

TEST_F(RtTest, ArgumentTypesChecked) {
    EXPECT_THROW(obj_->call("add", {Value{"not an int"}}), TypeError);
}

TEST_F(RtTest, VarargsAcceptsExtra) {
    EXPECT_EQ(obj_->call("sum", {Value{1}, Value{2}, Value{3}}).as_int(), 6);
    EXPECT_EQ(obj_->call("sum", {}).as_int(), 0);
}

TEST_F(RtTest, AnyParameterAcceptsEverything) {
    EXPECT_EQ(obj_->call("echo", {Value{"s"}}).as_str(), "s");
    EXPECT_TRUE(obj_->call("echo", {Value{}}).is_null());
}

TEST_F(RtTest, DuplicateMethodRejected) {
    TypeInfo::Builder builder("Dup");
    builder.method("m", TypeKind::kVoid, {}, [](ServiceObject&, List&) { return Value{}; });
    builder.method("m", TypeKind::kVoid, {}, [](ServiceObject&, List&) { return Value{}; });
    EXPECT_THROW(builder.build(), TypeError);
}

TEST_F(RtTest, MethodStartsUnwoven) {
    EXPECT_FALSE(obj_->type().method("add")->woven());
}

TEST_F(RtTest, EntryHookSeesAndRewritesArgs) {
    Method* add = obj_->type().method("add");
    add->add_entry_hook(1, 0, [](CallFrame& f) {
        f.args[0] = Value{f.args[0].as_int() * 10};
    });
    EXPECT_TRUE(add->woven());
    EXPECT_EQ(obj_->call("add", {Value{2}}).as_int(), 20);
}

TEST_F(RtTest, EntryHookCanVeto) {
    Method* add = obj_->type().method("add");
    add->add_entry_hook(1, 0, [](CallFrame&) { throw AccessDenied("no"); });
    EXPECT_THROW(obj_->call("add", {Value{1}}), AccessDenied);
    // Veto means the handler never ran.
    EXPECT_EQ(obj_->peek("total").as_int(), 0);
}

TEST_F(RtTest, ExitHookSeesAndReplacesResult) {
    Method* add = obj_->type().method("add");
    add->add_exit_hook(1, 0, [](CallFrame& f) {
        f.result = Value{f.result.as_int() + 1000};
    });
    EXPECT_EQ(obj_->call("add", {Value{1}}).as_int(), 1001);
}

TEST_F(RtTest, ErrorHookFiresOnThrow) {
    Method* fail = obj_->type().method("fail");
    std::string seen;
    fail->add_error_hook(1, 0, [&](CallFrame&, std::exception_ptr e) {
        try {
            std::rethrow_exception(e);
        } catch (const Error& err) {
            seen = err.what();
        }
    });
    EXPECT_THROW(obj_->call("fail", {}), Error);
    EXPECT_EQ(seen, "boom");
}

TEST_F(RtTest, ErrorHookDoesNotFireOnSuccess) {
    Method* add = obj_->type().method("add");
    bool fired = false;
    add->add_error_hook(1, 0, [&](CallFrame&, std::exception_ptr) { fired = true; });
    obj_->call("add", {Value{1}});
    EXPECT_FALSE(fired);
}

TEST_F(RtTest, HookPriorityOrdersExecution) {
    Method* add = obj_->type().method("add");
    std::vector<int> order;
    add->add_entry_hook(1, 10, [&](CallFrame&) { order.push_back(10); });
    add->add_entry_hook(2, -5, [&](CallFrame&) { order.push_back(-5); });
    add->add_entry_hook(3, 0, [&](CallFrame&) { order.push_back(0); });
    obj_->call("add", {Value{1}});
    EXPECT_EQ(order, (std::vector<int>{-5, 0, 10}));
}

TEST_F(RtTest, AroundHookWrapsAndControlsProceed) {
    Method* add = obj_->type().method("add");
    add->add_around_hook(1, 0, [](CallFrame& f, const std::function<Value()>& proceed) {
        if (f.args[0].as_int() < 0) return Value{-1};  // short-circuit
        Value r = proceed();
        return Value{r.as_int() * 2};
    });
    EXPECT_EQ(obj_->call("add", {Value{5}}).as_int(), 10);   // 5 -> proceed=5 -> *2
    EXPECT_EQ(obj_->call("add", {Value{-3}}).as_int(), -1);  // skipped
    EXPECT_EQ(obj_->peek("total").as_int(), 5);              // second call never ran
}

TEST_F(RtTest, NestedAroundHooksComposeOutsideIn) {
    Method* echo = obj_->type().method("echo");
    std::vector<std::string> order;
    echo->add_around_hook(1, 0, [&](CallFrame&, const std::function<Value()>& proceed) {
        order.push_back("outer-in");
        Value v = proceed();
        order.push_back("outer-out");
        return v;
    });
    echo->add_around_hook(2, 1, [&](CallFrame&, const std::function<Value()>& proceed) {
        order.push_back("inner-in");
        Value v = proceed();
        order.push_back("inner-out");
        return v;
    });
    obj_->call("echo", {Value{1}});
    EXPECT_EQ(order, (std::vector<std::string>{"outer-in", "inner-in", "inner-out",
                                               "outer-out"}));
}

TEST_F(RtTest, AroundWrapsEntryAndExitHooks) {
    Method* echo = obj_->type().method("echo");
    std::vector<std::string> order;
    echo->add_entry_hook(1, 0, [&](CallFrame&) { order.push_back("entry"); });
    echo->add_exit_hook(1, 0, [&](CallFrame&) { order.push_back("exit"); });
    echo->add_around_hook(2, 0, [&](CallFrame&, const std::function<Value()>& proceed) {
        order.push_back("around-in");
        Value v = proceed();
        order.push_back("around-out");
        return v;
    });
    obj_->call("echo", {Value{1}});
    EXPECT_EQ(order, (std::vector<std::string>{"around-in", "entry", "exit", "around-out"}));
}

TEST_F(RtTest, RemoveHooksRestoresBaseline) {
    Method* add = obj_->type().method("add");
    add->add_entry_hook(7, 0, [](CallFrame& f) { f.args[0] = Value{100}; });
    add->add_exit_hook(7, 0, [](CallFrame& f) { f.result = Value{0}; });
    EXPECT_TRUE(add->woven());
    EXPECT_TRUE(add->remove_hooks(7));
    EXPECT_FALSE(add->woven());
    EXPECT_EQ(obj_->call("add", {Value{2}}).as_int(), 2);
    EXPECT_FALSE(add->remove_hooks(7));  // second remove: nothing left
}

TEST_F(RtTest, RemoveOnlyNamedOwner) {
    Method* add = obj_->type().method("add");
    int a = 0, b = 0;
    add->add_entry_hook(1, 0, [&](CallFrame&) { ++a; });
    add->add_entry_hook(2, 0, [&](CallFrame&) { ++b; });
    add->remove_hooks(1);
    obj_->call("add", {Value{1}});
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 1);
    EXPECT_TRUE(add->woven());
}

TEST_F(RtTest, DebuggerStyleDispatchIsSemanticallyIdentical) {
    // The PROSE-v1 ablation path must behave exactly like invoke(), woven
    // or not — it only differs in cost.
    Method* add = obj_->type().method("add");
    EXPECT_EQ(add->invoke_debugger_style(*obj_, {Value{3}}).as_int(), 3);
    add->add_entry_hook(1, 0, [](CallFrame& f) { f.args[0] = Value{10}; });
    EXPECT_EQ(add->invoke_debugger_style(*obj_, {Value{3}}).as_int(), 13);
    EXPECT_THROW(add->invoke_debugger_style(*obj_, {Value{"x"}}), TypeError);
}

TEST_F(RtTest, UnhookedInvokeBypassesHooks) {
    Method* add = obj_->type().method("add");
    add->add_entry_hook(1, 0, [](CallFrame&) { throw AccessDenied("no"); });
    EXPECT_EQ(add->invoke_unhooked(*obj_, {Value{4}}).as_int(), 4);
}

TEST_F(RtTest, FieldReadWriteAndTypeCheck) {
    obj_->set("total", Value{9});
    EXPECT_EQ(obj_->get("total").as_int(), 9);
    EXPECT_THROW(obj_->set("total", Value{"nan"}), TypeError);
    EXPECT_THROW(obj_->get("missing"), TypeError);
}

TEST_F(RtTest, FieldSetHookSeesOldAndAdjustsNew) {
    Field* total = obj_->type().field("total");
    std::int64_t seen_old = -1;
    total->add_set_hook(1, 0,
                        [&](ServiceObject&, const FieldDecl&, const Value& old_v, Value& new_v) {
                            seen_old = old_v.as_int();
                            new_v = Value{new_v.as_int() + 1};  // adjust the write
                        });
    obj_->set("total", Value{10});
    EXPECT_EQ(seen_old, 0);
    EXPECT_EQ(obj_->peek("total").as_int(), 11);
}

TEST_F(RtTest, FieldSetHookCanVeto) {
    Field* total = obj_->type().field("total");
    total->add_set_hook(1, 0,
                        [](ServiceObject&, const FieldDecl&, const Value&, Value& new_v) {
                            if (new_v.as_int() > 100) throw AccessDenied("limit");
                        });
    EXPECT_THROW(obj_->set("total", Value{101}), AccessDenied);
    EXPECT_EQ(obj_->peek("total").as_int(), 0);  // unchanged
    obj_->set("total", Value{50});
    EXPECT_EQ(obj_->peek("total").as_int(), 50);
}

TEST_F(RtTest, FieldGetHookAdjustsView) {
    Field* total = obj_->type().field("total");
    total->add_get_hook(1, 0, [](ServiceObject&, const FieldDecl&, Value& v) {
        v = Value{v.as_int() + 7};
    });
    obj_->poke("total", Value{1});
    EXPECT_EQ(obj_->get("total").as_int(), 8);
    EXPECT_EQ(obj_->peek("total").as_int(), 1);  // raw access unaffected
}

TEST_F(RtTest, PokeBypassesHooks) {
    Field* total = obj_->type().field("total");
    total->add_set_hook(1, 0, [](ServiceObject&, const FieldDecl&, const Value&, Value&) {
        throw AccessDenied("never");
    });
    obj_->poke("total", Value{5});
    EXPECT_EQ(obj_->peek("total").as_int(), 5);
}

TEST_F(RtTest, RuntimeRegistryAndObjects) {
    EXPECT_NE(runtime_.find_type("Calc"), nullptr);
    EXPECT_EQ(runtime_.find_type("Nope"), nullptr);
    EXPECT_THROW(runtime_.register_type(make_calc_type()), TypeError);  // duplicate
    EXPECT_THROW(runtime_.create("Nope", "x"), TypeError);
    EXPECT_THROW(runtime_.create("Calc", "calc:1"), TypeError);  // duplicate name

    auto second = runtime_.create("Calc", "calc:2");
    EXPECT_EQ(runtime_.objects_of("Calc").size(), 2u);
    EXPECT_EQ(runtime_.find_object("calc:2"), second);
    runtime_.destroy("calc:2");
    EXPECT_EQ(runtime_.find_object("calc:2"), nullptr);
}

TEST_F(RtTest, InstancesShareClassLevelHooks) {
    auto other = runtime_.create("Calc", "calc:other");
    obj_->type().method("add")->add_entry_hook(1, 0, [](CallFrame& f) {
        f.args[0] = Value{f.args[0].as_int() + 1};
    });
    EXPECT_EQ(other->call("add", {Value{1}}).as_int(), 2);
}

TEST_F(RtTest, InstancesHaveIndependentFields) {
    auto other = runtime_.create("Calc", "calc:other");
    obj_->set("total", Value{5});
    EXPECT_EQ(other->peek("total").as_int(), 0);
}

TEST_F(RtTest, TypeObserverFiresOnRegistration) {
    std::vector<std::string> seen;
    auto token = runtime_.add_type_observer([&](TypeInfo& t) { seen.push_back(t.name()); });
    runtime_.register_type(TypeInfo::Builder("Late").build());
    EXPECT_EQ(seen, (std::vector<std::string>{"Late"}));
    runtime_.remove_type_observer(token);
    runtime_.register_type(TypeInfo::Builder("Later").build());
    EXPECT_EQ(seen.size(), 1u);
}

TEST_F(RtTest, NativeStateAccess) {
    struct Payload {
        int x = 3;
    };
    obj_->emplace_state<Payload>();
    EXPECT_EQ(obj_->state<Payload>().x, 3);
    auto other = runtime_.create("Calc", "calc:bare");
    EXPECT_THROW(other->state<Payload>(), TypeError);
}

TEST_F(RtTest, InheritanceCopiesMembersDown) {
    auto base = TypeInfo::Builder("Base")
                    .field("shared", TypeKind::kInt, Value{std::int64_t{7}})
                    .method("hello", TypeKind::kStr, {},
                            [](ServiceObject& self, List&) -> Value {
                                return Value{"hello from " + self.name()};
                            })
                    .build();
    runtime_.register_type(base);
    auto derived = TypeInfo::Builder("Derived")
                       .extends(base)
                       .method("extra", TypeKind::kInt, {},
                               [](ServiceObject&, List&) -> Value { return Value{1}; })
                       .build();
    runtime_.register_type(derived);

    auto obj = runtime_.create("Derived", "d1");
    EXPECT_EQ(obj->call("hello", {}).as_str(), "hello from d1");  // inherited
    EXPECT_EQ(obj->call("extra", {}).as_int(), 1);                // own
    EXPECT_EQ(obj->peek("shared").as_int(), 7);                   // inherited field
    EXPECT_TRUE(derived->is_a("Base"));
    EXPECT_TRUE(derived->is_a("Derived"));
    EXPECT_FALSE(base->is_a("Derived"));
    EXPECT_EQ(derived->parent(), base);
}

TEST_F(RtTest, InheritanceOverridesByName) {
    auto base = TypeInfo::Builder("Animal")
                    .method("speak", TypeKind::kStr, {},
                            [](ServiceObject&, List&) -> Value { return Value{"..."}; })
                    .field("legs", TypeKind::kInt, Value{std::int64_t{4}})
                    .build();
    auto bird = TypeInfo::Builder("Bird")
                    .extends(base)
                    .method("speak", TypeKind::kStr, {},
                            [](ServiceObject&, List&) -> Value { return Value{"tweet"}; })
                    .field("legs", TypeKind::kInt, Value{std::int64_t{2}})
                    .build();
    runtime_.register_type(base);
    runtime_.register_type(bird);
    auto obj = runtime_.create("Bird", "b1");
    EXPECT_EQ(obj->call("speak", {}).as_str(), "tweet");
    EXPECT_EQ(obj->peek("legs").as_int(), 2);
    // Exactly one 'speak' method on the subtype.
    int speaks = 0;
    for (Method* m : bird->methods()) {
        if (m->decl().name == "speak") ++speaks;
    }
    EXPECT_EQ(speaks, 1);
}

TEST_F(RtTest, WeavingSubtypeDoesNotLeakToSiblingsOrParent) {
    auto base = TypeInfo::Builder("Shape")
                    .method("area", TypeKind::kInt, {},
                            [](ServiceObject&, List&) -> Value { return Value{0}; })
                    .build();
    auto circle = TypeInfo::Builder("Circle").extends(base).build();
    auto square = TypeInfo::Builder("Square").extends(base).build();
    runtime_.register_type(base);
    runtime_.register_type(circle);
    runtime_.register_type(square);

    // Hook only Circle's copy of area.
    circle->method("area")->add_entry_hook(1, 0, [](CallFrame&) {});
    EXPECT_TRUE(circle->method("area")->woven());
    EXPECT_FALSE(square->method("area")->woven());
    EXPECT_FALSE(base->method("area")->woven());
}

TEST_F(RtTest, SignatureRendering) {
    const MethodDecl& decl = obj_->type().method("add")->decl();
    EXPECT_EQ(decl.signature("Calc"), "int Calc.add(int)");
    const MethodDecl& sum = obj_->type().method("sum")->decl();
    EXPECT_EQ(sum.signature("Calc"), "int Calc.sum(..)");
}

// ----------------------------------------------------- SmallVec (hooks) ----

TEST(SmallVecTest, StaysInlineUpToCapacityThenSpills) {
    SmallVec<int, 2> v;
    EXPECT_TRUE(v.empty());
    v.push_back(1);
    v.push_back(2);
    EXPECT_TRUE(v.inlined());
    EXPECT_EQ(v.size(), 2u);
    v.push_back(3);
    EXPECT_FALSE(v.inlined());
    EXPECT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], 1);
    EXPECT_EQ(v[1], 2);
    EXPECT_EQ(v[2], 3);
}

TEST(SmallVecTest, InsertAtArbitraryPositions) {
    SmallVec<int, 2> v;
    v.insert(v.end(), 30);
    v.insert(v.begin(), 10);           // front, still inline
    v.insert(v.begin() + 1, 20);       // middle, forces spill
    v.insert(v.end(), 40);             // append after spill
    std::vector<int> got(v.begin(), v.end());
    EXPECT_EQ(got, (std::vector<int>{10, 20, 30, 40}));
}

TEST(SmallVecTest, RemoveIfCompactsAndCounts) {
    SmallVec<int, 2> v;
    for (int i = 0; i < 6; ++i) v.push_back(i);
    EXPECT_EQ(v.remove_if([](int x) { return x % 2 == 0; }), 3u);
    std::vector<int> got(v.begin(), v.end());
    EXPECT_EQ(got, (std::vector<int>{1, 3, 5}));
    EXPECT_EQ(v.remove_if([](int) { return false; }), 0u);
}

TEST(SmallVecTest, MoveTransfersInlineAndHeapStates) {
    SmallVec<std::string, 2> inline_v;
    inline_v.push_back("a");
    SmallVec<std::string, 2> moved_inline{std::move(inline_v)};
    ASSERT_EQ(moved_inline.size(), 1u);
    EXPECT_EQ(moved_inline[0], "a");
    EXPECT_TRUE(inline_v.empty());

    SmallVec<std::string, 2> heap_v;
    for (int i = 0; i < 5; ++i) heap_v.push_back(std::to_string(i));
    SmallVec<std::string, 2> moved_heap;
    moved_heap = std::move(heap_v);
    ASSERT_EQ(moved_heap.size(), 5u);
    EXPECT_EQ(moved_heap[4], "4");
    EXPECT_TRUE(heap_v.empty());
    EXPECT_TRUE(heap_v.inlined());
    heap_v.push_back("reuse");  // moved-from container stays usable
    EXPECT_EQ(heap_v[0], "reuse");
}

// Around advice beyond the inline hook capacity must still chain correctly
// (the proceed chain walks the spilled table by index).
TEST_F(RtTest, DeepAroundStackBeyondInlineCapacity) {
    Method* add = obj_->type().method("add");
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        add->add_around_hook(
            static_cast<HookOwner>(100 + i), /*priority=*/i,
            [i, &order](CallFrame&, const std::function<Value()>& proceed) -> Value {
                order.push_back(i);
                Value out = proceed();
                order.push_back(-i);
                return out;
            });
    }
    Value result = add->invoke(*obj_, List{Value{std::int64_t{2}}});
    EXPECT_EQ(result.as_int(), 2);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, -4, -3, -2, -1, 0}));
    for (int i = 0; i < 5; ++i) add->remove_hooks(static_cast<HookOwner>(100 + i));
    EXPECT_FALSE(add->woven());
}

}  // namespace
}  // namespace pmp::rt
