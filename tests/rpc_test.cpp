// Tests for remote invocation: marshaling, error propagation, timeouts,
// caller identity and hook transparency across the wire.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "common/error.h"
#include "net/router.h"
#include "obs/metrics.h"
#include "rt/rpc.h"

namespace pmp::rt {
namespace {

class RpcTest : public ::testing::Test {
protected:
    RpcTest()
        : net_(sim_, net::NetworkConfig{}, 7),
          a_id_(net_.add_node("client", {0, 0}, 50)),
          b_id_(net_.add_node("server", {1, 0}, 50)),
          a_router_(net_, a_id_),
          b_router_(net_, b_id_),
          a_rt_("client"),
          b_rt_("server"),
          a_rpc_(a_router_, a_rt_),
          b_rpc_(b_router_, b_rt_) {
        b_rt_.register_type(
            TypeInfo::Builder("Greeter")
                .method("greet", TypeKind::kStr, {{"who", TypeKind::kStr}},
                        [](ServiceObject&, List& args) -> Value {
                            return Value{"hello " + args[0].as_str()};
                        })
                .method("deny", TypeKind::kVoid, {},
                        [](ServiceObject&, List&) -> Value {
                            throw AccessDenied("not allowed");
                        })
                .method("whoami", TypeKind::kStr, {},
                        [this](ServiceObject&, List&) -> Value {
                            NodeId caller = b_rpc_.current_caller();
                            return Value{net_.name_of(caller)};
                        })
                .build());
        obj_ = b_rt_.create("Greeter", "greeter");
        b_rpc_.export_object("greeter");
    }

    sim::Simulator sim_;
    net::Network net_;
    NodeId a_id_, b_id_;
    net::MessageRouter a_router_, b_router_;
    Runtime a_rt_, b_rt_;
    RpcEndpoint a_rpc_, b_rpc_;
    std::shared_ptr<ServiceObject> obj_;
};

TEST_F(RpcTest, RoundTrip) {
    Value result = a_rpc_.call_sync(b_id_, "greeter", "greet", {Value{"world"}});
    EXPECT_EQ(result.as_str(), "hello world");
}

TEST_F(RpcTest, RemoteAccessDeniedPropagates) {
    EXPECT_THROW(a_rpc_.call_sync(b_id_, "greeter", "deny", {}), AccessDenied);
}

TEST_F(RpcTest, RemoteTypeErrorPropagates) {
    EXPECT_THROW(a_rpc_.call_sync(b_id_, "greeter", "greet", {Value{42}}), TypeError);
    EXPECT_THROW(a_rpc_.call_sync(b_id_, "greeter", "missing_method", {}), TypeError);
}

TEST_F(RpcTest, UnexportedObjectRejected) {
    b_rt_.create("Greeter", "hidden");
    EXPECT_THROW(a_rpc_.call_sync(b_id_, "hidden", "greet", {Value{"x"}}), RemoteError);
}

TEST_F(RpcTest, UnexportStopsAccess) {
    b_rpc_.unexport_object("greeter");
    EXPECT_THROW(a_rpc_.call_sync(b_id_, "greeter", "greet", {Value{"x"}}), RemoteError);
}

TEST_F(RpcTest, CallerIdentityVisible) {
    EXPECT_EQ(a_rpc_.call_sync(b_id_, "greeter", "whoami", {}).as_str(), "client");
}

TEST_F(RpcTest, CallerIdentityClearedAfterDispatch) {
    a_rpc_.call_sync(b_id_, "greeter", "greet", {Value{"x"}});
    EXPECT_FALSE(b_rpc_.current_caller().valid());
}

TEST_F(RpcTest, OutOfRangeFailsFast) {
    net_.move_node(b_id_, {1000, 0});
    bool done = false;
    std::exception_ptr error;
    a_rpc_.call_async(b_id_, "greeter", "greet", {Value{"x"}},
                      [&](Value, std::exception_ptr e) {
                          done = true;
                          error = e;
                      });
    sim_.run();
    ASSERT_TRUE(done);
    ASSERT_TRUE(error);
    EXPECT_THROW(std::rethrow_exception(error), RemoteError);
    // Fail-fast, not timeout: virtual time stayed near zero.
    EXPECT_LT(sim_.now(), SimTime::zero() + milliseconds(100));
}

TEST_F(RpcTest, TimeoutWhenReplyNeverComes) {
    // The server moves away after receiving the call, so the reply is lost.
    b_rt_.register_type(TypeInfo::Builder("Mover")
                            .method("vanish", TypeKind::kVoid, {},
                                    [this](ServiceObject&, List&) -> Value {
                                        net_.move_node(b_id_, {1000, 0});
                                        return Value{};
                                    })
                            .build());
    b_rt_.create("Mover", "mover");
    b_rpc_.export_object("mover");

    bool done = false;
    std::exception_ptr error;
    a_rpc_.call_async(
        b_id_, "mover", "vanish", {},
        [&](Value, std::exception_ptr e) {
            done = true;
            error = e;
        },
        milliseconds(200));
    sim_.run();
    ASSERT_TRUE(done);
    ASSERT_TRUE(error);
    EXPECT_THROW(std::rethrow_exception(error), RemoteError);
}

TEST_F(RpcTest, TransportRetriesOutliveAPartition) {
    // The link is cut for the first 1.2 seconds; a call armed with retries
    // keeps re-issuing (with doubling backoff) until the heal lets one
    // attempt through.
    net::FaultPlan plan;
    plan.partitions.push_back(net::PartitionWindow{
        SimTime::zero(), SimTime::zero() + milliseconds(1200), {a_id_}, {b_id_}});
    net_.set_fault_plan(plan, 3);

    bool done = false;
    Value out;
    std::exception_ptr error;
    CallOptions opts;
    opts.timeout = milliseconds(300);
    opts.retries = 6;
    opts.retry_backoff = milliseconds(100);
    a_rpc_.call_async(b_id_, "greeter", "greet", {Value{"world"}}, opts,
                      [&](Value r, std::exception_ptr e) {
                          done = true;
                          out = std::move(r);
                          error = e;
                      });
    sim_.run();
    ASSERT_TRUE(done);
    ASSERT_FALSE(error);
    EXPECT_EQ(out.as_str(), "hello world");
}

TEST_F(RpcTest, RemoteErrorsAreNeverRetried) {
    obs::Counter& calls_sent = obs::Registry::global().counter("rpc.calls_sent");
    std::uint64_t before = calls_sent.value();
    CallOptions opts;
    opts.retries = 5;
    bool done = false;
    std::exception_ptr error;
    a_rpc_.call_async(b_id_, "greeter", "deny", {}, opts,
                      [&](Value, std::exception_ptr e) {
                          done = true;
                          error = e;
                      });
    sim_.run();
    ASSERT_TRUE(done);
    ASSERT_TRUE(error);
    EXPECT_THROW(std::rethrow_exception(error), AccessDenied);
    // An error reply is the call's answer: exactly one attempt on the air.
    EXPECT_EQ(calls_sent.value() - before, 1u);
}

TEST_F(RpcTest, RetriesGiveUpAfterBudget) {
    net_.move_node(b_id_, {1000, 0});
    bool done = false;
    std::exception_ptr error;
    CallOptions opts;
    opts.retries = 3;
    opts.retry_backoff = milliseconds(10);
    a_rpc_.call_async(b_id_, "greeter", "greet", {Value{"x"}}, opts,
                      [&](Value, std::exception_ptr e) {
                          done = true;
                          error = e;
                      });
    sim_.run();
    ASSERT_TRUE(done);
    ASSERT_TRUE(error);
    EXPECT_THROW(std::rethrow_exception(error), RemoteError);
}

TEST_F(RpcTest, DuplicatedCallExecutesExactlyOnce) {
    // The radio duplicates every frame; the reply cache must absorb the
    // second copy of each call instead of re-dispatching it.
    int executions = 0;
    b_rt_.register_type(TypeInfo::Builder("Ledger")
                            .method("bump", TypeKind::kInt, {},
                                    [&executions](ServiceObject&, List&) -> Value {
                                        return Value{static_cast<std::int64_t>(++executions)};
                                    })
                            .build());
    b_rt_.create("Ledger", "ledger");
    b_rpc_.export_object("ledger");

    net::FaultPlan plan;
    plan.duplicate = 1.0;
    net_.set_fault_plan(plan, 3);

    obs::Counter& dup_calls = obs::Registry::global().counter("rpc.dup_calls");
    std::uint64_t dups_before = dup_calls.value();
    Value r = a_rpc_.call_sync(b_id_, "ledger", "bump", {});
    EXPECT_EQ(r.as_int(), 1);
    EXPECT_EQ(executions, 1);
    EXPECT_EQ(dup_calls.value() - dups_before, 1u);
}

TEST_F(RpcTest, NonErrorExceptionBecomesErrorReply) {
    b_rt_.register_type(TypeInfo::Builder("Buggy")
                            .method("crash", TypeKind::kVoid, {},
                                    [](ServiceObject&, List&) -> Value {
                                        throw std::runtime_error("not an Error subclass");
                                    })
                            .build());
    b_rt_.create("Buggy", "buggy");
    b_rpc_.export_object("buggy");
    // The caller gets a proper remote error instead of the server's
    // simulator loop unwinding.
    EXPECT_THROW(a_rpc_.call_sync(b_id_, "buggy", "crash", {}), Error);
}

TEST_F(RpcTest, HooksFireForRemoteCalls) {
    // Weave an entry hook on the server; a remote call must trigger it —
    // this is what makes MIDAS extensions transparent to remote clients.
    int fired = 0;
    obj_->type().method("greet")->add_entry_hook(1, 0, [&](CallFrame& f) {
        ++fired;
        f.args[0] = Value{"intercepted"};
    });
    Value result = a_rpc_.call_sync(b_id_, "greeter", "greet", {Value{"world"}});
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(result.as_str(), "hello intercepted");
}

namespace {
/// Toy cipher filter pair for the tests.
RpcEndpoint::WireFilter xor_filter(std::uint8_t key) {
    return [key](Bytes data) {
        for (auto& b : data) b ^= key;
        return data;
    };
}
}  // namespace

TEST_F(RpcTest, WireFiltersRoundTripWhenBothEndsMatch) {
    a_rpc_.add_wire_filter(1, 0, xor_filter(0x5A), xor_filter(0x5A));
    b_rpc_.add_wire_filter(1, 0, xor_filter(0x5A), xor_filter(0x5A));
    Value r = a_rpc_.call_sync(b_id_, "greeter", "greet", {Value{"world"}});
    EXPECT_EQ(r.as_str(), "hello world");
}

TEST_F(RpcTest, WireFiltersActuallyTransformTheAir) {
    // Capture what the radio carries: it must not contain the plaintext.
    std::string on_air;
    net_.set_handler(b_id_, [&](const net::Message& m) {
        on_air = to_string(std::span<const std::uint8_t>(m.payload));
    });
    a_rpc_.add_wire_filter(1, 0, xor_filter(0x5A), xor_filter(0x5A));
    a_rpc_.call_async(b_id_, "greeter", "greet", {Value{"world"}},
                      [](Value, std::exception_ptr) {});
    sim_.run();
    EXPECT_EQ(on_air.find("world"), std::string::npos);
    EXPECT_EQ(on_air.find("greet"), std::string::npos);
}

TEST_F(RpcTest, OneSidedFilterBreaksCommunicationGracefully) {
    // Only the client encrypts: the server drops the garbled call and the
    // client times out — no crash, no partial execution.
    a_rpc_.add_wire_filter(1, 0, xor_filter(0x5A), xor_filter(0x5A));
    bool done = false;
    std::exception_ptr error;
    a_rpc_.call_async(
        b_id_, "greeter", "greet", {Value{"x"}},
        [&](Value, std::exception_ptr e) {
            done = true;
            error = e;
        },
        milliseconds(300));
    sim_.run();
    ASSERT_TRUE(done);
    ASSERT_TRUE(error);
    EXPECT_THROW(std::rethrow_exception(error), RemoteError);
}

TEST_F(RpcTest, FilterRemovalRestoresPlainWire) {
    a_rpc_.add_wire_filter(7, 0, xor_filter(0x11), xor_filter(0x11));
    b_rpc_.add_wire_filter(7, 0, xor_filter(0x11), xor_filter(0x11));
    a_rpc_.call_sync(b_id_, "greeter", "greet", {Value{"x"}});
    EXPECT_TRUE(a_rpc_.remove_wire_filters(7));
    EXPECT_TRUE(b_rpc_.remove_wire_filters(7));
    EXPECT_EQ(a_rpc_.wire_filter_count(), 0u);
    Value r = a_rpc_.call_sync(b_id_, "greeter", "greet", {Value{"y"}});
    EXPECT_EQ(r.as_str(), "hello y");
    EXPECT_FALSE(a_rpc_.remove_wire_filters(7));
}

TEST_F(RpcTest, StackedFiltersComposeInPriorityOrder) {
    // Outbound applies low->high priority; inbound undoes high->low. An
    // add-then-xor stack only decodes if the order is honoured.
    auto add_one_out = [](Bytes d) {
        for (auto& b : d) b = static_cast<std::uint8_t>(b + 1);
        return d;
    };
    auto add_one_in = [](Bytes d) {
        for (auto& b : d) b = static_cast<std::uint8_t>(b - 1);
        return d;
    };
    for (auto* rpc : {&a_rpc_, &b_rpc_}) {
        rpc->add_wire_filter(1, 0, add_one_out, add_one_in);
        rpc->add_wire_filter(2, 10, xor_filter(0xA7), xor_filter(0xA7));
    }
    Value r = a_rpc_.call_sync(b_id_, "greeter", "greet", {Value{"stack"}});
    EXPECT_EQ(r.as_str(), "hello stack");
}

TEST_F(RpcTest, ControlKindCannotBypassFiltersToAppObjects) {
    // Both ends filtered; "greeter" is an application object. A peer that
    // marks it exempt locally (i.e. forges the control kind on the wire)
    // must not reach it: the server enforces exemption on its own list.
    a_rpc_.add_wire_filter(1, 0, xor_filter(0x5A), xor_filter(0x5A));
    b_rpc_.add_wire_filter(1, 0, xor_filter(0x5A), xor_filter(0x5A));
    a_rpc_.exempt_from_filters("greeter");  // client-side forgery
    EXPECT_THROW(a_rpc_.call_sync(b_id_, "greeter", "greet", {Value{"x"}}), AccessDenied);
}

TEST_F(RpcTest, ExemptObjectsWorkAcrossFilterMismatch) {
    // Only the server filters its application traffic; an exempt control
    // object stays reachable regardless.
    b_rpc_.add_wire_filter(1, 0, xor_filter(0x5A), xor_filter(0x5A));
    b_rpc_.exempt_from_filters("greeter");
    a_rpc_.exempt_from_filters("greeter");
    Value r = a_rpc_.call_sync(b_id_, "greeter", "greet", {Value{"ctl"}});
    EXPECT_EQ(r.as_str(), "hello ctl");
}

TEST_F(RpcTest, ExemptionMatchesByPrefix) {
    a_rpc_.exempt_from_filters("disco.listener:");
    EXPECT_TRUE(a_rpc_.is_exempt("disco.listener:42"));
    EXPECT_FALSE(a_rpc_.is_exempt("disco"));
    EXPECT_FALSE(a_rpc_.is_exempt("other"));
}

TEST_F(RpcTest, RetriedCallResendsIdenticalArgs) {
    // Replies from the server are cut until 800 ms, so the first two
    // attempts execute on the callee but time out on the caller; the third
    // gets its reply through. Every execution must see the same args: the
    // retry re-sends the bytes encoded once at call_async.
    std::vector<List> seen;
    b_rt_.register_type(TypeInfo::Builder("Recorder")
                            .method("note", TypeKind::kInt,
                                    {{"a", TypeKind::kAny}, {"b", TypeKind::kAny},
                                     {"c", TypeKind::kAny}},
                                    [&seen](ServiceObject&, List& args) -> Value {
                                        seen.push_back(args);
                                        return Value{static_cast<std::int64_t>(seen.size())};
                                    })
                            .build());
    b_rt_.create("Recorder", "recorder");
    b_rpc_.export_object("recorder");

    net::FaultPlan plan;
    net::PartitionWindow cut{SimTime::zero(), SimTime::zero() + milliseconds(800), {b_id_},
                             {a_id_}};
    cut.one_way = true;
    plan.partitions.push_back(cut);
    net_.set_fault_plan(plan, 3);

    const List args{Value{"world"}, Value{List{Value{1}, Value{Bytes{1, 2, 3}}}},
                    Value{Dict{{"k", Value{2.5}}, {"n", Value{}}}}};
    bool done = false;
    Value out;
    std::exception_ptr error;
    CallOptions opts;
    opts.timeout = milliseconds(300);
    opts.retries = 2;
    opts.retry_backoff = milliseconds(100);
    a_rpc_.call_async(b_id_, "recorder", "note", args, opts,
                      [&](Value r, std::exception_ptr e) {
                          done = true;
                          out = std::move(r);
                          error = e;
                      });
    sim_.run();
    ASSERT_TRUE(done);
    ASSERT_FALSE(error);
    EXPECT_EQ(out.as_int(), 3);
    ASSERT_EQ(seen.size(), 3u);
    for (const List& got : seen) EXPECT_EQ(got, args);
}

TEST_F(RpcTest, ConcurrentCallsCorrelate) {
    std::vector<std::string> results(3);
    int done = 0;
    for (int i = 0; i < 3; ++i) {
        a_rpc_.call_async(b_id_, "greeter", "greet", {Value{std::to_string(i)}},
                          [&, i](Value v, std::exception_ptr e) {
                              ASSERT_FALSE(e);
                              results[i] = v.as_str();
                              ++done;
                          });
    }
    sim_.run();
    EXPECT_EQ(done, 3);
    EXPECT_EQ(results[0], "hello 0");
    EXPECT_EQ(results[2], "hello 2");
}

// ------------------------------------------------------------ envelopes ----
// The envelope writers must produce exactly the canonical encoding of the
// Dict each envelope stands for: the wire bytes (and so every virtual-time
// stamp that depends on them) are those of the Dict-built encoding.

Bytes dict_call(std::uint64_t id, const std::string& obj, const std::string& method,
                const List& args) {
    return Value{Dict{{"id", Value{static_cast<std::int64_t>(id)}},
                      {"obj", Value{obj}},
                      {"method", Value{method}},
                      {"args", Value{args}}}}
        .encode();
}

TEST(RpcWire, CallEnvelopeEqualsDictEncoding) {
    const std::vector<List> shapes{
        {},
        {Value{"world"}, Value{42}, Value{true}, Value{}},
        {Value{List{Value{1}, Value{List{Value{2.5}}}}}, Value{Dict{{"k", Value{"v"}}}}},
        {Value{Bytes(300, 0xAB)}, Value{Bytes{}}},
    };
    for (const List& args : shapes) {
        Bytes wire = Value{args}.encode();
        EXPECT_EQ(rpc_wire::call(7, "greeter", "greet", wire),
                  dict_call(7, "greeter", "greet", args));
    }
    EXPECT_EQ(rpc_wire::call(0, "", "", Value{List{}}.encode()), dict_call(0, "", "", {}));
}

TEST(RpcWire, ResultEnvelopeEqualsDictEncoding) {
    const std::vector<Value> results{
        Value{},
        Value{"hello"},
        Value{List{Value{1}, Value{Dict{{"a", Value{Bytes{9, 8}}}}}}},
        Value{Bytes(5000, 0x11)},
    };
    for (const Value& r : results) {
        EXPECT_EQ(rpc_wire::result(12, r),
                  (Value{Dict{{"id", Value{12}}, {"ok", Value{true}}, {"result", r}}}.encode()));
    }
}

TEST(RpcWire, ErrorEnvelopeEqualsDictEncoding) {
    auto dict_error = [](std::int64_t id, const std::string& etype, const std::string& msg,
                         std::optional<std::int64_t> retry_ms) {
        Dict d{{"id", Value{id}},
               {"ok", Value{false}},
               {"etype", Value{etype}},
               {"emsg", Value{msg}}};
        if (retry_ms) d.set("retry_ms", Value{*retry_ms});
        return Value{std::move(d)}.encode();
    };
    EXPECT_EQ(rpc_wire::error(3, "AccessDenied", "not allowed"),
              dict_error(3, "AccessDenied", "not allowed", std::nullopt));
    EXPECT_EQ(rpc_wire::error(4, "RemoteError", ""), dict_error(4, "RemoteError", "", {}));
    // retry_ms rounds a sub-millisecond remainder up.
    EXPECT_EQ(rpc_wire::error(5, "Overloaded", "shed", microseconds(1500)),
              dict_error(5, "Overloaded", "shed", 2));
    EXPECT_EQ(rpc_wire::error(6, "Overloaded", "shed", milliseconds(250)),
              dict_error(6, "Overloaded", "shed", 250));
}

}  // namespace
}  // namespace pmp::rt
