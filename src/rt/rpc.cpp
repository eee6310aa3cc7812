#include "rt/rpc.h"

#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pmp::rt {

namespace {
constexpr const char* kCallKind = "rpc.call";
constexpr const char* kReplyKind = "rpc.reply";
// Control-plane variants bypass wire filters (see exempt_from_filters).
constexpr const char* kCtlCallKind = "rpc.call.ctl";
constexpr const char* kCtlReplyKind = "rpc.reply.ctl";

// Pinned registry slots, resolved once per process.
struct RpcMetrics {
    obs::Counter& calls_sent = obs::Registry::global().counter("rpc.calls_sent");
    obs::Counter& calls_received = obs::Registry::global().counter("rpc.calls_received");
    obs::Counter& replies_received = obs::Registry::global().counter("rpc.replies_received");
    obs::Counter& errors_returned = obs::Registry::global().counter("rpc.errors_returned");
    obs::Counter& timeouts = obs::Registry::global().counter("rpc.timeouts");
    obs::Counter& unreachable = obs::Registry::global().counter("rpc.unreachable");
    obs::Counter& garbled = obs::Registry::global().counter("rpc.garbled");
    obs::Counter& retries = obs::Registry::global().counter("rpc.retries");
    obs::Counter& dup_calls = obs::Registry::global().counter("rpc.dup_calls");
    obs::Counter& shed = obs::Registry::global().counter("rpc.shed");
    obs::Counter& overload_retries = obs::Registry::global().counter("rpc.overload_retries");
    obs::Counter& reply_cache_evictions =
        obs::Registry::global().counter("rpc.reply_cache_evictions");
    obs::Histogram& roundtrip_ms = obs::Registry::global().histogram(
        "rpc.roundtrip_ms", {}, obs::Histogram::latency_ms_bounds());
};

RpcMetrics& metrics() {
    static RpcMetrics m;
    return m;
}
}  // namespace

RpcEndpoint::RpcEndpoint(net::MessageRouter& router, Runtime& runtime)
    : router_(router),
      runtime_(runtime),
      obs_source_(obs::Registry::global().add_source(
          [this, label = router.network().name_of(router.self())](obs::Rows& rows) {
              rows.gauge("rpc.reply_cache_size", label,
                         static_cast<std::int64_t>(reply_cache_.size()));
          })) {
    router_.route(kCallKind, [this](const net::Message& m) { on_call(m, false); });
    router_.route(kReplyKind, [this](const net::Message& m) { on_reply(m, false); });
    router_.route(kCtlCallKind, [this](const net::Message& m) { on_call(m, true); });
    router_.route(kCtlReplyKind, [this](const net::Message& m) { on_reply(m, true); });
}

RpcEndpoint::~RpcEndpoint() {
    *alive_ = false;
    for (auto& [id, p] : pending_) {
        router_.simulator().cancel(p.timeout_timer);
        obs::TraceBuffer::global().end_span(p.span, {{"outcome", "abandoned"}});
    }
}

void RpcEndpoint::exempt_from_filters(const std::string& prefix) {
    exempt_prefixes_.push_back(prefix);
}

bool RpcEndpoint::is_exempt(const std::string& object) const {
    for (const std::string& prefix : exempt_prefixes_) {
        if (object.size() >= prefix.size() &&
            object.compare(0, prefix.size(), prefix) == 0) {
            return true;
        }
    }
    return false;
}

void RpcEndpoint::add_wire_filter(HookOwner owner, int priority, WireFilter outbound,
                                  WireFilter inbound) {
    FilterSlot slot{owner, priority, std::move(outbound), std::move(inbound)};
    auto it = wire_filters_.begin();
    while (it != wire_filters_.end() && it->priority <= slot.priority) ++it;
    wire_filters_.insert(it, std::move(slot));
}

bool RpcEndpoint::remove_wire_filters(HookOwner owner) {
    auto before = wire_filters_.size();
    std::erase_if(wire_filters_, [owner](const FilterSlot& s) { return s.owner == owner; });
    return wire_filters_.size() != before;
}

Bytes RpcEndpoint::apply_outbound(Bytes payload) const {
    for (const FilterSlot& slot : wire_filters_) {
        payload = slot.outbound(std::move(payload));
    }
    return payload;
}

Bytes RpcEndpoint::apply_inbound(Bytes payload) const {
    for (auto it = wire_filters_.rbegin(); it != wire_filters_.rend(); ++it) {
        payload = it->inbound(std::move(payload));
    }
    return payload;
}

void RpcEndpoint::export_object(const std::string& instance_name) {
    exported_.insert(instance_name);
}

void RpcEndpoint::unexport_object(const std::string& instance_name) {
    exported_.erase(instance_name);
}

bool RpcEndpoint::exported(const std::string& instance_name) const {
    return exported_.contains(instance_name);
}

void RpcEndpoint::call_once(NodeId target, const std::string& object,
                            const std::string& method, List args, Duration timeout,
                            AttemptHandler on_done) {
    std::uint64_t call_id = ++next_call_;
    metrics().calls_sent.inc();
    auto& tracebuf = obs::TraceBuffer::global();
    std::uint64_t span =
        tracebuf.begin_span("rt.rpc", "rpc.call", {{"obj", object}, {"method", method}});
    obs::TraceContext call_ctx = tracebuf.context_of(span);
    Dict request{{"id", Value{static_cast<std::int64_t>(call_id)}},
                 {"obj", Value{object}},
                 {"method", Value{method}},
                 {"args", Value{std::move(args)}}};
    bool control = is_exempt(object);
    Bytes payload = Value{std::move(request)}.encode();
    if (!control) payload = apply_outbound(std::move(payload));
    bool sent;
    {
        // The frame on the air carries the call span as its parent: the
        // remote dispatch (and everything it causes) joins this trace.
        obs::TraceBuffer::ContextScope scope(tracebuf, call_ctx);
        sent = router_.send(target, control ? kCtlCallKind : kCallKind, std::move(payload));
    }

    auto timer = router_.simulator().schedule_after(timeout, [this, call_id]() {
        auto it = pending_.find(call_id);
        if (it == pending_.end()) return;
        auto handler = std::move(it->second.handler);
        obs::TraceContext ctx = it->second.ctx;
        metrics().timeouts.inc();
        obs::TraceBuffer::global().end_span(
            it->second.span, {{"outcome", "timeout"}, {"cause", "transport"}});
        pending_.erase(it);
        obs::TraceBuffer::ContextScope scope(obs::TraceBuffer::global(), ctx);
        handler(Value{}, std::make_exception_ptr(RemoteError("rpc call timed out")),
                /*transport=*/true);
    });
    pending_.emplace(call_id, Pending{std::move(on_done), timer, router_.simulator().now(),
                                      span, call_ctx});

    if (!sent) {
        // Out of radio range at send time: fail fast instead of waiting out
        // the timeout.
        router_.simulator().schedule_after(Duration{0}, [this, call_id,
                                                         alive = alive_]() {
            if (!*alive) return;
            auto it = pending_.find(call_id);
            if (it == pending_.end()) return;
            auto pending = std::move(it->second);
            pending_.erase(it);
            router_.simulator().cancel(pending.timeout_timer);
            metrics().unreachable.inc();
            obs::TraceBuffer::global().end_span(
                pending.span, {{"outcome", "unreachable"}, {"cause", "transport"}});
            obs::TraceBuffer::ContextScope scope(obs::TraceBuffer::global(), pending.ctx);
            pending.handler(Value{},
                            std::make_exception_ptr(RemoteError("rpc target unreachable")),
                            /*transport=*/true);
        });
    }
}

void RpcEndpoint::call_async(NodeId target, const std::string& object,
                             const std::string& method, List args, ReplyHandler on_reply,
                             Duration timeout) {
    call_async(target, object, method, std::move(args), CallOptions{.timeout = timeout},
               std::move(on_reply));
}

void RpcEndpoint::call_async(NodeId target, const std::string& object,
                             const std::string& method, List args, CallOptions options,
                             ReplyHandler on_reply) {
    call_async(target, object, method, std::move(args), options,
               RichReplyHandler([on_reply = std::move(on_reply)](
                                    Value result, std::exception_ptr error, bool) {
                   on_reply(std::move(result), error);
               }));
}

void RpcEndpoint::call_async(NodeId target, const std::string& object,
                             const std::string& method, List args, CallOptions options,
                             RichReplyHandler on_reply) {
    // Retry driver: each transport failure re-issues the call (fresh call
    // id, same payload) after an exponentially growing delay, until the
    // budget is spent. Remote answers — results *and* error replies — end
    // the call immediately, with one exception: an Overloaded reply is the
    // callee asking to be called back later, so it is retried too, no
    // earlier than its retry-after hint.
    struct Attempt {
        RpcEndpoint* self;
        std::shared_ptr<bool> alive;  ///< self is dangling once this clears
        NodeId target;
        std::string object;
        std::string method;
        List args;
        CallOptions options;
        RichReplyHandler on_reply;
        int tries_left;
        Duration next_backoff;
        /// Where this call chain sits causally. Captured once at
        /// call_async and restored around every attempt, so a retry fired
        /// from a backoff timer attaches to the *same* trace as attempt
        /// one instead of rooting a fresh one.
        obs::TraceContext ctx;

        void fire(const std::shared_ptr<Attempt>& state) {
            obs::TraceBuffer::ContextScope scope(obs::TraceBuffer::global(), ctx);
            self->call_once(
                target, object, method, args, options.timeout,
                [state](Value result, std::exception_ptr error, bool transport) {
                    if (error && state->tries_left > 0) {
                        bool retryable = transport;
                        Duration delay = state->next_backoff;
                        if (!retryable) {
                            try {
                                std::rethrow_exception(error);
                            } catch (const Overloaded& o) {
                                retryable = true;
                                metrics().overload_retries.inc();
                                if (o.retry_after() > delay) delay = o.retry_after();
                            } catch (...) {
                            }
                        }
                        if (retryable) {
                            --state->tries_left;
                            metrics().retries.inc();
                            state->next_backoff *= 2;
                            state->self->router_.simulator().schedule_after(
                                delay, [state]() {
                                    if (!*state->alive) return;
                                    state->fire(state);
                                });
                            return;
                        }
                    }
                    state->on_reply(std::move(result), error, transport);
                });
        }
    };
    obs::TraceContext ctx = obs::TraceBuffer::global().current();
    if (!ctx.valid()) ctx = obs::TraceBuffer::global().new_root();
    auto state = std::make_shared<Attempt>(
        Attempt{this, alive_, target, object, method, std::move(args), options,
                std::move(on_reply), options.retries, options.retry_backoff, ctx});
    state->fire(state);
}

Value RpcEndpoint::call_sync(NodeId target, const std::string& object,
                             const std::string& method, List args, Duration timeout) {
    bool done = false;
    Value out;
    std::exception_ptr error;
    call_async(
        target, object, method, std::move(args),
        [&](Value result, std::exception_ptr err) {
            done = true;
            out = std::move(result);
            error = err;
        },
        timeout);
    while (!done && router_.simulator().step()) {
    }
    if (!done) throw RemoteError("rpc call never completed (simulation drained)");
    if (error) std::rethrow_exception(error);
    return out;
}

Bytes RpcEndpoint::encode_error(std::uint64_t call_id, const std::string& etype,
                                const std::string& message, Duration retry_after) {
    Dict reply{{"id", Value{static_cast<std::int64_t>(call_id)}},
               {"ok", Value{false}},
               {"etype", Value{etype}},
               {"emsg", Value{message}}};
    if (retry_after.count() > 0) {
        // Milliseconds on the wire; sub-ms hints round up so "soon" never
        // degenerates to "immediately".
        auto ms = (retry_after.count() + 999'999) / 1'000'000;
        reply.set("retry_ms", Value{static_cast<std::int64_t>(ms)});
    }
    return Value{std::move(reply)}.encode();
}

net::AdmitClass RpcEndpoint::classify(const std::string& object,
                                      const std::string& method) const {
    // The exempt-prefix list *is* the node's control plane (adaptation
    // service, registrar, discovery listeners, tuple space) — with one
    // exception: extension installs ride the control channel but carry
    // whole signed packages and a compile+weave, so they rank below the
    // keep-alives that hold existing leases up.
    if (object == "adaptation" && method == "install") return net::AdmitClass::kInstall;
    // Catch-up streams ship whole policy images: recovery work, same rank
    // as installs — a restart storm must not crowd out the keep-alives
    // holding healthy nodes' leases up.
    if (object == "midas.catchup") return net::AdmitClass::kInstall;
    if (is_exempt(object)) return net::AdmitClass::kControl;
    return net::AdmitClass::kApp;
}

void RpcEndpoint::on_call(const net::Message& msg, bool control) {
    Value request;
    try {
        Bytes plain = control ? msg.payload : apply_inbound(msg.payload);
        request = Value::decode(std::span<const std::uint8_t>(plain));
    } catch (const Error& e) {
        // Unintelligible request — e.g. the peer encrypts and we do not
        // (only one end adapted). Drop it; the caller times out.
        metrics().garbled.inc();
        log_warn(router_.simulator().now(), "rt.rpc", "dropped garbled call: ", e.what());
        return;
    }
    metrics().calls_received.inc();
    const Dict& req = request.as_dict();
    auto call_id = static_cast<std::uint64_t>(req.at("id").as_int());
    const std::string& object_name = req.at("obj").as_str();
    const std::string& method = req.at("method").as_str();

    // At-most-once: a duplicated radio frame (or a retry racing its own
    // late reply) must not re-execute the method. Re-send the cached wire
    // reply verbatim instead — it costs no dispatch, so it skips admission
    // too (shedding a dup would punish the caller twice).
    ReplyCacheKey cache_key{msg.from.value, call_id};
    if (auto cached = reply_cache_.find(cache_key); cached != reply_cache_.end()) {
        metrics().dup_calls.inc();
        router_.send(msg.from, control ? kCtlReplyKind : kReplyKind, cached->second);
        return;
    }
    if (inflight_.contains(cache_key)) {
        // Duplicate of a call still parked in the admission queue: drop it;
        // the original's reply is coming (or the caller's retry finds the
        // cache).
        metrics().dup_calls.inc();
        return;
    }

    // Admission: classify and offer the dispatch work to the node's gate.
    // Excess load is shed with a typed Overloaded error carrying the
    // queue's own estimate of when to come back.
    net::AdmitClass cls = classify(object_name, method);
    List args = req.at("args").as_list();
    // The ambient context (the caller's rpc.call span, installed by the
    // network delivery) must survive the admission queue: a dispatch
    // admitted now but run later still belongs to the caller's trace.
    obs::TraceContext ctx = obs::TraceBuffer::global().current();
    auto decision = router_.admission().offer(
        cls, [this, alive = alive_, ctx, from = msg.from, control, call_id, object_name,
              method, args = std::move(args)]() mutable {
            if (!*alive) return;
            obs::TraceBuffer::ContextScope scope(obs::TraceBuffer::global(), ctx);
            inflight_.erase(ReplyCacheKey{from.value, call_id});
            execute_call(from, control, call_id, object_name, method, std::move(args));
        });
    if (!decision.admitted) {
        metrics().shed.inc();
        obs::TraceBuffer::global().instant(
            "rt.rpc", "rpc.shed",
            {{"obj", object_name}, {"class", net::to_string(cls)}});
        Bytes reply = encode_error(call_id, "Overloaded",
                                   "call shed at admission (" +
                                       std::string(net::to_string(cls)) + " queue full)",
                                   decision.retry_after);
        if (!control) reply = apply_outbound(std::move(reply));
        // Deliberately not cached: a retry should get a fresh admission
        // decision, not a replay of "go away".
        router_.send(msg.from, control ? kCtlReplyKind : kReplyKind, std::move(reply));
        return;
    }
    if (decision.queued) inflight_.insert(cache_key);
}

void RpcEndpoint::execute_call(NodeId from, bool control, std::uint64_t call_id,
                               const std::string& object_name, const std::string& method,
                               List args) {
    ReplyCacheKey cache_key{from.value, call_id};
    // Callee-side half of the causal pair: rpc.call (caller) -> rpc.serve
    // (callee). Opened under the caller's ambient context, so the serve
    // span — and everything the dispatch does beneath it (verify, weave,
    // advice) — hangs off the caller's rpc.call span in one tree.
    auto& tracebuf = obs::TraceBuffer::global();
    std::uint64_t serve_span = tracebuf.begin_span(
        "rt.rpc", "rpc.serve", {{"obj", object_name}, {"method", method}});
    obs::TraceBuffer::ContextScope serve_scope(tracebuf, tracebuf.context_of(serve_span));
    const char* outcome = "ok";
    Bytes reply;
    if (control && !is_exempt(object_name)) {
        outcome = "AccessDenied";
        reply = encode_error(call_id, "AccessDenied",
                             "object '" + object_name + "' requires the data channel");
    } else if (!exported_.contains(object_name)) {
        outcome = "RemoteError";
        reply = encode_error(call_id, "RemoteError",
                             "object '" + object_name + "' is not exported");
    } else {
        auto object = runtime_.find_object(object_name);
        if (!object) {
            outcome = "RemoteError";
            reply = encode_error(call_id, "RemoteError", "object '" + object_name + "' is gone");
        } else {
            current_caller_ = from;
            struct CallerGuard {
                NodeId& slot;
                ~CallerGuard() { slot = NodeId{}; }
            } guard{current_caller_};
            try {
                Value result = object->call(method, std::move(args));
                Dict ok{{"id", Value{static_cast<std::int64_t>(call_id)}},
                        {"ok", Value{true}},
                        {"result", std::move(result)}};
                reply = Value{std::move(ok)}.encode();
            } catch (const AccessDenied& e) {
                outcome = "AccessDenied";
                reply = encode_error(call_id, "AccessDenied", e.what());
            } catch (const TypeError& e) {
                outcome = "TypeError";
                reply = encode_error(call_id, "TypeError", e.what());
            } catch (const ScriptError& e) {
                outcome = "ScriptError";
                reply = encode_error(call_id, "ScriptError", e.what());
            } catch (const Error& e) {
                outcome = "Error";
                reply = encode_error(call_id, "Error", e.what());
            } catch (const std::exception& e) {
                // Non-Error escapes (std::bad_alloc from a hostile package,
                // a std::logic_error in host code) still become a proper
                // error reply rather than unwinding into the router.
                outcome = "Error";
                reply = encode_error(call_id, "Error", e.what());
            }
        }
    }
    if (!control) reply = apply_outbound(std::move(reply));
    reply_cache_.emplace(cache_key, reply);
    reply_cache_order_.push_back(cache_key);
    if (reply_cache_order_.size() > kReplyCacheCap) {
        reply_cache_.erase(reply_cache_order_.front());
        reply_cache_order_.pop_front();
        metrics().reply_cache_evictions.inc();
    }
    // The reply frame is stamped while the serve span is ambient, so the
    // wire hop back to the caller stays inside the tree.
    router_.send(from, control ? kCtlReplyKind : kReplyKind, std::move(reply));
    tracebuf.end_span(serve_span, {{"outcome", outcome}});
}

void RpcEndpoint::rethrow_remote(const std::string& etype, const std::string& message,
                                 Duration retry_after) {
    if (etype == "AccessDenied") throw AccessDenied(message);
    if (etype == "TypeError") throw TypeError(message);
    if (etype == "ScriptError") throw ScriptError(message);
    if (etype == "RemoteError") throw RemoteError(message);
    if (etype == "Overloaded") throw Overloaded(message, retry_after);
    throw Error(message);
}

void RpcEndpoint::on_reply(const net::Message& msg, bool control) {
    Value reply;
    try {
        Bytes plain = control ? msg.payload : apply_inbound(msg.payload);
        reply = Value::decode(std::span<const std::uint8_t>(plain));
    } catch (const Error& e) {
        metrics().garbled.inc();
        log_warn(router_.simulator().now(), "rt.rpc", "dropped garbled reply: ", e.what());
        return;
    }
    const Dict& rep = reply.as_dict();
    auto call_id = static_cast<std::uint64_t>(rep.at("id").as_int());
    auto it = pending_.find(call_id);
    if (it == pending_.end()) return;  // late reply after timeout: drop
    auto pending = std::move(it->second);
    pending_.erase(it);
    router_.simulator().cancel(pending.timeout_timer);

    bool ok = rep.at("ok").as_bool();
    metrics().replies_received.inc();
    if (!ok) metrics().errors_returned.inc();
    Duration rtt = router_.simulator().now() - pending.sent_at;
    metrics().roundtrip_ms.observe(static_cast<double>(rtt.count()) / 1e6);
    // Outcome attribution (satellite): ok / remote error type, with the
    // callee's retry-after hint when it shed us.
    obs::KeyValues end_kv{{"outcome", ok ? "ok" : "error"}};
    if (!ok) {
        if (const Value* etype = rep.find("etype")) end_kv.emplace_back("cause", etype->as_str());
        if (const Value* ms = rep.find("retry_ms"))
            end_kv.emplace_back("retry_ms", std::to_string(ms->as_int()));
    }
    obs::TraceBuffer::global().end_span(pending.span, std::move(end_kv));

    if (ok) {
        pending.handler(rep.at("result"), nullptr, /*transport=*/false);
    } else {
        Duration retry_after{0};
        if (const Value* ms = rep.find("retry_ms")) retry_after = milliseconds(ms->as_int());
        try {
            rethrow_remote(rep.at("etype").as_str(), rep.at("emsg").as_str(), retry_after);
        } catch (...) {
            pending.handler(Value{}, std::current_exception(), /*transport=*/false);
        }
    }
}

}  // namespace pmp::rt
