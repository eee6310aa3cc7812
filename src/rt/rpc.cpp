#include "rt/rpc.h"

#include <algorithm>

#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pmp::rt {

namespace {
const Symbol kCallKind("rpc.call");
const Symbol kReplyKind("rpc.reply");
// Control-plane variants bypass wire filters (see exempt_from_filters).
const Symbol kCtlCallKind("rpc.call.ctl");
const Symbol kCtlReplyKind("rpc.reply.ctl");

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

// ------------------------------------------------------------ envelopes ----

namespace rpc_wire {

Bytes call(std::uint64_t id, std::string_view object, std::string_view method,
           std::span<const std::uint8_t> args) {
    Bytes out;
    out.reserve(codec::kHeaderSize + codec::key_size("args") + args.size() +
                codec::key_size("id") + codec::kIntSize + codec::key_size("method") +
                codec::str_size(method) + codec::key_size("obj") + codec::str_size(object));
    codec::put_header(out, Value::Kind::kDict, 4);
    codec::put_key(out, "args");
    append(out, args);
    codec::put_key(out, "id");
    codec::put_int(out, static_cast<std::int64_t>(id));
    codec::put_key(out, "method");
    codec::put_str(out, method);
    codec::put_key(out, "obj");
    codec::put_str(out, object);
    return out;
}

Bytes result(std::uint64_t id, const Value& result) {
    Bytes out;
    out.reserve(codec::kHeaderSize + codec::key_size("id") + codec::kIntSize +
                codec::key_size("ok") + codec::kBoolSize + codec::key_size("result") +
                result.encoded_size());
    codec::put_header(out, Value::Kind::kDict, 3);
    codec::put_key(out, "id");
    codec::put_int(out, static_cast<std::int64_t>(id));
    codec::put_key(out, "ok");
    codec::put_bool(out, true);
    codec::put_key(out, "result");
    result.encode(out);
    return out;
}

Bytes error(std::uint64_t id, std::string_view etype, std::string_view message,
            Duration retry_after) {
    const bool hint = retry_after.count() > 0;
    Bytes out;
    out.reserve(codec::kHeaderSize + codec::key_size("emsg") + codec::str_size(message) +
                codec::key_size("etype") + codec::str_size(etype) + codec::key_size("id") +
                codec::kIntSize + codec::key_size("ok") + codec::kBoolSize +
                (hint ? codec::key_size("retry_ms") + codec::kIntSize : 0));
    codec::put_header(out, Value::Kind::kDict, hint ? 5 : 4);
    codec::put_key(out, "emsg");
    codec::put_str(out, message);
    codec::put_key(out, "etype");
    codec::put_str(out, etype);
    codec::put_key(out, "id");
    codec::put_int(out, static_cast<std::int64_t>(id));
    codec::put_key(out, "ok");
    codec::put_bool(out, false);
    if (hint) {
        // Milliseconds on the wire; sub-ms hints round up so "soon" never
        // degenerates to "immediately".
        codec::put_key(out, "retry_ms");
        codec::put_int(out, (retry_after.count() + 999'999) / 1'000'000);
    }
    return out;
}

}  // namespace rpc_wire

// ---------------------------------------------------------- reply cache ----

std::size_t RpcEndpoint::ReplyCache::bucket_of(ReplyCacheKey key) {
    std::uint64_t h = (key.caller * 0x9E3779B97F4A7C15ull) ^ key.call_id;
    return static_cast<std::size_t>(h ^ (h >> 29)) % kReplyCacheCap;
}

const Bytes* RpcEndpoint::ReplyCache::find(ReplyCacheKey key) const {
    for (std::uint16_t i = buckets_[bucket_of(key)]; i != kNone; i = slots_[i].next) {
        if (slots_[i].key == key) return &slots_[i].reply;
    }
    return nullptr;
}

bool RpcEndpoint::ReplyCache::insert(ReplyCacheKey key, const Bytes& reply) {
    bool evicted = slots_.size() == kReplyCacheCap;
    std::uint16_t at;
    if (!evicted) {
        at = static_cast<std::uint16_t>(slots_.size());
        slots_.emplace_back();
    } else {
        at = static_cast<std::uint16_t>(oldest_);
        oldest_ = (oldest_ + 1) % kReplyCacheCap;
        // Unlink the evictee from its bucket chain.
        std::uint16_t* link = &buckets_[bucket_of(slots_[at].key)];
        while (*link != at) link = &slots_[*link].next;
        *link = slots_[at].next;
    }
    Slot& slot = slots_[at];
    slot.key = key;
    slot.reply.assign(reply.begin(), reply.end());
    std::uint16_t& head = buckets_[bucket_of(key)];
    slot.next = head;
    head = at;
    return evicted;
}

// ------------------------------------------------------------- endpoint ----

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
        router_.simulator().cancel(p.unreachable_timer);
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

// One call_async: what every attempt re-sends and where the answer goes.
// Pending holds it, so an attempt needs no completion closure of its own.
struct RpcEndpoint::Call {
    NodeId target;
    std::string object;
    std::string method;
    Bytes args;  ///< encoded once; every attempt re-sends these bytes
    CallOptions options;
    ReplyHandler on_reply;            ///< exactly one of the two is set
    RichReplyHandler on_rich_reply;
    int tries_left;
    Duration next_backoff;
    /// Where this call chain sits causally. Captured once at call_async
    /// and restored around every attempt, so a retry fired from a backoff
    /// timer attaches to the *same* trace as attempt one instead of
    /// rooting a fresh one.
    obs::TraceContext ctx;
};

void RpcEndpoint::start_call(NodeId target, const std::string& object, const std::string& method,
                             List args, CallOptions options, ReplyHandler on_reply,
                             RichReplyHandler on_rich_reply) {
    obs::TraceContext ctx = obs::TraceBuffer::global().current();
    if (!ctx.valid()) ctx = obs::TraceBuffer::global().new_root();
    send_attempt(std::make_shared<Call>(
        Call{target, object, method, Value{std::move(args)}.encode(), options,
             std::move(on_reply), std::move(on_rich_reply), options.retries,
             options.retry_backoff, ctx}));
}

void RpcEndpoint::send_attempt(std::shared_ptr<Call> call) {
    obs::TraceBuffer::ContextScope call_scope(obs::TraceBuffer::global(), call->ctx);
    std::uint64_t call_id = ++next_call_;
    metrics().calls_sent.inc();
    auto& tracebuf = obs::TraceBuffer::global();
    std::uint64_t span = tracebuf.begin_span("rt.rpc", "rpc.call",
                                             {{"obj", call->object}, {"method", call->method}});
    obs::TraceContext call_ctx = tracebuf.context_of(span);
    bool control = is_exempt(call->object);
    Bytes payload = rpc_wire::call(call_id, call->object, call->method, call->args);
    if (!control) payload = apply_outbound(std::move(payload));
    bool sent;
    {
        // The frame on the air carries the call span as its parent: the
        // remote dispatch (and everything it causes) joins this trace.
        obs::TraceBuffer::ContextScope scope(tracebuf, call_ctx);
        sent = router_.send(call->target, control ? kCtlCallKind : kCallKind,
                            std::move(payload));
    }

    // Both timer closures capture (this, call_id) only, which std::function
    // stores inline; the destructor cancels them.
    auto timer = router_.simulator().schedule_after(call->options.timeout, [this, call_id]() {
        auto it = pending_.find(call_id);
        if (it == pending_.end()) return;
        Pending pending = std::move(it->second);
        pending_.erase(it);
        router_.simulator().cancel(pending.unreachable_timer);
        metrics().timeouts.inc();
        obs::TraceBuffer::global().end_span(pending.span,
                                            {{"outcome", "timeout"}, {"cause", "transport"}});
        obs::TraceBuffer::ContextScope scope(obs::TraceBuffer::global(), pending.ctx);
        attempt_done(std::move(pending.call), Value{},
                     std::make_exception_ptr(RemoteError("rpc call timed out")),
                     /*transport=*/true);
    });
    Pending& pending =
        pending_
            .emplace(call_id, Pending{std::move(call), timer, sim::TimerId{},
                                      router_.simulator().now(), span, call_ctx})
            .first->second;

    if (!sent) {
        // Out of radio range at send time: fail fast instead of waiting out
        // the timeout.
        pending.unreachable_timer =
            router_.simulator().schedule_after(Duration{0}, [this, call_id]() {
                auto it = pending_.find(call_id);
                if (it == pending_.end()) return;
                Pending pending = std::move(it->second);
                pending_.erase(it);
                router_.simulator().cancel(pending.timeout_timer);
                metrics().unreachable.inc();
                obs::TraceBuffer::global().end_span(
                    pending.span, {{"outcome", "unreachable"}, {"cause", "transport"}});
                obs::TraceBuffer::ContextScope scope(obs::TraceBuffer::global(), pending.ctx);
                attempt_done(std::move(pending.call), Value{},
                             std::make_exception_ptr(RemoteError("rpc target unreachable")),
                             /*transport=*/true);
            });
    }
}

void RpcEndpoint::attempt_done(std::shared_ptr<Call> call, Value result,
                               std::exception_ptr error, bool transport) {
    // Retry driver: each transport failure re-issues the call (fresh call
    // id, same payload) after an exponentially growing delay, until the
    // budget is spent. Remote answers — results *and* error replies — end
    // the call immediately, with one exception: an Overloaded reply is the
    // callee asking to be called back later, so it is retried too, no
    // earlier than its retry-after hint.
    if (error && call->tries_left > 0) {
        bool retryable = transport;
        Duration delay = call->next_backoff;
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
            --call->tries_left;
            metrics().retries.inc();
            call->next_backoff *= 2;
            router_.simulator().schedule_after(
                delay, [this, alive = alive_, call = std::move(call)]() {
                    if (!*alive) return;
                    send_attempt(call);
                });
            return;
        }
    }
    if (call->on_rich_reply) {
        call->on_rich_reply(std::move(result), error, transport);
    } else {
        call->on_reply(std::move(result), error);
    }
}

void RpcEndpoint::call_async(NodeId target, const std::string& object,
                             const std::string& method, List args, ReplyHandler on_reply,
                             Duration timeout) {
    start_call(target, object, method, std::move(args), CallOptions{.timeout = timeout},
               std::move(on_reply), nullptr);
}

void RpcEndpoint::call_async(NodeId target, const std::string& object,
                             const std::string& method, List args, CallOptions options,
                             ReplyHandler on_reply) {
    start_call(target, object, method, std::move(args), options, std::move(on_reply), nullptr);
}

void RpcEndpoint::call_async(NodeId target, const std::string& object,
                             const std::string& method, List args, CallOptions options,
                             RichReplyHandler on_reply) {
    start_call(target, object, method, std::move(args), options, nullptr, std::move(on_reply));
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

Value RpcEndpoint::decode_envelope(const net::Message& msg, bool control) const {
    if (control || wire_filters_.empty()) {
        return Value::decode(std::span<const std::uint8_t>(msg.payload));
    }
    Bytes plain = apply_inbound(msg.payload);
    return Value::decode(std::span<const std::uint8_t>(plain));
}

void RpcEndpoint::on_call(const net::Message& msg, bool control) {
    Value request;
    try {
        request = decode_envelope(msg, control);
    } catch (const Error& e) {
        // Unintelligible request — e.g. the peer encrypts and we do not
        // (only one end adapted). Drop it; the caller times out.
        metrics().garbled.inc();
        log_warn(router_.simulator().now(), "rt.rpc", "dropped garbled call: ", e.what());
        return;
    }
    metrics().calls_received.inc();
    Dict& req = request.as_dict();
    auto call_id = static_cast<std::uint64_t>(req.at("id").as_int());
    const std::string& object_name = req.at("obj").as_str();
    const std::string& method = req.at("method").as_str();

    // At-most-once: a duplicated radio frame (or a retry racing its own
    // late reply) must not re-execute the method. Re-send the cached wire
    // reply verbatim instead — it costs no dispatch, so it skips admission
    // too (shedding a dup would punish the caller twice).
    ReplyCacheKey cache_key{msg.from.value, call_id};
    if (const Bytes* cached = reply_cache_.find(cache_key)) {
        metrics().dup_calls.inc();
        router_.send(msg.from, control ? kCtlReplyKind : kReplyKind, *cached);
        return;
    }
    if (std::find(inflight_.begin(), inflight_.end(), cache_key) != inflight_.end()) {
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
    List args = std::move(req.at("args").as_list());
    // The ambient context (the caller's rpc.call span, installed by the
    // network delivery) must survive the admission queue: a dispatch
    // admitted now but run later still belongs to the caller's trace.
    obs::TraceContext ctx = obs::TraceBuffer::global().current();
    auto decision = router_.admission().offer(
        cls, [this, alive = alive_, ctx, from = msg.from, control, call_id, object_name,
              method, args = std::move(args)]() mutable {
            if (!*alive) return;
            obs::TraceBuffer::ContextScope scope(obs::TraceBuffer::global(), ctx);
            std::erase(inflight_, ReplyCacheKey{from.value, call_id});
            execute_call(from, control, call_id, object_name, method, std::move(args));
        });
    if (!decision.admitted) {
        metrics().shed.inc();
        obs::TraceBuffer::global().instant(
            "rt.rpc", "rpc.shed",
            {{"obj", object_name}, {"class", net::to_string(cls)}});
        Bytes reply = rpc_wire::error(
            call_id, "Overloaded",
            "call shed at admission (" + std::string(net::to_string(cls)) + " queue full)",
            decision.retry_after);
        if (!control) reply = apply_outbound(std::move(reply));
        // Deliberately not cached: a retry should get a fresh admission
        // decision, not a replay of "go away".
        router_.send(msg.from, control ? kCtlReplyKind : kReplyKind, std::move(reply));
        return;
    }
    if (decision.queued) inflight_.push_back(cache_key);
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
        reply = rpc_wire::error(call_id, "AccessDenied",
                                "object '" + object_name + "' requires the data channel");
    } else if (!exported_.contains(object_name)) {
        outcome = "RemoteError";
        reply = rpc_wire::error(call_id, "RemoteError",
                                "object '" + object_name + "' is not exported");
    } else {
        auto object = runtime_.find_object(object_name);
        if (!object) {
            outcome = "RemoteError";
            reply = rpc_wire::error(call_id, "RemoteError",
                                    "object '" + object_name + "' is gone");
        } else {
            current_caller_ = from;
            struct CallerGuard {
                NodeId& slot;
                ~CallerGuard() { slot = NodeId{}; }
            } guard{current_caller_};
            try {
                reply = rpc_wire::result(call_id, object->call(method, std::move(args)));
            } catch (const AccessDenied& e) {
                outcome = "AccessDenied";
                reply = rpc_wire::error(call_id, "AccessDenied", e.what());
            } catch (const TypeError& e) {
                outcome = "TypeError";
                reply = rpc_wire::error(call_id, "TypeError", e.what());
            } catch (const ScriptError& e) {
                outcome = "ScriptError";
                reply = rpc_wire::error(call_id, "ScriptError", e.what());
            } catch (const Error& e) {
                outcome = "Error";
                reply = rpc_wire::error(call_id, "Error", e.what());
            } catch (const std::exception& e) {
                // Non-Error escapes (std::bad_alloc from a hostile package,
                // a std::logic_error in host code) still become a proper
                // error reply rather than unwinding into the router.
                outcome = "Error";
                reply = rpc_wire::error(call_id, "Error", e.what());
            }
        }
    }
    if (!control) reply = apply_outbound(std::move(reply));
    if (reply_cache_.insert(cache_key, reply)) metrics().reply_cache_evictions.inc();
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
        reply = decode_envelope(msg, control);
    } catch (const Error& e) {
        metrics().garbled.inc();
        log_warn(router_.simulator().now(), "rt.rpc", "dropped garbled reply: ", e.what());
        return;
    }
    Dict& rep = reply.as_dict();
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
    obs::Kv end_kv[3] = {{"outcome", ok ? "ok" : "error"}};
    std::size_t n_kv = 1;
    std::string retry_ms;
    if (!ok) {
        if (const Value* etype = rep.find("etype")) end_kv[n_kv++] = {"cause", etype->as_str()};
        if (const Value* ms = rep.find("retry_ms")) {
            retry_ms = std::to_string(ms->as_int());
            end_kv[n_kv++] = {"retry_ms", retry_ms};
        }
    }
    obs::TraceBuffer::global().end_span(pending.span, std::span<const obs::Kv>(end_kv, n_kv));

    if (ok) {
        attempt_done(std::move(pending.call), std::move(rep.at("result")), nullptr,
                     /*transport=*/false);
    } else {
        Duration retry_after{0};
        if (const Value* ms = rep.find("retry_ms")) retry_after = milliseconds(ms->as_int());
        try {
            rethrow_remote(rep.at("etype").as_str(), rep.at("emsg").as_str(), retry_after);
        } catch (...) {
            attempt_done(std::move(pending.call), Value{}, std::current_exception(),
                         /*transport=*/false);
        }
    }
}

}  // namespace pmp::rt
