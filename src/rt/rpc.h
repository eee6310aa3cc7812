// Remote method invocation over the simulated radio.
//
// The paper's services are exported as Jini services and invoked remotely
// (Fig 2a: "remote method call of m_R on a node"). RpcEndpoint is that
// machinery: it marshals Value argument lists, routes the call into the
// target node's Runtime dispatch — so every woven aspect on the callee
// fires exactly as for a local call — and marshals back the result or the
// raised error. Marshaling/unmarshaling are themselves ordinary code paths
// that MIDAS can adapt (the paper's implicit marshaling extensions).
#pragma once

#include <array>
#include <functional>
#include <set>
#include <span>
#include <string_view>
#include <unordered_map>

#include "net/router.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/runtime.h"

namespace pmp::rt {

/// Result delivered to the caller: exactly one of `result` / `error` is
/// meaningful; `error` is nullptr on success.
using ReplyHandler = std::function<void(Value result, std::exception_ptr error)>;

/// Enriched variant for callers that manage their own failure policy
/// (circuit breakers, keep-alive ledgers): `transport` is true when the
/// failure never produced a remote answer (timeout / unreachable) — the
/// peer may be gone, as opposed to alive-and-refusing.
using RichReplyHandler = std::function<void(Value result, std::exception_ptr error, bool transport)>;

/// Per-call knobs. Retries apply only to *transport* failures (timeout,
/// unreachable) — a remote error reply is the call's answer and is never
/// retried. Each retry is a fresh call id; the delay before attempt k is
/// `retry_backoff * 2^(k-1)`.
struct CallOptions {
    Duration timeout = seconds(2);
    int retries = 0;
    Duration retry_backoff = milliseconds(100);
};

/// The rpc envelopes, written straight into one pre-sized buffer in the
/// canonical encoding of the Dicts they stand for (keys ascending):
///   call   {args, id, method, obj}
///   result {id, ok=true, result}
///   error  {emsg, etype, id, ok=false[, retry_ms]}
/// `args` is the encoding of the argument List, made once per call_async
/// and reused by every retry.
namespace rpc_wire {
Bytes call(std::uint64_t id, std::string_view object, std::string_view method,
           std::span<const std::uint8_t> args);
Bytes result(std::uint64_t id, const Value& result);
/// `retry_after` > 0 adds retry_ms (rounded up to whole milliseconds).
Bytes error(std::uint64_t id, std::string_view etype, std::string_view message,
            Duration retry_after = Duration{0});
}  // namespace rpc_wire

class RpcEndpoint {
public:
    /// Attaches to the node's router under kinds "rpc.call" / "rpc.reply".
    RpcEndpoint(net::MessageRouter& router, Runtime& runtime);

    /// Cancels every pending call's timeout timer and invalidates deferred
    /// work (retry backoffs, unreachable notifications) still sitting in
    /// the simulator queue. A node object may be destroyed mid-call — a
    /// crash–restart under midas::Supervisor does exactly that — while the
    /// simulation keeps running, so nothing scheduled here may touch the
    /// endpoint afterwards.
    ~RpcEndpoint();

    /// Make an instance callable from remote nodes. Objects are never
    /// implicitly exported.
    void export_object(const std::string& instance_name);
    void unexport_object(const std::string& instance_name);
    bool exported(const std::string& instance_name) const;

    /// Fire-and-collect asynchronous call. The handler runs when the reply
    /// arrives or the timeout elapses (with a RemoteError).
    void call_async(NodeId target, const std::string& object, const std::string& method,
                    List args, ReplyHandler on_reply, Duration timeout = seconds(2));

    /// As above with full per-call control (transport retries + timeout).
    void call_async(NodeId target, const std::string& object, const std::string& method,
                    List args, CallOptions options, ReplyHandler on_reply);

    /// As above, delivering the transport/remote distinction (see
    /// RichReplyHandler). Retries behave identically; the flag describes
    /// the *final* attempt.
    void call_async(NodeId target, const std::string& object, const std::string& method,
                    List args, CallOptions options, RichReplyHandler on_reply);

    /// Convenience for tests/examples running outside the event loop: pumps
    /// the simulator until the reply arrives, then returns the result or
    /// rethrows the remote error.
    Value call_sync(NodeId target, const std::string& object, const std::string& method,
                    List args, Duration timeout = seconds(2));

    Runtime& runtime() { return runtime_; }
    net::MessageRouter& router() { return router_; }

    /// While an incoming call is being dispatched, the node it came from;
    /// invalid otherwise. This is the implicit session information the
    /// paper's session-management extension extracts (Fig 2c step 2).
    NodeId current_caller() const { return current_caller_; }

    /// Wire filters: join points on the marshaling path itself. The paper's
    /// example — "an extension that will encrypt every outgoing call from
    /// an application and decrypt every incoming call" — installs here: it
    /// needs to know nothing about the application, not even its interface.
    /// Outbound filters transform every encoded rpc payload before it hits
    /// the radio (in priority order); inbound filters undo them in reverse
    /// order on arrival. Filters are owned (HookOwner) so withdrawing an
    /// extension removes its filters exactly like its advice.
    using WireFilter = std::function<Bytes(Bytes)>;
    void add_wire_filter(HookOwner owner, int priority, WireFilter outbound,
                         WireFilter inbound);
    bool remove_wire_filters(HookOwner owner);
    std::size_t wire_filter_count() const { return wire_filters_.size(); }

    /// Exempt objects whose name starts with `prefix` from wire filters.
    /// The platform's control plane (the adaptation service, the registrar,
    /// discovery event listeners) is exempted by the node assembly: its
    /// integrity comes from package signatures, and exempting it avoids the
    /// bootstrap deadlock where the extension that keys the channel could
    /// never be delivered over the channel it keys. Calls to exempt objects
    /// travel under distinct control message kinds that skip the filters.
    void exempt_from_filters(const std::string& prefix);
    bool is_exempt(const std::string& object) const;

    /// Entries in the at-most-once reply cache (bounded by kReplyCacheCap).
    std::size_t reply_cache_size() const { return reply_cache_.size(); }

private:
    struct Call;  ///< one call_async, shared by its attempts (rpc.cpp)

    /// Exactly one of the two handlers is set.
    void start_call(NodeId target, const std::string& object, const std::string& method,
                    List args, CallOptions options, ReplyHandler on_reply,
                    RichReplyHandler on_rich_reply);
    void send_attempt(std::shared_ptr<Call> call);
    /// An attempt ended: retry it (budget permitting) or answer the caller.
    void attempt_done(std::shared_ptr<Call> call, Value result, std::exception_ptr error,
                      bool transport);
    void on_call(const net::Message& msg, bool control);
    void on_reply(const net::Message& msg, bool control);
    /// Decode an inbound envelope: in place on the control channel (and
    /// whenever no wire filter is installed), through the inbound filters
    /// otherwise.
    Value decode_envelope(const net::Message& msg, bool control) const;
    /// Dispatch one admitted call and send (and cache) its reply.
    void execute_call(NodeId from, bool control, std::uint64_t call_id,
                      const std::string& object_name, const std::string& method, List args);
    /// Admission priority of an inbound call (see net::AdmitClass): the
    /// control plane (exempt objects) outranks installs outranks app calls.
    net::AdmitClass classify(const std::string& object, const std::string& method) const;
    [[noreturn]] static void rethrow_remote(const std::string& etype, const std::string& message,
                                            Duration retry_after);

    struct Pending {
        std::shared_ptr<Call> call;
        sim::TimerId timeout_timer;
        /// The fail-fast notification of a call unreachable at send time
        /// (unset otherwise); cancelled with the endpoint like the timeout.
        sim::TimerId unreachable_timer;
        SimTime sent_at;           ///< virtual send time, for round-trip stats
        std::uint64_t span = 0;    ///< obs trace span covering the round-trip
        /// The call's causal position ({trace, span}), restored around
        /// handler invocations that fire from timers (timeout,
        /// unreachable) so follow-up work stays on the call's trace.
        obs::TraceContext ctx;
    };
    struct FilterSlot {
        HookOwner owner;
        int priority;
        WireFilter outbound;
        WireFilter inbound;
    };

    Bytes apply_outbound(Bytes payload) const;
    Bytes apply_inbound(Bytes payload) const;

    net::MessageRouter& router_;
    Runtime& runtime_;
    /// Liveness token for closures the endpoint parks in the simulator
    /// queue but does not track by timer id. They hold a copy and bail if
    /// the endpoint died before they fired.
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
    std::set<std::string> exported_;
    std::unordered_map<std::uint64_t, Pending> pending_;
    std::uint64_t next_call_ = 0;
    NodeId current_caller_;
    std::vector<FilterSlot> wire_filters_;  // kept sorted by priority
    std::vector<std::string> exempt_prefixes_;

    /// At-most-once execution under a duplicating radio: recently answered
    /// (caller, call id) pairs keep their wire-ready reply, which is re-sent
    /// verbatim on a duplicate call instead of re-dispatching. One flat ring
    /// of kReplyCacheCap slots, oldest overwritten first, with a chained
    /// hash index on the key; a slot's reply buffer keeps its capacity for
    /// the next reply. A dup arriving after eviction re-executes, which the
    /// receiver-side handlers keep idempotent anyway.
    static constexpr std::size_t kReplyCacheCap = 256;
    struct ReplyCacheKey {
        std::uint64_t caller = 0;
        std::uint64_t call_id = 0;
        bool operator==(const ReplyCacheKey&) const = default;
    };
    class ReplyCache {
    public:
        ReplyCache() { buckets_.fill(kNone); }
        const Bytes* find(ReplyCacheKey key) const;
        /// Returns true when the insert evicted the oldest entry.
        bool insert(ReplyCacheKey key, const Bytes& reply);
        std::size_t size() const { return slots_.size(); }

    private:
        static constexpr std::uint16_t kNone = 0xFFFF;
        struct Slot {
            ReplyCacheKey key;
            Bytes reply;
            std::uint16_t next = kNone;  ///< next slot in the same bucket
        };
        static std::size_t bucket_of(ReplyCacheKey key);

        std::vector<Slot> slots_;  ///< grows to kReplyCacheCap, then wraps
        std::size_t oldest_ = 0;   ///< next slot to overwrite once full
        std::array<std::uint16_t, kReplyCacheCap> buckets_;  ///< chain heads
    };
    ReplyCache reply_cache_;
    /// Calls admitted but still waiting in the node's admission queue. A
    /// duplicate frame arriving meanwhile is dropped (not re-queued): the
    /// original's reply is coming. Almost always empty.
    std::vector<ReplyCacheKey> inflight_;
    /// Exports the at-most-once cache level, `rpc.reply_cache_size{node}`.
    obs::Source obs_source_;  // last: unregisters before the cache it reads
};

}  // namespace pmp::rt
