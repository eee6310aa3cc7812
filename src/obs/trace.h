// Bounded trace ring of structured events, with causal context.
//
// Where the metrics registry answers "how many / how fast", the trace ring
// answers "what happened, in what order": span begin/end pairs for the
// platform's long operations (weave, withdraw, RPC round-trips, package
// push/verify) and instant events for point occurrences (lease renew,
// lease expire, signature rejection). Events carry the virtual SimTime,
// a canonical component name, and a small key/value payload.
//
// Causality: every event additionally carries a trace id and a parent
// span. The buffer holds one *ambient* TraceContext — installed with the
// RAII ContextScope by whatever is currently executing on behalf of a
// span (an rpc dispatch, a delivered message's handler) — and stamps it
// onto events as they are recorded. A begin_span with no ambient context
// roots a fresh trace. Both span and trace ids are plain counters, so a
// deterministic simulation replays to byte-identical causal trees.
//
// The buffer is a fixed-capacity ring: recording never allocates beyond
// the high-water mark and old events are evicted oldest-first, so tracing
// can stay on permanently — the cost of a busy system is forgetting the
// distant past, not growing without bound. An end_span whose begin was
// already evicted is counted (`obs.trace.orphan_ends`) and tagged
// `orphan=true` so exporters render it honestly instead of silently.
//
// Representation: a ring slot is an EventRecord, not a TraceEvent. Its
// component and name are interned Symbols, and its kv pairs sit in a small
// inline array over one text buffer that keeps its capacity when the slot
// is reused, so recording into a warm ring allocates nothing. Callers pass
// kv pairs as borrowed string_views (Kv); the slot copies the text.
// Readers — events(), the exporters, flight dumps — get TraceEvents
// rendered from the records.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/time.h"
#include "obs/symbol.h"

namespace pmp::obs {

enum class EventKind : std::uint8_t { kSpanBegin, kSpanEnd, kInstant };

const char* event_kind_name(EventKind k);

/// Key/value payload: small, ordered, stringly — render-friendly.
using KeyValues = std::vector<std::pair<std::string, std::string>>;

/// Causal position: which trace new events belong to and which span caused
/// them. Carried ambiently by the TraceBuffer and across the simulated
/// radio by net::Message, so cross-node chains share one trace id.
struct TraceContext {
    std::uint64_t trace_id = 0;    ///< 0 = no trace (events root fresh ones)
    std::uint64_t parent_span = 0; ///< 0 = root position within the trace

    bool valid() const { return trace_id != 0; }
    bool operator==(const TraceContext&) const = default;
};

/// A recorded event as readers see it (exporters, flight dumps, tests).
struct TraceEvent {
    SimTime at;
    EventKind kind = EventKind::kInstant;
    std::uint64_t span = 0;    ///< nonzero links a begin to its end
    std::uint64_t trace = 0;   ///< causal tree this event belongs to
    std::uint64_t parent = 0;  ///< span that caused it (0 = root)
    std::string component;     ///< canonical component name (see component.h)
    std::string name;          ///< operation, e.g. "weave", "rpc.call"
    KeyValues kv;

    bool operator==(const TraceEvent&) const = default;
};

/// One key/value argument of a recording call. Borrowed: the ring copies
/// the text into its slot before the call returns.
struct Kv {
    std::string_view key;
    std::string_view value;
};

/// The kv arguments of one recording call: a braced list at the call site
/// (`{{"obj", name}, {"outcome", "ok"}}`) or a span of Kv the caller built.
class KvArgs {
public:
    KvArgs() = default;
    KvArgs(std::initializer_list<Kv> kv) : kv_(kv.begin(), kv.size()) {}
    KvArgs(std::span<const Kv> kv) : kv_(kv) {}

    const Kv* begin() const { return kv_.data(); }
    const Kv* end() const { return kv_.data() + kv_.size(); }

private:
    std::span<const Kv> kv_;
};

/// An event in the form the rings store it (see the file comment). The
/// kv text lives in one buffer per record; an inline array of kInlineKv
/// (offset, length) pairs locates it, and further pairs spill into a side
/// vector. Recording into a record reuses the buffer's and the vector's
/// capacity, so a warm record never allocates.
class EventRecord {
public:
    static constexpr std::size_t kInlineKv = 4;

    SimTime at;
    EventKind kind = EventKind::kInstant;
    std::uint64_t span = 0;
    std::uint64_t trace = 0;
    std::uint64_t parent = 0;
    Symbol component;
    Symbol name;

    /// Overwrite the whole record (the kv text reuses the buffer).
    void record(SimTime at, EventKind kind, std::uint64_t span, std::uint64_t trace,
                std::uint64_t parent, Symbol component, Symbol name, KvArgs kv);
    void add_kv(std::string_view key, std::string_view value);

    TraceEvent render() const;

private:
    struct KvPos {
        std::uint32_t key_at = 0;
        std::uint32_t key_len = 0;
        std::uint32_t value_at = 0;
        std::uint32_t value_len = 0;
    };
    const KvPos& pos(std::size_t i) const {
        return i < kInlineKv ? inline_[i] : spill_[i - kInlineKv];
    }

    std::uint32_t nkv_ = 0;
    std::array<KvPos, kInlineKv> inline_;
    std::vector<KvPos> spill_;  ///< pairs past kInlineKv
    std::string text_;          ///< every key and value, back to back
};

/// A TraceBuffer is confined to one thread at a time: the root buffer to
/// whichever thread runs the sequential world (or the sharded kernel's
/// coordinator), a shard's buffer to whichever worker is running that
/// shard's window. The window barrier publishes writes between owners, so
/// the buffer itself carries no locks.
class TraceBuffer {
public:
    explicit TraceBuffer(std::size_t capacity = 1024);

    /// The thread's redirect target when one is installed (sharded
    /// workers), else the process-wide root buffer.
    static TraceBuffer& global();

    /// While alive, TraceBuffer::global() *on this thread* resolves to
    /// `target` — how a simulation shard records into its own buffer
    /// without threading a TraceBuffer& through every subsystem. Nests
    /// (strictly scoped, per thread).
    class Redirect {
    public:
        explicit Redirect(TraceBuffer& target);
        ~Redirect();
        Redirect(const Redirect&) = delete;
        Redirect& operator=(const Redirect&) = delete;

    private:
        TraceBuffer* saved_;
    };

    /// Partition span/trace ids: every id handed out after this call is
    /// `base + n`. Each shard's buffer gets a disjoint namespace so merged
    /// causal trees never collide; the base survives clear().
    void set_id_namespace(std::uint64_t base) { id_base_ = base; }
    std::uint64_t id_namespace() const { return id_base_; }

    /// Begin a span; returns its id for end_span. Timestamps come from the
    /// installed clock (the live simulator); SimTime::zero() without one.
    /// The span joins the ambient trace (parented under its parent_span),
    /// or roots a fresh trace when no context is installed.
    std::uint64_t begin_span(Symbol component, Symbol name, KvArgs kv = {});
    void end_span(std::uint64_t span, KvArgs kv = {});
    void instant(Symbol component, Symbol name, KvArgs kv = {});

    /// Explicit-time variants for callers that carry their own SimTime.
    std::uint64_t begin_span_at(SimTime at, Symbol component, Symbol name, KvArgs kv = {});
    void end_span_at(SimTime at, std::uint64_t span, KvArgs kv = {});
    void instant_at(SimTime at, Symbol component, Symbol name, KvArgs kv = {});

    /// The ambient causal context (invalid when nothing is executing on
    /// behalf of a span).
    TraceContext current() const { return current_; }

    /// Context that makes `span` the parent of subsequent events — what a
    /// caller installs (via ContextScope) while work caused by the span
    /// runs. Invalid for span 0 or a span the ring no longer tracks.
    TraceContext context_of(std::uint64_t span) const;

    /// Allocate a fresh trace root without recording an event — used by
    /// retry drivers that must pin every attempt to one trace before the
    /// first attempt's span exists. Invalid while obs is disabled.
    TraceContext new_root();

    /// RAII ambient-context switch. Single-threaded (like the simulator):
    /// scopes nest, never interleave.
    class ContextScope {
    public:
        ContextScope(TraceBuffer& buf, TraceContext ctx) : buf_(buf), saved_(buf.current_) {
            buf_.current_ = ctx;
        }
        ~ContextScope() { buf_.current_ = saved_; }
        ContextScope(const ContextScope&) = delete;
        ContextScope& operator=(const ContextScope&) = delete;

    private:
        TraceBuffer& buf_;
        TraceContext saved_;
    };

    /// All retained events, oldest first.
    std::vector<TraceEvent> events() const;

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return ring_.size(); }
    /// Events evicted so far to make room.
    std::uint64_t dropped() const { return dropped_; }
    /// Total events ever recorded.
    std::uint64_t recorded() const { return recorded_; }
    /// end_span calls whose begin had already been evicted from the ring
    /// (also counted globally as `obs.trace.orphan_ends`).
    std::uint64_t orphan_ends() const { return orphan_ends_; }

    void clear();

    /// High-volume spans (per-advice execution) are gated behind this
    /// extra switch so the default-on trace does not tax interception
    /// microbenchmarks. Flip on when debugging advice behaviour.
    bool detail() const { return detail_; }
    void set_detail(bool on) { detail_ = on; }

    /// Install a time source (the live simulator registers itself; see
    /// Simulator's scoped binding). Sources *stack*: the newest wins, and
    /// clear_clock removes by token from anywhere in the stack — so a
    /// bench that builds a scratch world inside a live one restores the
    /// outer simulator's clock instead of leaving a stale or null clock
    /// ("most recently constructed wins" is gone).
    std::uint64_t set_clock(std::function<SimTime()> clock);
    void clear_clock(std::uint64_t token);
    SimTime now() const { return clocks_.empty() ? SimTime::zero() : clocks_.back().fn(); }

private:
    /// The process-wide buffer (redirects resolve here by default). Only
    /// this one feeds the flight recorder.
    static TraceBuffer& root();

    /// The black box reads the root ring (see flight.h).
    friend class FlightRecorder;

    /// The slot the next event is written into. Evicts the oldest event
    /// when the ring is full; commit() then publishes the slot.
    EventRecord& claim();
    void commit();

    /// Book-keeping for spans whose begin is still in the ring: lets
    /// end_span inherit the begin's context and detect orphans honestly.
    /// A flat table indexed by span id, capacity() rounded up to a power
    /// of two: a begin still in the ring is at most capacity() spans old,
    /// so two live entries never share an index.
    struct OpenSpan {
        std::uint64_t span = 0;  ///< 0 = free
        std::uint64_t trace = 0;
        std::uint64_t parent = 0;
        std::size_t slot = 0;  ///< ring slot of the begin event
    };
    OpenSpan& open_entry(std::uint64_t span) {
        return open_spans_[span & (open_spans_.size() - 1)];
    }
    const OpenSpan* find_open(std::uint64_t span) const;

    std::vector<EventRecord> ring_;
    std::size_t head_ = 0;  ///< next write position
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint64_t orphan_ends_ = 0;
    std::uint64_t unmirrored_ = 0;  ///< recorded since the black box last caught up
    std::uint64_t next_span_ = 0;
    std::uint64_t next_trace_ = 0;
    std::uint64_t id_base_ = 0;  ///< namespace offset; survives clear()
    TraceContext current_;
    std::vector<OpenSpan> open_spans_;
    bool detail_ = false;
    struct ClockEntry {
        std::uint64_t token;
        std::function<SimTime()> fn;
    };
    std::vector<ClockEntry> clocks_;  ///< stack: back() is live
    std::uint64_t next_clock_token_ = 0;
};

}  // namespace pmp::obs
