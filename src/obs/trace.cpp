#include "obs/trace.h"

#include <bit>

#include "obs/flight.h"
#include "obs/metrics.h"

namespace pmp::obs {

const char* event_kind_name(EventKind k) {
    switch (k) {
        case EventKind::kSpanBegin: return "span_begin";
        case EventKind::kSpanEnd: return "span_end";
        case EventKind::kInstant: return "instant";
    }
    return "?";
}

// ---------------------------------------------------------- EventRecord ----

void EventRecord::record(SimTime at, EventKind kind, std::uint64_t span, std::uint64_t trace,
                         std::uint64_t parent, Symbol component, Symbol name, KvArgs kv) {
    this->at = at;
    this->kind = kind;
    this->span = span;
    this->trace = trace;
    this->parent = parent;
    this->component = component;
    this->name = name;
    nkv_ = 0;
    spill_.clear();
    text_.clear();
    for (const Kv& p : kv) add_kv(p.key, p.value);
}

void EventRecord::add_kv(std::string_view key, std::string_view value) {
    const auto at = static_cast<std::uint32_t>(text_.size());
    const KvPos p{at, static_cast<std::uint32_t>(key.size()),
                  at + static_cast<std::uint32_t>(key.size()),
                  static_cast<std::uint32_t>(value.size())};
    text_.append(key);
    text_.append(value);
    if (nkv_ < kInlineKv) {
        inline_[nkv_] = p;
    } else {
        spill_.push_back(p);
    }
    ++nkv_;
}

TraceEvent EventRecord::render() const {
    TraceEvent ev{at, kind, span, trace, parent, component.str(), name.str(), {}};
    ev.kv.reserve(nkv_);
    for (std::size_t i = 0; i < nkv_; ++i) {
        const KvPos& p = pos(i);
        ev.kv.emplace_back(text_.substr(p.key_at, p.key_len),
                           text_.substr(p.value_at, p.value_len));
    }
    return ev;
}

namespace {
// Per-thread redirect target (see TraceBuffer::Redirect).
thread_local TraceBuffer* tl_redirect = nullptr;
}  // namespace

TraceBuffer::TraceBuffer(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity), open_spans_(std::bit_ceil(ring_.size())) {}

TraceBuffer& TraceBuffer::root() {
    static TraceBuffer buffer;
    return buffer;
}

TraceBuffer& TraceBuffer::global() { return tl_redirect != nullptr ? *tl_redirect : root(); }

TraceBuffer::Redirect::Redirect(TraceBuffer& target) : saved_(tl_redirect) {
    tl_redirect = &target;
}

TraceBuffer::Redirect::~Redirect() { tl_redirect = saved_; }

EventRecord& TraceBuffer::claim() {
    if (size_ == ring_.size()) {
        // The black box copies from the root ring lazily (see flight.h):
        // once a ring's worth of events has been recorded since its last
        // catch-up, the slot about to be overwritten is one it lacks.
        if (unmirrored_ == ring_.size()) {
            if (this == &root()) FlightRecorder::global().catch_up();
            unmirrored_ = 0;
        }
        ++dropped_;  // overwrite the oldest
        // If the evictee is a begin whose end has not been recorded yet,
        // forget its open-span entry: a later end_span is then an orphan
        // and says so, instead of silently claiming a linkage the ring no
        // longer holds.
        const EventRecord& evicted = ring_[head_];
        if (evicted.kind == EventKind::kSpanBegin) {
            OpenSpan& open = open_entry(evicted.span);
            if (open.span == evicted.span && open.slot == head_) open = OpenSpan{};
        }
    } else {
        ++size_;
    }
    return ring_[head_];
}

void TraceBuffer::commit() {
    if (++head_ == ring_.size()) head_ = 0;
    ++recorded_;
    ++unmirrored_;
}

const TraceBuffer::OpenSpan* TraceBuffer::find_open(std::uint64_t span) const {
    const OpenSpan& open = open_spans_[span & (open_spans_.size() - 1)];
    return span != 0 && open.span == span ? &open : nullptr;
}

std::uint64_t TraceBuffer::begin_span(Symbol component, Symbol name, KvArgs kv) {
    return begin_span_at(now(), component, name, kv);
}

void TraceBuffer::end_span(std::uint64_t span, KvArgs kv) { end_span_at(now(), span, kv); }

void TraceBuffer::instant(Symbol component, Symbol name, KvArgs kv) {
    instant_at(now(), component, name, kv);
}

TraceContext TraceBuffer::context_of(std::uint64_t span) const {
    const OpenSpan* open = find_open(span);
    if (open == nullptr) return TraceContext{};
    return TraceContext{open->trace, span};
}

TraceContext TraceBuffer::new_root() {
    if (!detail::g_enabled) return TraceContext{};
    return TraceContext{id_base_ + ++next_trace_, 0};
}

std::uint64_t TraceBuffer::begin_span_at(SimTime at, Symbol component, Symbol name,
                                         KvArgs kv) {
    if (!detail::g_enabled) return 0;
    std::uint64_t id = id_base_ + ++next_span_;
    std::uint64_t trace = current_.trace_id;
    std::uint64_t parent = current_.parent_span;
    // No caller: this span roots a new trace.
    if (!current_.valid()) trace = id_base_ + ++next_trace_;
    EventRecord& rec = claim();
    rec.record(at, EventKind::kSpanBegin, id, trace, parent, component, name, kv);
    open_entry(id) = OpenSpan{id, trace, parent, head_};
    commit();
    return id;
}

void TraceBuffer::end_span_at(SimTime at, std::uint64_t span, KvArgs kv) {
    if (!detail::g_enabled || span == 0) return;
    // Resolve the begin before claiming a slot: the slot may be the
    // begin's own, and the end still inherits its linkage.
    OpenSpan open;
    if (const OpenSpan* found = find_open(span)) {
        open = *found;
        open_entry(span) = OpenSpan{};
    }
    EventRecord& rec = claim();
    rec.record(at, EventKind::kSpanEnd, span, open.trace, open.parent, Symbol(), Symbol(), kv);
    if (open.span == 0) {
        // The begin was evicted (or never recorded): account for it
        // honestly rather than emitting a dangling linkage.
        ++orphan_ends_;
        static Counter& orphans = Registry::global().counter("obs.trace.orphan_ends");
        orphans.inc();
        rec.add_kv("orphan", "true");
    }
    commit();
}

void TraceBuffer::instant_at(SimTime at, Symbol component, Symbol name, KvArgs kv) {
    if (!detail::g_enabled) return;
    EventRecord& rec = claim();
    rec.record(at, EventKind::kInstant, 0, current_.trace_id, current_.parent_span, component,
               name, kv);
    commit();
}

std::vector<TraceEvent> TraceBuffer::events() const {
    std::vector<TraceEvent> out;
    out.reserve(size_);
    // Oldest event sits at head_ when full, at 0 otherwise.
    std::size_t start = size_ == ring_.size() ? head_ : 0;
    for (std::size_t i = 0; i < size_; ++i) {
        out.push_back(ring_[(start + i) % ring_.size()].render());
    }
    return out;
}

void TraceBuffer::clear() {
    // Only the process-wide root buffer feeds the flight recorder; scratch
    // buffers in tests and per-shard buffers stay out of the black box.
    // (Compared against root(), not global(): a thread-local redirect must
    // not accidentally feed its shard's events into the black box.)
    if (this == &root()) FlightRecorder::global().root_cleared();
    unmirrored_ = 0;
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
    recorded_ = 0;
    orphan_ends_ = 0;
    next_span_ = 0;
    next_trace_ = 0;
    open_spans_.assign(open_spans_.size(), OpenSpan{});
    // current_ is deliberately left alone: it belongs to live ContextScope
    // frames on the stack, not to the ring's contents.
}

std::uint64_t TraceBuffer::set_clock(std::function<SimTime()> clock) {
    std::uint64_t token = ++next_clock_token_;
    clocks_.push_back(ClockEntry{token, std::move(clock)});
    return token;
}

void TraceBuffer::clear_clock(std::uint64_t token) {
    std::erase_if(clocks_, [token](const ClockEntry& e) { return e.token == token; });
}

}  // namespace pmp::obs
