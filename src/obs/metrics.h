// Process-wide metrics registry (counters, gauges, histograms).
//
// The paper's evaluation is all about *measuring* the platform — the ~7%
// carrying cost, weaving latency, monitoring traffic — so measurement is a
// first-class subsystem, not ad-hoc structs scattered through the code.
// Metrics are keyed by a dotted `component.name` plus an optional label
// (per-aspect, per-node, per-network). Recording is one relaxed atomic
// increment behind one global enable flag: cheap enough to live on the
// interception hot path even when the sharded simulator records from
// several worker threads at once (relaxed suffices — counters are summed,
// never ordered against other memory), and the flag lets benchmarks price
// the instrumentation itself (enabled vs. compiled-in-but-idle).
//
// Two kinds of rows reach an export:
//  * pinned metrics, obtained through `Registry::counter()` (and friends),
//    live as long as the registry — process-wide families such as
//    `rpc.retries` or `weaver.weaves`;
//  * component sources. A per-instance component (one network, one
//    adaptation service) keeps its numbers in its own plain stats struct —
//    the one source of truth, read directly through its `stats()` — and
//    registers one RAII-scoped `Source` that reports `(name, label, value)`
//    rows when an exporter asks. The rows vanish with the component, so a
//    successor with the same label starts from zero.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pmp::obs {

namespace detail {
/// One global switch for every registry and trace buffer in the process.
/// Inline so the hot-path check compiles to a load + predictable branch.
inline bool g_enabled = true;
}  // namespace detail

inline bool enabled() { return detail::g_enabled; }
inline void set_enabled(bool on) { detail::g_enabled = on; }

/// Monotonic event count.
class Counter {
public:
    Counter() = default;
    explicit Counter(std::uint64_t v) : value_(v) {}

    void inc(std::uint64_t n = 1) {
        if (detail::g_enabled) value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (extensions active, tuples stored, ...).
class Gauge {
public:
    Gauge() = default;
    explicit Gauge(std::int64_t v) : value_(v) {}

    void set(std::int64_t v) {
        if (detail::g_enabled) value_.store(v, std::memory_order_relaxed);
    }
    void add(std::int64_t d) {
        if (detail::g_enabled) value_.fetch_add(d, std::memory_order_relaxed);
    }
    std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram. `bounds` are inclusive upper edges of the finite
/// buckets, strictly increasing; one implicit overflow bucket follows.
/// Quantiles interpolate linearly inside the bucket that crosses the rank,
/// which is exact enough for latency reporting (p50/p95/p99) without ever
/// storing samples.
/// Writes from concurrent shard workers are serialized by a per-histogram
/// mutex (histograms are off the per-dispatch fast path). The aggregate
/// read accessors lock too; `bounds()`/`buckets()` return references and
/// are for quiesced readers (exporters between windows, tests after run).
class Histogram {
public:
    explicit Histogram(std::vector<double> bounds);

    void observe(double v);

    std::uint64_t count() const {
        std::lock_guard<std::mutex> lock(mu_);
        return count_;
    }
    double sum() const {
        std::lock_guard<std::mutex> lock(mu_);
        return sum_;
    }
    const std::vector<double>& bounds() const { return bounds_; }
    /// Per-bucket counts; size == bounds().size() + 1 (last = overflow).
    const std::vector<std::uint64_t>& buckets() const { return buckets_; }

    /// q in [0,1]. Returns 0 when empty; clamps to the largest finite bound
    /// for ranks landing in the overflow bucket.
    double quantile(double q) const;

    double mean() const {
        std::lock_guard<std::mutex> lock(mu_);
        return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
    }

    void reset();

    /// Exponential edges suited to nanosecond latencies (50ns .. 100ms).
    static const std::vector<double>& latency_ns_bounds();
    /// Exponential edges suited to millisecond round-trips (0.1ms .. 60s).
    static const std::vector<double>& latency_ms_bounds();

private:
    mutable std::mutex mu_;
    std::vector<double> bounds_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0;
};

/// The rows one export collects: pinned values plus every source's report,
/// summed per (name, label). A component source writes into it.
class Rows {
public:
    void counter(std::string_view name, std::string_view label, std::uint64_t value);
    void gauge(std::string_view name, std::string_view label, std::int64_t value);

private:
    friend class Registry;
    template <typename V>
    using Table = std::map<std::string, std::map<std::string, V, std::less<>>, std::less<>>;
    Table<std::uint64_t> counters_;
    Table<std::int64_t> gauges_;
};

class Registry;

/// RAII registration of a component source (`Registry::add_source`).
/// Destroying it unregisters the callback; once the destructor returns the
/// callback never runs again, so a component declares its Source *last*
/// and the rows can never outlive the stats they read.
class Source {
public:
    Source() = default;
    Source(Source&& other) noexcept;
    Source& operator=(Source&& other) noexcept;
    ~Source();
    Source(const Source&) = delete;
    Source& operator=(const Source&) = delete;

private:
    friend class Registry;
    Source(Registry* reg, std::uint64_t id) : reg_(reg), id_(id) {}
    Registry* reg_ = nullptr;
    std::uint64_t id_ = 0;
};

/// The registry: name -> label -> metric, plus the component sources it
/// collects at export time. `Registry::global()` is the process-wide
/// instance everything reports into; tests may build private ones.
/// Label cardinality is capped per metric name at `kLabelCap` distinct
/// labels. A pinned family past the cap collapses further labels into the
/// `kOverflowLabel` slot, so a misbehaving caller degrades the metric
/// instead of growing memory without bound. An export keeps the first
/// `kLabelCap` labels of each family in sorted order and sums the rest
/// into `kOverflowLabel`. A component's own `stats()` are exact at any
/// fleet size; only the export aggregates.
class Registry {
public:
    static constexpr std::size_t kLabelCap = 64;
    static constexpr const char* kOverflowLabel = "~other";

    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    static Registry& global();

    /// Pinned lookup-or-create. References stay valid for the registry's
    /// lifetime; hot paths should cache them.
    Counter& counter(std::string_view name, std::string_view label = {});
    Gauge& gauge(std::string_view name, std::string_view label = {});
    /// `bounds` is used on first creation only; empty selects the ns
    /// latency edges.
    Histogram& histogram(std::string_view name, std::string_view label = {},
                         std::vector<double> bounds = {});

    /// Register a component source: `fn` reports the component's rows each
    /// time an exporter visits counters or gauges. It runs under the
    /// registry lock, so it must not call back into the registry.
    [[nodiscard]] Source add_source(std::function<void(Rows&)> fn);

    /// Zero every pinned metric (registrations and pins stay). Component
    /// sources are untouched: their numbers belong to the components.
    void reset();

    /// Deterministic iteration for exporters: families sorted by name,
    /// slots sorted by label, pinned and sourced rows merged.
    void visit_counters(
        const std::function<void(const std::string& name, const std::string& label,
                                 const Counter&)>& fn) const;
    void visit_gauges(const std::function<void(const std::string& name, const std::string& label,
                                               const Gauge&)>& fn) const;
    void visit_histograms(
        const std::function<void(const std::string& name, const std::string& label,
                                 const Histogram&)>& fn) const;

    /// Number of distinct pinned (name, label) slots across all metric kinds.
    std::size_t size() const;

private:
    friend class Source;

    template <typename T>
    using Family = std::map<std::string, std::unique_ptr<T>, std::less<>>;
    template <typename T>
    using Families = std::map<std::string, Family<T>, std::less<>>;

    template <typename T, typename Make>
    static T& slot(Families<T>& families, std::string_view name, std::string_view label,
                   Make make);
    /// Pinned values plus every source's rows, label cap applied.
    Rows collect() const;
    void remove_source(std::uint64_t id);

    /// Guards the family maps and the source table. The pinned metrics
    /// themselves are not guarded by this: Counter/Gauge are atomic,
    /// Histogram carries its own mutex, and handed-out references stay
    /// valid regardless (slots are unique_ptr-pinned).
    mutable std::mutex mu_;
    Families<Counter> counters_;
    Families<Gauge> gauges_;
    Families<Histogram> histograms_;
    std::map<std::uint64_t, std::function<void(Rows&)>> sources_;
    std::uint64_t next_source_ = 0;
};

}  // namespace pmp::obs
