#include "obs/metrics.h"

#include <algorithm>
#include <utility>

namespace pmp::obs {

// ----------------------------------------------------------- Histogram ----

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(bounds.empty() ? latency_ns_bounds() : std::move(bounds)),
      buckets_(bounds_.size() + 1) {}

Histogram::Histogram(std::vector<double> bounds, const std::vector<std::uint64_t>& buckets,
                     double sum)
    : Histogram(std::move(bounds)) {
    for (std::size_t i = 0; i < buckets.size() && i < buckets_.size(); ++i) {
        buckets_[i].store(buckets[i], std::memory_order_relaxed);
    }
    sum_.store(sum, std::memory_order_relaxed);
}

void Histogram::observe(double v) {
    if (!detail::g_enabled) return;
    auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
    std::uint64_t total = 0;
    for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
    return total;
}

std::vector<std::uint64_t> Histogram::buckets() const {
    std::vector<std::uint64_t> out;
    out.reserve(buckets_.size());
    for (const auto& b : buckets_) out.push_back(b.load(std::memory_order_relaxed));
    return out;
}

double Histogram::quantile(double q) const {
    // Rank against one snapshot of the buckets, so a racing observe cannot
    // put the rank past the last counted sample.
    const std::vector<std::uint64_t> counts = buckets();
    std::uint64_t total = 0;
    for (std::uint64_t c : counts) total += c;
    if (total == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    double rank = q * static_cast<double>(total);
    double cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        double next = cumulative + static_cast<double>(counts[i]);
        if (next >= rank && counts[i] > 0) {
            if (i >= bounds_.size()) return bounds_.back();  // overflow bucket
            double lo = i == 0 ? 0.0 : bounds_[i - 1];
            double hi = bounds_[i];
            double fraction = (rank - cumulative) / static_cast<double>(counts[i]);
            return lo + fraction * (hi - lo);
        }
        cumulative = next;
    }
    return bounds_.back();
}

void Histogram::reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
}

namespace {
std::vector<double> exponential_edges(double lo, double hi) {
    // 1 / 2.5 / 5 per decade, the classic log-friendly ladder.
    std::vector<double> out;
    for (double decade = lo; decade <= hi; decade *= 10) {
        out.push_back(decade);
        if (decade * 2.5 <= hi) out.push_back(decade * 2.5);
        if (decade * 5 <= hi) out.push_back(decade * 5);
    }
    return out;
}
}  // namespace

const std::vector<double>& Histogram::latency_ns_bounds() {
    static const std::vector<double> kBounds = exponential_edges(50, 1e8);
    return kBounds;
}

const std::vector<double>& Histogram::latency_ms_bounds() {
    static const std::vector<double> kBounds = exponential_edges(0.1, 60'000);
    return kBounds;
}

// ------------------------------------------------------------ Registry ----

namespace {

template <typename Table, typename V>
void add_row(Table& table, std::string_view name, std::string_view label, V value) {
    auto fam = table.find(name);
    if (fam == table.end()) {
        fam = table.emplace(std::string(name), typename Table::mapped_type{}).first;
    }
    auto it = fam->second.find(label);
    if (it == fam->second.end()) {
        fam->second.emplace(std::string(label), value);
    } else {
        it->second += value;
    }
}

/// Export-time cardinality cap: per family, the first kLabelCap labels in
/// sorted order keep their rows and the rest are summed into the overflow
/// row. Sorted order makes the cut independent of registration order
/// (shard layouts build their nodes in different orders). The unlabelled
/// row does not count against the cap.
template <typename Table>
void cap_labels(Table& table) {
    for (auto& [_, family] : table) {
        std::size_t kept = 0;
        typename Table::mapped_type::mapped_type overflow{};
        bool folded = false;
        for (auto it = family.begin(); it != family.end();) {
            if (it->first.empty() || it->first == Registry::kOverflowLabel ||
                kept++ < Registry::kLabelCap) {
                ++it;
                continue;
            }
            overflow += it->second;
            folded = true;
            it = family.erase(it);
        }
        if (folded) family[Registry::kOverflowLabel] += overflow;
    }
}

}  // namespace

void Rows::counter(std::string_view name, std::string_view label, std::uint64_t value) {
    add_row(counters_, name, label, value);
}

void Rows::gauge(std::string_view name, std::string_view label, std::int64_t value) {
    add_row(gauges_, name, label, value);
}

void Rows::histogram(std::string_view name, std::string_view label, const Histogram& h) {
    add_row(histograms_, name, label, HistogramRow{h.bounds(), h.buckets(), h.sum()});
}

Rows::HistogramRow& Rows::HistogramRow::operator+=(const HistogramRow& other) {
    if (buckets.empty()) {
        bounds = other.bounds;
        buckets.assign(other.buckets.size(), 0);
    }
    for (std::size_t i = 0; i < buckets.size() && i < other.buckets.size(); ++i) {
        buckets[i] += other.buckets[i];
    }
    sum += other.sum;
    return *this;
}

Source::Source(Source&& other) noexcept
    : reg_(std::exchange(other.reg_, nullptr)), id_(other.id_) {}

Source& Source::operator=(Source&& other) noexcept {
    if (this != &other) {
        if (reg_) reg_->remove_source(id_);
        reg_ = std::exchange(other.reg_, nullptr);
        id_ = other.id_;
    }
    return *this;
}

Source::~Source() {
    if (reg_) reg_->remove_source(id_);
}

Registry& Registry::global() {
    static Registry registry;
    return registry;
}

template <typename T, typename Make>
T& Registry::slot(Families<T>& families, std::string_view name, std::string_view label,
                  Make make) {
    auto fam_it = families.find(name);
    if (fam_it == families.end()) {
        fam_it = families.emplace(std::string(name), Family<T>{}).first;
    }
    Family<T>& family = fam_it->second;
    auto it = family.find(label);
    if (it == family.end()) {
        // Cardinality cap: overflow labels share one slot per family. The
        // unlabelled slot does not count against the cap.
        if (!label.empty() && family.size() >= kLabelCap) label = kOverflowLabel;
        it = family.find(label);
        if (it == family.end()) it = family.emplace(std::string(label), make()).first;
    }
    return *it->second;
}

Counter& Registry::counter(std::string_view name, std::string_view label) {
    std::lock_guard<std::mutex> lock(mu_);
    return slot(counters_, name, label, [] { return std::make_unique<Counter>(); });
}

Gauge& Registry::gauge(std::string_view name, std::string_view label) {
    std::lock_guard<std::mutex> lock(mu_);
    return slot(gauges_, name, label, [] { return std::make_unique<Gauge>(); });
}

Histogram& Registry::histogram(std::string_view name, std::string_view label,
                               std::vector<double> bounds) {
    std::lock_guard<std::mutex> lock(mu_);
    return slot(histograms_, name, label,
                [&] { return std::make_unique<Histogram>(std::move(bounds)); });
}

Source Registry::add_source(std::function<void(Rows&)> fn) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t id = ++next_source_;
    sources_.emplace(id, std::move(fn));
    return Source(this, id);
}

void Registry::remove_source(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    sources_.erase(id);
}

void Registry::reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [_, family] : counters_) {
        for (auto& [__, c] : family) c->reset();
    }
    for (auto& [_, family] : gauges_) {
        for (auto& [__, g] : family) g->reset();
    }
    for (auto& [_, family] : histograms_) {
        for (auto& [__, h] : family) h->reset();
    }
}

// Sources run under the lock: that is what makes unregistration safe — a
// Source being destroyed waits for an export in progress, so no callback
// ever reads a component whose destructor has begun. The visitors' own
// callbacks run on the collected copy, outside the lock, so they may
// re-enter the registry.
Rows Registry::collect() const {
    Rows rows;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, family] : counters_) {
        for (const auto& [label, c] : family) rows.counter(name, label, c->value());
    }
    for (const auto& [name, family] : gauges_) {
        for (const auto& [label, g] : family) rows.gauge(name, label, g->value());
    }
    for (const auto& [name, family] : histograms_) {
        for (const auto& [label, h] : family) rows.histogram(name, label, *h);
    }
    for (const auto& [_, fn] : sources_) fn(rows);
    cap_labels(rows.counters_);
    cap_labels(rows.gauges_);
    cap_labels(rows.histograms_);
    return rows;
}

void Registry::visit_counters(
    const std::function<void(const std::string&, const std::string&, const Counter&)>& fn)
    const {
    Rows rows = collect();
    for (const auto& [name, family] : rows.counters_) {
        for (const auto& [label, value] : family) fn(name, label, Counter{value});
    }
}

void Registry::visit_gauges(
    const std::function<void(const std::string&, const std::string&, const Gauge&)>& fn) const {
    Rows rows = collect();
    for (const auto& [name, family] : rows.gauges_) {
        for (const auto& [label, value] : family) fn(name, label, Gauge{value});
    }
}

void Registry::visit_histograms(
    const std::function<void(const std::string&, const std::string&, const Histogram&)>& fn)
    const {
    Rows rows = collect();
    for (const auto& [name, family] : rows.histograms_) {
        for (const auto& [label, row] : family) {
            fn(name, label, Histogram{row.bounds, row.buckets, row.sum});
        }
    }
}

std::size_t Registry::size() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto& [_, family] : counters_) n += family.size();
    for (const auto& [_, family] : gauges_) n += family.size();
    for (const auto& [_, family] : histograms_) n += family.size();
    return n;
}

}  // namespace pmp::obs
