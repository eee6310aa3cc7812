#include "obs/metrics.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace pmp::obs {

// ----------------------------------------------------------- Histogram ----

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
    if (bounds_.empty()) bounds_ = latency_ns_bounds();
    buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
    if (!detail::g_enabled) return;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
    ++count_;
    sum_ += v;
}

double Histogram::quantile(double q) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    double rank = q * static_cast<double>(count_);
    double cumulative = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        double next = cumulative + static_cast<double>(buckets_[i]);
        if (next >= rank && buckets_[i] > 0) {
            if (i >= bounds_.size()) return bounds_.back();  // overflow bucket
            double lo = i == 0 ? 0.0 : bounds_[i - 1];
            double hi = bounds_[i];
            double fraction = (rank - cumulative) / static_cast<double>(buckets_[i]);
            return lo + fraction * (hi - lo);
        }
        cumulative = next;
    }
    return bounds_.back();
}

void Histogram::reset() {
    std::lock_guard<std::mutex> lock(mu_);
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0;
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
    for (const auto& [_, fn] : sources_) fn(rows);
    cap_labels(rows.counters_);
    cap_labels(rows.gauges_);
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

// Histograms are pinned only: gather pointers under the lock, then run the
// callback outside it (slots are unique_ptr-pinned, so the pointers stay
// valid).
void Registry::visit_histograms(
    const std::function<void(const std::string&, const std::string&, const Histogram&)>& fn)
    const {
    std::vector<std::tuple<const std::string*, const std::string*, const Histogram*>> items;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto& [name, family] : histograms_) {
            for (const auto& [label, h] : family) items.emplace_back(&name, &label, h.get());
        }
    }
    for (const auto& [name, label, h] : items) fn(*name, *label, *h);
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
