#include "db/store.h"

#include <algorithm>
#include <set>

#include "common/error.h"
#include "obs/metrics.h"

namespace pmp::db {

std::uint64_t EventStore::append(std::string source, SimTime at, rt::Value data) {
    Record rec;
    rec.seq = base_seq_ + records_.size() + 1;
    rec.source = std::move(source);
    rec.at = at;
    rec.data = std::move(data);
    records_.push_back(std::move(rec));
    if (retention_.max_bytes > 0) {
        sizes_.push_back(approx_size(records_.back()));
        bytes_ += sizes_.back();
    }
    if (append_hook_) append_hook_(records_.back());
    std::uint64_t seq = records_.back().seq;
    apply_retention();
    return seq;
}

std::size_t EventStore::approx_size(const Record& rec) {
    // The serialized footprint, give or take framing: source + payload
    // encoding + seq/time fixed cost.
    return rec.source.size() + rec.data.encode().size() + 24;
}

void EventStore::set_retention(Retention retention, std::string label) {
    const bool had_bytes = retention_.max_bytes > 0;
    retention_ = retention;
    label_ = std::move(label);
    if (retention_.max_bytes > 0 && !had_bytes) {
        sizes_.clear();
        sizes_.reserve(records_.size());
        bytes_ = 0;
        for (const Record& rec : records_) {
            sizes_.push_back(approx_size(rec));
            bytes_ += sizes_.back();
        }
    } else if (retention_.max_bytes == 0) {
        sizes_.clear();
        bytes_ = 0;
    }
    apply_retention();
}

void EventStore::apply_retention() {
    std::size_t drop = 0;
    if (retention_.max_records > 0 && records_.size() > retention_.max_records) {
        drop = records_.size() - retention_.max_records;
    }
    if (retention_.max_bytes > 0) {
        std::size_t remaining = bytes_;
        for (std::size_t i = 0; i < drop; ++i) remaining -= sizes_[i];
        while (drop < records_.size() && remaining > retention_.max_bytes) {
            remaining -= sizes_[drop];
            ++drop;
        }
    }
    if (drop == 0) return;
    if (!sizes_.empty()) {
        for (std::size_t i = 0; i < drop; ++i) bytes_ -= sizes_[i];
        sizes_.erase(sizes_.begin(), sizes_.begin() + static_cast<std::ptrdiff_t>(drop));
    }
    records_.erase(records_.begin(), records_.begin() + static_cast<std::ptrdiff_t>(drop));
    base_seq_ += drop;
    auto& reg = obs::Registry::global();
    reg.counter("db.eventstore.compactions", label_).inc();
    reg.counter("db.eventstore.trimmed_records", label_)
        .inc(static_cast<std::uint64_t>(drop));
}

std::vector<Record> EventStore::query(const Query& q) const {
    std::vector<Record> out;
    for (const Record& rec : records_) {
        if (out.size() >= q.limit) break;
        if (q.source && rec.source != *q.source) continue;
        if (q.from && rec.at < *q.from) continue;
        if (q.until && rec.at >= *q.until) continue;
        out.push_back(rec);
    }
    return out;
}

std::vector<std::string> EventStore::sources() const {
    std::set<std::string> seen;
    for (const Record& rec : records_) seen.insert(rec.source);
    return {seen.begin(), seen.end()};
}

const Record& EventStore::at(std::uint64_t seq) const {
    if (seq <= base_seq_ || seq > base_seq_ + records_.size()) {
        throw Error("no record with seq " + std::to_string(seq));
    }
    return records_[seq - base_seq_ - 1];
}

Bytes EventStore::snapshot() const {
    rt::List out;
    out.reserve(records_.size());
    for (const Record& rec : records_) {
        rt::Dict d{{"source", rt::Value{rec.source}},
                   {"at_ns", rt::Value{rec.at.ns}},
                   {"data", rec.data}};
        out.push_back(rt::Value{std::move(d)});
    }
    return rt::Value{rt::Dict{{"base_seq",
                               rt::Value{static_cast<std::int64_t>(base_seq_)}},
                              {"records", rt::Value{std::move(out)}}}}
        .encode();
}

EventStore EventStore::restore(std::span<const std::uint8_t> snapshot) {
    EventStore store;
    rt::Value v;
    try {
        v = rt::Value::decode(snapshot);
    } catch (const Error&) {
        throw;  // already typed (ParseError etc.)
    } catch (const std::exception& e) {
        // A hostile length prefix can trip the allocator or a container
        // guard; keep the escape typed.
        throw Error(std::string("event store snapshot: ") + e.what());
    }
    if (!v.is_dict()) {
        throw Error("event store snapshot: expected a {base_seq, records} dict, got " +
                    std::string(rt::Value::kind_name(v.kind())));
    }
    const rt::Value* base = v.as_dict().find("base_seq");
    const rt::Value* records = v.as_dict().find("records");
    if (!base || !base->is_int() || base->as_int() < 0 || !records) {
        throw Error("event store snapshot: malformed retention header");
    }
    store.base_seq_ = static_cast<std::uint64_t>(base->as_int());
    if (!records->is_list()) {
        throw Error("event store snapshot: expected a list of records, got " +
                    std::string(rt::Value::kind_name(records->kind())));
    }
    for (const rt::Value& rec : records->as_list()) {
        if (!rec.is_dict()) {
            throw Error("event store snapshot: record is not a dict");
        }
        const rt::Dict& d = rec.as_dict();
        const rt::Value* source = d.find("source");
        const rt::Value* at_ns = d.find("at_ns");
        const rt::Value* data = d.find("data");
        if (!source || !source->is_str()) {
            throw Error("event store snapshot: record missing string 'source'");
        }
        if (!at_ns || !at_ns->is_int()) {
            throw Error("event store snapshot: record missing int 'at_ns'");
        }
        if (!data) {
            throw Error("event store snapshot: record missing 'data'");
        }
        store.append(source->as_str(), SimTime{at_ns->as_int()}, *data);
    }
    return store;
}

ReplayCursor::ReplayCursor(std::vector<Record> records) : records_(std::move(records)) {
    std::sort(records_.begin(), records_.end(),
              [](const Record& a, const Record& b) { return a.at < b.at; });
}

Record ReplayCursor::next() {
    if (done()) throw Error("replay cursor exhausted");
    return records_[pos_++];
}

Duration ReplayCursor::gap_before_next(double time_scale) const {
    if (pos_ == 0 || done()) return Duration{0};
    auto gap = records_[pos_].at - records_[pos_ - 1].at;
    return Duration{static_cast<std::int64_t>(static_cast<double>(gap.count()) * time_scale)};
}

}  // namespace pmp::db
