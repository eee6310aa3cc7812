#include "db/store.h"

#include <algorithm>
#include <set>

#include "common/error.h"

namespace pmp::db {

std::uint64_t EventStore::append(std::string source, SimTime at, rt::Value data) {
    Record rec;
    rec.seq = records_.size() + 1;
    rec.source = std::move(source);
    rec.at = at;
    rec.data = std::move(data);
    records_.push_back(std::move(rec));
    if (append_hook_) append_hook_(records_.back());
    return records_.back().seq;
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
    if (seq == 0 || seq > records_.size()) {
        throw Error("no record with seq " + std::to_string(seq));
    }
    return records_[seq - 1];
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
