// The database associated with a production hall (paper §3.3, §4.4-4.5).
//
// The hardware-monitoring extension posts every intercepted motor action to
// its base station, which persists it here. The Fig 6 monitoring tool then
// queries by robot and time range, and the remote-replication / simulation
// applications replay selected ranges.
//
// The store itself is in memory. Its durability is the owning base's
// journal: the append hook writes each record as an `event` record, and a
// restarted base appends the replayed events back (midas/durable.h).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/time.h"
#include "rt/value.h"

namespace pmp::db {

/// One recorded event: who reported it, when (virtual time), and an
/// arbitrary structured payload (for motor actions: method, args, duration).
struct Record {
    std::uint64_t seq = 0;     ///< assigned by the store, strictly increasing
    std::string source;        ///< reporting node label, e.g. "robot:1:1"
    SimTime at;                ///< when the event happened
    rt::Value data;
};

/// Query predicate; unset fields match everything.
struct Query {
    std::optional<std::string> source;
    std::optional<SimTime> from;   // inclusive
    std::optional<SimTime> until;  // exclusive
    std::size_t limit = SIZE_MAX;
};

/// Append-only, in-memory event store; queries scan in append order.
class EventStore {
public:
    /// Append and return the assigned sequence number.
    std::uint64_t append(std::string source, SimTime at, rt::Value data);

    std::vector<Record> query(const Query& q) const;

    /// Distinct sources seen so far (the Fig 6 tool's robot list).
    std::vector<std::string> sources() const;

    std::size_t size() const { return records_.size(); }
    /// The record with sequence number `seq` (1-based); throws Error if
    /// there is none.
    const Record& at(std::uint64_t seq) const;

    /// Observer invoked after every append — how the extension base
    /// journals hall records as they arrive. Pass nullptr to detach.
    void set_append_hook(std::function<void(const Record&)> fn) {
        append_hook_ = std::move(fn);
    }

private:
    std::vector<Record> records_;  // seq == index + 1
    std::function<void(const Record&)> append_hook_;
};

/// Replays a queried range in order, preserving relative timing — the
/// paper's simulation feature ("replay the sequence of movements of all
/// robots at the right relative time").
class ReplayCursor {
public:
    explicit ReplayCursor(std::vector<Record> records);

    bool done() const { return pos_ >= records_.size(); }
    const Record& peek() const { return records_[pos_]; }
    Record next();

    /// Virtual-time gap between the previous record and the current one
    /// (zero for the first). Scales let replay run faster or slower.
    Duration gap_before_next(double time_scale = 1.0) const;

private:
    std::vector<Record> records_;
    std::size_t pos_ = 0;
};

}  // namespace pmp::db
