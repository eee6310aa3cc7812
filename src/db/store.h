// The database associated with a production hall (paper §3.3, §4.4-4.5).
//
// The hardware-monitoring extension posts every intercepted motor action to
// its base station, which persists it here. The Fig 6 monitoring tool then
// queries by robot and time range, and the remote-replication / simulation
// applications replay selected ranges.
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

/// Retention policy: the hall event log must not grow without bound
/// across epochs. Zero fields are unlimited. When a cap is exceeded the
/// oldest records are trimmed (counter `db.eventstore.compactions`);
/// sequence numbers are never reused — trimmed seqs simply no longer
/// resolve.
struct Retention {
    std::size_t max_records = 0;  ///< keep at most this many records
    std::size_t max_bytes = 0;    ///< keep at most ~this many payload bytes
};

/// Append-only event store with per-source indexing.
class EventStore {
public:
    /// Append and return the assigned sequence number.
    std::uint64_t append(std::string source, SimTime at, rt::Value data);

    std::vector<Record> query(const Query& q) const;

    /// Distinct sources seen so far (the Fig 6 tool's robot list).
    std::vector<std::string> sources() const;

    std::size_t size() const { return records_.size(); }
    const Record& at(std::uint64_t seq) const;

    /// Install a retention policy (label tags the compaction counter,
    /// typically the owning node's label). Applies immediately and on
    /// every subsequent append.
    void set_retention(Retention retention, std::string label = {});
    const Retention& retention() const { return retention_; }

    /// Sequence number of the oldest retained record, or base_seq()+1 ==
    /// next assigned seq when empty. Seqs at or below base_seq() were
    /// trimmed by retention.
    std::uint64_t base_seq() const { return base_seq_; }

    /// Serialize the whole store as {base_seq, records} (canonical Value
    /// encoding) — the hall's database surviving a base-station restart.
    Bytes snapshot() const;
    /// Rebuild from snapshot() bytes. Malformed or hostile input raises a
    /// typed pmp::Error describing what was wrong — never an unstructured
    /// escape from the decoder.
    static EventStore restore(std::span<const std::uint8_t> snapshot);

    /// Observer invoked after every append — how the extension base
    /// journals hall records as they arrive. Pass nullptr to detach.
    void set_append_hook(std::function<void(const Record&)> fn) {
        append_hook_ = std::move(fn);
    }

private:
    void apply_retention();
    static std::size_t approx_size(const Record& rec);

    std::vector<Record> records_;  // seq == base_seq_ + index + 1
    std::uint64_t base_seq_ = 0;   // seqs <= base_seq_ were trimmed
    Retention retention_;
    std::string label_;
    std::vector<std::size_t> sizes_;  // parallel to records_; only kept
                                      // while byte retention is active
    std::size_t bytes_ = 0;
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
