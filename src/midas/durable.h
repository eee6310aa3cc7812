// Durable-state record formats for MIDAS (see docs/recovery.md).
//
// The journal (db::Journal) frames and checksums opaque rt::Values; this
// module defines what MIDAS actually writes into those frames and how a
// restarted node folds them back into live state. Records are dicts tagged
// with an "op" key; unknown or malformed records are skipped (counted)
// rather than fatal, so a newer node can always read an older journal.
//
// There is one format. A snapshot is the compacted log: a list of the same
// records, built by the same rec_* builders and replayed by the same apply
// step as the WAL that follows it. Fields marked [snapshot] are written
// only by to_snapshot(); a WAL record never carries them.
//
// Base journal ops:
//   epoch         {epoch}                       — adopted at (re)start
//   policy-add    {name, version, sealed}       — sealed signed package
//   policy-remove {name, [snapshot] version}    — version: last_version of a
//                                                 removed name, kept so a
//                                                 re-add still bumps past it
//   adapt         {node, label, since_ns,       — adapted-node book entry
//                  [snapshot] installed}          installed: name -> ext id
//   install       {node, label, name, ext}      — remote ext id recorded
//   node-gone     {label}                       — dropped or handed off
//   event         {source, at_ns, data}         — hall EventStore record
//   rollout-begin {name, version, sealed, incumbent, stages_bp,
//                  stage, status, cause}        — staged canary opened
//   rollout-stage {name, stage}                 — promoted to stage index
//   rollout-abort {name, cause}                 — health gate breached
//   rollout-complete {name}                     — final stage confirmed
//
// Receiver journal ops:
//   install       {name, version, issuer}       — manifest entry
//   withdraw      {name}
//   quarantine    {name, version}               — survives restarts
//   unquarantine  {name, version}               — rollback amnesty / newer
//                                                 version lifted the entry
//   flight        {reason, at_ns, events}       — flight-recorder dump
//                                                 (black box at quarantine)
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/time.h"
#include "db/journal.h"
#include "db/store.h"
#include "obs/trace.h"
#include "rt/value.h"

namespace pmp::midas {

/// The extension base's durable state, replayed from its journal.
struct BaseDurableState {
    std::uint64_t epoch = 0;  ///< 0 = journal held no prior life

    std::map<std::string, std::uint32_t> last_version;
    std::map<std::string, Bytes> policies;  ///< name -> sealed package

    struct BookEntry {
        std::uint64_t node = 0;  ///< NodeId value at crash time
        std::string label;
        SimTime since;
        std::map<std::string, std::uint64_t> installed;  ///< name -> remote ext
        bool operator==(const BookEntry&) const = default;
    };
    std::map<std::string, BookEntry> book;  ///< keyed by node label

    struct Event {
        std::string source;
        SimTime at;
        rt::Value data;
        bool operator==(const Event&) const = default;
    };
    std::vector<Event> events;

    /// A staged canary rollout (see midas/rollout.h and docs/rollout.md).
    /// The journaled facts are exactly what a restarted base needs to
    /// resume at the right stage: the canary package, which version it
    /// replaces, the stage ladder (basis points of the fleet) and the last
    /// promoted stage. Health-window baselines are deliberately volatile —
    /// a new life re-measures from scratch rather than trusting counters
    /// from before the crash.
    struct RolloutEntry {
        std::string name;
        std::uint32_t version = 0;            ///< canary version
        Bytes sealed;                         ///< canary sealed package
        std::uint32_t incumbent_version = 0;  ///< version rolled back to
        std::vector<std::uint32_t> stages_bp; ///< cohort sizes, basis points
        std::uint32_t stage = 0;              ///< current stage index
        int status = 0;                       ///< 0 active, 1 aborted, 2 complete
        std::string abort_cause;
        bool operator==(const RolloutEntry&) const = default;
    };
    std::map<std::string, RolloutEntry> rollouts;

    std::size_t skipped_records = 0;  ///< malformed/unknown records ignored

    bool operator==(const BaseDurableState&) const = default;

    /// Fold snapshot records, then WAL records, into state. Total: never
    /// throws.
    static BaseDurableState replay(const db::Journal::Restored& restored);

    /// The compacted log for db::Journal::compact(): a list of records that
    /// replays to this state. With `hall`, the event records are read from
    /// that store in place and `events` is ignored — the base's compaction
    /// walks its live hall log instead of copying it first.
    rt::Value to_snapshot(const db::EventStore* hall = nullptr) const;

    // Record builders (the write side of the formats above). The optional
    // arguments are the [snapshot] fields.
    static rt::Value rec_epoch(std::uint64_t epoch);
    static rt::Value rec_policy_add(const std::string& name, std::uint32_t version,
                                    const Bytes& sealed);
    static rt::Value rec_policy_remove(const std::string& name,
                                       std::optional<std::uint32_t> version = std::nullopt);
    static rt::Value rec_adapt(std::uint64_t node, const std::string& label, SimTime since,
                               const std::map<std::string, std::uint64_t>* installed = nullptr);
    static rt::Value rec_install(std::uint64_t node, const std::string& label,
                                 const std::string& name, std::uint64_t ext);
    static rt::Value rec_node_gone(const std::string& label);
    static rt::Value rec_event(const std::string& source, SimTime at, const rt::Value& data);
    static rt::Value rec_rollout_begin(const RolloutEntry& entry);
    static rt::Value rec_rollout_stage(const std::string& name, std::uint32_t stage);
    static rt::Value rec_rollout_abort(const std::string& name, const std::string& cause);
    static rt::Value rec_rollout_complete(const std::string& name);
};

/// The adaptation service's durable state: the installed-extension
/// manifest as of the crash (for diagnosis — extensions are NOT
/// resurrected; the normal adaptation path re-extends the node) and the
/// quarantine list (which IS enforced again after restart).
struct ReceiverDurableState {
    struct ManifestEntry {
        std::string name;
        std::uint32_t version = 0;
        std::string issuer;
        bool operator==(const ManifestEntry&) const = default;
    };
    std::vector<ManifestEntry> manifest;
    std::vector<std::pair<std::string, std::uint32_t>> quarantined;  ///< (name, version)

    /// A flight-recorder dump journaled at quarantine time: the trace
    /// events immediately preceding the decision, for post-mortem without
    /// having caught the run live. Bounded (kMaxFlights, oldest dropped).
    struct FlightDump {
        std::string reason;
        SimTime at;
        std::vector<obs::TraceEvent> events;
        bool operator==(const FlightDump&) const = default;
    };
    static constexpr std::size_t kMaxFlights = 8;
    std::vector<FlightDump> flights;

    std::size_t skipped_records = 0;

    bool operator==(const ReceiverDurableState&) const = default;

    static ReceiverDurableState replay(const db::Journal::Restored& restored);
    /// The compacted log: install, quarantine and flight records.
    rt::Value to_snapshot() const;

    static rt::Value rec_install(const std::string& name, std::uint32_t version,
                                 const std::string& issuer);
    static rt::Value rec_withdraw(const std::string& name);
    static rt::Value rec_quarantine(const std::string& name, std::uint32_t version);
    static rt::Value rec_unquarantine(const std::string& name, std::uint32_t version);
    static rt::Value rec_flight(const std::string& reason, SimTime at,
                                const std::vector<obs::TraceEvent>& events);
};

}  // namespace pmp::midas
