// Append-only journal: write-ahead log plus compacting snapshot.
//
// The paper's production-hall database — and the extension base's policy
// set and adapted-node book — must survive a base-station restart. The
// Journal provides that durability in the simulated world: records are
// framed with a CRC and appended to a byte medium (`JournalStorage`) that
// outlives the node object holding the Journal. A restarted node builds a
// fresh Journal over the same storage and restores: snapshot first, then
// the WAL records in order. A torn write at the tail (the process died
// mid-append) or a corrupted tail is dropped and reported; everything
// before it is recovered intact.
//
// One format (docs/storage.md). Every WAL frame is a CRC-framed
// multi-record batch: with group commit (`batch_bytes` / `batch_ms` in
// `JournalConfig`) append() buffers records and flushes them together when
// the buffer reaches `batch_bytes` or `batch_ms` of virtual time has passed
// since the first buffered record; without it every record is flushed as
// a one-record batch. A power cut mid-batch loses only the unflushed
// group — never a previously flushed frame.
//
// Every snapshot is a chain of CRC-framed chunk records (one manifest
// frame plus N chunk frames of `snapshot_chunk_bytes`, each independently
// verifiable; one chunk when unset), and compact() keeps the previous
// complete chain in `JournalStorage::snapshot_prev`. A corrupt chunk
// degrades recovery to the previous chain (`snapshot_fallback`) instead of
// discarding the snapshot wholesale.
//
// Crash modelling: power_off() simulates the instant the process dies —
// writes issued after it never reach the medium (and buffered batch
// records are torn away), which is how a crash between "send install" and
// "record activity" is expressed without unwinding the C++ call stack.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "rt/value.h"
#include "sim/simulator.h"

namespace pmp::db {

/// The durable medium. Held by shared_ptr from outside the node object so
/// it survives the node's destruction — the simulated disk.
struct JournalStorage {
    std::string name;   ///< obs label, typically the node label
    Bytes snapshot;       ///< last compacted snapshot (chunk chain)
    Bytes snapshot_prev;  ///< previous complete chunk chain (fallback)
    Bytes wal;            ///< CRC-framed batches appended since the snapshot
};

/// CRC-32 (IEEE 802.3, reflected) over `data`. Exposed so tests can build
/// hand-crafted frames.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Group-commit and snapshot-chunking knobs. The all-zero default commits
/// every record on its own and writes each snapshot as a single chunk.
struct JournalConfig {
    /// Flush the pending batch once its payload reaches this size. 0
    /// disables size-based batching.
    std::size_t batch_bytes = 0;
    /// Flush at most this long (virtual time) after the first buffered
    /// record. Requires a simulator; 0 disables the timer.
    Duration batch_ms = Duration{0};
    /// Chunk size of the snapshot chain. 0 writes one chunk.
    std::size_t snapshot_chunk_bytes = 0;

    bool batching() const { return batch_bytes > 0 || batch_ms.count() > 0; }
};

class Journal {
public:
    /// Builds a journal over `storage` (created if null). Does not touch
    /// the medium: call restore() to read, append()/compact() to write.
    explicit Journal(std::shared_ptr<JournalStorage> storage);

    /// Group-commit variant. `sim` drives the batch_ms flush timer; it may
    /// be null, in which case only size-based flushing applies.
    Journal(std::shared_ptr<JournalStorage> storage, JournalConfig config,
            sim::Simulator* sim = nullptr);

    ~Journal();

    Journal(const Journal&) = delete;
    Journal& operator=(const Journal&) = delete;

    struct Restored {
        std::optional<rt::Value> snapshot;  ///< absent if none / corrupt
        std::vector<rt::Value> wal;         ///< valid records, in append order
        std::size_t dropped_bytes = 0;      ///< trailing wal bytes discarded
        bool snapshot_corrupt = false;      ///< no usable chain at all
        bool snapshot_fallback = false;     ///< current chain bad; prev used
        bool tail_corrupt = false;  ///< wal ended in a torn or damaged frame
    };

    /// Decode the medium. Total: never throws. A truncated or corrupt tail
    /// is dropped (torn final write = normal crash debris); a corrupt
    /// snapshot falls back to the previous chunk chain if one exists, else
    /// yields no snapshot but still replays the WAL. Batch frames replay
    /// as their member records.
    Restored restore() const;

    /// Append one record. Without batching, writes a one-record batch frame
    /// immediately. With batching, buffers into the pending group (see
    /// flush()). Dropped
    /// silently when powered off (the process died; the write never reached
    /// the disk).
    void append(const rt::Value& record);

    /// Write the pending batch, if any, as one multi-record frame.
    void flush();

    /// Atomically replace the snapshot with `state` and truncate the WAL
    /// (buffered records are folded into `state` by the caller and are
    /// discarded). The current chain retires to `snapshot_prev`.
    void compact(const rt::Value& state);

    /// Process death: every write after this instant is lost, including
    /// the buffered batch (torn-group semantics).
    void power_off();
    bool powered() const { return powered_; }

    /// Records appended since construction or the last compact(), buffered
    /// or flushed — the compaction-threshold input.
    std::size_t wal_records() const { return wal_records_; }

    /// The one compaction policy, asked after each append: true once the
    /// WAL holds at least 256 records and at least as many bytes (flushed
    /// plus pending) as the current snapshot chain, so a compaction follows
    /// as many new bytes as it rewrites — amortized O(1) per journaled
    /// byte. docs/storage.md gives the restore and footprint bounds.
    bool compaction_due() const;

    /// Records currently buffered and not yet flushed (tests).
    std::size_t pending_records() const { return pending_count_; }

    const std::shared_ptr<JournalStorage>& storage() const { return storage_; }

private:
    void arm_flush_timer();
    void cancel_flush_timer();

    std::shared_ptr<JournalStorage> storage_;
    JournalConfig config_;
    sim::Simulator* sim_ = nullptr;
    bool powered_ = true;
    std::size_t wal_records_ = 0;

    Bytes pending_;                 ///< batch payload under construction
    std::size_t pending_count_ = 0;
    sim::TimerId flush_timer_{};
    bool flush_armed_ = false;
    std::uint64_t chain_counter_ = 0;  ///< chunk-chain ids within this life
};

}  // namespace pmp::db
