// Cell-level batched lease protocol (ROADMAP: million-node federation).
//
// The paper's base keeps every adapted node's extensions alive with one
// keep-alive RPC per (node, extension) per period. One hall of a few dozen
// machines barely notices; a federation of 10^5..10^6 nodes melts the
// backhaul — the per-period control-plane cost at the base is O(fleet).
//
// This module collapses that cost to O(cells). Each cell (a radio
// neighbourhood, typically anchored by the node that hosts the cell's
// registrar) runs a CellRelay. The ExtensionBase sends the relay ONE
// delta-encoded frame per period carrying:
//
//   * roster ops — put/del of (node, extension) entries since the last
//     acknowledged frame, sequence-numbered (seq/base) so a dropped,
//     duplicated or reordered frame can never desynchronise the roster:
//     the relay applies a delta only on an exact base match and answers
//     `resync` otherwise, upon which the base resends the full roster.
//     Duplicate frames are answered from the rpc layer's at-most-once
//     reply cache without re-dispatch, so nothing is ever applied twice.
//   * content-hash policy sync — roster entries name their package by the
//     SHA-256 of its sealed bytes; the blob itself rides along only the
//     first time a cell sees that hash (or again after the relay answers
//     `need-blob`, e.g. post-restart). An extension ships once per cell,
//     not once per node.
//   * a pause list — nodes whose caller-side circuit breaker is open this
//     period; the relay skips them and reports nothing, so skipped ticks
//     never count as keep-alive failures (PR 4 semantics preserved).
//
// The relay fans out ordinary per-node install/keepalive RPCs *locally*
// (cell-radio hops, not backhaul) and the reply to frame N carries the
// results collected since frame N-1 — the protocol is pipelined, one
// period of lag, never blocking on the fan-out:
//
//   * per-node liveness as a bitmap over the acknowledged roster order
//     (one bit per entry; lost replies lose one round of positive
//     evidence, which is harmless — absence of evidence never expires a
//     node),
//   * everything that needs reliable delivery (install results, refusals,
//     transport failures, need-blob, membership joins) as id-numbered
//     status records that the relay retains until the base acknowledges
//     the id high-water mark in a later frame. The base applies each id
//     once, so a duplicated or replayed reply cannot double-count a
//     failure or double-apply a renewal.
//
// The base unpacks these statuses into exactly the bookkeeping the
// per-node path maintains — `adapted_` entries, failure ledgers, epoch
// checks, breakers — so receivers, epoch recovery (PR 3) and overload
// protection (PR 4) are unchanged. If the relay itself stops answering,
// the base detaches the cell after the usual failure threshold and the
// cell's nodes fall back to the direct per-node path.
#pragma once

#include "disco/registrar.h"
#include "obs/metrics.h"

namespace pmp::midas {

/// Status codes carried in batch-reply status records. Healthy keep-alive
/// answers travel as bitmap bits, not records; these are the exceptions.
namespace cellproto {
constexpr int kInstalled = 1;      ///< install succeeded; `ext` holds the id
constexpr int kRefused = 2;        ///< keepalive answered false (stale/epoch)
constexpr int kTransportFail = 3;  ///< timeout / unreachable
constexpr int kNeedBlob = 4;       ///< install entry names an uncached hash
constexpr int kShed = 5;           ///< receiver shed the call (Overloaded)
constexpr int kError = 6;          ///< non-transport application error
constexpr int kQuarantined = 7;    ///< install refused: the node quarantined the version
/// Keep-alive renewed, and the receiver's governor escalated the extension
/// since its last reply; `ext` carries the escalation count.
constexpr int kEscalated = 8;
}  // namespace cellproto

struct CellRelayConfig {
    std::string cell;  ///< label for logs/counters, e.g. "hall-a/cell-7"
};

/// The cell-side half of the batched lease protocol. Exports a "midas.cell"
/// service object whose single method `batch(frame)` applies roster deltas
/// and returns the previous round's results. If `local_registrar` is given,
/// the relay watches it for "midas.adaptation" advertisements and reports
/// newcomers to the base as join records — the base need not (and at fleet
/// scale cannot) watch every cell's registrar itself.
class CellRelay {
public:
    CellRelay(rt::RpcEndpoint& rpc, disco::Registrar* local_registrar = nullptr,
              CellRelayConfig config = {});
    ~CellRelay();

    CellRelay(const CellRelay&) = delete;
    CellRelay& operator=(const CellRelay&) = delete;

    std::size_t roster_size() const { return roster_.size(); }
    std::size_t cached_blobs() const { return blobs_.size(); }
    /// Epoch / lease adopted from the last *accepted* frame (refused stale
    /// frames leave them untouched); exposed for tests.
    std::uint64_t epoch() const { return epoch_; }
    std::int64_t lease_ms() const { return lease_ms_; }

    /// Exports frames, resyncs and fanout_calls as `midas.cell.*{cell}`.
    struct Stats {
        std::uint64_t frames = 0;        ///< batch frames processed
        std::uint64_t resyncs = 0;       ///< frames refused on seq mismatch
        std::uint64_t fanout_calls = 0;  ///< local install/keepalive RPCs
        std::uint64_t catchup_hits = 0;      ///< catch-up reads served from cache
        std::uint64_t catchup_waits = 0;     ///< reads answered "retry" while fetching
        std::uint64_t catchup_upstream = 0;  ///< upstream manifest/chunk fetches
    };
    const Stats& stats() const { return stats_; }

private:
    using EntryKey = std::pair<std::uint64_t, std::string>;  // (node, pkg name)
    struct Entry {
        std::uint64_t ext = 0;  ///< remote extension id; 0 = not yet installed
        std::string hash;       ///< content hash of the sealed package
        bool in_flight = false;
        bool need_blob_reported = false;
        int cooldown = 0;  ///< rounds to skip before the next attempt
        int penalty = 0;   ///< current backoff width (doubles per failure)
    };
    struct Status {
        std::uint64_t id;
        std::uint64_t node;
        std::string name;
        int code;
        std::uint64_t ext;
    };
    struct Join {
        std::uint64_t id;
        std::uint64_t node;
        std::string label;
    };

    void build_service_object();
    rt::Value do_batch(const rt::Value& frame);
    void fan_out();
    void push_status(std::uint64_t node, const std::string& name, int code,
                     std::uint64_t ext = 0);

    /// Catch-up proxy: cache-or-fetch replies for the cell's readers. A
    /// miss kicks exactly one upstream fetch per key and answers with a
    /// retry hint; the reader polls back and hits the cache.
    void build_catchup_proxy();
    rt::Value proxy_manifest();
    rt::Value proxy_chunk(std::uint64_t chain, std::int64_t index);
    rt::Value not_ready() const;
    void fetch_manifest_upstream();
    void fetch_chunk_upstream(std::uint64_t chain, std::int64_t index);

    rt::RpcEndpoint& rpc_;
    disco::Registrar* local_registrar_;
    CellRelayConfig config_;

    std::map<EntryKey, Entry> roster_;
    std::map<std::string, Bytes> blobs_;  ///< content hash -> sealed package
    std::uint64_t applied_seq_ = 0;
    std::uint64_t epoch_ = 0;
    std::int64_t lease_ms_ = 0;
    std::set<std::uint64_t> paused_;  ///< breaker-open nodes, this round

    std::uint64_t next_record_id_ = 0;
    std::vector<Status> pending_;     ///< retained until the base acks the id
    std::vector<Join> joins_;         ///< ditto
    std::set<EntryKey> ok_accum_;     ///< healthy keep-alives since last reply

    Stats stats_;
    std::uint64_t watch_token_ = 0;
    std::shared_ptr<rt::ServiceObject> self_object_;

    // Catch-up proxy state. The base's address is learned from the first
    // accepted batch frame (the relay never configures it statically).
    NodeId base_node_{};
    rt::Value manifest_cache_;            ///< last upstream manifest dict
    SimTime manifest_fresh_until_{};      ///< TTL stamp for manifest_cache_
    bool manifest_fetching_ = false;
    std::uint64_t cached_chain_ = 0;      ///< chain the chunk cache belongs to
    std::map<std::int64_t, Bytes> chunk_cache_;   ///< index -> payload
    std::set<std::int64_t> chunk_fetching_;       ///< upstream fetch in flight
    std::shared_ptr<rt::ServiceObject> catchup_object_;
    // Liveness token for in-flight fan-out replies (see disco::LeasedResource).
    std::shared_ptr<char> token_ = std::make_shared<char>('\0');
    obs::Source obs_source_;  // last: unregisters before the stats it reads
};

}  // namespace pmp::midas
