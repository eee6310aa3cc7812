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
// The fan-out is the LeaseRoster below, the one lease engine: the base
// runs another in-process for every node not behind an attached cell, and
// outcomes from both reach the base's bookkeeping through one handler. If
// a relay stops answering, the base detaches the cell after the usual
// failure threshold and its nodes move onto the base's own roster.
#pragma once

#include <optional>

#include "disco/registrar.h"
#include "obs/metrics.h"
#include "obs/symbol.h"

namespace pmp::midas {

/// Status codes carried in batch-reply status records. Healthy keep-alive
/// answers travel as bitmap bits, not records; these are the exceptions.
namespace cellproto {
constexpr int kRenewed = 0;        ///< keep-alive renewed (a bitmap bit, never a record)
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

/// The lease engine: a roster of (node, extension) lines, each either the
/// install of a package named by content hash (`ext` == 0) or the
/// keep-alive of an installed extension, carried out as ordinary per-node
/// `adaptation.install` / `adaptation.keepalive` rpcs. A CellRelay runs one
/// for its cell; an ExtensionBase runs one in-process for every node not
/// behind an attached cell. Outcomes go to the owner's sink as cellproto
/// codes.
class LeaseRoster {
public:
    struct Line {
        std::uint64_t ext = 0;  ///< remote extension id; 0 = install `hash`
        std::string hash;       ///< content hash of the sealed package
        int rank = 0;           ///< install order: prerequisites rank lower
        std::uint32_t gen = 0;  ///< bumps whenever `hash` changes
        std::optional<std::uint32_t> flight;  ///< gen of the call on the air
        bool renewed = false;  ///< a keep-alive went through since the owner cleared it
        bool need_blob_reported = false;
        int cooldown = 0;  ///< rounds to skip before the next attempt
        int penalty = 0;   ///< current backoff width (doubles per failure)
    };
    using Lines = std::map<std::string, Line>;  ///< one node's lines by name

    /// Names the `pkg.push` span (component, one attribute `key`=`label`)
    /// and the failpoint node of "install.sent".
    struct Owner {
        Symbol component;
        std::string key;
        std::string label;
    };
    /// Sealed bytes for a content hash, or nullptr (reported once per line
    /// as kNeedBlob).
    using BlobSource = std::function<const Bytes*(const std::string& hash)>;
    /// May the engine call `node` now? Asked at most once per node per
    /// round() or push(), right before the node's first call and never for
    /// a node it will not call: the answer may spend a circuit breaker's
    /// half-open probe. A refused node sits the round out.
    using Admit = std::function<bool(std::uint64_t node)>;
    /// One outcome: a cellproto code, with the extension id for kInstalled
    /// and the escalation count for kEscalated. Called once the engine is
    /// done with the line, so the sink may erase it — except kNeedBlob,
    /// which round()/push() report as they go.
    using Sink = std::function<void(std::uint64_t node, const std::string& name, int code,
                                    std::uint64_t ext)>;

    /// `calls` is how the owner calls its nodes: the timeout bounds every
    /// call and must sit under the owner's period, so one round's results
    /// are in before the next; installs and amnesties also get its
    /// transport retries, keep-alives none.
    LeaseRoster(rt::RpcEndpoint& rpc, Owner owner, rt::CallOptions calls, BlobSource blobs,
                Admit admit, Sink sink);
    LeaseRoster(const LeaseRoster&) = delete;
    LeaseRoster& operator=(const LeaseRoster&) = delete;

    /// Base epoch and lease carried on every call.
    void set_terms(std::uint64_t epoch, std::int64_t lease_ms) {
        epoch_ = epoch;
        lease_ms_ = lease_ms;
    }
    std::uint64_t epoch() const { return epoch_; }
    std::int64_t lease_ms() const { return lease_ms_; }
    /// Insert or update a line. A new `hash` is new content: it starts with
    /// a clean backoff, and a reply still on the air for the old content is
    /// ignored when it lands.
    void put(std::uint64_t node, const std::string& name, std::uint64_t ext,
             const std::string& hash, int rank);
    void del(std::uint64_t node, const std::string& name);
    void forget(std::uint64_t node) { nodes_.erase(node); }
    void clear() { nodes_.clear(); }
    std::size_t size() const;
    /// Visit every line in (node, name) order — the order both ends of a
    /// cell's liveness bitmap agree on.
    template <class Fn>
    void for_each(Fn fn) {
        for (auto& [node, lines] : nodes_) {
            for (auto& [name, line] : lines) fn(node, name, line);
        }
    }

    struct Sent {
        std::uint64_t installs = 0;
        std::uint64_t keepalives = 0;
    };
    /// One period: renew every installed line and (re)try every missing
    /// install, skipping refused nodes, lines with a call for the same
    /// content on the air, and lines backing off after a failure.
    Sent round();
    /// Send `node`'s missing installs now, under the same skips as round();
    /// returns how many went out.
    std::uint64_t push(std::uint64_t node);
    /// Fire-and-forget rollback amnesty: lift `node`'s quarantine of
    /// (name, version).
    void unquarantine(std::uint64_t node, const std::string& name, std::int64_t version);

private:
    Line* find(std::uint64_t node, const std::string& name);
    /// Visit `lines` prerequisites first: ascending rank, name order within.
    template <class Fn>
    static void in_rank_order(Lines& lines, Fn fn);
    static bool busy(const Line& l) { return l.flight == l.gen; }
    /// The calls round() (`installs_only`: push()) owes one node's lines.
    void call(std::uint64_t node, Lines& lines, bool installs_only, Sent& sent);
    /// Send the install for `l`; false if its blob is missing.
    bool install(std::uint64_t node, const std::string& name, Line& l);
    void keepalive(std::uint64_t node, const std::string& name, Line& l);

    rt::RpcEndpoint& rpc_;
    Owner owner_;
    rt::CallOptions calls_;
    BlobSource blobs_;
    Admit admit_;
    Sink sink_;
    std::uint64_t epoch_ = 0;
    std::int64_t lease_ms_ = 0;
    std::map<std::uint64_t, Lines> nodes_;
    // Liveness token for in-flight replies (see disco::LeasedResource).
    std::shared_ptr<char> token_ = std::make_shared<char>('\0');
};

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
    std::uint64_t epoch() const { return roster_.epoch(); }
    std::int64_t lease_ms() const { return roster_.lease_ms(); }

    /// Exports frames, resyncs and fanout_calls as `midas.cell.*{cell}`.
    struct Stats {
        std::uint64_t frames = 0;        ///< batch frames processed
        std::uint64_t resyncs = 0;       ///< frames refused on seq mismatch
        std::uint64_t fanout_calls = 0;  ///< local install/keepalive RPCs
    };
    const Stats& stats() const { return stats_; }

private:
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
    void push_status(std::uint64_t node, const std::string& name, int code,
                     std::uint64_t ext = 0);

    rt::RpcEndpoint& rpc_;
    disco::Registrar* local_registrar_;
    CellRelayConfig config_;

    std::map<std::string, Bytes> blobs_;  ///< content hash -> sealed package
    LeaseRoster roster_;
    std::uint64_t applied_seq_ = 0;
    std::set<std::uint64_t> paused_;  ///< breaker-open nodes, this round

    std::uint64_t next_record_id_ = 0;
    std::vector<Status> pending_;     ///< retained until the base acks the id
    std::vector<Join> joins_;         ///< ditto

    Stats stats_;
    std::uint64_t watch_token_ = 0;
    std::shared_ptr<rt::ServiceObject> self_object_;
    obs::Source obs_source_;  // last: unregisters before the stats it reads
};

}  // namespace pmp::midas
