// Extension base: the proactive side of MIDAS (paper §3.2).
//
// An ExtensionBase embodies a location's policy. It holds a set of signed
// extension packages, watches its registrar for adaptation services coming
// into range, and pushes the policy onto every newcomer. While a node stays
// in the space the base keeps the node's extensions alive with periodic
// keep-alives; when the node leaves, keep-alives stop reaching it and the
// receiver's leases lapse. Changing the policy (add / replace / remove an
// extension) immediately propagates to all adapted nodes. The base records
// its extension activity — which nodes were adapted with what, when — the
// paper's "simple roaming algorithm" bookkeeping.
//
// The same class serves both deployment extremes: one base per hall
// (infrastructure mode) or one base inside every device (ad-hoc /
// symmetric mode).
#pragma once

#include "crypto/trust.h"
#include "db/journal.h"
#include "db/store.h"
#include "disco/registrar.h"
#include "midas/cell.h"
#include "midas/durable.h"
#include "midas/package.h"
#include "midas/rollout.h"
#include "obs/metrics.h"
#include "rt/breaker.h"

namespace pmp::midas {

struct BaseConfig {
    std::string issuer;                       ///< signing identity, e.g. "hall-a"
    Duration extension_lease = seconds(2);    ///< lease requested per install
    Duration keepalive_period = milliseconds(800);
    int max_keepalive_failures = 2;           ///< consecutive failures before
                                              ///< the node is considered gone
    /// Group-commit / chunked-snapshot knobs applied to the base's journal
    /// (docs/storage.md). All-zero commits every record on its own.
    db::JournalConfig journal;
    /// Caller-side circuit breaker over the install / keep-alive paths:
    /// after `breaker.threshold` consecutive Overloaded-or-timeout failures
    /// toward one node, traffic to it is short-circuited for a doubling
    /// cool-down (open_period .. open_max), then a single half-open probe
    /// decides. The default threshold sits above max_keepalive_failures so
    /// a plainly dead node is dropped by the keep-alive ledger before its
    /// breaker ever opens; the breaker earns its keep against *alive but
    /// drowning* receivers.
    rt::BreakerConfig breaker;
    /// Staged canary rollout knobs (begin_rollout; see midas/rollout.h and
    /// docs/rollout.md).
    RolloutConfig rollout;
};

class ExtensionBase {
public:
    /// `registrar` is the lookup service this base watches (usually running
    /// on the same node). `keys` must hold a signing key for config.issuer.
    ///
    /// With a `journal` the base becomes durable: the policy set, the
    /// adapted-node book and (if `hall_store` is given) every hall record
    /// are journaled as they change, and a base constructed over a journal
    /// with prior state recovers it under a bumped epoch — see
    /// docs/recovery.md. Without a journal behaviour is unchanged.
    ExtensionBase(rt::RpcEndpoint& rpc, disco::Registrar& registrar,
                  const crypto::KeyStore& keys, BaseConfig config,
                  std::shared_ptr<db::Journal> journal = nullptr,
                  db::EventStore* hall_store = nullptr);
    ~ExtensionBase();

    ExtensionBase(const ExtensionBase&) = delete;
    ExtensionBase& operator=(const ExtensionBase&) = delete;

    /// Add or replace a policy extension. If a package with the same name
    /// exists, the version is bumped past it automatically so receivers
    /// treat the push as a replacement. Newly arrived and already-adapted
    /// nodes both get the (new) package.
    void add_extension(ExtensionPackage pkg);

    /// Drop a policy extension and revoke it from all adapted nodes.
    void remove_extension(const std::string& name);

    /// Stage a new version of an existing policy extension through cohort
    /// rollout instead of pushing it fleet-wide (docs/rollout.md). The
    /// incumbent stays pinned in the policy set until the final stage
    /// confirms, so a node outside the cohort is pushed the incumbent; a
    /// health-gate breach rolls every upgraded node back automatically.
    /// Returns the (auto-bumped) canary version. Throws Error if
    /// `pkg.name` has no incumbent policy, and RolloutInFlight if a
    /// rollout of that name is already active —
    /// add_extension is rejected the same way while one is in flight.
    std::uint32_t begin_rollout(ExtensionPackage pkg);

    /// The staged-rollout controller (stage/health views, blast-radius
    /// queries for tests, monitor snapshots).
    RolloutController& rollout() { return *rollout_; }
    const RolloutController& rollout() const { return *rollout_; }

    std::vector<std::string> policy_names() const;

    struct AdaptedNode {
        NodeId node;
        std::string label;
        std::map<std::string, std::uint64_t> installed;  // pkg name -> remote ext id
        int failures = 0;  ///< consecutive unanswered calls (only silence drops)
        SimTime since;
        bool recovered = false;  ///< restored from the journal, not yet re-seen
        bool probation = false;  ///< federation claim pending; no traffic yet
        std::string cell;        ///< batched-lease cell, "" = the base's own roster
    };
    std::size_t adapted_count() const { return adapted_.size(); }
    std::vector<AdaptedNode> adapted() const;

    /// The base's activity log ("what nodes were adapted, at what point in
    /// time").
    struct Activity {
        SimTime at;
        std::string event;  // "adapt" / "install" / "revoke" / "node-gone"
        std::string node_label;
        std::string extension;
    };
    const std::vector<Activity>& activity() const { return activity_; }

    /// The base's counters, exported as `midas.base.*{issuer}` next to the
    /// `adapted_nodes` and `epoch` gauges read off live state.
    struct Stats {
        std::uint64_t installs_sent = 0;       ///< in-process sends + cell-confirmed
        std::uint64_t install_failures = 0;    ///< non-transport error replies
        std::uint64_t keepalives_sent = 0;     ///< in-process sends + cell-framed lines
        std::uint64_t keepalive_failures = 0;  ///< calls lost (timeout/unreachable) or shed
        std::uint64_t nodes_dropped = 0;    ///< via keep-alive failure
        std::uint64_t nodes_handed_off = 0; ///< via federation claim
        std::uint64_t recoveries = 0;       ///< journal recoveries of a prior life
    };
    const Stats& stats() const { return stats_; }

    /// Roaming support (see midas::Federation). `on_adapt` fires whenever a
    /// node is (re-)adapted; `release_node` drops a node another base has
    /// claimed, without waiting for keep-alives to fail.
    void on_adapt(std::function<void(const AdaptedNode&)> fn) { on_adapt_ = std::move(fn); }
    bool release_node(const std::string& label);

    /// Epoch of this base's life. Starts at 1; a recovery from a journal
    /// with prior state bumps it. Carried on install/keepalive RPCs so
    /// receivers can tell a restarted base from the one that leased them.
    std::uint64_t epoch() const { return epoch_; }

    /// Batched lease protocol (see midas/cell.h and docs/federation.md).
    /// After attach_cell, nodes whose adaptation advertisement carries
    /// attrs["cell"] == `cell` — plus any member the relay reports — are
    /// kept alive by the LeaseRoster of the CellRelay at `relay`, fed ONE
    /// delta-encoded frame per period, instead of by the base's own
    /// in-process roster. Outcomes from both go through one handler. If
    /// the relay stops answering for more than max_keepalive_failures
    /// periods the cell detaches itself and its nodes move back onto the
    /// base's roster.
    void attach_cell(const std::string& cell, NodeId relay);
    void detach_cell(const std::string& cell);

    struct CellStats {
        std::uint64_t frames_sent = 0;
        std::uint64_t frame_failures = 0;  ///< batch call errors (relay link)
        std::uint64_t resyncs = 0;         ///< full-roster resends
        std::uint64_t statuses = 0;        ///< status records processed
        std::uint64_t blobs_sent = 0;      ///< policy blobs shipped (1/hash/cell)
        std::uint64_t joins = 0;           ///< members learned from the relay
    };
    /// Stats for an attached cell; zeros if unknown/detached.
    const CellStats& cell_stats(const std::string& cell) const;

    /// Recovery support (see midas::Federation). begin_probation() gates
    /// every journal-recovered book entry out of the keep-alive loop and
    /// returns their (label, since) stamps; the federation claims each to
    /// its neighbours and then either confirm_node()s it (traffic resumes)
    /// or release_node()s it (a neighbour adapted it more recently while
    /// this base was down). A base without a federation never enters
    /// probation: recovered entries re-adapt on the first keep-alive tick.
    std::vector<std::pair<std::string, SimTime>> begin_probation();
    bool confirm_node(const std::string& label);
    /// Claim stamp (adaptation time) of a held node, or nullopt.
    std::optional<SimTime> claim_stamp_of(const std::string& label) const;

private:
    friend class RolloutController;

    struct Policy {
        ExtensionPackage pkg;
        Bytes sealed;      // cached signed bytes
        std::string hash;  // SHA-256 of sealed (content-hash policy sync)
        int rank = 0;      // install order: 1 + the rank of what it implies
    };

    /// One (node, pkg) line of a cell roster as the base wants the relay
    /// to see it. ext == 0 means "install the package with this hash".
    struct RosterEntry {
        std::uint64_t ext = 0;
        std::string hash;
        int rank = 0;
        bool operator==(const RosterEntry&) const = default;
    };
    using RosterKey = std::pair<std::uint64_t, std::string>;
    /// A queued unquarantine directive riding the next cell frame (rollout
    /// rollback amnesty). `seq` is the frame that last carried it; 0 until
    /// sent. Entries retransmit until a frame carrying them is acked.
    struct CellUnq {
        std::uint64_t seq = 0;
        rt::Value rec;
    };
    struct CellState {
        NodeId relay;
        std::set<NodeId> members;
        std::map<RosterKey, RosterEntry> synced;   ///< roster as of acked_seq
        std::map<RosterKey, RosterEntry> pending;  ///< roster sent, unacked
        std::vector<std::string> pending_blobs;    ///< hashes riding the frame
        std::set<std::string> relay_has;           ///< blobs acked by the relay
        std::uint64_t seq = 0;
        std::uint64_t acked_seq = 0;
        std::uint64_t record_seen = 0;  ///< status/join id high-water mark
        bool in_flight = false;
        int failures = 0;  ///< consecutive batch-call failures (relay link)
        std::vector<CellUnq> unq_outbox;  ///< rollback amnesties to fan out
        CellStats stats;
    };

    void on_service(const disco::ServiceItem& item, bool appeared);
    void adapt_node(NodeId node, const std::string& label, const std::string& cell = "");
    bool cell_routed(const AdaptedNode& a) const {
        return !a.cell.empty() && cells_.contains(a.cell);
    }
    void cell_tick(const std::string& cell, CellState& cs);
    void process_cell_reply(const std::string& cell, std::uint64_t sent_seq,
                            const rt::Value& reply);
    /// The one outcome path: a cellproto code for one (node, extension)
    /// line, from the in-process roster or a cell reply.
    void apply_status(NodeId node, const std::string& name, int code, std::uint64_t ext);
    /// Content hash `label` should run for `policy` now: an active canary's
    /// for its cohort, else the policy's.
    const std::string& wanted_hash(const std::string& name, const Policy& policy,
                                   const std::string& label) const;
    /// The hash on the cell roster line the base last sent for (a, name);
    /// nullptr off a cell or without a line.
    const std::string* cell_line_hash(const AdaptedNode& a, const std::string& name) const;
    const Bytes* blob_of(const std::string& hash) const;  ///< policy or active canary
    void rerank();  ///< recompute every Policy::rank
    /// Put `a`'s lines on the in-process roster as the base wants them now
    /// (no allocation once the lines exist: it runs per node per tick).
    void sync_lines(const AdaptedNode& a);
    /// Sync `a`'s lines and send its missing installs now (cell members
    /// wait for their cell's next frame).
    void push(AdaptedNode& a);
    /// Forget `a`'s id for `name` and push: the roster re-installs the
    /// version `a` should run now.
    void repush(AdaptedNode& a, const std::string& name);
    /// Rollback amnesty: lift `a`'s quarantine of (name, version).
    void unquarantine(const AdaptedNode& a, const std::string& name, std::int64_t version);
    void keepalive_tick();
    void drop_node(NodeId node);
    /// Forget a dropped or handed-off node: rosters, breaker, book, journal.
    void retire(std::map<NodeId, AdaptedNode>::iterator it, const char* event, const char* why);
    void record(const std::string& event, const std::string& node_label,
                const std::string& extension);
    /// Recover journaled state (epoch bump, policy set, book, hall events).
    void recover();
    void journal(const rt::Value& rec);
    /// Serialize live state and compact the journal.
    void compact_journal();

    rt::RpcEndpoint& rpc_;
    disco::Registrar& registrar_;
    const crypto::KeyStore& keys_;
    BaseConfig config_;
    std::shared_ptr<db::Journal> journal_;
    db::EventStore* hall_store_ = nullptr;
    std::uint64_t epoch_ = 1;

    std::map<std::string, Policy> policy_;
    std::map<std::string, std::uint32_t> last_version_;
    std::map<NodeId, AdaptedNode> adapted_;
    std::map<std::string, CellState> cells_;
    std::vector<Activity> activity_;

    Stats stats_;

    std::unique_ptr<RolloutController> rollout_;
    rt::CircuitBreaker breaker_;
    LeaseRoster local_;  ///< in-process engine: nodes not behind an attached cell
    std::uint64_t watch_token_ = 0;
    sim::TimerId keepalive_timer_;
    std::function<void(const AdaptedNode&)> on_adapt_;
    obs::Source obs_source_;  // last: unregisters before the state it reads
};

}  // namespace pmp::midas
