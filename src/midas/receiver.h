// The adaptation service each mobile node carries (paper §3.2-3.3).
//
// "All R needs is a PROSE enabled JVM and the adaptation service. The rest
// is provided by the context." — this class is that adaptation service. It
//
//   * advertises itself as a service of type "midas.adaptation" at every
//     registrar that comes into radio range, so proactive environments can
//     find and adapt the node;
//   * accepts signed extension packages over RPC (install), verifies the
//     issuer against the node's trust store, enforces the node's capability
//     policy, compiles the script, and weaves the resulting aspect;
//   * leases every installed extension: if the installing base stops
//     sending keep-alives (the node left the space, the base died), the
//     extension is autonomously withdrawn — after its shutdown procedure
//     has run;
//   * replaces an installed extension when a newer version of the same
//     name arrives, and revokes on explicit request.
//
// Remote interface (object "adaptation"):
//   install(pkg blob, lease_ms int, epoch int) -> {ext int, lease_ms int}
//   keepalive(ext int, lease_ms int, epoch int) -> bool | int
//     (true = renewed; an int = renewed, plus the extension's governor
//     escalations since the previous reply; false = refused)
//   revoke(ext int) -> bool
//   list() -> [ {ext, name, version, issuer} ]
//   unquarantine(name str, version int, epoch int) -> bool
//
// `epoch` identifies the base's life (0 = epochless transports such as the
// tuple-space puller). A keep-alive whose epoch differs from the one the
// lease was granted under means the base restarted: the stale lease is
// withdrawn (shutdown advice runs) and `false` tells the recovered base to
// re-install — exactly once, through its normal retry path.
#pragma once

#include <list>
#include <optional>
#include <set>

#include "core/script_aspect.h"
#include "core/weaver.h"
#include "crypto/trust.h"
#include "db/journal.h"
#include "disco/lookup.h"
#include "midas/durable.h"
#include "midas/package.h"
#include "obs/metrics.h"

namespace pmp::midas {

struct ReceiverConfig {
    std::string node_label;                  ///< e.g. "robot:1:1"
    /// Batched-lease cell this node belongs to ("" = none). Advertised as
    /// attrs["cell"] so a base can route the node's keep-alives through
    /// the cell's relay (see midas/cell.h).
    std::string cell;
    /// Group-commit / chunked-snapshot knobs for the receiver's journal
    /// (docs/storage.md); all-zero commits every record on its own.
    db::JournalConfig journal;
    /// Quarantine an extension after this many *consecutive* advice
    /// failures (ScriptError / ResourceExhausted / DeadlineExceeded —
    /// broken or runaway code; AccessDenied is the node's own policy
    /// saying no and never counts). The extension is withdrawn and
    /// re-installs of the same (name, version) are refused until a newer
    /// version arrives (installing one lifts the older entries), or until
    /// the base explicitly lifts the entry via unquarantine — the scoped
    /// amnesty a staged-rollout rollback uses to re-install an incumbent
    /// version this node once quarantined (docs/rollout.md).
    int quarantine_after = 3;

    /// --- Resource governor (all off by default — seed behavior) ---
    /// Cumulative budgets per lease window: the window is the span between
    /// lease renewals, so a base that keeps an extension alive also keeps
    /// re-filling its allowance. An extension that exceeds a budget is
    /// *throttled* (1 in governor_throttle_keep dispatches runs); past
    /// governor_suspend_factor × budget it is *suspended* (all advice
    /// skipped, application calls pass through untouched). A window that
    /// ends suspended counts toward a streak; governor_quarantine_after
    /// consecutive suspended windows escalate to the quarantine path.
    std::uint64_t governor_step_budget = 0;        ///< interpreter steps / window (0 = off)
    std::uint64_t governor_invocation_budget = 0;  ///< advice invocations / window (0 = off)
    double governor_suspend_factor = 2.0;
    int governor_throttle_keep = 4;       ///< throttled: run 1 in N dispatches
    int governor_quarantine_after = 2;    ///< suspended windows before quarantine (0 = never)
    /// Per-invocation watchdog deadline, priced into interpreter steps at
    /// governor_step_cost per step (both must be nonzero to arm). An advice
    /// entry that overruns is killed with DeadlineExceeded, which counts
    /// toward quarantine like any other runaway.
    Duration governor_advice_deadline{0};
    Duration governor_step_cost = microseconds(1);
};

class AdaptationService {
public:
    /// Bounds for the install-path compile/pointcut caches: one entry per
    /// *distinct* script or pointcut source, evicted least-recently-used.
    /// A long-lived node visited by many halls would otherwise grow these
    /// maps without bound (every policy revision is a new content hash).
    static constexpr std::size_t kCompileCacheCap = 64;
    static constexpr std::size_t kPointcutCacheCap = 128;

    /// With a `journal` the service becomes durable: the installed
    /// manifest and the quarantine list are journaled, and a restart
    /// recovers the quarantine list (enforced again) plus the crash-time
    /// manifest (for diagnosis — extensions are NOT resurrected; the
    /// normal adaptation path re-extends the node).
    AdaptationService(rt::RpcEndpoint& rpc, prose::Weaver& weaver,
                      crypto::TrustStore& trust, disco::DiscoveryClient& discovery,
                      ReceiverConfig config,
                      std::shared_ptr<db::Journal> journal = nullptr);
    ~AdaptationService();

    AdaptationService(const AdaptationService&) = delete;
    AdaptationService& operator=(const AdaptationService&) = delete;

    /// Capability policy: extensions signed by `issuer` may be granted at
    /// most `caps`. Issuers without an entry get nothing beyond the core
    /// library. (The trust store decides *whether* to accept; this decides
    /// *how much* the accepted code may touch.)
    void allow_capabilities(const std::string& issuer, std::set<std::string> caps);

    /// Expose a node facility to extension scripts (e.g. "robot.freeze").
    /// Only extensions installed afterwards see it.
    void add_host_builtin(const std::string& name, const std::string& capability,
                          script::BuiltinRegistry::Fn fn);
    const script::BuiltinRegistry& host_builtins() const { return host_builtins_; }

    struct Installed {
        ExtensionId id;
        std::string name;
        std::uint32_t version = 0;
        std::string issuer;
        NodeId base;
        AspectId aspect;
        SimTime expires;
        std::uint64_t base_epoch = 0;  ///< base's life when leased (0 = epochless)
    };

    std::vector<Installed> installed() const;
    std::size_t installed_count() const { return installed_.size(); }

    /// Local entry points for alternative distribution transports (e.g.
    /// the tuple-space puller, which fetches packages itself and installs
    /// them in-process). `origin` is where owner.post will reach back to.
    rt::Value install_from(NodeId origin, const Bytes& sealed, std::int64_t lease_ms) {
        return do_install(origin, sealed, lease_ms, /*epoch=*/0);
    }
    bool keepalive_local(std::uint64_t ext, std::int64_t lease_ms) {
        return do_keepalive(ext, lease_ms, /*epoch=*/0).has_value();
    }
    bool revoke_local(std::uint64_t ext) { return do_revoke(ext); }

    /// Quarantine state: (name, version) pairs refused at install.
    bool is_quarantined(const std::string& name, std::uint32_t version) const {
        return quarantined_.contains({name, version});
    }
    /// Lift one quarantine entry (journaled). Returns whether it existed.
    /// This is the rollback amnesty: a base aborting a staged rollout must
    /// be able to re-install the exact incumbent version this node may once
    /// have quarantined — also exposed remotely as "unquarantine".
    bool unquarantine(const std::string& name, std::uint32_t version);
    /// Manifest recovered from the journal at construction — what was
    /// installed when the previous life ended (empty without a journal).
    const std::vector<ReceiverDurableState::ManifestEntry>& recovered_manifest() const {
        return recovered_manifest_;
    }

    /// Flight-recorder dumps journaled at quarantine time, oldest first:
    /// dumps recovered from previous lives followed by this life's. Bounded
    /// by ReceiverDurableState::kMaxFlights.
    const std::vector<ReceiverDurableState::FlightDump>& flight_dumps() const {
        return flights_;
    }

    /// Withdraw everything from a given base (or all) locally.
    void withdraw_all(prose::WithdrawReason reason = prose::WithdrawReason::kExplicit);

    /// This node's counters, exported labelled by node under `midas.*`,
    /// `recv.governor.*`, `script.compile.*` and `prose.pointcut.*`.
    struct Stats {
        std::uint64_t installs = 0;
        std::uint64_t replacements = 0;
        std::uint64_t refreshes = 0;   ///< re-install of same name+version
        std::uint64_t rejections = 0;  ///< trust / capability / parse failures
        std::uint64_t sig_rejections = 0;
        std::uint64_t expirations = 0;
        std::uint64_t renewals = 0;
        std::uint64_t revocations = 0;
        std::uint64_t quarantined = 0;
        std::uint64_t unquarantined = 0;
        std::uint64_t governor_throttles = 0;
        std::uint64_t governor_suspends = 0;
        std::uint64_t governor_skipped = 0;  ///< dispatches skipped by the governor
        std::uint64_t governor_watchdog_trips = 0;
        std::uint64_t governor_quarantines = 0;
        std::uint64_t compile_cache_hits = 0;
        std::uint64_t compile_cache_misses = 0;
        std::uint64_t pointcut_cache_hits = 0;
        std::uint64_t cache_evictions = 0;
        std::int64_t extensions = 0;  ///< gauge: extensions installed now
    };
    const Stats& stats() const { return stats_; }

    /// Observation hook for examples/tests: event is one of "install",
    /// "replace", "refresh", "expire", "revoke", "quarantine".
    using EventFn = std::function<void(const std::string& event, const Installed&)>;
    void on_event(EventFn fn) { event_fn_ = std::move(fn); }

    const ReceiverConfig& config() const { return config_; }

    /// Resource-governor degradation ladder, per extension.
    enum class GovernorMode { kNormal, kThrottled, kSuspended };
    GovernorMode governor_mode(ExtensionId id) const;

private:
    void build_service_object();
    void register_at(NodeId registrar);
    Duration clamp(std::int64_t lease_ms) const;
    void arm_expiry(ExtensionId id, Duration lease);
    void withdraw(ExtensionId id, prose::WithdrawReason reason);
    void emit(const std::string& event, const Installed& entry);

    rt::Value do_install(NodeId base, const Bytes& sealed, std::int64_t lease_ms,
                         std::uint64_t epoch);
    /// nullopt = refused (unknown extension or stale epoch); otherwise the
    /// renewal went through, carrying the extension's governor escalations
    /// since the previous reply (read-and-cleared).
    std::optional<std::uint32_t> do_keepalive(std::uint64_t ext, std::int64_t lease_ms,
                                              std::uint64_t epoch);
    bool do_revoke(std::uint64_t ext);
    rt::Value do_list() const;

    /// The guard bound to an extension's aspect before it is woven. Both
    /// halves go quiet once the service is torn down (alive_).
    prose::Aspect::Guard guard_for(ExtensionId ext);
    /// The guard's outcome half: counts consecutive failures per extension
    /// and (deferred — we may be inside the failing dispatch) quarantines
    /// past the threshold.
    void on_advice_outcome(ExtensionId ext, const std::exception* error);
    void quarantine(ExtensionId id);

    /// Resource governor (see ReceiverConfig). governor_allows is the
    /// guard's admit half; governor_charge is the interpreter's step
    /// observer; the window resets wherever the lease is renewed.
    bool governor_enabled() const {
        return config_.governor_step_budget != 0 || config_.governor_invocation_budget != 0;
    }
    bool governor_allows(ExtensionId ext);
    void governor_charge(ExtensionId id, std::uint64_t steps);
    void governor_window_reset(ExtensionId id);
    void recover();
    void journal(const rt::Value& rec);
    void compact_journal();

    rt::RpcEndpoint& rpc_;
    prose::Weaver& weaver_;
    crypto::TrustStore& trust_;
    disco::DiscoveryClient& discovery_;
    ReceiverConfig config_;
    std::shared_ptr<db::Journal> journal_;
    /// Liveness token for deferred work (quarantine withdrawals,
    /// registration retries) parked in the simulator queue; those closures
    /// hold a copy and bail if the node was torn down before they fired.
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

    script::BuiltinRegistry host_builtins_;
    std::map<std::string, std::set<std::string>> issuer_caps_;

    /// Install-path caches, shared across packages. A fleet pushing the
    /// same extension to many objects (or re-installing after lease churn)
    /// compiles each distinct script and parses each distinct pointcut
    /// exactly once per node — bounded LRU, so a node that outlives many
    /// policy revisions holds only kCompileCacheCap / kPointcutCacheCap of
    /// them (evictions surface as midas.receiver.cache_evictions).
    template <typename V, std::size_t kCap>
    struct LruCache {
        std::list<std::pair<std::string, V>> items;  // front = most recent
        std::map<std::string, typename std::list<std::pair<std::string, V>>::iterator>
            index;

        V* get(const std::string& key) {
            auto it = index.find(key);
            if (it == index.end()) return nullptr;
            items.splice(items.begin(), items, it->second);
            return &it->second->second;
        }
        /// Inserts (or refreshes) and returns how many entries were evicted.
        std::size_t put(const std::string& key, V value) {
            if (auto it = index.find(key); it != index.end()) {
                it->second->second = std::move(value);
                items.splice(items.begin(), items, it->second);
                return 0;
            }
            items.emplace_front(key, std::move(value));
            index[key] = items.begin();
            std::size_t evicted = 0;
            while (items.size() > kCap) {
                index.erase(items.back().first);
                items.pop_back();
                ++evicted;
            }
            return evicted;
        }
        std::size_t size() const { return items.size(); }
    };
    LruCache<std::shared_ptr<const script::CompiledUnit>, kCompileCacheCap> compile_cache_;
    LruCache<prose::Pointcut, kPointcutCacheCap> pointcut_cache_;
    std::shared_ptr<const script::CompiledUnit> compiled_unit_for(const std::string& script);
    prose::Pointcut pointcut_for(const std::string& source);

public:
    std::size_t compile_cache_size() const { return compile_cache_.size(); }
    std::size_t pointcut_cache_size() const { return pointcut_cache_.size(); }

private:

    struct Entry {
        Installed info;
        sim::TimerId expiry_timer;
        rt::HookOwner wire_owner = 0;  ///< owner of any wire filters installed
    };
    IdGenerator<ExtensionId> ids_;
    std::map<ExtensionId, Entry> installed_;
    std::map<std::string, ExtensionId> by_name_;

    struct GovernorState {
        std::uint64_t window_steps = 0;
        std::uint64_t window_invocations = 0;
        std::uint64_t throttle_counter = 0;
        GovernorMode mode = GovernorMode::kNormal;
        int suspended_streak = 0;  ///< consecutive windows that ended suspended
        std::uint32_t unreported = 0;  ///< escalations since the last keep-alive reply
    };
    std::map<ExtensionId, GovernorState> governor_;
    void governor_escalate(ExtensionId id, GovernorState& st, GovernorMode to);

    std::set<std::pair<std::string, std::uint32_t>> quarantined_;
    std::map<ExtensionId, int> advice_failures_;   ///< consecutive, reset on success
    std::set<ExtensionId> pending_quarantine_;     ///< withdrawal scheduled
    std::vector<ReceiverDurableState::ManifestEntry> recovered_manifest_;
    std::vector<ReceiverDurableState::FlightDump> flights_;  ///< recovered + this life

    std::map<NodeId, std::shared_ptr<disco::LeasedResource>> advertisements_;
    std::uint64_t registrar_token_ = 0;
    std::shared_ptr<rt::ServiceObject> self_object_;

    EventFn event_fn_;
    Stats stats_;
    obs::Source obs_source_;  // last: unregisters before the stats it reads
};

}  // namespace pmp::midas
