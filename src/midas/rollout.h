// Staged canary rollout with health-gated promotion and automatic
// rollback (docs/rollout.md).
//
// `ExtensionBase::add_extension` pushes a new version at every adapted
// node at once — a bad extension is a fleet-wide incident whose only
// safety net is per-node quarantine after the damage is done. The
// RolloutController turns a version change into a staged operation: the
// canary goes to a deterministic cohort (1% → 10% → 50% → 100% of the
// fleet, hashed from the node *label* so membership is stable across
// base restarts and seed replays, and spreads across cells instead of
// concentrating in one), and each promotion is gated on a health window
// fed by what the protocol itself carries back to the base — install
// refusals (a quarantine refusal names the node that quarantined the
// canary) and the governor escalations receivers report on keep-alive
// replies. No gate reads telemetry: every abort cause is something a
// reply or a lease outcome told the base.
//
// A breached gate rolls the fleet back automatically: the base kept the
// incumbent pinned in its policy set (every node outside the cohort,
// late joiners included, is pushed the incumbent the whole time), so
// rollback is re-pushing the name — the node's lease roster installs the
// incumbent, which the receiver accepts as a replacement — plus a scoped
// unquarantine so a node that once quarantined the incumbent's exact
// version takes it back. Every decision (begin / stage / abort /
// complete) is journaled, so a restarted base resumes a half-finished
// rollout at the journaled stage rather than restarting at 0% or
// completing it blindly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/time.h"
#include "midas/durable.h"
#include "midas/package.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace pmp::midas {

class ExtensionBase;

/// `add_extension` was called for a name whose rollout is still in
/// flight. The caller must wait for completion, or abort via rollback,
/// before replacing the package — silently superseding the canary would
/// leave the fleet split between two unreconciled versions.
class RolloutInFlight : public Error {
public:
    using Error::Error;
};

struct RolloutConfig {
    /// Cohort ladder as fleet fractions, ascending, ending at 1.0. A node
    /// is in stage i's cohort iff hash(pkg, label) falls under stages[i] —
    /// cohorts nest, so promotion only ever *adds* nodes.
    std::vector<double> stages = {0.01, 0.10, 0.50, 1.0};
    /// Minimum time at a stage before promotion is considered.
    Duration stage_window = seconds(4);
    /// Health poll / promotion check cadence.
    Duration tick_period = milliseconds(400);
    /// Gate thresholds, cumulative over the rollout. Quarantine is terminal
    /// evidence, so one strike aborts by default.
    int quarantine_tolerance = 1;
    /// Non-transport canary install failures (streak, reset by a success).
    int refusal_tolerance = 3;
    /// Governor throttle/suspend escalations on cohort nodes.
    int escalation_tolerance = 3;
};

/// Drives staged rollouts for one ExtensionBase. Owned by the base;
/// everything network- or journal-shaped goes through it.
class RolloutController {
public:
    enum class Status { kActive, kAborted, kComplete };

    struct Health {
        int quarantines = 0;    ///< cohort nodes that refused the canary as quarantined
        int escalations = 0;    ///< governor throttles+suspends reported by cohort nodes
        int refusal_streak = 0; ///< consecutive non-transport install failures
    };

    /// Read-only snapshot of one rollout, for tests and dashboards.
    struct View {
        std::string name;
        std::uint32_t version = 0;
        std::uint32_t incumbent_version = 0;
        std::size_t stage = 0;
        std::size_t stage_count = 0;
        double stage_fraction = 0;  ///< cohort fraction of the current stage
        std::size_t cohort = 0;     ///< adapted nodes in the current cohort
        std::size_t upgraded = 0;   ///< cohort nodes confirmed on the canary
        Status status = Status::kActive;
        std::string abort_cause;
        Health health;
        std::vector<std::string> verdicts;  ///< per-stage gate verdict log
    };

    RolloutController(ExtensionBase& base, RolloutConfig config);
    ~RolloutController();

    RolloutController(const RolloutController&) = delete;
    RolloutController& operator=(const RolloutController&) = delete;

    bool active(const std::string& name) const;
    std::optional<View> view(const std::string& name) const;
    std::vector<View> views() const;

    /// Exported as `midas.rollout.*{issuer}`, next to the per-extension
    /// stage/cohort/upgraded gauges and the issuer's active-rollout gauge.
    struct Stats {
        std::uint64_t promotions = 0;
        std::uint64_t aborts = 0;
        std::uint64_t completions = 0;
        std::uint64_t strikes = 0;            ///< non-transport canary install failures
        std::uint64_t rollback_installs = 0;  ///< cohort nodes re-pushed the incumbent
    };
    const Stats& stats() const { return stats_; }
    /// JSON-ready status (monitor_tool): stage, cohort sizes, health-gate
    /// verdicts and abort causes per rollout.
    rt::Value status_value() const;

    /// Deterministic cohort membership: would `label` run the canary of
    /// `name` at the currently promoted stage? False when no rollout of
    /// `name` is active. Public so tests can pin down the blast radius.
    bool selects_canary(const std::string& name, const std::string& label) const;

private:
    friend class ExtensionBase;

    struct Rollout {
        std::string name;
        ExtensionPackage pkg;  ///< canary, opened
        Bytes sealed;
        std::string hash;  ///< SHA-256 of sealed (cell blob routing)
        std::uint32_t incumbent_version = 0;
        std::vector<std::uint32_t> stages_bp;  ///< basis points, ascending
        std::size_t stage = 0;
        SimTime stage_since{};
        Status status = Status::kActive;
        std::string abort_cause;
        std::uint64_t stage_span = 0;  ///< open trace span for this stage

        // Volatile health evidence (re-gathered after a crash).
        std::set<std::string> upgraded;     ///< labels confirmed on the canary
        std::set<std::string> quarantined;  ///< labels that refused it as quarantined
        int escalations = 0;
        int refusal_streak = 0;
        std::vector<std::string> verdicts;
    };

    // Driven by ExtensionBase.
    void begin(ExtensionPackage pkg, Bytes sealed, std::string hash,
               std::uint32_t incumbent_version);
    void adopt(const BaseDurableState::RolloutEntry& entry);  ///< crash resume
    void snapshot_into(BaseDurableState& st) const;
    /// Sealed bytes for an active canary's content hash (blob lookup).
    const Bytes* sealed_for_hash(const std::string& hash) const;
    const std::string* canary_hash(const std::string& name) const;
    /// Health evidence from the base's lease outcomes: install outcomes,
    /// and governor escalations a cohort node's keep-alive reply reported.
    /// Only non-transport install errors arrive here: a radio fault says
    /// nothing about the package and must not abort a healthy rollout.
    void note_install_ok(const std::string& name, const std::string& label);
    void note_install_error(const std::string& name, const std::string& label,
                            bool quarantine_refusal);
    void note_escalations(const std::string& name, const std::string& label,
                          std::int64_t count);

    void tick();
    void arm_timer();
    static BaseDurableState::RolloutEntry snapshot_entry(const Rollout& r);
    bool in_cohort(const Rollout& r, std::size_t stage, const std::string& label) const;
    std::size_t cohort_size(const Rollout& r, std::size_t stage) const;
    std::size_t confirmed_in_cohort(const Rollout& r) const;
    /// Non-empty = abort cause.
    std::string gate_breach(const Rollout& r) const;
    void push_canary_to_cohort(Rollout& r, std::size_t from_stage);
    void promote(Rollout& r);
    void complete(Rollout& r);
    void abort(Rollout& r, const std::string& cause);
    void open_stage_span(Rollout& r);
    void close_stage_span(Rollout& r, const std::string& verdict);
    View view_of(const Rollout& r) const;

    ExtensionBase& base_;
    RolloutConfig config_;
    std::map<std::string, Rollout> rollouts_;
    sim::TimerId timer_{};
    bool timer_armed_ = false;
    Stats stats_;
    obs::Source obs_source_;  // last: unregisters before the state it reads
};

}  // namespace pmp::midas
