#include "midas/rollout.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "crypto/sha256.h"
#include "midas/base.h"
#include "obs/trace.h"

namespace pmp::midas {

using rt::Dict;
using rt::List;
using rt::Value;

namespace {

constexpr std::size_t kNoStage = static_cast<std::size_t>(-1);

/// Fraction of the stage cohort that must confirm the canary install before
/// promotion (in addition to the window). Keeps a partition from promoting
/// a stage that never actually ran the canary.
constexpr double kConfirmFraction = 0.5;

/// FNV-1a over (pkg name, NUL, node label). Hashing the *label* — not the
/// NodeId — keeps cohort membership identical across base restarts (ids
/// are per-life) and across seed replays; mixing the package name in
/// decorrelates cohorts of different rollouts so the same unlucky nodes
/// aren't always the canary.
std::uint32_t cohort_bucket(const std::string& pkg, const std::string& label) {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](unsigned char c) {
        h ^= c;
        h *= 1099511628211ULL;
    };
    for (unsigned char c : pkg) mix(c);
    mix(0);
    for (unsigned char c : label) mix(c);
    return static_cast<std::uint32_t>(h % 10000);
}

/// Same interpolation as obs::Histogram::quantile, over externally summed
/// buckets (we fold every profile site of one extension, and window by
/// subtracting a baseline — a live Histogram can do neither).
double p95_of(const std::vector<double>& bounds,
              const std::vector<std::uint64_t>& buckets, std::uint64_t count) {
    if (count == 0 || bounds.empty()) return 0.0;
    double rank = 0.95 * static_cast<double>(count);
    double cumulative = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        double next = cumulative + static_cast<double>(buckets[i]);
        if (next >= rank && buckets[i] > 0) {
            if (i >= bounds.size()) return bounds.back();
            double lo = i == 0 ? 0.0 : bounds[i - 1];
            double hi = bounds[i];
            double fraction = (rank - cumulative) / static_cast<double>(buckets[i]);
            return lo + fraction * (hi - lo);
        }
        cumulative = next;
    }
    return bounds.back();
}

/// Fold every profile.advice_ns site of `pkg` ("<pkg>|<pointcut>" labels)
/// into one bucket vector. Sites are per (extension, pointcut) — the
/// incumbent and the canary share them, so the windowed delta mixes both
/// while a stage runs; docs/rollout.md spells out the dilution caveat.
void fold_advice_ns(const std::string& pkg, std::vector<double>& bounds,
                    std::vector<std::uint64_t>& buckets, std::uint64_t& count) {
    const std::string prefix = pkg + "|";
    obs::Registry::global().visit_histograms(
        [&](const std::string& name, const std::string& label, const obs::Histogram& h) {
            if (name != "profile.advice_ns") return;
            if (label.rfind(prefix, 0) != 0) return;
            if (bounds.empty()) bounds = h.bounds();
            const std::vector<std::uint64_t> counts = h.buckets();
            if (buckets.size() < counts.size()) buckets.resize(counts.size(), 0);
            for (std::size_t i = 0; i < counts.size(); ++i) {
                buckets[i] += counts[i];
                count += counts[i];
            }
        });
}

const char* status_name(RolloutController::Status s) {
    switch (s) {
        case RolloutController::Status::kActive: return "active";
        case RolloutController::Status::kAborted: return "aborted";
        case RolloutController::Status::kComplete: return "complete";
    }
    return "?";
}

}  // namespace

RolloutController::RolloutController(ExtensionBase& base, RolloutConfig config)
    : base_(base),
      config_(std::move(config)),
      obs_source_(obs::Registry::global().add_source([this](obs::Rows& rows) {
          const std::string& issuer = base_.config_.issuer;
          rows.counter("midas.rollout.promotions", issuer, stats_.promotions);
          rows.counter("midas.rollout.aborts", issuer, stats_.aborts);
          rows.counter("midas.rollout.completions", issuer, stats_.completions);
          rows.counter("midas.rollout.strikes", issuer, stats_.strikes);
          rows.counter("midas.rollout.rollback_installs", issuer, stats_.rollback_installs);
          std::int64_t active_count = 0;
          for (const auto& [name, r] : rollouts_) {
              if (r.status == Status::kActive) ++active_count;
              rows.gauge("midas.rollout.stage", name, static_cast<std::int64_t>(r.stage));
              rows.gauge("midas.rollout.cohort", name,
                         static_cast<std::int64_t>(cohort_size(r, r.stage)));
              rows.gauge("midas.rollout.upgraded", name,
                         static_cast<std::int64_t>(confirmed_in_cohort(r)));
          }
          rows.gauge("midas.rollout.active", issuer, active_count);
      })) {
    if (config_.stages.empty()) config_.stages = {1.0};
}

RolloutController::~RolloutController() {
    if (timer_armed_) base_.rpc_.router().simulator().cancel(timer_);
}

// --------------------------------------------------------- public views ----

bool RolloutController::active(const std::string& name) const {
    auto it = rollouts_.find(name);
    return it != rollouts_.end() && it->second.status == Status::kActive;
}

bool RolloutController::selects_canary(const std::string& name,
                                       const std::string& label) const {
    auto it = rollouts_.find(name);
    if (it == rollouts_.end() || it->second.status != Status::kActive) return false;
    return in_cohort(it->second, it->second.stage, label);
}

std::optional<RolloutController::View> RolloutController::view(
    const std::string& name) const {
    auto it = rollouts_.find(name);
    if (it == rollouts_.end()) return std::nullopt;
    return view_of(it->second);
}

std::vector<RolloutController::View> RolloutController::views() const {
    std::vector<View> out;
    for (const auto& [_, r] : rollouts_) out.push_back(view_of(r));
    return out;
}

RolloutController::View RolloutController::view_of(const Rollout& r) const {
    View v;
    v.name = r.name;
    v.version = r.pkg.version;
    v.incumbent_version = r.incumbent_version;
    v.stage = r.stage;
    v.stage_count = r.stages_bp.size();
    v.stage_fraction =
        r.stage < r.stages_bp.size() ? r.stages_bp[r.stage] / 10000.0 : 1.0;
    v.cohort = cohort_size(r, r.stage);
    v.upgraded = confirmed_in_cohort(r);
    v.status = r.status;
    v.abort_cause = r.abort_cause;
    v.health = Health{static_cast<int>(r.quarantined.size()), r.escalations, r.refusal_streak,
                      r.baseline_p95, r.window_p95};
    v.verdicts = r.verdicts;
    return v;
}

rt::Value RolloutController::status_value() const {
    List out;
    for (const auto& [_, r] : rollouts_) {
        View v = view_of(r);
        List verdicts;
        for (const std::string& s : v.verdicts) verdicts.push_back(Value{s});
        out.push_back(Value{Dict{
            {"name", Value{v.name}},
            {"version", Value{static_cast<std::int64_t>(v.version)}},
            {"incumbent", Value{static_cast<std::int64_t>(v.incumbent_version)}},
            {"status", Value{status_name(v.status)}},
            {"stage", Value{static_cast<std::int64_t>(v.stage)}},
            {"stages", Value{static_cast<std::int64_t>(v.stage_count)}},
            {"fraction", Value{v.stage_fraction}},
            {"cohort", Value{static_cast<std::int64_t>(v.cohort)}},
            {"upgraded", Value{static_cast<std::int64_t>(v.upgraded)}},
            {"abort_cause", Value{v.abort_cause}},
            {"health",
             Value{Dict{{"quarantines", Value{static_cast<std::int64_t>(v.health.quarantines)}},
                        {"escalations", Value{static_cast<std::int64_t>(v.health.escalations)}},
                        {"refusal_streak",
                         Value{static_cast<std::int64_t>(v.health.refusal_streak)}},
                        {"baseline_p95_ns", Value{v.health.baseline_p95_ns}},
                        {"window_p95_ns", Value{v.health.window_p95_ns}}}}},
            {"verdicts", Value{std::move(verdicts)}}}});
    }
    return Value{std::move(out)};
}

// ------------------------------------------------------------ lifecycle ----

void RolloutController::begin(ExtensionPackage pkg, Bytes sealed, std::string hash,
                              std::uint32_t incumbent_version) {
    Rollout r;
    r.name = pkg.name;
    r.sealed = std::move(sealed);
    r.hash = std::move(hash);
    r.incumbent_version = incumbent_version;
    r.pkg = std::move(pkg);
    for (double f : config_.stages) {
        auto bp = static_cast<std::uint32_t>(std::lround(std::clamp(f, 0.0, 1.0) * 10000));
        if (!r.stages_bp.empty() && bp < r.stages_bp.back()) bp = r.stages_bp.back();
        r.stages_bp.push_back(bp);
    }
    if (r.stages_bp.back() != 10000) r.stages_bp.push_back(10000);
    r.stage_since = base_.rpc_.router().simulator().now();

    // Latency baseline: the incumbent's advice distribution as of now.
    if (config_.latency_factor > 0) {
        std::vector<double> bounds;
        fold_advice_ns(r.name, bounds, r.lat_buckets0, r.lat_count0);
        if (r.lat_count0 >= config_.latency_min_samples) {
            r.baseline_p95 = p95_of(bounds, r.lat_buckets0, r.lat_count0);
        }
    }

    const std::string name = r.name;
    auto [it, _] = rollouts_.insert_or_assign(name, std::move(r));
    Rollout& live = it->second;
    base_.journal(BaseDurableState::rec_rollout_begin(snapshot_entry(live)));
    obs::TraceBuffer::global().instant(
        "midas.rollout", "rollout.begin",
        {{"issuer", base_.config_.issuer},
         {"pkg", live.name},
         {"version", std::to_string(live.pkg.version)},
         {"incumbent", std::to_string(live.incumbent_version)},
         {"stages", std::to_string(live.stages_bp.size())}});
    log_info(base_.rpc_.router().simulator().now(), "midas.base@" + base_.config_.issuer,
             "rollout of '", live.name, "' v", live.pkg.version, " begins: ",
             live.stages_bp.size(), " stages, incumbent v", live.incumbent_version);
    capture_latency_baseline(live);
    open_stage_span(live);
    push_canary_to_cohort(live, kNoStage);
    arm_timer();
}

BaseDurableState::RolloutEntry RolloutController::snapshot_entry(const Rollout& r) {
    BaseDurableState::RolloutEntry e;
    e.name = r.name;
    e.version = r.pkg.version;
    e.sealed = r.sealed;
    e.incumbent_version = r.incumbent_version;
    e.stages_bp = r.stages_bp;
    e.stage = static_cast<std::uint32_t>(r.stage);
    e.status = r.status == Status::kActive ? 0 : r.status == Status::kAborted ? 1 : 2;
    e.abort_cause = r.abort_cause;
    return e;
}

void RolloutController::adopt(const BaseDurableState::RolloutEntry& entry) {
    Rollout r;
    r.name = entry.name;
    r.sealed = entry.sealed;
    r.incumbent_version = entry.incumbent_version;
    r.stages_bp = entry.stages_bp;
    if (r.stages_bp.empty()) r.stages_bp = {10000};
    r.stage = std::min<std::size_t>(entry.stage, r.stages_bp.size() - 1);
    r.status = entry.status == 1   ? Status::kAborted
               : entry.status == 2 ? Status::kComplete
                                   : Status::kActive;
    r.abort_cause = entry.abort_cause;
    try {
        auto [pkg, sig] = ExtensionPackage::open(std::span<const std::uint8_t>(r.sealed));
        r.pkg = std::move(pkg);
    } catch (const std::exception& e) {
        // CRC-valid journal, unreadable package (should not happen): a
        // rollout we cannot serve cannot continue — abort it rather than
        // promote a package we cannot push.
        if (r.status == Status::kActive) {
            r.status = Status::kAborted;
            r.abort_cause = std::string("canary package unreadable after recovery: ") +
                            e.what();
        }
    }
    r.hash = crypto::to_hex(
        crypto::Sha256::hash(std::span<const std::uint8_t>(r.sealed)));
    // Resume at the journaled stage with a fresh window: health evidence
    // from the previous life is gone, so the stage re-measures from now
    // rather than promoting on stale evidence.
    r.stage_since = base_.rpc_.router().simulator().now();
    r.verdicts.push_back("recovered at stage " + std::to_string(r.stage) + " (" +
                         status_name(r.status) + "); health window restarted");
    const bool is_active = r.status == Status::kActive;
    const std::string name = r.name;
    auto [it, _] = rollouts_.insert_or_assign(name, std::move(r));
    if (is_active) {
        capture_latency_baseline(it->second);
        open_stage_span(it->second);
        arm_timer();
        log_info(base_.rpc_.router().simulator().now(), "midas.base@" + base_.config_.issuer,
                 "resuming rollout of '", name, "' at stage ", it->second.stage);
    }
}

void RolloutController::snapshot_into(BaseDurableState& st) const {
    for (const auto& [name, r] : rollouts_) st.rollouts[name] = snapshot_entry(r);
}

void RolloutController::arm_timer() {
    if (timer_armed_) return;
    timer_armed_ = true;
    timer_ = base_.rpc_.router().simulator().schedule_every(config_.tick_period,
                                                            [this]() { tick(); });
}

// ------------------------------------------------------- cohort queries ----

bool RolloutController::in_cohort(const Rollout& r, std::size_t stage,
                                  const std::string& label) const {
    if (stage >= r.stages_bp.size()) stage = r.stages_bp.size() - 1;
    return cohort_bucket(r.name, label) < r.stages_bp[stage];
}

std::size_t RolloutController::cohort_size(const Rollout& r, std::size_t stage) const {
    std::size_t n = 0;
    for (const auto& [_, a] : base_.adapted_) {
        if (!a.probation && in_cohort(r, stage, a.label)) ++n;
    }
    return n;
}

std::size_t RolloutController::confirmed_in_cohort(const Rollout& r) const {
    std::size_t n = 0;
    for (const auto& [_, a] : base_.adapted_) {
        if (!a.probation && in_cohort(r, r.stage, a.label) && r.upgraded.contains(a.label)) {
            ++n;
        }
    }
    return n;
}

const Bytes* RolloutController::sealed_for_hash(const std::string& hash) const {
    for (const auto& [_, r] : rollouts_) {
        if (r.status == Status::kActive && r.hash == hash) return &r.sealed;
    }
    return nullptr;
}

const std::string* RolloutController::canary_hash(const std::string& name) const {
    auto it = rollouts_.find(name);
    if (it == rollouts_.end() || it->second.status != Status::kActive) return nullptr;
    return &it->second.hash;
}

// -------------------------------------------------------- health intake ----

void RolloutController::note_install_ok(const std::string& name,
                                        const std::string& label) {
    auto it = rollouts_.find(name);
    if (it == rollouts_.end() || it->second.status != Status::kActive) return;
    it->second.upgraded.insert(label);
    it->second.refusal_streak = 0;
}

void RolloutController::note_install_error(const std::string& name,
                                           const std::string& label,
                                           bool quarantine_refusal) {
    auto it = rollouts_.find(name);
    if (it == rollouts_.end() || it->second.status != Status::kActive) return;
    // A quarantine refusal is terminal evidence: this node's receiver ran
    // the canary, watched it fail, and quarantined it. Counted once per
    // node however often the base's retries bounce off it.
    if (quarantine_refusal) it->second.quarantined.insert(label);
    ++it->second.refusal_streak;
    ++stats_.strikes;
    obs::TraceBuffer::global().instant(
        "midas.rollout", "rollout.strike",
        {{"pkg", name},
         {"node", label},
         {"kind", quarantine_refusal ? "quarantine-refusal" : "install-refusal"},
         {"streak", std::to_string(it->second.refusal_streak)}});
}

void RolloutController::note_escalations(const std::string& name, const std::string& label,
                                         std::int64_t count) {
    auto it = rollouts_.find(name);
    if (it == rollouts_.end() || it->second.status != Status::kActive || count <= 0) return;
    // Escalations are cumulative over the rollout, like quarantines; only
    // the current cohort's reports count against the canary.
    if (!in_cohort(it->second, it->second.stage, label)) return;
    it->second.escalations += static_cast<int>(count);
}

void RolloutController::capture_latency_baseline(Rollout& r) {
    if (config_.latency_factor <= 0) return;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    fold_advice_ns(r.name, bounds, buckets, count);
    r.lat_buckets0 = std::move(buckets);
    r.lat_count0 = count;
    r.window_p95 = 0;
}

void RolloutController::poll_latency(Rollout& r) {
    if (config_.latency_factor <= 0 || r.baseline_p95 <= 0) return;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    fold_advice_ns(r.name, bounds, buckets, count);
    if (buckets.size() < r.lat_buckets0.size() || count < r.lat_count0) return;
    std::vector<std::uint64_t> delta = buckets;
    for (std::size_t i = 0; i < r.lat_buckets0.size(); ++i) delta[i] -= r.lat_buckets0[i];
    std::uint64_t window_count = count - r.lat_count0;
    if (window_count >= config_.latency_min_samples) {
        r.window_p95 = p95_of(bounds, delta, window_count);
    }
}

std::string RolloutController::gate_breach(const Rollout& r) const {
    const int quarantines = static_cast<int>(r.quarantined.size());
    if (config_.quarantine_tolerance > 0 && quarantines >= config_.quarantine_tolerance) {
        return "quarantine: " + std::to_string(quarantines) +
               " cohort node(s) quarantined the canary";
    }
    if (config_.refusal_tolerance > 0 && r.refusal_streak >= config_.refusal_tolerance) {
        return "install-refusals: " + std::to_string(r.refusal_streak) +
               " consecutive non-transport canary install failures";
    }
    if (config_.escalation_tolerance > 0 && r.escalations >= config_.escalation_tolerance) {
        return "governor-escalation: " + std::to_string(r.escalations) +
               " throttle/suspend escalations on cohort nodes";
    }
    if (config_.latency_factor > 0 && r.baseline_p95 > 0 && r.window_p95 > 0 &&
        r.window_p95 > config_.latency_factor * r.baseline_p95) {
        return "latency-regression: advice p95 " + std::to_string(r.window_p95) +
               "ns vs incumbent baseline " + std::to_string(r.baseline_p95) + "ns";
    }
    return {};
}

// -------------------------------------------------------------- driving ----

void RolloutController::tick() {
    bool any_active = false;
    for (auto& [_, r] : rollouts_) {
        if (r.status != Status::kActive) continue;
        poll_latency(r);
        std::string cause = gate_breach(r);
        if (!cause.empty()) {
            abort(r, cause);
            continue;
        }
        any_active = true;
        SimTime now = base_.rpc_.router().simulator().now();
        if (now - r.stage_since < config_.stage_window) continue;
        std::size_t cohort = cohort_size(r, r.stage);
        std::size_t confirmed = confirmed_in_cohort(r);
        std::size_t required =
            cohort == 0 ? 0
                        : static_cast<std::size_t>(std::ceil(
                              kConfirmFraction * static_cast<double>(cohort)));
        if (confirmed < required) continue;  // wait for the cohort to prove it
        if (r.stage + 1 < r.stages_bp.size()) {
            promote(r);
        } else {
            complete(r);
        }
    }
    if (!any_active) {
        // Everything terminal: stop ticking until the next begin()/adopt().
        base_.rpc_.router().simulator().cancel(timer_);
        timer_armed_ = false;
    }
}

void RolloutController::push_canary_to_cohort(Rollout& r, std::size_t from_stage) {
    // Re-pushing is the upgrade: the node's roster line re-installs the
    // name, and version selection picks the canary for cohort members.
    // Done only for *newly covered* nodes on promotion, so each node is
    // upgraded once.
    for (auto& [_, a] : base_.adapted_) {
        if (a.probation) continue;
        if (!in_cohort(r, r.stage, a.label)) continue;
        if (from_stage != kNoStage && in_cohort(r, from_stage, a.label)) continue;
        base_.repush(a, r.name);
    }
}

void RolloutController::promote(Rollout& r) {
    std::size_t old_stage = r.stage;
    std::size_t confirmed = confirmed_in_cohort(r);
    std::size_t cohort = cohort_size(r, r.stage);
    close_stage_span(r, "promote");
    r.verdicts.push_back(
        "stage " + std::to_string(old_stage) + " (" +
        std::to_string(r.stages_bp[old_stage] / 100) + "%): promoted — " +
        std::to_string(confirmed) + "/" + std::to_string(cohort) + " confirmed, " +
        std::to_string(r.quarantined.size()) + " quarantines, " +
        std::to_string(r.escalations) + " escalations");
    ++r.stage;
    r.stage_since = base_.rpc_.router().simulator().now();
    ++stats_.promotions;
    base_.journal(
        BaseDurableState::rec_rollout_stage(r.name, static_cast<std::uint32_t>(r.stage)));
    base_.record("rollout-stage", "", r.name);
    obs::TraceBuffer::global().instant(
        "midas.rollout", "rollout.promote",
        {{"pkg", r.name},
         {"stage", std::to_string(r.stage)},
         {"fraction", std::to_string(r.stages_bp[r.stage] / 10000.0)}});
    log_info(base_.rpc_.router().simulator().now(), "midas.base@" + base_.config_.issuer,
             "rollout of '", r.name, "' promoted to stage ", r.stage, " (",
             r.stages_bp[r.stage] / 100, "% of fleet)");
    capture_latency_baseline(r);
    open_stage_span(r);
    push_canary_to_cohort(r, old_stage);
}

void RolloutController::complete(Rollout& r) {
    std::size_t confirmed = confirmed_in_cohort(r);
    close_stage_span(r, "complete");
    r.status = Status::kComplete;
    r.verdicts.push_back("stage " + std::to_string(r.stage) + " (100%): complete — " +
                         std::to_string(confirmed) + " nodes confirmed on v" +
                         std::to_string(r.pkg.version));
    ++stats_.completions;

    // The canary graduates: it becomes the policy.
    base_.policy_[r.name] = ExtensionBase::Policy{r.pkg, r.sealed, r.hash, 0};
    base_.rerank();
    base_.record("rollout-complete", "", r.name);
    // Journal order matters: the policy-add makes the canary the durable
    // incumbent, the rollout-complete closes the rollout — replaying a
    // prefix of the two leaves a completed-in-all-but-name rollout that
    // the resumed controller finishes idempotently.
    base_.journal(BaseDurableState::rec_policy_add(r.name, r.pkg.version, r.sealed));
    base_.journal(BaseDurableState::rec_rollout_complete(r.name));
    obs::TraceBuffer::global().instant(
        "midas.rollout", "rollout.complete",
        {{"pkg", r.name}, {"version", std::to_string(r.pkg.version)}});
    log_info(base_.rpc_.router().simulator().now(), "midas.base@" + base_.config_.issuer,
             "rollout of '", r.name, "' v", r.pkg.version, " complete");

    // Stragglers that never confirmed the canary (the completion quota is a
    // fraction, not everyone): re-push them onto the new policy version.
    for (auto& [_, a] : base_.adapted_) {
        if (!a.probation && !r.upgraded.contains(a.label)) base_.repush(a, r.name);
    }
}

void RolloutController::abort(Rollout& r, const std::string& cause) {
    close_stage_span(r, "abort: " + cause);
    r.status = Status::kAborted;
    r.abort_cause = cause;
    r.verdicts.push_back("stage " + std::to_string(r.stage) + ": ABORT — " + cause);
    ++stats_.aborts;
    base_.record("rollout-abort", "", r.name);
    base_.journal(BaseDurableState::rec_rollout_abort(r.name, cause));
    obs::TraceBuffer::global().instant(
        "midas.rollout", "rollout.abort",
        {{"pkg", r.name},
         {"stage", std::to_string(r.stage)},
         {"cause", cause}});
    log_warn(base_.rpc_.router().simulator().now(), "midas.base@" + base_.config_.issuer,
             "rollout of '", r.name, "' v", r.pkg.version, " ABORTED at stage ",
             r.stage, ": ", cause, "; rolling back to v", r.incumbent_version);

    // Roll the cohort back to the incumbent. policy_ still holds it (the
    // rollout never touched the policy set), so re-pushing the name installs
    // the incumbent — the receiver replaces on version difference. The
    // unquarantine goes first and is the scoped amnesty: a node that once
    // quarantined the incumbent's exact version (and was then upgraded)
    // must accept it back, or rollback would strand it with nothing.
    std::int64_t incumbent = static_cast<std::int64_t>(r.incumbent_version);
    for (auto& [_, a] : base_.adapted_) {
        if (a.probation || !in_cohort(r, r.stage, a.label)) continue;
        ++stats_.rollback_installs;
        base_.unquarantine(a, r.name, incumbent);
        base_.repush(a, r.name);
    }
}

void RolloutController::open_stage_span(Rollout& r) {
    r.stage_span = obs::TraceBuffer::global().begin_span(
        "midas.rollout", "rollout.stage",
        {{"pkg", r.name},
         {"stage", std::to_string(r.stage)},
         {"fraction", std::to_string(r.stages_bp[std::min(r.stage, r.stages_bp.size() - 1)] /
                                     10000.0)},
         {"cohort", std::to_string(cohort_size(r, r.stage))}});
}

void RolloutController::close_stage_span(Rollout& r, const std::string& verdict) {
    if (r.stage_span == 0) return;
    obs::TraceBuffer::global().end_span(
        r.stage_span, {{"verdict", verdict},
                       {"upgraded", std::to_string(r.upgraded.size())},
                       {"quarantines", std::to_string(r.quarantined.size())},
                       {"escalations", std::to_string(r.escalations)},
                       {"refusal_streak", std::to_string(r.refusal_streak)}});
    r.stage_span = 0;
}

}  // namespace pmp::midas
