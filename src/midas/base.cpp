#include "midas/base.h"

#include <algorithm>

#include "common/error.h"
#include "common/log.h"
#include "crypto/sha256.h"
#include "obs/trace.h"
#include "sim/failpoint.h"

namespace pmp::midas {

using rt::Dict;
using rt::List;
using rt::Value;

ExtensionBase::ExtensionBase(rt::RpcEndpoint& rpc, disco::Registrar& registrar,
                             const crypto::KeyStore& keys, BaseConfig config,
                             std::shared_ptr<db::Journal> journal,
                             db::EventStore* hall_store)
    : rpc_(rpc),
      registrar_(registrar),
      keys_(keys),
      config_(std::move(config)),
      journal_(std::move(journal)),
      hall_store_(hall_store),
      breaker_(rpc.router().simulator(), config_.issuer, config_.breaker),
      // One keep-alive period per attempt, with transport retries: a lost
      // install *ack* must surface and re-send well inside the lease the
      // node already started counting down (the re-send lands as a refresh
      // and re-arms it), or the node pays for our blindness with an
      // expiration.
      local_(
          rpc, LeaseRoster::Owner{"midas.base", "issuer", config_.issuer},
          rt::CallOptions{.timeout = config_.keepalive_period, .retries = 2},
          [this](const std::string& hash) { return blob_of(hash); },
          // Breaker open toward a node: the roster skips it this round —
          // that is the point (stop hammering a drowning receiver). Skipped
          // rounds do NOT count as keep-alive failures; only real silence
          // may drop a node.
          [this](std::uint64_t node) { return breaker_.allow(NodeId{node}); },
          [this](std::uint64_t node, const std::string& name, int code, std::uint64_t ext) {
              apply_status(NodeId{node}, name, code, ext);
          }),
      obs_source_(obs::Registry::global().add_source([this](obs::Rows& rows) {
          const Stats& s = stats_;
          const std::string& l = config_.issuer;
          rows.counter("midas.base.installs_sent", l, s.installs_sent);
          rows.counter("midas.base.install_failures", l, s.install_failures);
          rows.counter("midas.base.keepalives_sent", l, s.keepalives_sent);
          rows.counter("midas.base.keepalive_failures", l, s.keepalive_failures);
          rows.counter("midas.base.nodes_dropped", l, s.nodes_dropped);
          rows.counter("midas.base.nodes_handed_off", l, s.nodes_handed_off);
          rows.counter("midas.base.recoveries", l, s.recoveries);
          rows.gauge("midas.base.adapted_nodes", l, static_cast<std::int64_t>(adapted_.size()));
          rows.gauge("midas.base.epoch", l, static_cast<std::int64_t>(epoch_));
      })) {
    // Before recover(): a journal holding a half-finished rollout hands it
    // straight to the controller to resume at the journaled stage.
    rollout_ = std::make_unique<RolloutController>(*this, config_.rollout);
    if (journal_) {
        recover();
        // Journal hall records as they arrive — installed only after the
        // recovery replay above, or the replayed events would be written
        // back into the WAL they just came from.
        if (hall_store_) {
            hall_store_->set_append_hook([this](const db::Record& rec) {
                this->journal(BaseDurableState::rec_event(rec.source, rec.at, rec.data));
            });
        }
        // Persist the adopted epoch, then fold everything into a fresh
        // snapshot so the next restart replays a bounded WAL.
        journal_->append(BaseDurableState::rec_epoch(epoch_));
        compact_journal();
    }
    local_.set_terms(epoch_, config_.extension_lease.count() / 1'000'000);
    watch_token_ = registrar_.watch_local(
        "midas.adaptation",
        [this](const disco::ServiceItem& item, bool appeared) { on_service(item, appeared); });
    keepalive_timer_ = rpc_.router().simulator().schedule_every(
        config_.keepalive_period, [this]() { keepalive_tick(); });
}

ExtensionBase::~ExtensionBase() {
    if (hall_store_) hall_store_->set_append_hook(nullptr);
    registrar_.unwatch_local(watch_token_);
    rpc_.router().simulator().cancel(keepalive_timer_);
}

void ExtensionBase::recover() {
    BaseDurableState st = BaseDurableState::replay(journal_->restore());
    const bool had_life = st.epoch > 0;
    epoch_ = st.epoch + 1;
    std::uint64_t span = 0;
    if (had_life) {
        ++stats_.recoveries;
        span = obs::TraceBuffer::global().begin_span(
            "midas.recovery", "base.recover",
            {{"issuer", config_.issuer}, {"epoch", std::to_string(epoch_)}});
    }

    last_version_ = st.last_version;
    for (const auto& [name, sealed] : st.policies) {
        try {
            auto [pkg, sig] = ExtensionPackage::open(std::span<const std::uint8_t>(sealed));
            std::string hash = crypto::to_hex(crypto::Sha256::hash(
                std::span<const std::uint8_t>(sealed)));
            policy_[name] = Policy{std::move(pkg), sealed, std::move(hash), 0};
        } catch (const std::exception& e) {
            // CRC-valid but schema-invalid (should not happen): drop the
            // one policy rather than refuse to boot.
            log_warn(rpc_.router().simulator().now(), "midas.base@" + config_.issuer,
                     "recovered policy '", name, "' unreadable: ", e.what());
        }
    }
    rerank();
    for (const auto& [label, entry] : st.book) {
        AdaptedNode an;
        an.node = NodeId{entry.node};
        an.label = label;
        an.installed = entry.installed;
        an.since = entry.since;
        an.recovered = true;
        adapted_.emplace(an.node, std::move(an));
    }
    if (hall_store_) {
        for (const auto& ev : st.events) hall_store_->append(ev.source, ev.at, ev.data);
    }
    for (const auto& [_, entry] : st.rollouts) rollout_->adopt(entry);

    if (had_life) {
        record("recover", "", "");
        log_info(rpc_.router().simulator().now(), "midas.base@" + config_.issuer,
                 "recovered journal: epoch ", epoch_, ", ", policy_.size(), " policies, ",
                 adapted_.size(), " adapted nodes, ", st.events.size(), " hall records");
        obs::TraceBuffer::global().end_span(
            span, {{"policies", std::to_string(policy_.size())},
                   {"nodes", std::to_string(adapted_.size())},
                   {"events", std::to_string(st.events.size())},
                   {"skipped", std::to_string(st.skipped_records)}});
    }
}

void ExtensionBase::journal(const rt::Value& rec) {
    if (!journal_) return;
    journal_->append(rec);
    if (journal_->compaction_due()) compact_journal();
}

void ExtensionBase::compact_journal() {
    if (!journal_) return;
    BaseDurableState st;
    st.epoch = epoch_;
    st.last_version = last_version_;
    for (const auto& [name, policy] : policy_) st.policies[name] = policy.sealed;
    for (const auto& [_, a] : adapted_) {
        BaseDurableState::BookEntry entry;
        entry.node = a.node.value;
        entry.label = a.label;
        entry.since = a.since;
        entry.installed = a.installed;
        st.book[a.label] = std::move(entry);
    }
    if (rollout_) rollout_->snapshot_into(st);
    journal_->compact(st.to_snapshot(hall_store_));
}

void ExtensionBase::record(const std::string& event, const std::string& node_label,
                           const std::string& extension) {
    activity_.push_back(
        Activity{rpc_.router().simulator().now(), event, node_label, extension});
}

void ExtensionBase::add_extension(ExtensionPackage pkg) {
    if (rollout_ && rollout_->active(pkg.name)) {
        // A blind replace would auto-bump past the canary version the
        // rollout pinned and strand the fleet on two unreconciled versions.
        throw RolloutInFlight("add_extension('" + pkg.name +
                              "'): a staged rollout of this extension is in "
                              "flight — wait for it to complete or abort");
    }
    // Bump past any version receivers may already hold so the push is a
    // replacement, not a refresh.
    auto& last = last_version_[pkg.name];
    if (pkg.version <= last) pkg.version = last + 1;
    last = pkg.version;

    Policy policy{pkg, pkg.seal(keys_, config_.issuer), "", 0};
    policy.hash = crypto::to_hex(
        crypto::Sha256::hash(std::span<const std::uint8_t>(policy.sealed)));
    // A changed package means a changed hash: every attached cell must
    // ship the new blob once, so forget the superseded hash everywhere.
    if (auto old = policy_.find(pkg.name); old != policy_.end()) {
        for (auto& [_, cs] : cells_) cs.relay_has.erase(old->second.hash);
    }
    policy_[pkg.name] = std::move(policy);
    rerank();
    record("policy-add", "", pkg.name);
    // Journal after the mutation: a threshold-triggered compaction inside
    // journal() snapshots live state, which must already include this add.
    journal(BaseDurableState::rec_policy_add(pkg.name, pkg.version,
                                             policy_.at(pkg.name).sealed));
    sim::FailPoints::hit(config_.issuer, "policy.recorded");

    // The superseded extension id goes: every node's line reverts to an
    // install of the new content hash, and the receiver replaces the
    // package on version difference.
    for (auto& [_, adapted] : adapted_) {
        if (!adapted.probation) repush(adapted, pkg.name);
    }
}

std::uint32_t ExtensionBase::begin_rollout(ExtensionPackage pkg) {
    auto pit = policy_.find(pkg.name);
    if (pit == policy_.end()) {
        throw Error("begin_rollout('" + pkg.name +
                    "'): no incumbent policy to stage against — first installs "
                    "go through add_extension");
    }
    if (rollout_->active(pkg.name)) {
        throw RolloutInFlight("begin_rollout('" + pkg.name +
                              "'): a rollout of this extension is already in flight");
    }
    // Same version discipline as add_extension: the canary must supersede
    // everything any receiver may hold, and last_version_ moves with it so
    // a post-abort add_extension can never re-issue the canary's number.
    auto& last = last_version_[pkg.name];
    if (pkg.version <= last) pkg.version = last + 1;
    last = pkg.version;
    std::uint32_t version = pkg.version;
    std::uint32_t incumbent = pit->second.pkg.version;
    Bytes sealed = pkg.seal(keys_, config_.issuer);
    std::string hash = crypto::to_hex(
        crypto::Sha256::hash(std::span<const std::uint8_t>(sealed)));
    record("rollout-begin", "", pkg.name);
    rollout_->begin(std::move(pkg), std::move(sealed), std::move(hash), incumbent);
    return version;
}

void ExtensionBase::remove_extension(const std::string& name) {
    auto it = policy_.find(name);
    if (it == policy_.end()) return;
    policy_.erase(it);
    rerank();
    record("policy-remove", "", name);
    journal(BaseDurableState::rec_policy_remove(name));

    for (auto& [node, adapted] : adapted_) {
        local_.del(node.value, name);
        auto ext_it = adapted.installed.find(name);
        if (ext_it == adapted.installed.end()) continue;
        std::uint64_t ext = ext_it->second;
        adapted.installed.erase(ext_it);
        record("revoke", adapted.label, name);
        rpc_.call_async(node, "adaptation", "revoke",
                        {Value{static_cast<std::int64_t>(ext)}},
                        [](Value, std::exception_ptr) {});
    }
}

std::vector<std::string> ExtensionBase::policy_names() const {
    std::vector<std::string> out;
    for (const auto& [name, _] : policy_) out.push_back(name);
    return out;
}

std::vector<ExtensionBase::AdaptedNode> ExtensionBase::adapted() const {
    std::vector<AdaptedNode> out;
    for (const auto& [_, node] : adapted_) out.push_back(node);
    return out;
}

void ExtensionBase::on_service(const disco::ServiceItem& item, bool appeared) {
    // Disappearance needs no action: keep-alives to the node will start
    // failing and drop_node() takes over — the same path as a crash.
    if (!appeared) return;
    const Value* label_v = item.attributes.find("node");
    const Value* cell_v = item.attributes.find("cell");
    adapt_node(item.provider, label_v && label_v->is_str() ? label_v->as_str() : item.id.str(),
               cell_v && cell_v->is_str() ? cell_v->as_str() : "");
}

void ExtensionBase::adapt_node(NodeId node, const std::string& label,
                               const std::string& cell) {
    SimTime now = rpc_.router().simulator().now();
    AdaptedNode entry;
    entry.node = node;
    entry.label = label;
    entry.since = now;
    auto [it, fresh] = adapted_.emplace(node, std::move(entry));
    it->second.failures = 0;
    if (!cell.empty()) {
        it->second.cell = cell;
        if (auto cit = cells_.find(cell); cit != cells_.end()) {
            cit->second.members.insert(node);
        }
    }
    bool restamped = false;
    if (it->second.recovered) {
        // The node re-registered after our restart: its presence here is
        // fresh evidence, so the claim stamp moves to now and any pending
        // federation probation is moot.
        it->second.recovered = false;
        it->second.probation = false;
        it->second.since = now;
        restamped = true;
    }
    if (fresh) {
        record("adapt", label, "");
        log_info(now, "midas.base@" + config_.issuer, "adapting node ", label);
    }
    if (fresh || restamped) {
        journal(BaseDurableState::rec_adapt(node.value, label, it->second.since));
        sim::FailPoints::hit(config_.issuer, "adapt.recorded");
    }
    // Every (re)appearance pushes the whole policy, as on first contact:
    // the node may have restarted or let its leases lapse while out of
    // touch, and it takes a package it still runs as a refresh.
    it->second.installed.clear();
    push(it->second);
    if (on_adapt_) on_adapt_(it->second);
}

bool ExtensionBase::release_node(const std::string& label) {
    for (auto it = adapted_.begin(); it != adapted_.end(); ++it) {
        if (it->second.label != label) continue;
        ++stats_.nodes_handed_off;
        retire(it, "handoff", " handed off to a neighbouring base");
        return true;
    }
    return false;
}

std::vector<std::pair<std::string, SimTime>> ExtensionBase::begin_probation() {
    std::vector<std::pair<std::string, SimTime>> out;
    for (auto& [_, a] : adapted_) {
        if (!a.recovered) continue;
        a.probation = true;
        out.emplace_back(a.label, a.since);
    }
    return out;
}

bool ExtensionBase::confirm_node(const std::string& label) {
    for (auto& [_, a] : adapted_) {
        if (a.label != label) continue;
        a.probation = false;
        a.recovered = false;
        return true;
    }
    return false;
}

std::optional<SimTime> ExtensionBase::claim_stamp_of(const std::string& label) const {
    for (const auto& [_, a] : adapted_) {
        if (a.label == label) return a.since;
    }
    return std::nullopt;
}

void ExtensionBase::rerank() {
    // Implicit prerequisites rank below what implies them (paper: adding
    // access control automatically adds session management), so installs
    // go out prerequisites first. Names outside the policy set do not
    // count; one pass per policy settles any chain, and a cycle stops
    // growing at that bound.
    const int bound = static_cast<int>(policy_.size());
    for (auto& [_, policy] : policy_) policy.rank = 0;
    for (int pass = 0; pass < bound; ++pass) {
        for (auto& [_, policy] : policy_) {
            for (const std::string& implied : policy.pkg.implies) {
                auto it = policy_.find(implied);
                if (it == policy_.end()) continue;
                policy.rank = std::max(policy.rank, std::min(it->second.rank + 1, bound));
            }
        }
    }
}

const std::string& ExtensionBase::wanted_hash(const std::string& name, const Policy& policy,
                                              const std::string& label) const {
    if (rollout_->selects_canary(name, label)) {
        if (const std::string* canary = rollout_->canary_hash(name)) return *canary;
    }
    return policy.hash;
}

const Bytes* ExtensionBase::blob_of(const std::string& hash) const {
    for (const auto& [_, policy] : policy_) {
        if (policy.hash == hash) return &policy.sealed;
    }
    // Canary blobs live in the rollout controller, not the policy set,
    // until the rollout completes.
    return rollout_->sealed_for_hash(hash);
}

void ExtensionBase::sync_lines(const AdaptedNode& a) {
    for (const auto& [name, policy] : policy_) {
        auto iit = a.installed.find(name);
        local_.put(a.node.value, name, iit == a.installed.end() ? 0 : iit->second,
                   wanted_hash(name, policy, a.label), policy.rank);
    }
}

void ExtensionBase::push(AdaptedNode& a) {
    if (a.probation || cell_routed(a)) return;  // the next tick forgets its lines
    sync_lines(a);
    stats_.installs_sent += local_.push(a.node.value);
}

void ExtensionBase::repush(AdaptedNode& a, const std::string& name) {
    a.installed.erase(name);
    push(a);
}

void ExtensionBase::unquarantine(const AdaptedNode& a, const std::string& name,
                                 std::int64_t version) {
    if (!cell_routed(a)) {
        local_.unquarantine(a.node.value, name, version);
        return;
    }
    cells_.at(a.cell).unq_outbox.push_back(
        CellUnq{0, Value{Dict{{"node", Value{static_cast<std::int64_t>(a.node.value)}},
                              {"name", Value{name}},
                              {"version", Value{version}}}}});
}

void ExtensionBase::keepalive_tick() {
    // Re-adopt orphans the registrar still vouches for. A radio burst can
    // eat enough keep-alives to drop a perfectly healthy node, and no new
    // appearance edge will ever fire for it while its service registration
    // stays continuously renewed — drop_node() would orphan it forever. A
    // live registration is positive evidence the node is up and in range,
    // so adoption is safe; a genuinely dead node stops renewing and falls
    // out of lookup() within its registrar lease.
    registrar_.for_each("midas.adaptation", [this](const disco::ServiceItem& item) {
        if (!adapted_.contains(item.provider)) on_service(item, true);
    });

    // The in-process roster carries every adapted node not behind an
    // attached cell. A probation entry is a journal-recovered node the
    // federation has not yet confirmed: a neighbour may have adapted it
    // while we were down, so no traffic until the claim settles.
    for (auto& [node, a] : adapted_) {
        if (a.probation || cell_routed(a)) {
            local_.forget(node.value);
        } else {
            sync_lines(a);
        }
    }
    LeaseRoster::Sent sent = local_.round();
    stats_.installs_sent += sent.installs;
    stats_.keepalives_sent += sent.keepalives;

    // Batched cells: one frame per cell — not per node.
    for (auto& [cell, cs] : cells_) cell_tick(cell, cs);
}

// ------------------------------------------------- batched cell protocol ----

void ExtensionBase::attach_cell(const std::string& cell, NodeId relay) {
    CellState cs;
    cs.relay = relay;
    for (const auto& [node, a] : adapted_) {
        if (a.cell == cell) cs.members.insert(node);
    }
    cells_[cell] = std::move(cs);
    log_info(rpc_.router().simulator().now(), "midas.base@" + config_.issuer,
             "cell '", cell, "' attached; batching keep-alives via relay");
}

void ExtensionBase::detach_cell(const std::string& cell) {
    if (cells_.erase(cell) == 0) return;
    log_info(rpc_.router().simulator().now(), "midas.base@" + config_.issuer, "cell '",
             cell, "' detached; members move to the base's own roster");
}

const ExtensionBase::CellStats& ExtensionBase::cell_stats(const std::string& cell) const {
    static const CellStats kNone{};
    auto it = cells_.find(cell);
    return it == cells_.end() ? kNone : it->second.stats;
}


void ExtensionBase::cell_tick(const std::string& cell, CellState& cs) {
    // At most one frame in flight: the call timeout equals the keep-alive
    // period, so a slow relay simply halves the frame rate instead of
    // stacking calls.
    if (cs.in_flight) return;

    // Desired roster: every (member, policy) pair, installed entries as
    // keep-alive lines, missing ones as install lines named by content
    // hash. This is plain local bookkeeping — the per-period network cost
    // is the single frame below, whatever the cell size.
    std::map<RosterKey, RosterEntry> desired;
    List pause;
    for (NodeId node : cs.members) {
        auto ait = adapted_.find(node);
        if (ait == adapted_.end()) continue;
        const AdaptedNode& a = ait->second;
        if (a.probation) continue;
        if (!breaker_.allow(node)) {
            // Breaker open: the entries stay on the roster (no churn) but
            // the relay skips the node this round, and a skipped round
            // never counts against it — PR 4 semantics, batched.
            pause.push_back(Value{static_cast<std::int64_t>(node.value)});
        }
        for (const auto& [name, policy] : policy_) {
            auto iit = a.installed.find(name);
            std::uint64_t ext = iit == a.installed.end() ? 0 : iit->second;
            if (ext != 0) ++stats_.keepalives_sent;
            desired[{node.value, name}] =
                RosterEntry{ext, wanted_hash(name, policy, a.label), policy.rank};
        }
    }

    // Delta-encode against the last acknowledged roster.
    List ops;
    std::vector<std::string> blob_hashes;
    Dict blobs;
    for (const auto& [key, entry] : desired) {
        auto sit = cs.synced.find(key);
        if (sit != cs.synced.end() && sit->second == entry) continue;
        Dict op{{"op", Value{"put"}},
                {"node", Value{static_cast<std::int64_t>(key.first)}},
                {"name", Value{key.second}},
                {"ext", Value{static_cast<std::int64_t>(entry.ext)}},
                {"hash", Value{entry.hash}}};
        // Only a policy with prerequisites carries its rank, so frames of
        // a policy set without `implies` stay as they were.
        if (entry.rank != 0) op.set("rank", Value{static_cast<std::int64_t>(entry.rank)});
        ops.push_back(Value{std::move(op)});
        if (entry.ext == 0 && !cs.relay_has.contains(entry.hash) &&
            !blobs.contains(entry.hash)) {
            if (const Bytes* blob = blob_of(entry.hash)) {
                blobs.set(entry.hash, Value{*blob});
                blob_hashes.push_back(entry.hash);
            }
        }
    }
    for (const auto& [key, _] : cs.synced) {
        if (desired.contains(key)) continue;
        ops.push_back(Value{Dict{{"op", Value{"del"}},
                                 {"node", Value{static_cast<std::int64_t>(key.first)}},
                                 {"name", Value{key.second}}}});
    }

    std::uint64_t seq = ++cs.seq;
    Dict frame{{"seq", Value{static_cast<std::int64_t>(seq)}},
               {"base", Value{static_cast<std::int64_t>(cs.acked_seq)}},
               {"epoch", Value{static_cast<std::int64_t>(epoch_)}},
               {"lease_ms", Value{config_.extension_lease.count() / 1'000'000}},
               {"ack", Value{static_cast<std::int64_t>(cs.record_seen)}},
               {"pause", Value{std::move(pause)}},
               {"ops", Value{std::move(ops)}},
               {"blobs", Value{std::move(blobs)}}};
    // Rollback amnesties ride every frame until one carrying them is acked
    // (the key is optional: relays without rollout support ignore it).
    if (!cs.unq_outbox.empty()) {
        List unq;
        for (CellUnq& u : cs.unq_outbox) {
            u.seq = seq;
            unq.push_back(u.rec);
        }
        frame.set("unq", Value{std::move(unq)});
    }
    cs.pending = std::move(desired);
    cs.pending_blobs = std::move(blob_hashes);
    cs.in_flight = true;
    ++cs.stats.frames_sent;

    rpc_.call_async(
        cs.relay, "midas.cell", "batch", {Value{std::move(frame)}},
        rt::CallOptions{.timeout = config_.keepalive_period},
        [this, cell, seq](Value result, std::exception_ptr error, bool) {
            auto cit = cells_.find(cell);
            if (cit == cells_.end()) return;
            CellState& cs = cit->second;
            cs.in_flight = false;
            if (error) {
                ++cs.stats.frame_failures;
                // Relay link trouble tells us nothing about individual
                // members, so no node's failure ledger moves. A relay
                // that stays dark past the usual threshold costs the cell
                // its batching: detach, its members move to our own roster.
                if (++cs.failures > config_.max_keepalive_failures) {
                    log_warn(rpc_.router().simulator().now(),
                             "midas.base@" + config_.issuer, "cell '", cell,
                             "' relay unresponsive; detaching");
                    detach_cell(cell);
                }
                return;
            }
            cs.failures = 0;
            process_cell_reply(cell, seq, result);
        });
}

void ExtensionBase::process_cell_reply(const std::string& cell, std::uint64_t sent_seq,
                                       const rt::Value& reply) {
    auto cit = cells_.find(cell);
    if (cit == cells_.end()) return;
    CellState& cs = cit->second;
    const Dict& r = reply.as_dict();

    // 1. Liveness bitmap — the previous round's healthy keep-alives, one
    // bit per entry of the roster version both sides agreed on. Absence of
    // a bit is NOT a failure (the evidence may simply be a round behind or
    // the reply before this one was lost); only explicit status records
    // move failure ledgers.
    std::uint64_t bitmap_seq = static_cast<std::uint64_t>(r.at("bitmap_seq").as_int());
    if (bitmap_seq == cs.acked_seq && r.at("ok").is_blob()) {
        const Bytes& bits = r.at("ok").as_blob();
        std::size_t i = 0;
        for (const auto& [key, _] : cs.synced) {
            if (i / 8 < bits.size() && (bits[i / 8] >> (i % 8)) & 1) {
                apply_status(NodeId{key.first}, key.second, cellproto::kRenewed, 0);
            }
            ++i;
        }
    }

    // 2. Status records, applied at most once via the id high-water mark:
    // a duplicated or retained-and-resent record can never double-count a
    // failure or double-apply an install.
    std::uint64_t seen0 = cs.record_seen;
    std::uint64_t high = seen0;
    for (const Value& sv : r.at("statuses").as_list()) {
        const Dict& s = sv.as_dict();
        std::uint64_t id = static_cast<std::uint64_t>(s.at("id").as_int());
        if (id > high) high = id;
        if (id <= seen0) continue;
        ++cs.stats.statuses;
        const std::string& name = s.at("name").as_str();
        int code = static_cast<int>(s.at("code").as_int());
        if (code == cellproto::kNeedBlob) {
            // Relay lost the blob (typically a restart): mark the hash
            // unsent. Blobs only ride frames alongside put ops, and a
            // fully synced roster emits no ops — so also un-sync every
            // entry carrying the hash, forcing the next frame to re-emit
            // their puts with the blob attached. Pending must be scrubbed
            // too: step 4 below promotes it to synced on this very reply.
            // The lost hash is the one the member's roster line carries —
            // a canary's, during a rollout — not necessarily the policy's.
            auto ait = adapted_.find(NodeId{static_cast<std::uint64_t>(s.at("node").as_int())});
            const std::string* line =
                ait == adapted_.end() ? nullptr : cell_line_hash(ait->second, name);
            if (!line) continue;
            std::string hash = *line;
            cs.relay_has.erase(hash);
            auto lost = [&hash](const auto& e) { return e.second.hash == hash; };
            std::erase_if(cs.synced, lost);
            std::erase_if(cs.pending, lost);
            continue;
        }
        if (code == cellproto::kInstalled) ++stats_.installs_sent;
        apply_status(NodeId{static_cast<std::uint64_t>(s.at("node").as_int())}, name, code,
                     static_cast<std::uint64_t>(s.at("ext").as_int()));
    }

    // 3. Joins reported by the relay's registrar watch. adapt_node is
    // idempotent, so replays are harmless; the id gate skips them anyway.
    for (const Value& jv : r.at("joins").as_list()) {
        const Dict& j = jv.as_dict();
        std::uint64_t id = static_cast<std::uint64_t>(j.at("id").as_int());
        if (id > high) high = id;
        if (id <= seen0) continue;
        ++cs.stats.joins;
        adapt_node(NodeId{static_cast<std::uint64_t>(j.at("node").as_int())},
                   j.at("label").as_str(), cell);
    }
    // Nothing above erases cells_, so `cs` is still this cell's state.
    cs.record_seen = high;

    // 4. Roster acknowledgement.
    if (r.at("resync").as_bool()) {
        ++cs.stats.resyncs;
        cs.synced.clear();
        cs.acked_seq = 0;  // next frame is a full roster (delta from empty)
        cs.pending_blobs.clear();
        // A relay that outlived a detach/re-attach keeps its applied_seq_
        // while our fresh CellState restarts at seq=0; without adopting
        // the relay's high-water mark every frame would be refused as
        // stale until seq catches up — one resync round per old frame,
        // with no fan-out the whole time.
        std::uint64_t applied = static_cast<std::uint64_t>(r.at("applied").as_int());
        if (applied > cs.seq) cs.seq = applied;
    } else {
        cs.synced = std::move(cs.pending);
        cs.acked_seq = sent_seq;
        cs.stats.blobs_sent += cs.pending_blobs.size();
        for (std::string& h : cs.pending_blobs) cs.relay_has.insert(std::move(h));
        cs.pending_blobs.clear();
        // Amnesties delivered by the acked frame are done; entries queued
        // after it went out (seq 0 or newer) ride the next one.
        std::erase_if(cs.unq_outbox, [sent_seq](const CellUnq& u) {
            return u.seq != 0 && u.seq <= sent_seq;
        });
    }
}

const std::string* ExtensionBase::cell_line_hash(const AdaptedNode& a,
                                                 const std::string& name) const {
    if (!cell_routed(a)) return nullptr;
    const CellState& cs = cells_.at(a.cell);
    if (auto it = cs.pending.find({a.node.value, name}); it != cs.pending.end()) {
        return &it->second.hash;
    }
    auto it = cs.synced.find({a.node.value, name});
    return it == cs.synced.end() ? nullptr : &it->second.hash;
}

void ExtensionBase::apply_status(NodeId node, const std::string& name, int code,
                                 std::uint64_t ext) {
    auto ait = adapted_.find(node);
    if (ait == adapted_.end()) return;
    AdaptedNode& a = ait->second;
    // Only silence counts toward a drop: a node that answers at all — even
    // with a refusal, an error or a shed — is alive and in range.
    if (code == cellproto::kTransportFail || code == cellproto::kShed) {
        ++stats_.keepalive_failures;
        breaker_.on_failure(node, true);
        if (code == cellproto::kShed) {
            a.failures = 0;
        } else if (++a.failures > config_.max_keepalive_failures) {
            drop_node(node);
        }
        return;
    }
    a.failures = 0;
    if (code == cellproto::kError || code == cellproto::kQuarantined) {
        // A non-transport verdict on the package — the only outcomes that
        // judge it, so the rollout's health gate hears them.
        ++stats_.install_failures;
        breaker_.on_failure(node, false);
        log_warn(rpc_.router().simulator().now(), "midas.base@" + config_.issuer,
                 "install of '", name, "' on ", a.label,
                 code == cellproto::kQuarantined ? " refused: quarantined" : " failed");
        if (rollout_->selects_canary(name, a.label)) {
            rollout_->note_install_error(name, a.label, code == cellproto::kQuarantined);
        }
        return;
    }
    breaker_.on_success(node);
    if (code == cellproto::kEscalated) {
        rollout_->note_escalations(name, a.label, static_cast<std::int64_t>(ext));
    } else if (code == cellproto::kRefused) {
        // The receiver no longer honors the extension (lapsed there, or it
        // spotted our epoch change). Drop the stale id, which would be
        // refused every round, and re-install.
        repush(a, name);
    } else if (code == cellproto::kInstalled) {
        // Compare the content the cell roster line carried with what the
        // node should run *now*: a replacement or a rollout promote or
        // abort may have raced the install. On a mismatch the name stays
        // uninstalled and the roster re-installs the right hash. (The
        // in-process roster drops replies for superseded content itself.)
        auto pit = policy_.find(name);
        const std::string* sent = cell_line_hash(a, name);
        if (pit == policy_.end() || (sent && *sent != wanted_hash(name, pit->second, a.label))) {
            return;
        }
        if (rollout_->selects_canary(name, a.label)) rollout_->note_install_ok(name, a.label);
        a.installed[name] = ext;
        record("install", a.label, name);
        journal(BaseDurableState::rec_install(node.value, a.label, name, ext));
        sim::FailPoints::hit(config_.issuer, "install.recorded");
    }
}

void ExtensionBase::drop_node(NodeId node) {
    auto it = adapted_.find(node);
    if (it == adapted_.end()) return;
    ++stats_.nodes_dropped;
    retire(it, "node-gone", " left; stopping keep-alives");
}

void ExtensionBase::retire(std::map<NodeId, AdaptedNode>::iterator it, const char* event,
                           const char* why) {
    const std::string label = it->second.label;
    breaker_.forget(it->first);
    local_.forget(it->first.value);
    if (auto cit = cells_.find(it->second.cell); cit != cells_.end()) {
        cit->second.members.erase(it->first);
    }
    record(event, label, "");
    log_info(rpc_.router().simulator().now(), "midas.base@" + config_.issuer, "node ", label,
             why);
    adapted_.erase(it);
    journal(BaseDurableState::rec_node_gone(label));
}

}  // namespace pmp::midas
