#include "midas/cell.h"

#include "common/error.h"
#include "common/log.h"
#include "midas/package.h"

namespace pmp::midas {

using rt::Dict;
using rt::List;
using rt::Value;

namespace {
/// Unacked records are retained for reliable delivery; if the base never
/// acks (it died, or detached the cell), cap the queues rather than grow
/// without bound. Oldest records go first — the base is gone anyway.
constexpr std::size_t kMaxRetained = 4096;
/// Timeout for the relay's local install/keepalive calls. Must sit under
/// the base's keepalive period so one round's results are in before the
/// next frame asks for them.
constexpr Duration kCallTimeout = milliseconds(700);
/// Cap on the exponential round-skip backoff for failing entries.
constexpr int kMaxBackoffRounds = 16;
/// Catch-up proxy (docs/recovery.md): how long a cached manifest stays fresh
/// before the next reader triggers an upstream refetch, and the retry hint
/// handed to readers while a chunk is still being fetched from the base.
/// The relay answers catch-up reads from its cache so a whole cell
/// restarting after a power cut costs the backhaul one image fetch, not one
/// per node.
constexpr Duration kCatchupManifestTtl = seconds(2);
constexpr Duration kCatchupRetry = milliseconds(150);
/// Timeout for the relay's upstream catch-up fetches.
constexpr Duration kCatchupTimeout = seconds(1);

int classify(std::exception_ptr error, bool transport) {
    try {
        std::rethrow_exception(error);
    } catch (const Overloaded&) {
        return cellproto::kShed;
    } catch (const std::exception& e) {
        if (!transport && is_quarantine_refusal(e)) return cellproto::kQuarantined;
    } catch (...) {
    }
    return transport ? cellproto::kTransportFail : cellproto::kError;
}
}  // namespace

CellRelay::CellRelay(rt::RpcEndpoint& rpc, disco::Registrar* local_registrar,
                     CellRelayConfig config)
    : rpc_(rpc),
      local_registrar_(local_registrar),
      config_(std::move(config)),
      obs_source_(obs::Registry::global().add_source([this](obs::Rows& rows) {
          rows.counter("midas.cell.frames", config_.cell, stats_.frames);
          rows.counter("midas.cell.fanout_calls", config_.cell, stats_.fanout_calls);
          rows.counter("midas.cell.resyncs", config_.cell, stats_.resyncs);
      })) {
    build_service_object();
    build_catchup_proxy();
    if (local_registrar_) {
        // Advertise the catch-up proxy in the cell's own discovery scope:
        // a member restarting after a power cut finds its image source
        // one radio hop away, not across the backhaul.
        local_registrar_->register_permanent("midas.catchup",
                                             Dict{{"cell", Value{config_.cell}}});
    }
    if (local_registrar_) {
        // The relay, not the far-away base, watches the cell's registrar:
        // newcomers surface to the base as join records in batch replies.
        watch_token_ = local_registrar_->watch_local(
            "midas.adaptation",
            [this](const disco::ServiceItem& item, bool appeared) {
                if (!appeared) return;
                const Value* label = item.attributes.find("node");
                joins_.push_back(Join{++next_record_id_, item.provider.value,
                                      label && label->is_str() ? label->as_str()
                                                               : item.id.str()});
                if (joins_.size() > kMaxRetained) joins_.erase(joins_.begin());
            });
    }
}

CellRelay::~CellRelay() {
    if (local_registrar_) local_registrar_->unwatch_local(watch_token_);
}

void CellRelay::build_service_object() {
    using rt::TypeKind;
    auto& runtime = rpc_.runtime();
    if (!runtime.find_type("CellRelay")) {
        auto type = rt::TypeInfo::Builder("CellRelay")
                        .method("batch", TypeKind::kDict, {{"frame", TypeKind::kDict}},
                                [this](rt::ServiceObject&, List& args) -> Value {
                                    return do_batch(args[0]);
                                })
                        .build();
        runtime.register_type(type);
    }
    self_object_ = runtime.create("CellRelay", "midas.cell");
    rpc_.export_object("midas.cell");
}

void CellRelay::push_status(std::uint64_t node, const std::string& name, int code,
                            std::uint64_t ext) {
    pending_.push_back(Status{++next_record_id_, node, name, code, ext});
    if (pending_.size() > kMaxRetained) pending_.erase(pending_.begin());
}

Value CellRelay::do_batch(const Value& frame_v) {
    const Dict& frame = frame_v.as_dict();
    ++stats_.frames;
    // The frame sender IS the base: remember its address for the catch-up
    // proxy's upstream fetches (no static configuration anywhere).
    base_node_ = rpc_.current_caller();
    std::uint64_t seq = static_cast<std::uint64_t>(frame.at("seq").as_int());
    std::uint64_t base = static_cast<std::uint64_t>(frame.at("base").as_int());
    std::uint64_t ack = static_cast<std::uint64_t>(frame.at("ack").as_int());

    // Drop records the base has confirmed processing.
    std::erase_if(pending_, [ack](const Status& s) { return s.id <= ack; });
    std::erase_if(joins_, [ack](const Join& j) { return j.id <= ack; });

    // Build the pipelined reply *before* applying this frame's ops: the
    // liveness bitmap indexes the roster version the base last acked —
    // both sides iterate the same sorted keys, so bit i means entry i.
    Bytes bitmap((roster_.size() + 7) / 8, 0);
    std::size_t i = 0;
    for (const auto& [key, entry] : roster_) {
        if (ok_accum_.contains(key)) bitmap[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
        ++i;
    }
    ok_accum_.clear();
    std::uint64_t bitmap_seq = applied_seq_;
    List statuses;
    for (const Status& s : pending_) {
        statuses.push_back(Value{Dict{
            {"id", Value{static_cast<std::int64_t>(s.id)}},
            {"node", Value{static_cast<std::int64_t>(s.node)}},
            {"name", Value{s.name}},
            {"code", Value{static_cast<std::int64_t>(s.code)}},
            {"ext", Value{static_cast<std::int64_t>(s.ext)}}}});
    }
    List joins;
    for (const Join& j : joins_) {
        joins.push_back(Value{Dict{{"id", Value{static_cast<std::int64_t>(j.id)}},
                                   {"node", Value{static_cast<std::int64_t>(j.node)}},
                                   {"label", Value{j.label}}}});
    }

    // Cache any policy blobs riding along (content-addressed; a repeat
    // send of a known hash is a harmless overwrite with identical bytes).
    if (const Value* bv = frame.find("blobs")) {
        for (const auto& [hash, blob] : bv->as_dict()) {
            blobs_[hash] = blob.as_blob();
            for (auto& [_, entry] : roster_) {
                if (entry.hash == hash) entry.need_blob_reported = false;
            }
        }
    }

    // Apply roster ops. base == 0 marks a full roster (delta from empty);
    // anything else must extend exactly the state we hold, or the frame is
    // refused with `resync` and the base resends in full. A stale frame
    // (seq regression after a timeout-then-late-delivery) is refused the
    // same way and its ops never touch the roster.
    bool resync = false;
    if (seq <= applied_seq_) {
        resync = true;
    } else if (base == 0) {
        roster_.clear();
    } else if (base != applied_seq_) {
        resync = true;
    }
    if (resync) {
        ++stats_.resyncs;
    } else {
        // Adopt epoch/lease only from frames we accept: a refused stale
        // frame (late delivery after a timeout made the base pipeline a
        // newer one) must not roll these back under the next fan-out.
        epoch_ = static_cast<std::uint64_t>(frame.at("epoch").as_int());
        lease_ms_ = frame.at("lease_ms").as_int();
        for (const Value& ov : frame.at("ops").as_list()) {
            const Dict& op = ov.as_dict();
            EntryKey key{static_cast<std::uint64_t>(op.at("node").as_int()),
                         op.at("name").as_str()};
            if (op.at("op").as_str() == "del") {
                roster_.erase(key);
                continue;
            }
            Entry& entry = roster_[key];
            entry.ext = static_cast<std::uint64_t>(op.at("ext").as_int());
            entry.hash = op.at("hash").as_str();
            entry.need_blob_reported = false;
        }
        applied_seq_ = seq;

        paused_.clear();
        for (const Value& pv : frame.at("pause").as_list()) {
            paused_.insert(static_cast<std::uint64_t>(pv.as_int()));
        }
        // Optional key (older bases never send it): rollback amnesties to
        // fan out fire-and-forget. Idempotent at the receiver, and the
        // base retransmits them until a frame carrying them is acked, so
        // losing an individual call here only delays the amnesty by a
        // frame; accepted-frames-only keeps stale frames from replaying
        // directives the base already retired.
        if (const Value* uv = frame.find("unq")) {
            for (const Value& ev : uv->as_list()) {
                const Dict& u = ev.as_dict();
                NodeId member{static_cast<std::uint64_t>(u.at("node").as_int())};
                ++stats_.fanout_calls;
                rpc_.call_async(
                    member, "adaptation", "unquarantine",
                    {Value{u.at("name").as_str()}, u.at("version"),
                     Value{static_cast<std::int64_t>(epoch_)}},
                    rt::CallOptions{.timeout = kCallTimeout},
                    [](Value, std::exception_ptr, bool) {});
            }
        }
        fan_out();
    }

    Dict reply{{"applied", Value{static_cast<std::int64_t>(applied_seq_)}},
               {"resync", Value{resync}},
               {"bitmap_seq", Value{static_cast<std::int64_t>(bitmap_seq)}},
               {"ok", Value{std::move(bitmap)}},
               {"statuses", Value{std::move(statuses)}},
               {"joins", Value{std::move(joins)}}};
    return Value{std::move(reply)};
}

// ------------------------------------------------ catch-up proxy -----------

void CellRelay::build_catchup_proxy() {
    using rt::TypeKind;
    auto& runtime = rpc_.runtime();
    if (!runtime.find_type("CellCatchup")) {
        auto type =
            rt::TypeInfo::Builder("CellCatchup")
                .method("manifest", TypeKind::kDict, {},
                        [this](rt::ServiceObject&, List&) -> Value {
                            return proxy_manifest();
                        })
                .method("chunk", TypeKind::kDict,
                        {{"chain", TypeKind::kInt}, {"index", TypeKind::kInt}},
                        [this](rt::ServiceObject&, List& args) -> Value {
                            return proxy_chunk(
                                static_cast<std::uint64_t>(args[0].as_int()),
                                args[1].as_int());
                        })
                .build();
        runtime.register_type(type);
    }
    catchup_object_ = runtime.create("CellCatchup", "midas.catchup");
    rpc_.export_object("midas.catchup");
}

Value CellRelay::not_ready() const {
    return Value{Dict{
        {"retry_ms", Value{kCatchupRetry.count() / 1'000'000}}}};
}

void CellRelay::fetch_manifest_upstream() {
    if (manifest_fetching_ || base_node_.value == 0) return;
    manifest_fetching_ = true;
    ++stats_.catchup_upstream;
    rpc_.call_async(
        base_node_, "midas.catchup", "manifest", {},
        rt::CallOptions{.timeout = kCatchupTimeout},
        [this, guard = std::weak_ptr<char>(token_)](Value result,
                                                    std::exception_ptr error, bool) {
            if (guard.expired()) return;
            manifest_fetching_ = false;
            if (error) return;  // readers keep polling; the next one re-kicks
            const Dict& m = result.as_dict();
            std::uint64_t chain = static_cast<std::uint64_t>(m.at("chain").as_int());
            if (chain != cached_chain_) {
                // New image: yesterday's chunks can never CRC-verify into
                // it, so the cache restarts empty for the new chain.
                chunk_cache_.clear();
                chunk_fetching_.clear();
                cached_chain_ = chain;
            }
            manifest_cache_ = std::move(result);
            manifest_fresh_until_ =
                rpc_.router().simulator().now() + kCatchupManifestTtl;
        });
}

void CellRelay::fetch_chunk_upstream(std::uint64_t chain, std::int64_t index) {
    if (base_node_.value == 0 || !chunk_fetching_.insert(index).second) return;
    ++stats_.catchup_upstream;
    rpc_.call_async(
        base_node_, "midas.catchup", "chunk",
        {Value{static_cast<std::int64_t>(chain)}, Value{index}},
        rt::CallOptions{.timeout = kCatchupTimeout},
        [this, chain, index, guard = std::weak_ptr<char>(token_)](
            Value result, std::exception_ptr error, bool) {
            if (guard.expired()) return;
            chunk_fetching_.erase(index);
            if (error) return;
            const Dict& r = result.as_dict();
            if (const Value* stale = r.find("stale"); stale && stale->as_bool()) {
                // The base moved to a new chain under us: our manifest is
                // a lie now. Expire it so the next reader refetches.
                manifest_fresh_until_ = SimTime{};
                fetch_manifest_upstream();
                return;
            }
            if (const Value* data = r.find("data"); data && chain == cached_chain_) {
                chunk_cache_[index] = data->as_blob();
            }
        });
}

Value CellRelay::proxy_manifest() {
    SimTime now = rpc_.router().simulator().now();
    if (manifest_cache_.is_dict() && now < manifest_fresh_until_) {
        ++stats_.catchup_hits;
        return manifest_cache_;
    }
    ++stats_.catchup_waits;
    fetch_manifest_upstream();
    return not_ready();
}

Value CellRelay::proxy_chunk(std::uint64_t chain, std::int64_t index) {
    if (chain == cached_chain_ && index >= 0) {
        if (auto it = chunk_cache_.find(index); it != chunk_cache_.end()) {
            ++stats_.catchup_hits;
            return Value{Dict{{"data", Value{it->second}}}};
        }
    }
    if (cached_chain_ != 0 && chain < cached_chain_) {
        // Reader is on a retired chain; make it restart on the current one.
        return Value{Dict{{"stale", Value{true}}}};
    }
    ++stats_.catchup_waits;
    if (chain > cached_chain_) {
        // Reader knows a newer image than we cached (it talked to the base
        // directly, or our manifest is old): catch our manifest up first.
        manifest_fresh_until_ = SimTime{};
        fetch_manifest_upstream();
    } else {
        fetch_chunk_upstream(chain, index);
    }
    return not_ready();
}

void CellRelay::fan_out() {
    for (auto& [key, entry] : roster_) {
        if (paused_.contains(key.first)) continue;  // breaker open at the base
        if (entry.in_flight) continue;
        if (entry.cooldown > 0) {
            --entry.cooldown;
            continue;
        }
        NodeId node{key.first};
        if (entry.ext != 0) {
            ++stats_.fanout_calls;
            entry.in_flight = true;
            rpc_.call_async(
                node, "adaptation", "keepalive",
                {Value{static_cast<std::int64_t>(entry.ext)}, Value{lease_ms_},
                 Value{static_cast<std::int64_t>(epoch_)}},
                rt::CallOptions{.timeout = kCallTimeout},
                [this, key, guard = std::weak_ptr<char>(token_)](
                    Value result, std::exception_ptr error, bool transport) {
                    if (guard.expired()) return;
                    auto it = roster_.find(key);
                    if (it == roster_.end()) return;
                    Entry& e = it->second;
                    e.in_flight = false;
                    if (error) {
                        // No backoff here: keep-alives stay on the fixed
                        // per-period cadence exactly like the direct path
                        // (backing off would stretch the gap past the
                        // lease after two blips); dropping the node is the
                        // base's ledger's call, not the relay's.
                        push_status(key.first, key.second, classify(error, transport));
                        return;
                    }
                    // A renewal answers `true`, or the count of governor
                    // escalations since the receiver's last reply, which
                    // rides to the base as a status record.
                    const std::int64_t* escalations = result.if_int();
                    if (escalations || result.as_bool()) {
                        ok_accum_.insert(key);
                        if (escalations) {
                            push_status(key.first, key.second, cellproto::kEscalated,
                                        static_cast<std::uint64_t>(*escalations));
                        }
                    } else {
                        // Stale extension / epoch mismatch at the receiver.
                        // Report and keep the entry untouched: the base
                        // erases its bookkeeping and the next frame turns
                        // this entry back into an install op.
                        push_status(key.first, key.second, cellproto::kRefused);
                    }
                });
        } else {
            auto bit = blobs_.find(entry.hash);
            if (bit == blobs_.end()) {
                if (!entry.need_blob_reported) {
                    entry.need_blob_reported = true;
                    push_status(key.first, key.second, cellproto::kNeedBlob);
                }
                continue;
            }
            ++stats_.fanout_calls;
            entry.in_flight = true;
            rpc_.call_async(
                node, "adaptation", "install",
                {Value{bit->second}, Value{lease_ms_},
                 Value{static_cast<std::int64_t>(epoch_)}},
                rt::CallOptions{.timeout = kCallTimeout, .retries = 1},
                [this, key, guard = std::weak_ptr<char>(token_)](
                    Value result, std::exception_ptr error, bool transport) {
                    if (guard.expired()) return;
                    auto it = roster_.find(key);
                    if (it == roster_.end()) return;
                    Entry& e = it->second;
                    e.in_flight = false;
                    if (error) {
                        push_status(key.first, key.second, classify(error, transport));
                        e.penalty = e.penalty == 0
                                        ? 1
                                        : std::min(e.penalty * 2, kMaxBackoffRounds);
                        e.cooldown = e.penalty;
                        return;
                    }
                    e.penalty = 0;
                    e.ext = static_cast<std::uint64_t>(
                        result.as_dict().at("ext").as_int());
                    // Keep-alives start next round; the base's confirming
                    // put op later carries the same ext and is a no-op.
                    push_status(key.first, key.second, cellproto::kInstalled, e.ext);
                });
        }
    }
}

}  // namespace pmp::midas
