#include "midas/cell.h"

#include <algorithm>

#include "common/error.h"
#include "common/log.h"
#include "midas/package.h"
#include "obs/trace.h"
#include "sim/failpoint.h"

namespace pmp::midas {

using rt::Dict;
using rt::List;
using rt::Value;

namespace {
/// Unacked records are retained for reliable delivery; if the base never
/// acks (it died, or detached the cell), cap the queues rather than grow
/// without bound. Oldest records go first — the base is gone anyway.
constexpr std::size_t kMaxRetained = 4096;
/// Timeout for the relay's local install/keepalive calls (installs get one
/// transport retry). Must sit under the base's keepalive period so one
/// round's results are in before the next frame asks for them.
constexpr Duration kCallTimeout = milliseconds(700);
/// Cap on the exponential round-skip backoff for failing installs.
constexpr int kMaxBackoffRounds = 16;

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

// ------------------------------------------------------------ lease engine --

LeaseRoster::LeaseRoster(rt::RpcEndpoint& rpc, Owner owner, rt::CallOptions calls,
                         BlobSource blobs, Admit admit, Sink sink)
    : rpc_(rpc),
      owner_(std::move(owner)),
      calls_(calls),
      blobs_(std::move(blobs)),
      admit_(std::move(admit)),
      sink_(std::move(sink)) {}

LeaseRoster::Line* LeaseRoster::find(std::uint64_t node, const std::string& name) {
    auto it = nodes_.find(node);
    if (it == nodes_.end()) return nullptr;
    auto lit = it->second.find(name);
    return lit == it->second.end() ? nullptr : &lit->second;
}

std::size_t LeaseRoster::size() const {
    std::size_t n = 0;
    for (const auto& [_, lines] : nodes_) n += lines.size();
    return n;
}

void LeaseRoster::put(std::uint64_t node, const std::string& name, std::uint64_t ext,
                      const std::string& hash, int rank) {
    Line* l = find(node, name);
    if (!l) {
        l = &nodes_[node][name];
        l->hash = hash;
    } else if (l->hash != hash) {
        l->hash = hash;
        ++l->gen;
        l->cooldown = 0;
        l->penalty = 0;
        l->need_blob_reported = false;
    }
    l->ext = ext;
    l->rank = rank;
}

void LeaseRoster::del(std::uint64_t node, const std::string& name) {
    auto it = nodes_.find(node);
    if (it == nodes_.end()) return;
    it->second.erase(name);
    if (it->second.empty()) nodes_.erase(it);
}

template <class Fn>
void LeaseRoster::in_rank_order(Lines& lines, Fn fn) {
    int top = 0;
    for (const auto& [_, l] : lines) top = std::max(top, l.rank);
    for (int rank = 0; rank <= top; ++rank) {
        for (auto& [name, l] : lines) {
            if (l.rank == rank) fn(name, l);
        }
    }
}

LeaseRoster::Sent LeaseRoster::round() {
    Sent sent;
    for (auto& [node, lines] : nodes_) call(node, lines, false, sent);
    return sent;
}

std::uint64_t LeaseRoster::push(std::uint64_t node) {
    Sent sent;
    if (auto it = nodes_.find(node); it != nodes_.end()) call(node, it->second, true, sent);
    return sent.installs;
}

void LeaseRoster::call(std::uint64_t node, Lines& lines, bool installs_only, Sent& sent) {
    std::optional<bool> admitted;  // asked at the first call (see Admit)
    in_rank_order(lines, [&](const std::string& name, Line& l) {
        if (busy(l) || (installs_only && l.ext != 0)) return;
        if (l.cooldown > 0) {
            if (!installs_only) --l.cooldown;
            return;
        }
        if (!admitted) admitted = admit_(node);
        if (!*admitted) return;
        if (l.ext != 0) {
            keepalive(node, name, l);
            ++sent.keepalives;
        } else if (install(node, name, l)) {
            ++sent.installs;
        }
    });
}

bool LeaseRoster::install(std::uint64_t node, const std::string& name, Line& l) {
    const Bytes* blob = blobs_(l.hash);
    if (!blob) {
        if (!l.need_blob_reported) {
            l.need_blob_reported = true;
            sink_(node, name, cellproto::kNeedBlob, 0);
        }
        return false;
    }
    l.flight = l.gen;
    obs::TraceBuffer& tb = obs::TraceBuffer::global();
    std::uint64_t span =
        tb.begin_span(owner_.component, "pkg.push", {{owner_.key, owner_.label}, {"pkg", name}});
    // Everything this install causes — the rpc round-trip, the receiver's
    // verify + weave, even the first advice dispatch on the far node —
    // nests under the push span in one causal tree (the Fig 2 install
    // chain reconstructs as a single trace across nodes).
    obs::TraceBuffer::ContextScope scope(tb, tb.context_of(span));
    rpc_.call_async(
        NodeId{node}, "adaptation", "install",
        {Value{*blob}, Value{lease_ms_}, Value{static_cast<std::int64_t>(epoch_)}},
        calls_,
        [this, node, name, gen = l.gen, span, guard = std::weak_ptr<char>(token_)](
            Value result, std::exception_ptr error, bool transport) {
            obs::TraceBuffer::global().end_span(span, {{"ok", error ? "false" : "true"}});
            if (guard.expired()) return;
            Line* l = find(node, name);
            if (!l) return;
            if (l->flight == gen) l->flight.reset();
            // The line names other content now (a replacement, a rollout
            // promote or abort raced this install): the answer is about a
            // package nobody wants, and the new one's install is on the air
            // or goes out next round.
            if (l->gen != gen) return;
            if (error) {
                l->penalty = l->penalty == 0 ? 1 : std::min(l->penalty * 2, kMaxBackoffRounds);
                l->cooldown = l->penalty;
                sink_(node, name, classify(error, transport), 0);
                return;
            }
            l->penalty = 0;
            l->ext = static_cast<std::uint64_t>(result.as_dict().at("ext").as_int());
            sink_(node, name, cellproto::kInstalled, l->ext);
        });
    // "After install sent, before activity recorded" — the canonical
    // crash-point: the package is on the air, nothing is journaled yet.
    sim::FailPoints::hit(owner_.label, "install.sent");
    return true;
}

void LeaseRoster::keepalive(std::uint64_t node, const std::string& name, Line& l) {
    l.flight = l.gen;
    rpc_.call_async(
        NodeId{node}, "adaptation", "keepalive",
        {Value{static_cast<std::int64_t>(l.ext)}, Value{lease_ms_},
         Value{static_cast<std::int64_t>(epoch_)}},
        rt::CallOptions{.timeout = calls_.timeout},
        [this, node, name, gen = l.gen, guard = std::weak_ptr<char>(token_)](
            Value result, std::exception_ptr error, bool transport) {
            if (guard.expired()) return;
            Line* l = find(node, name);
            if (!l) return;
            if (l->flight == gen) l->flight.reset();
            if (error) {
                // No backoff: keep-alives stay on the fixed per-period
                // cadence (backing off would stretch the gap past the lease
                // after two blips); dropping the node is the owner's call.
                sink_(node, name, classify(error, transport), 0);
                return;
            }
            // A renewal answers `true`, or the count of governor
            // escalations since the receiver's last reply. `false` is a
            // stale extension or epoch: the line stays as it is until the
            // owner re-puts it as an install.
            const std::int64_t* escalations = result.if_int();
            if (!escalations && !result.as_bool()) {
                sink_(node, name, cellproto::kRefused, 0);
                return;
            }
            l->renewed = true;
            sink_(node, name, escalations ? cellproto::kEscalated : cellproto::kRenewed,
                  escalations ? static_cast<std::uint64_t>(*escalations) : 0);
        });
}

void LeaseRoster::unquarantine(std::uint64_t node, const std::string& name,
                               std::int64_t version) {
    // Best effort: a node that never quarantined the version answers false,
    // a dark node misses the amnesty and keeps refusing — both are visible
    // as install refusals and heal when the radio does.
    rpc_.call_async(NodeId{node}, "adaptation", "unquarantine",
                    {Value{name}, Value{version}, Value{static_cast<std::int64_t>(epoch_)}},
                    calls_, [](Value, std::exception_ptr, bool) {});
}

// -------------------------------------------------------------- cell relay --

CellRelay::CellRelay(rt::RpcEndpoint& rpc, disco::Registrar* local_registrar,
                     CellRelayConfig config)
    : rpc_(rpc),
      local_registrar_(local_registrar),
      config_(std::move(config)),
      roster_(
          rpc_, LeaseRoster::Owner{"midas.cell", "cell", config_.cell},
          rt::CallOptions{.timeout = kCallTimeout, .retries = 1},
          [this](const std::string& hash) -> const Bytes* {
              auto it = blobs_.find(hash);
              return it == blobs_.end() ? nullptr : &it->second;
          },
          // The base's breaker is open toward the paused nodes: skip them
          // and report nothing, so a skipped round never counts as failure.
          [this](std::uint64_t node) { return !paused_.contains(node); },
          [this](std::uint64_t node, const std::string& name, int code, std::uint64_t ext) {
              // Healthy renewals ride the liveness bitmap (Line::renewed).
              if (code != cellproto::kRenewed) push_status(node, name, code, ext);
          }),
      obs_source_(obs::Registry::global().add_source([this](obs::Rows& rows) {
          rows.counter("midas.cell.frames", config_.cell, stats_.frames);
          rows.counter("midas.cell.fanout_calls", config_.cell, stats_.fanout_calls);
          rows.counter("midas.cell.resyncs", config_.cell, stats_.resyncs);
      })) {
    build_service_object();
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
    std::uint64_t seq = static_cast<std::uint64_t>(frame.at("seq").as_int());
    std::uint64_t base = static_cast<std::uint64_t>(frame.at("base").as_int());
    std::uint64_t ack = static_cast<std::uint64_t>(frame.at("ack").as_int());

    // Drop records the base has confirmed processing.
    std::erase_if(pending_, [ack](const Status& s) { return s.id <= ack; });
    std::erase_if(joins_, [ack](const Join& j) { return j.id <= ack; });

    // Build the pipelined reply *before* applying this frame's ops: the
    // liveness bitmap indexes the roster version the base last acked —
    // both sides iterate the same sorted keys, so bit i means entry i.
    Bytes bitmap;
    std::size_t i = 0;
    roster_.for_each([&](std::uint64_t, const std::string&, LeaseRoster::Line& line) {
        if (i % 8 == 0) bitmap.push_back(0);
        if (line.renewed) bitmap.back() |= static_cast<std::uint8_t>(1u << (i % 8));
        line.renewed = false;
        ++i;
    });
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
            roster_.for_each([&hash](std::uint64_t, const std::string&, LeaseRoster::Line& l) {
                if (l.hash == hash) l.need_blob_reported = false;
            });
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
        roster_.set_terms(static_cast<std::uint64_t>(frame.at("epoch").as_int()),
                          frame.at("lease_ms").as_int());
        for (const Value& ov : frame.at("ops").as_list()) {
            const Dict& op = ov.as_dict();
            std::uint64_t node = static_cast<std::uint64_t>(op.at("node").as_int());
            const std::string& name = op.at("name").as_str();
            if (op.at("op").as_str() == "del") {
                roster_.del(node, name);
                continue;
            }
            // `rank` rides only when nonzero (a policy with prerequisites).
            const Value* rank = op.find("rank");
            roster_.put(node, name, static_cast<std::uint64_t>(op.at("ext").as_int()),
                        op.at("hash").as_str(), rank ? static_cast<int>(rank->as_int()) : 0);
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
                ++stats_.fanout_calls;
                roster_.unquarantine(static_cast<std::uint64_t>(u.at("node").as_int()),
                                     u.at("name").as_str(), u.at("version").as_int());
            }
        }
        LeaseRoster::Sent sent = roster_.round();
        stats_.fanout_calls += sent.installs + sent.keepalives;
    }

    Dict reply{{"applied", Value{static_cast<std::int64_t>(applied_seq_)}},
               {"resync", Value{resync}},
               {"bitmap_seq", Value{static_cast<std::int64_t>(bitmap_seq)}},
               {"ok", Value{std::move(bitmap)}},
               {"statuses", Value{std::move(statuses)}},
               {"joins", Value{std::move(joins)}}};
    return Value{std::move(reply)};
}

}  // namespace pmp::midas
