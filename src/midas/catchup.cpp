#include "midas/catchup.h"

#include <algorithm>

#include "common/error.h"
#include "common/log.h"
#include "db/journal.h"

namespace pmp::midas {

using rt::Dict;
using rt::Value;

namespace {
constexpr Duration kCallTimeout = milliseconds(700);
constexpr Duration kRetryBackoffMax = seconds(5);
}  // namespace

CatchupClient::CatchupClient(rt::RpcEndpoint& rpc, AdaptationService& receiver,
                             disco::DiscoveryClient& discovery, CatchupConfig config)
    : rpc_(rpc),
      receiver_(receiver),
      discovery_(discovery),
      config_(config),
      breaker_(rpc.router().simulator(), receiver.config().node_label, config.breaker) {
    registrar_token_ = discovery_.on_registrar(
        [this](NodeId registrar, bool reachable) { on_registrar(registrar, reachable); });
    // Registrars already in range fired their appearance edge before we
    // subscribed; sweep them once so enabling catch-up late still works.
    for (NodeId registrar : discovery_.registrars()) on_registrar(registrar, true);
}

CatchupClient::~CatchupClient() {
    discovery_.off_registrar(registrar_token_);
    if (retry_armed_) rpc_.router().simulator().cancel(retry_timer_);
}

void CatchupClient::on_registrar(NodeId registrar, bool reachable) {
    if (!reachable) return;
    lookup_provider(registrar, config_.retry_backoff);
}

void CatchupClient::lookup_provider(NodeId registrar, Duration backoff) {
    discovery_.lookup(
        registrar, "midas.catchup",
        [this, registrar, backoff, guard = std::weak_ptr<char>(token_)](
            std::vector<disco::ServiceItem> items, std::exception_ptr error) {
            if (guard.expired()) return;
            if (!error && !items.empty()) {
                catch_up_from(items.front().provider);
                return;
            }
            // A lost lookup reply — or a provider registered a beat after
            // we asked — must not strand the node on a registrar that IS
            // serving catch-up. Re-ask with doubling backoff; a registrar
            // with no provider stops costing anything once the backoff
            // budget is spent (the next appearance edge asks afresh).
            if (backoff > kRetryBackoffMax) return;
            rpc_.router().simulator().schedule_after(
                backoff, [this, registrar, backoff, guard]() {
                    if (guard.expired()) return;
                    lookup_provider(registrar, backoff * 2);
                });
        });
}

void CatchupClient::catch_up_from(NodeId provider) {
    if (active_) return;  // one stream at a time; the next trigger retries
    begin(provider);
}

void CatchupClient::begin(NodeId provider) {
    active_ = true;
    have_manifest_ = false;
    provider_ = provider;
    buffer_.clear();
    next_chunk_ = 0;
    failure_streak_ = 0;
    ++stats_.sessions;
    step();
}

void CatchupClient::end_session() {
    active_ = false;
    have_manifest_ = false;
    buffer_.clear();
    buffer_.shrink_to_fit();
    next_chunk_ = 0;
    failure_streak_ = 0;
}

void CatchupClient::retry_later(Duration d) {
    if (retry_armed_) return;
    retry_armed_ = true;
    retry_timer_ = rpc_.router().simulator().schedule_after(
        d, [this, guard = std::weak_ptr<char>(token_)]() {
            if (guard.expired()) return;
            retry_armed_ = false;
            step();
        });
}

void CatchupClient::step() {
    if (!active_) return;
    if (!breaker_.allow(provider_)) {
        // Breaker open toward the provider: cool off for one backoff and
        // re-ask; allow() eventually grants the half-open probe.
        Duration d = config_.retry_backoff;
        for (int i = 0; i < failure_streak_ && d < kRetryBackoffMax; ++i) d *= 2;
        retry_later(std::min(d, kRetryBackoffMax));
        return;
    }
    if (!have_manifest_) {
        fetch_manifest();
    } else if (next_chunk_ < nchunks_) {
        fetch_chunk();
    } else {
        finish();
    }
}

void CatchupClient::on_fetch_error(std::exception_ptr error, bool transport) {
    ++stats_.fetch_failures;
    ++failure_streak_;
    Duration d = config_.retry_backoff;
    for (int i = 1; i < failure_streak_ && d < kRetryBackoffMax; ++i) d *= 2;
    if (d > kRetryBackoffMax) d = kRetryBackoffMax;
    bool overloaded = false;
    try {
        std::rethrow_exception(error);
    } catch (const Overloaded& e) {
        // The provider is shedding install-class work; its hint knows the
        // queue better than our backoff does.
        overloaded = true;
        if (e.retry_after() > d) d = e.retry_after();
    } catch (const std::exception&) {
    }
    breaker_.on_failure(provider_, transport || overloaded);
    // The cursor is untouched: when the link heals we resume from the
    // last assembled chunk, never from the beginning.
    retry_later(d);
}

void CatchupClient::fetch_manifest() {
    rpc_.call_async(
        provider_, "midas.catchup", "manifest", {},
        rt::CallOptions{.timeout = kCallTimeout},
        [this, guard = std::weak_ptr<char>(token_)](Value result,
                                                    std::exception_ptr error,
                                                    bool transport) {
            if (guard.expired() || !active_) return;
            if (error) {
                on_fetch_error(error, transport);
                return;
            }
            breaker_.on_success(provider_);
            const Dict& m = result.as_dict();
            if (const Value* hint = m.find("retry_ms")) {
                // Proxy still warming its cache from the base.
                retry_later(milliseconds(std::max<std::int64_t>(1, hint->as_int())));
                return;
            }
            adopt_manifest(result);
        });
}

void CatchupClient::adopt_manifest(const Value& mv) {
    const Dict& m = mv.as_dict();
    std::uint64_t chain = static_cast<std::uint64_t>(m.at("chain").as_int());
    ++stats_.manifests;
    failure_streak_ = 0;
    if (chain == completed_chain_) {
        // Nothing new since the image we already applied.
        end_session();
        return;
    }
    if (have_manifest_ && chain != chain_) {
        // The image changed mid-stream; assembled bytes of the old chain
        // can never verify, so the stream restarts on the new chain.
        ++stats_.restarts;
        buffer_.clear();
        next_chunk_ = 0;
    }
    chain_ = chain;
    epoch_ = static_cast<std::uint64_t>(m.at("epoch").as_int());
    lease_ms_ = m.at("lease_ms").as_int();
    base_node_ = static_cast<std::uint64_t>(m.at("base").as_int());
    total_ = static_cast<std::size_t>(m.at("total").as_int());
    crc_ = static_cast<std::uint32_t>(m.at("crc").as_int());
    nchunks_ = m.at("chunks").as_int();
    have_manifest_ = true;
    step();
}

void CatchupClient::fetch_chunk() {
    rpc_.call_async(
        provider_, "midas.catchup", "chunk",
        {Value{static_cast<std::int64_t>(chain_)}, Value{next_chunk_}},
        rt::CallOptions{.timeout = kCallTimeout},
        [this, chain = chain_, guard = std::weak_ptr<char>(token_)](
            Value result, std::exception_ptr error, bool transport) {
            if (guard.expired() || !active_ || chain != chain_) return;
            if (error) {
                on_fetch_error(error, transport);
                return;
            }
            breaker_.on_success(provider_);
            const Dict& r = result.as_dict();
            if (const Value* hint = r.find("retry_ms")) {
                retry_later(milliseconds(std::max<std::int64_t>(1, hint->as_int())));
                return;
            }
            if (const Value* stale = r.find("stale"); stale && stale->as_bool()) {
                // Provider moved to a new chain: refetch the manifest;
                // adoption there counts the restart.
                have_manifest_ = false;
                step();
                return;
            }
            const Bytes& data = r.at("data").as_blob();
            if (failure_streak_ > 0) ++stats_.resumes;
            failure_streak_ = 0;
            ++stats_.chunks;
            stats_.bytes += data.size();
            buffer_.insert(buffer_.end(), data.begin(), data.end());
            ++next_chunk_;
            step();
        });
}

void CatchupClient::finish() {
    SimTime now = rpc_.router().simulator().now();
    bool ok = buffer_.size() == total_ &&
              db::crc32(std::span<const std::uint8_t>(buffer_)) == crc_;
    Value image;
    if (ok) {
        try {
            image = Value::decode(std::span<const std::uint8_t>(buffer_));
        } catch (const std::exception&) {
            ok = false;
        }
    }
    if (!ok || !image.is_dict()) {
        // A verified-per-hop stream should never assemble wrong; treat it
        // as corruption, drop the bytes and stream the chain again.
        ++stats_.crc_failures;
        log_warn(now, "catchup@" + receiver_.config().node_label,
                 "assembled image failed verification; restarting stream");
        buffer_.clear();
        next_chunk_ = 0;
        have_manifest_ = false;
        retry_later(config_.retry_backoff);
        return;
    }
    const Dict& img = image.as_dict();
    std::size_t installed = 0;
    if (const Value* policies = img.find("policies"); policies && policies->is_list()) {
        for (const Value& pv : policies->as_list()) {
            if (!pv.is_dict()) continue;
            const Value* sealed = pv.as_dict().find("sealed");
            if (!sealed || !sealed->is_blob()) continue;
            try {
                receiver_.install_from(NodeId{base_node_}, sealed->as_blob(),
                                       lease_ms_, epoch_);
                ++installed;
                ++stats_.installs;
            } catch (const std::exception& e) {
                // Trust, capability or quarantine said no — the image is a
                // transport, not an override of the node's own policy.
                const Value* name = pv.as_dict().find("name");
                log_warn(now, "catchup@" + receiver_.config().node_label,
                         "policy '", name && name->is_str() ? name->as_str() : "?",
                         "' from image refused: ", e.what());
            }
        }
    }
    ++stats_.completed;
    completed_chain_ = chain_;
    log_info(now, "catchup@" + receiver_.config().node_label, "caught up: chain ",
             chain_, ", ", stats_.chunks, " chunks, ", installed,
             " policies installed under epoch ", epoch_);
    end_session();
}

}  // namespace pmp::midas
