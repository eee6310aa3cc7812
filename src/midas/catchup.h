// Streaming catch-up client (docs/recovery.md, docs/storage.md).
//
// A receiver that restarts after a power cut — or enters a hall for the
// first time during a mass-recovery storm — needs the base's durable
// policy state. Pulling it as one blob does not survive the storm: the
// image can exceed a radio MTU's worth of patience, and a partition
// mid-transfer would force a full restart, multiplying recovery traffic
// exactly when the network is at its worst.
//
// The CatchupClient instead streams the image in bounded chunks through
// whatever "midas.catchup" provider its discovery scope offers — the base
// itself, or a CellRelay proxy that caches chunks so a whole cell
// restarting together costs the backhaul one image fetch, not one per
// node. The protocol:
//
//   manifest() -> {chain, epoch, lease_ms, base, total, crc, chunks,
//                  chunk_bytes}
//   chunk(chain, index) -> {data} | {stale: true} | {retry_ms: n}
//
// The client's cursor (`next index to fetch`) is the ack/resume point: a
// partition or provider failure mid-stream retries with exponential
// backoff and resumes from the cursor — never from chunk 0. Only a chain
// change (the base's policy set moved, or the base restarted into a new
// epoch) restarts the stream, because the old bytes could never
// CRC-verify into the new image. A per-provider circuit breaker (PR 4)
// guards the fetch loop so a drowning provider is probed, not hammered;
// on the serving side the chunks are classed install-priority by rpc
// admission, below the keep-alives that hold existing leases up.
//
// On completion the assembled image is CRC-checked and its policies are
// installed locally under the base's epoch and lease terms — the same
// do_install path a direct push takes, so trust, capabilities and
// quarantine all still apply. The base's own install later lands as a
// refresh.
#pragma once

#include "disco/lookup.h"
#include "midas/receiver.h"
#include "rt/breaker.h"

namespace pmp::midas {

struct CatchupConfig {
    /// Retry backoff after a failed fetch, doubling up to 5 s. Retry hints
    /// from a not-ready proxy override when later.
    Duration retry_backoff = milliseconds(200);
    /// Per-provider circuit breaker over the fetch loop.
    rt::BreakerConfig breaker;
};

class CatchupClient {
public:
    CatchupClient(rt::RpcEndpoint& rpc, AdaptationService& receiver,
                  disco::DiscoveryClient& discovery, CatchupConfig config = {});
    ~CatchupClient();

    CatchupClient(const CatchupClient&) = delete;
    CatchupClient& operator=(const CatchupClient&) = delete;

    struct Stats {
        std::uint64_t sessions = 0;      ///< streams started
        std::uint64_t manifests = 0;     ///< manifests fetched
        std::uint64_t chunks = 0;        ///< chunks received
        std::uint64_t bytes = 0;         ///< chunk payload bytes received
        std::uint64_t resumes = 0;       ///< mid-stream recoveries (cursor kept)
        std::uint64_t restarts = 0;      ///< chain changed; stream restarted
        std::uint64_t completed = 0;     ///< images assembled, verified, applied
        std::uint64_t installs = 0;      ///< policies installed from images
        std::uint64_t fetch_failures = 0;///< call errors (timeout / shed / ...)
        std::uint64_t crc_failures = 0;  ///< assembled image failed its CRC
    };
    const Stats& stats() const { return stats_; }

    bool in_session() const { return active_; }
    /// Chain id of the last image applied (0 = none yet).
    std::uint64_t completed_chain() const { return completed_chain_; }

    /// Start (or queue) a session toward an explicit provider — tests and
    /// transports that already know where the image lives.
    void catch_up_from(NodeId provider);

private:
    void on_registrar(NodeId registrar, bool reachable);
    void lookup_provider(NodeId registrar, Duration backoff);
    void begin(NodeId provider);
    void step();                 ///< issue the next fetch, breaker permitting
    void fetch_manifest();
    void fetch_chunk();
    void on_fetch_error(std::exception_ptr error, bool transport);
    void retry_later(Duration d);
    void adopt_manifest(const rt::Value& m);
    void finish();               ///< verify + decode + install
    void end_session();

    rt::RpcEndpoint& rpc_;
    AdaptationService& receiver_;
    disco::DiscoveryClient& discovery_;
    CatchupConfig config_;
    rt::CircuitBreaker breaker_;

    // Session state. `next_chunk_` is the resume cursor: everything below
    // it is assembled in `buffer_` and never refetched within a chain.
    bool active_ = false;
    bool have_manifest_ = false;
    NodeId provider_{};
    std::uint64_t chain_ = 0;
    std::uint64_t epoch_ = 0;
    std::int64_t lease_ms_ = 0;
    std::uint64_t base_node_ = 0;
    std::size_t total_ = 0;
    std::uint32_t crc_ = 0;
    std::int64_t nchunks_ = 0;
    std::int64_t next_chunk_ = 0;
    Bytes buffer_;
    int failure_streak_ = 0;     ///< consecutive failed fetches this session
    std::uint64_t completed_chain_ = 0;

    Stats stats_;
    std::uint64_t registrar_token_ = 0;
    sim::TimerId retry_timer_{};
    bool retry_armed_ = false;
    // Liveness token for in-flight replies and parked retries.
    std::shared_ptr<char> token_ = std::make_shared<char>('\0');
};

}  // namespace pmp::midas
