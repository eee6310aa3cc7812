#include "db/journal.h"

#include <algorithm>
#include <array>
#include <iterator>

#include "obs/metrics.h"

namespace pmp::db {

namespace {

// Frame layout: [u32 payload length][u32 crc32(payload)][payload].
constexpr std::size_t kFrameHeader = 8;

// Every WAL frame is a batch (an unbatched append is a one-record batch);
// its payload opens with this magic.
constexpr std::array<std::uint8_t, 4> kBatchMagic = {0xB5, 'G', 'C', '1'};
// After the magic: [u32 record count][per record: u32 length][encoding]...
constexpr std::size_t kBatchHeader = kBatchMagic.size() + 4;

// Slicing-by-8 tables for the reflected CRC-32 (polynomial 0xEDB88320):
// kCrc[0] is the classic byte table; kCrc[k][b] is the CRC of byte b
// followed by k zero bytes, so eight input bytes fold in with eight
// independent lookups instead of a chain of eight.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
        }
    }
    return t;
}

constexpr CrcTables kCrc = make_crc_tables();

void append_frame(Bytes& out, std::span<const std::uint8_t> payload) {
    append_u32(out, static_cast<std::uint32_t>(payload.size()));
    append_u32(out, crc32(payload));
    out.insert(out.end(), payload.begin(), payload.end());
}

void write_u32_at(Bytes& out, std::size_t pos, std::uint32_t v) {
    out[pos] = static_cast<std::uint8_t>(v >> 24);
    out[pos + 1] = static_cast<std::uint8_t>(v >> 16);
    out[pos + 2] = static_cast<std::uint8_t>(v >> 8);
    out[pos + 3] = static_cast<std::uint8_t>(v);
}

/// CRC-validate one frame at `data[pos...]`. Returns the payload span and
/// advances pos, or nullopt on a truncated or corrupt frame (pos untouched).
std::optional<std::span<const std::uint8_t>> read_frame_payload(
    std::span<const std::uint8_t> data, std::size_t& pos) {
    if (data.size() - pos < kFrameHeader) return std::nullopt;
    ByteReader reader(data.subspan(pos));
    std::uint32_t len = reader.read_u32();
    std::uint32_t crc = reader.read_u32();
    if (reader.remaining() < len) return std::nullopt;  // torn tail write
    std::span<const std::uint8_t> payload = reader.read(len);
    if (crc32(payload) != crc) return std::nullopt;
    pos += kFrameHeader + len;
    return payload;
}

/// Decode a CRC-valid WAL batch frame payload into `out`, its member
/// records in order. False means the payload is malformed despite the CRC
/// (collision or hostile bytes) — the caller drops the whole frame,
/// all-or-nothing.
bool decode_wal_payload(std::span<const std::uint8_t> payload,
                        std::vector<rt::Value>& out) {
    if (payload.size() < kBatchHeader ||
        !std::equal(kBatchMagic.begin(), kBatchMagic.end(), payload.begin())) {
        return false;
    }
    ByteReader reader(payload.subspan(kBatchMagic.size()));
    std::uint32_t count = reader.read_u32();
    std::vector<rt::Value> records;
    records.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        if (reader.remaining() < 4) return false;
        std::uint32_t len = reader.read_u32();
        if (reader.remaining() < len) return false;
        try {
            records.push_back(rt::Value::decode(reader.read(len)));
        } catch (const std::exception&) {
            return false;
        }
    }
    if (reader.remaining() != 0) return false;  // trailing garbage
    std::move(records.begin(), records.end(), std::back_inserter(out));
    return true;
}

/// Decode one snapshot field: a chunk chain (manifest + N chunks, each its
/// own CRC frame). nullopt on any damage — the caller may fall back to the
/// previous chain.
std::optional<rt::Value> read_snapshot_field(std::span<const std::uint8_t> field) {
    std::size_t pos = 0;
    auto first = read_frame_payload(field, pos);
    if (!first) return std::nullopt;
    rt::Value head;
    try {
        head = rt::Value::decode(*first);
    } catch (const std::exception&) {
        return std::nullopt;
    }
    const rt::Value* marker =
        head.is_dict() ? head.as_dict().find("__snap__") : nullptr;
    if (!marker) return std::nullopt;
    try {
        if (marker->as_str() != "manifest") return std::nullopt;
        const rt::Dict& m = head.as_dict();
        const std::int64_t chain = m.at("chain").as_int();
        const std::int64_t chunks = m.at("chunks").as_int();
        const std::uint64_t total = static_cast<std::uint64_t>(m.at("total").as_int());
        const auto want_crc = static_cast<std::uint32_t>(m.at("crc").as_int());
        if (chunks < 0 || total > field.size()) return std::nullopt;
        Bytes data;
        data.reserve(total);
        for (std::int64_t i = 0; i < chunks; ++i) {
            auto payload = read_frame_payload(field, pos);
            if (!payload) return std::nullopt;
            rt::Value cv = rt::Value::decode(*payload);
            const rt::Dict& cd = cv.as_dict();
            if (cd.at("__snap__").as_str() != "chunk" ||
                cd.at("chain").as_int() != chain || cd.at("index").as_int() != i) {
                return std::nullopt;
            }
            const Bytes& blob = cd.at("data").as_blob();
            data.insert(data.end(), blob.begin(), blob.end());
        }
        if (data.size() != total || crc32(data) != want_crc) return std::nullopt;
        return rt::Value::decode(data);
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
    std::uint32_t c = 0xFFFFFFFFu;
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    // Eight bytes per step, assembled little-endian byte by byte (no
    // unaligned or host-order loads); the tail goes a byte at a time.
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
                                      std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
        c = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^ kCrc[5][(lo >> 16) & 0xFFu] ^
            kCrc[4][lo >> 24] ^ kCrc[3][p[4]] ^ kCrc[2][p[5]] ^ kCrc[1][p[6]] ^ kCrc[0][p[7]];
    }
    for (; n > 0; ++p, --n) c = kCrc[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

Journal::Journal(std::shared_ptr<JournalStorage> storage)
    : Journal(std::move(storage), JournalConfig{}, nullptr) {}

Journal::Journal(std::shared_ptr<JournalStorage> storage, JournalConfig config,
                 sim::Simulator* sim)
    : storage_(std::move(storage)), config_(config), sim_(sim) {
    if (!storage_) storage_ = std::make_shared<JournalStorage>();
}

Journal::~Journal() {
    // A clean shutdown is not a crash: the pending group reaches the disk.
    if (powered_) flush();
    cancel_flush_timer();
}

Journal::Restored Journal::restore() const {
    Restored out;
    if (!storage_->snapshot.empty() || !storage_->snapshot_prev.empty()) {
        out.snapshot = read_snapshot_field(storage_->snapshot);
        if (!out.snapshot && !storage_->snapshot_prev.empty()) {
            out.snapshot = read_snapshot_field(storage_->snapshot_prev);
            if (out.snapshot) out.snapshot_fallback = true;
        }
        if (!out.snapshot) out.snapshot_corrupt = true;
    }
    std::span<const std::uint8_t> wal(storage_->wal);
    std::size_t pos = 0;
    while (pos < wal.size()) {
        std::size_t frame_start = pos;
        std::optional<std::span<const std::uint8_t>> payload =
            read_frame_payload(wal, pos);
        if (!payload || !decode_wal_payload(*payload, out.wal)) {
            // First bad frame: everything after it is unreadable too (frames
            // are not self-synchronising), so stop and report the loss.
            out.dropped_bytes = wal.size() - frame_start;
            out.tail_corrupt = true;
            break;
        }
    }
    auto& reg = obs::Registry::global();
    reg.counter("db.journal.restores", storage_->name).inc();
    reg.counter("db.journal.restored_records", storage_->name)
        .inc(static_cast<std::uint64_t>(out.wal.size()));
    if (out.snapshot_fallback) {
        reg.counter("db.journal.snapshot_fallbacks", storage_->name).inc();
    }
    if (out.dropped_bytes > 0) {
        reg.counter("db.journal.dropped_bytes", storage_->name)
            .inc(static_cast<std::uint64_t>(out.dropped_bytes));
    }
    return out;
}

void Journal::append(const rt::Value& record) {
    if (!powered_) return;
    ++wal_records_;
    if (pending_count_ == 0) {
        pending_.insert(pending_.end(), kBatchMagic.begin(), kBatchMagic.end());
        append_u32(pending_, 0);  // record count, patched at flush
    }
    const std::size_t len_pos = pending_.size();
    append_u32(pending_, 0);  // record length, patched below
    const std::size_t start = pending_.size();
    record.encode(pending_);
    write_u32_at(pending_, len_pos, static_cast<std::uint32_t>(pending_.size() - start));
    ++pending_count_;
    // Without group commit every record is flushed as its own batch.
    if (!config_.batching() ||
        (config_.batch_bytes > 0 && pending_.size() >= config_.batch_bytes)) {
        flush();
    } else {
        arm_flush_timer();
    }
}

void Journal::flush() {
    cancel_flush_timer();
    if (!powered_ || pending_count_ == 0) return;
    write_u32_at(pending_, kBatchMagic.size(), static_cast<std::uint32_t>(pending_count_));
    append_frame(storage_->wal, pending_);
    auto& reg = obs::Registry::global();
    reg.counter("db.journal.appends", storage_->name)
        .inc(static_cast<std::uint64_t>(pending_count_));
    reg.counter("db.journal.batch_flushes", storage_->name).inc();
    pending_.clear();
    pending_count_ = 0;
}

void Journal::compact(const rt::Value& state) {
    if (!powered_) return;
    // Buffered records are superseded: `state` is built from the live
    // structures they already updated.
    pending_.clear();
    pending_count_ = 0;
    cancel_flush_timer();

    Bytes payload = state.encode();
    // Without chunking the chain is one chunk holding the whole payload.
    const std::size_t chunk =
        config_.snapshot_chunk_bytes > 0 ? config_.snapshot_chunk_bytes : payload.size();
    const std::uint64_t id = ++chain_counter_;
    const std::size_t chunks = (payload.size() + chunk - 1) / chunk;
    Bytes chain;
    chain.reserve(payload.size() + (chunks + 1) * 64);
    rt::Value manifest{rt::Dict{
        {"__snap__", rt::Value{std::string("manifest")}},
        {"chain", rt::Value{static_cast<std::int64_t>(id)}},
        {"chunks", rt::Value{static_cast<std::int64_t>(chunks)}},
        {"total", rt::Value{static_cast<std::int64_t>(payload.size())}},
        {"crc", rt::Value{static_cast<std::int64_t>(crc32(payload))}}}};
    append_frame(chain, manifest.encode());
    for (std::size_t i = 0; i < chunks; ++i) {
        const std::size_t off = i * chunk;
        const std::size_t n = std::min(chunk, payload.size() - off);
        rt::Value cv{rt::Dict{
            {"__snap__", rt::Value{std::string("chunk")}},
            {"chain", rt::Value{static_cast<std::int64_t>(id)}},
            {"index", rt::Value{static_cast<std::int64_t>(i)}},
            {"data",
             rt::Value{Bytes(payload.begin() + static_cast<std::ptrdiff_t>(off),
                             payload.begin() + static_cast<std::ptrdiff_t>(off + n))}}}};
        append_frame(chain, cv.encode());
    }
    // The old chain stays readable until the new one is complete on
    // the medium — a crash mid-compact degrades, never destroys.
    storage_->snapshot_prev = std::move(storage_->snapshot);
    storage_->snapshot = std::move(chain);
    storage_->wal.clear();
    wal_records_ = 0;
    obs::Registry::global().counter("db.journal.compactions", storage_->name).inc();
}

void Journal::power_off() {
    powered_ = false;
    // Torn group: buffered records never reached the medium.
    pending_.clear();
    pending_count_ = 0;
    cancel_flush_timer();
}

void Journal::arm_flush_timer() {
    if (flush_armed_ || sim_ == nullptr || config_.batch_ms.count() <= 0) return;
    flush_armed_ = true;
    flush_timer_ = sim_->schedule_after(config_.batch_ms, [this] {
        flush_armed_ = false;
        flush();
    });
}

void Journal::cancel_flush_timer() {
    if (!flush_armed_) return;
    if (sim_ != nullptr) sim_->cancel(flush_timer_);
    flush_armed_ = false;
}

}  // namespace pmp::db
