// Crash–restart robustness: the journal (WAL + snapshot, corruption
// tolerance), epoch-based base recovery, the receiver's quarantine, named
// crash-points driven through the Supervisor, and federation claims
// resolving a hand-off that raced a base restart. See docs/recovery.md.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/rng.h"
#include "db/journal.h"
#include "midas/durable.h"
#include "midas/federation.h"
#include "midas/node.h"
#include "midas/supervisor.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "robot/devices.h"
#include "sim/failpoint.h"

namespace pmp::midas {
namespace {

using rt::Dict;
using rt::Value;

// ---------------------------------------------------------------------------
// Journal: frame format, compaction, crash debris.

Value rec(std::int64_t n) { return Value{Dict{{"n", Value{n}}}}; }

TEST(Journal, Crc32MatchesKnownVector) {
    const char* s = "123456789";
    EXPECT_EQ(db::crc32(std::span(reinterpret_cast<const std::uint8_t*>(s), 9)),
              0xCBF43926u);
}

TEST(Journal, RoundTripsSnapshotAndWal) {
    auto disk = std::make_shared<db::JournalStorage>();
    {
        db::Journal j(disk);
        j.append(rec(1));
        j.append(rec(2));
        j.compact(Value{std::string("state")});
        EXPECT_EQ(j.wal_records(), 0u);
        j.append(rec(3));
    }
    db::Journal j2(disk);
    auto restored = j2.restore();
    ASSERT_TRUE(restored.snapshot.has_value());
    EXPECT_EQ(restored.snapshot->as_str(), "state");
    ASSERT_EQ(restored.wal.size(), 1u);
    EXPECT_EQ(restored.wal[0].as_dict().at("n").as_int(), 3);
    EXPECT_FALSE(restored.tail_corrupt);
    EXPECT_EQ(restored.dropped_bytes, 0u);
}

TEST(Journal, TruncatedTailIsDroppedRestRecovered) {
    auto disk = std::make_shared<db::JournalStorage>();
    db::Journal j(disk);
    j.append(rec(1));
    j.append(rec(2));
    j.append(rec(3));
    // The process died mid-write: the last frame is torn.
    disk->wal.resize(disk->wal.size() - 3);
    auto restored = db::Journal(disk).restore();
    ASSERT_EQ(restored.wal.size(), 2u);
    EXPECT_TRUE(restored.tail_corrupt);
    EXPECT_GT(restored.dropped_bytes, 0u);
}

TEST(Journal, CorruptTailByteIsDropped) {
    auto disk = std::make_shared<db::JournalStorage>();
    db::Journal j(disk);
    j.append(rec(1));
    j.append(rec(2));
    disk->wal.back() ^= 0xFF;  // bit rot in the final frame
    auto restored = db::Journal(disk).restore();
    ASSERT_EQ(restored.wal.size(), 1u);
    EXPECT_EQ(restored.wal[0].as_dict().at("n").as_int(), 1);
    EXPECT_TRUE(restored.tail_corrupt);
}

TEST(Journal, CorruptionMidWalStopsReplayThere) {
    auto disk = std::make_shared<db::JournalStorage>();
    db::Journal j(disk);
    j.append(rec(1));
    std::size_t first_end = disk->wal.size();
    j.append(rec(2));
    j.append(rec(3));
    // Damage the second frame: everything from it on is untrusted.
    disk->wal[first_end + 9] ^= 0x55;
    auto restored = db::Journal(disk).restore();
    ASSERT_EQ(restored.wal.size(), 1u);
    EXPECT_TRUE(restored.tail_corrupt);
    EXPECT_EQ(restored.dropped_bytes, disk->wal.size() - first_end);
}

TEST(Journal, CorruptSnapshotStillReplaysWal) {
    auto disk = std::make_shared<db::JournalStorage>();
    db::Journal j(disk);
    j.compact(rec(7));
    j.append(rec(8));
    disk->snapshot[disk->snapshot.size() / 2] ^= 0x01;
    auto restored = db::Journal(disk).restore();
    EXPECT_FALSE(restored.snapshot.has_value());
    EXPECT_TRUE(restored.snapshot_corrupt);
    ASSERT_EQ(restored.wal.size(), 1u);
    EXPECT_EQ(restored.wal[0].as_dict().at("n").as_int(), 8);
}

TEST(Journal, PowerOffLosesSubsequentWrites) {
    auto disk = std::make_shared<db::JournalStorage>();
    db::Journal j(disk);
    j.append(rec(1));
    j.power_off();
    j.append(rec(2));
    j.compact(rec(3));
    auto restored = db::Journal(disk).restore();
    EXPECT_FALSE(restored.snapshot.has_value());
    ASSERT_EQ(restored.wal.size(), 1u);
    EXPECT_EQ(restored.wal[0].as_dict().at("n").as_int(), 1);
}

// ---------------------------------------------------------------------------
// Group commit: size/time-bounded batches, torn-group semantics, and
// interleaving with unbatched (one-record batch) writers (docs/storage.md).

TEST(JournalGroupCommit, SizeBoundedBatchFlushesAsOneFrame) {
    auto disk = std::make_shared<db::JournalStorage>();
    db::Journal j(disk, db::JournalConfig{.batch_bytes = 64});
    j.append(rec(1));
    j.append(rec(2));
    EXPECT_GT(j.pending_records(), 0u);  // under the size bound: buffered
    std::size_t before = disk->wal.size();
    while (j.pending_records() > 0) j.append(rec(99));  // cross the bound
    EXPECT_GT(disk->wal.size(), before);
    auto restored = db::Journal(disk).restore();
    ASSERT_GE(restored.wal.size(), 3u);
    EXPECT_EQ(restored.wal[0].as_dict().at("n").as_int(), 1);
    EXPECT_EQ(restored.wal[1].as_dict().at("n").as_int(), 2);
    EXPECT_FALSE(restored.tail_corrupt);
}

TEST(JournalGroupCommit, TimerFlushUsesVirtualTime) {
    sim::Simulator sim;
    auto disk = std::make_shared<db::JournalStorage>();
    db::Journal j(disk, db::JournalConfig{.batch_bytes = 1 << 20,
                                          .batch_ms = milliseconds(10)},
                  &sim);
    j.append(rec(1));
    EXPECT_EQ(j.pending_records(), 1u);
    EXPECT_TRUE(disk->wal.empty());
    sim.run_for(milliseconds(11));
    EXPECT_EQ(j.pending_records(), 0u);
    auto restored = db::Journal(disk).restore();
    ASSERT_EQ(restored.wal.size(), 1u);
    EXPECT_EQ(restored.wal[0].as_dict().at("n").as_int(), 1);
}

TEST(JournalGroupCommit, PowerOffTearsOnlyTheUnflushedGroup) {
    auto disk = std::make_shared<db::JournalStorage>();
    db::Journal j(disk, db::JournalConfig{.batch_bytes = 1 << 20});
    j.append(rec(1));
    j.append(rec(2));
    j.flush();  // group 1 durable
    j.append(rec(3));
    j.append(rec(4));  // group 2 buffered
    j.power_off();
    auto restored = db::Journal(disk).restore();
    ASSERT_EQ(restored.wal.size(), 2u);
    EXPECT_EQ(restored.wal[0].as_dict().at("n").as_int(), 1);
    EXPECT_EQ(restored.wal[1].as_dict().at("n").as_int(), 2);
    EXPECT_FALSE(restored.tail_corrupt);  // the tear never reached the disk
}

TEST(JournalGroupCommit, TornBatchFrameNeverDamagesEarlierGroups) {
    auto disk = std::make_shared<db::JournalStorage>();
    db::Journal j(disk, db::JournalConfig{.batch_bytes = 1 << 20});
    j.append(rec(1));
    j.flush();
    std::size_t first_group_end = disk->wal.size();
    j.append(rec(2));
    j.append(rec(3));
    j.flush();
    // Tear the second batch frame mid-payload (crash during the write).
    disk->wal.resize(first_group_end + (disk->wal.size() - first_group_end) / 2);
    auto restored = db::Journal(disk).restore();
    ASSERT_EQ(restored.wal.size(), 1u);
    EXPECT_EQ(restored.wal[0].as_dict().at("n").as_int(), 1);
    EXPECT_TRUE(restored.tail_corrupt);
    EXPECT_EQ(restored.dropped_bytes, disk->wal.size() - first_group_end);
}

TEST(JournalGroupCommit, CleanDestructionFlushesPending) {
    auto disk = std::make_shared<db::JournalStorage>();
    {
        db::Journal j(disk, db::JournalConfig{.batch_bytes = 1 << 20});
        j.append(rec(5));
    }  // clean shutdown is not a crash: the group is flushed
    auto restored = db::Journal(disk).restore();
    ASSERT_EQ(restored.wal.size(), 1u);
    EXPECT_EQ(restored.wal[0].as_dict().at("n").as_int(), 5);
}

TEST(JournalGroupCommit, BatchAndLegacyFramesInterleave) {
    auto disk = std::make_shared<db::JournalStorage>();
    {
        db::Journal batched(disk, db::JournalConfig{.batch_bytes = 1 << 20});
        batched.append(rec(1));
        batched.append(rec(2));
        batched.flush();
    }
    {
        db::Journal legacy(disk);  // per-record frames onto the same medium
        legacy.append(rec(3));
    }
    {
        db::Journal batched(disk, db::JournalConfig{.batch_bytes = 1 << 20});
        batched.append(rec(4));
        batched.flush();
    }
    auto restored = db::Journal(disk).restore();
    ASSERT_EQ(restored.wal.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(restored.wal[static_cast<std::size_t>(i)].as_dict().at("n").as_int(),
                  i + 1);
    }
    EXPECT_FALSE(restored.tail_corrupt);
}

// ---------------------------------------------------------------------------
// Incremental snapshots: manifest + chunk chains, previous-chain fallback.

TEST(JournalChunkedSnapshot, RoundTripsAcrossChunks) {
    auto disk = std::make_shared<db::JournalStorage>();
    std::string big(1000, 'x');
    {
        db::Journal j(disk, db::JournalConfig{.snapshot_chunk_bytes = 128});
        j.compact(Value{big});
        j.append(rec(1));
    }
    auto restored = db::Journal(disk).restore();
    ASSERT_TRUE(restored.snapshot.has_value());
    EXPECT_EQ(restored.snapshot->as_str(), big);
    EXPECT_FALSE(restored.snapshot_fallback);
    ASSERT_EQ(restored.wal.size(), 1u);
}

TEST(JournalChunkedSnapshot, CorruptChunkFallsBackToPreviousChain) {
    auto disk = std::make_shared<db::JournalStorage>();
    db::Journal j(disk, db::JournalConfig{.snapshot_chunk_bytes = 64});
    j.compact(Value{std::string(300, 'a')});
    j.compact(Value{std::string(300, 'b')});
    // Bit rot inside the current chain's chunk frames.
    disk->snapshot[disk->snapshot.size() / 2] ^= 0x20;
    auto restored = db::Journal(disk).restore();
    ASSERT_TRUE(restored.snapshot.has_value());
    EXPECT_EQ(restored.snapshot->as_str(), std::string(300, 'a'));
    EXPECT_TRUE(restored.snapshot_fallback);
    EXPECT_FALSE(restored.snapshot_corrupt);
}

TEST(JournalChunkedSnapshot, CorruptChunkWithoutFallbackReportsCorrupt) {
    auto disk = std::make_shared<db::JournalStorage>();
    db::Journal j(disk, db::JournalConfig{.snapshot_chunk_bytes = 64});
    j.compact(Value{std::string(300, 'c')});
    j.append(rec(9));
    disk->snapshot[disk->snapshot.size() / 2] ^= 0x20;
    auto restored = db::Journal(disk).restore();
    EXPECT_FALSE(restored.snapshot.has_value());
    EXPECT_TRUE(restored.snapshot_corrupt);
    ASSERT_EQ(restored.wal.size(), 1u);  // WAL replay survives regardless
}

// ---------------------------------------------------------------------------
// Compaction policy: byte-paced against the snapshot chain, with a record
// floor (db::Journal::compaction_due, docs/storage.md).

TEST(JournalCompaction, NotDueBeforeWalReachesSnapshotBytes) {
    // Unbatched, and batched under a batch_bytes no append reaches: the
    // buffered group counts toward the WAL bytes exactly as flushed frames
    // do. WAL bytes per docs/storage.md: a one-record frame costs
    // 8 (frame header) + 8 (batch header) + 4 (length) + the encoding; a
    // buffered group costs its 8-byte batch header once, then 4 + encoding.
    for (std::size_t batch : {std::size_t{0}, std::size_t{1} << 20}) {
        SCOPED_TRACE(batch);
        auto disk = std::make_shared<db::JournalStorage>();
        db::Journal j(disk, db::JournalConfig{.batch_bytes = batch});
        j.compact(Value{std::string(40'000, 's')});
        const std::size_t snapshot = disk->snapshot.size();
        std::size_t records = 0;
        std::size_t wal_bytes = 0;
        while (!j.compaction_due()) {
            Value r = rec(static_cast<std::int64_t>(records) * 1'000'003);
            wal_bytes += (batch > 0 ? (records == 0 ? 8 : 0) : 16) + 4 + r.encode().size();
            j.append(r);
            ++records;
            ASSERT_EQ(j.compaction_due(), records >= 256 && wal_bytes >= snapshot)
                << records << " records, " << wal_bytes << " of " << snapshot << " bytes";
            ASSERT_LT(records, 100'000u);
        }
        EXPECT_GT(records, 256u);  // the byte bound, not the floor, decided
        if (batch > 0) {
            EXPECT_TRUE(disk->wal.empty());  // due while all of it is buffered
            EXPECT_EQ(j.pending_records(), records);
        } else {
            EXPECT_EQ(disk->wal.size(), wal_bytes);
        }
        j.compact(Value{std::string(40'000, 't')});
        EXPECT_FALSE(j.compaction_due());
    }
}

TEST(JournalCompaction, RecordFloorHoldsForEmptyOrTinySnapshot) {
    for (bool tiny : {false, true}) {
        SCOPED_TRACE(tiny);
        auto disk = std::make_shared<db::JournalStorage>();
        db::Journal j(disk);
        if (tiny) j.compact(rec(0));
        for (std::int64_t i = 0; i < 255; ++i) {
            j.append(rec(i));
            EXPECT_FALSE(j.compaction_due()) << "after " << (i + 1) << " records";
        }
        EXPECT_GE(disk->wal.size(), disk->snapshot.size());  // bytes already there
        j.append(rec(255));
        EXPECT_TRUE(j.compaction_due());
    }
}

// ---------------------------------------------------------------------------
// Durable record formats: the bytes every WAL record encodes to. A snapshot
// is a list of these same records, so pinning them pins both. The hex was
// captured from the dict-building encoder; any rewrite of the codec must
// reproduce it byte for byte.

std::string hex(const Bytes& bytes) {
    static const char* digits = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (std::uint8_t b : bytes) {
        out += digits[b >> 4];
        out += digits[b & 0x0F];
    }
    return out;
}

BaseDurableState::RolloutEntry golden_rollout() {
    BaseDurableState::RolloutEntry r;
    r.name = "hall/policy";
    r.version = 4;
    r.sealed = Bytes{1, 2, 3};
    r.incumbent_version = 3;
    r.stages_bp = {100, 1000, 10000};
    return r;
}

obs::TraceEvent golden_trace_event() {
    obs::TraceEvent ev;
    ev.at = SimTime{2'500'000};
    ev.kind = obs::EventKind::kInstant;
    ev.span = 5;
    ev.trace = 4;
    ev.parent = 2;
    ev.component = "midas.receiver";
    ev.name = "pkg.quarantine";
    ev.kv = {{"pkg", "hall/policy"}, {"version", "3"}};
    return ev;
}

TEST(DurableFormat, GoldenWalBytesForEveryOp) {
    using B = BaseDurableState;
    using R = ReceiverDurableState;
    const Value data{Dict{{"method", Value{"move"}}, {"dx", Value{std::int64_t{-3}}}}};
    const std::vector<std::pair<Value, std::string>> golden = {
        {B::rec_epoch(7),
         "07000000020000000565706f6368020000000000000007000000026f7004000000056570"
         "6f6368"},
        {B::rec_policy_add("hall/policy", 3, Bytes{0xde, 0xad, 0xbe, 0xef}),
         "0700000004000000046e616d65040000000b68616c6c2f706f6c696379000000026f7004"
         "0000000a706f6c6963792d616464000000067365616c65640500000004deadbeef000000"
         "0776657273696f6e020000000000000003"},
        {B::rec_policy_remove("hall/policy"),
         "0700000002000000046e616d65040000000b68616c6c2f706f6c696379000000026f7004"
         "0000000d706f6c6963792d72656d6f7665"},
        {B::rec_adapt(42, "robot:1:1", SimTime{1'500'000}),
         "0700000004000000056c6162656c0400000009726f626f743a313a31000000046e6f6465"
         "02000000000000002a000000026f70040000000561646170740000000873696e63655f6e"
         "7302000000000016e360"},
        {B::rec_install(42, "robot:1:1", "hall/policy", 9),
         "070000000500000003657874020000000000000009000000056c6162656c040000000972"
         "6f626f743a313a31000000046e616d65040000000b68616c6c2f706f6c69637900000004"
         "6e6f646502000000000000002a000000026f700400000007696e7374616c6c"},
        {B::rec_node_gone("robot:1:1"),
         "0700000002000000056c6162656c0400000009726f626f743a313a31000000026f700400"
         "0000096e6f64652d676f6e65"},
        {B::rec_event("robot:1:1", SimTime{2'000'000}, data),
         "07000000040000000561745f6e730200000000001e848000000004646174610700000002"
         "00000002647802fffffffffffffffd000000066d6574686f6404000000046d6f76650000"
         "00026f7004000000056576656e7400000006736f757263650400000009726f626f743a31"
         "3a31"},
        {B::rec_rollout_begin(golden_rollout()),
         "0700000009000000056361757365040000000000000009696e63756d62656e7402000000"
         "0000000003000000046e616d65040000000b68616c6c2f706f6c696379000000026f7004"
         "0000000d726f6c6c6f75742d626567696e000000067365616c6564050000000301020300"
         "0000057374616765020000000000000000000000097374616765735f6270060000000302"
         "00000000000000640200000000000003e802000000000000271000000006737461747573"
         "0200000000000000000000000776657273696f6e020000000000000004"},
        {B::rec_rollout_stage("hall/policy", 1),
         "0700000003000000046e616d65040000000b68616c6c2f706f6c696379000000026f7004"
         "0000000d726f6c6c6f75742d7374616765000000057374616765020000000000000001"},
        {B::rec_rollout_abort("hall/policy", "error-rate"),
         "0700000003000000056361757365040000000a6572726f722d72617465000000046e616d"
         "65040000000b68616c6c2f706f6c696379000000026f70040000000d726f6c6c6f75742d"
         "61626f7274"},
        {B::rec_rollout_complete("hall/policy"),
         "0700000002000000046e616d65040000000b68616c6c2f706f6c696379000000026f7004"
         "00000010726f6c6c6f75742d636f6d706c657465"},
        {R::rec_install("hall/policy", 3, "hall"),
         "070000000400000006697373756572040000000468616c6c000000046e616d6504000000"
         "0b68616c6c2f706f6c696379000000026f700400000007696e7374616c6c000000077665"
         "7273696f6e020000000000000003"},
        {R::rec_withdraw("hall/policy"),
         "0700000002000000046e616d65040000000b68616c6c2f706f6c696379000000026f7004"
         "000000087769746864726177"},
        {R::rec_quarantine("hall/policy", 3),
         "0700000003000000046e616d65040000000b68616c6c2f706f6c696379000000026f7004"
         "0000000a71756172616e74696e650000000776657273696f6e020000000000000003"},
        {R::rec_unquarantine("hall/policy", 3),
         "0700000003000000046e616d65040000000b68616c6c2f706f6c696379000000026f7004"
         "0000000c756e71756172616e74696e650000000776657273696f6e020000000000000003"},
        {R::rec_flight("quarantine:hall/policy", SimTime{3'000'000}, {golden_trace_event()}),
         "07000000040000000561745f6e730200000000002dc6c0000000066576656e7473060000"
         "000107000000080000000561745f6e730200000000002625a000000004636f6d70040000"
         "000e6d696461732e7265636569766572000000046b696e64020000000000000002000000"
         "026b7606000000020700000002000000016b0400000003706b670000000176040000000b"
         "68616c6c2f706f6c6963790700000002000000016b040000000776657273696f6e000000"
         "0176040000000133000000046e616d65040000000e706b672e71756172616e74696e6500"
         "000006706172656e74020000000000000002000000047370616e02000000000000000500"
         "0000057472616365020000000000000004000000026f700400000006666c696768740000"
         "0006726561736f6e040000001671756172616e74696e653a68616c6c2f706f6c696379"},
    };
    for (const auto& [record, want] : golden) {
        EXPECT_EQ(hex(record.encode()), want) << record.as_dict().at("op").as_str();
    }
}

TEST(DurableFormat, GoldenSnapshotOnlyFields) {
    // The two optional fields only to_snapshot() writes. Without them the
    // same builders write the WAL bytes pinned above.
    const std::map<std::string, std::uint64_t> installed{{"hall/policy", 9}, {"hall/x", 10}};
    EXPECT_EQ(hex(BaseDurableState::rec_policy_remove("hall/policy", 5).encode()),
              "0700000003000000046e616d65040000000b68616c6c2f706f6c696379000000026f7004"
              "0000000d706f6c6963792d72656d6f76650000000776657273696f6e0200000000000000"
              "05");
    EXPECT_EQ(hex(BaseDurableState::rec_adapt(42, "robot:1:1", SimTime{1'500'000}, &installed)
                      .encode()),
              "070000000500000009696e7374616c6c656407000000020000000b68616c6c2f706f6c69"
              "63790200000000000000090000000668616c6c2f7802000000000000000a000000056c61"
              "62656c0400000009726f626f743a313a31000000046e6f646502000000000000002a0000"
              "00026f70040000000561646170740000000873696e63655f6e7302000000000016e360");
}

// ---------------------------------------------------------------------------
// Snapshot ≡ log: replaying the WAL alone, and replaying the compacted
// snapshot plus the WAL tail, yield the same durable state at every
// compaction point of a seeded history.

/// A seeded base journal history: policies added, replaced, removed and
/// re-added; nodes adapted (sometimes by a new device under an old label),
/// extended and gone; hall events; rollouts begun, promoted, aborted and
/// completed; the odd restart.
std::vector<Value> base_history(std::uint64_t seed, int records) {
    Rng rng(seed);
    std::map<std::string, std::uint32_t> version;
    std::vector<Value> out;
    std::uint64_t epoch = 1;
    std::uint64_t ext = 0;
    std::int64_t now = 0;
    out.push_back(BaseDurableState::rec_epoch(epoch));
    auto name = [&] { return "hall/p" + std::to_string(rng.next_below(4)); };
    auto label = [&] { return "robot:" + std::to_string(rng.next_below(6)); };
    auto node = [&](const std::string& l) {
        return 100 * static_cast<std::uint64_t>(l.back() - '0') + rng.next_below(2);
    };
    while (static_cast<int>(out.size()) < records) {
        now += 1 + static_cast<std::int64_t>(rng.next_below(1'000'000));
        const std::uint64_t pick = rng.next_below(100);
        if (pick < 10) {  // add, or replace a live policy
            const std::string n = name();
            const std::uint32_t v = ++version[n];
            out.push_back(
                BaseDurableState::rec_policy_add(n, v, to_bytes(n + "@" + std::to_string(v))));
        } else if (pick < 15) {
            out.push_back(BaseDurableState::rec_policy_remove(name()));
        } else if (pick < 27) {
            const std::string l = label();
            out.push_back(BaseDurableState::rec_adapt(node(l), l, SimTime{now}));
        } else if (pick < 42) {
            const std::string l = label();
            out.push_back(BaseDurableState::rec_install(node(l), l, name(), ++ext));
        } else if (pick < 47) {
            out.push_back(BaseDurableState::rec_node_gone(label()));
        } else if (pick < 82) {
            const std::string l = label();
            out.push_back(BaseDurableState::rec_event(
                l, SimTime{now}, Value{Dict{{"action", Value{"rotate"}},
                                            {"degrees", Value{static_cast<std::int64_t>(
                                                            rng.next_below(360))}}}}));
        } else if (pick < 87) {
            BaseDurableState::RolloutEntry r;
            r.name = name();
            r.incumbent_version = version[r.name];
            r.version = ++version[r.name];
            r.sealed = to_bytes(r.name + "@" + std::to_string(r.version));
            r.stages_bp = {1000, 5000, 10000};
            out.push_back(BaseDurableState::rec_rollout_begin(r));
        } else if (pick < 92) {
            out.push_back(BaseDurableState::rec_rollout_stage(
                name(), static_cast<std::uint32_t>(1 + rng.next_below(2))));
        } else if (pick < 95) {
            out.push_back(BaseDurableState::rec_rollout_abort(name(), "error-rate"));
        } else if (pick < 98) {
            out.push_back(BaseDurableState::rec_rollout_complete(name()));
        } else {
            out.push_back(BaseDurableState::rec_epoch(++epoch));
        }
    }
    return out;
}

/// A seeded receiver journal history: installs and replacements,
/// withdrawals, quarantines lifted and re-imposed, and many more flight
/// dumps than the receiver keeps.
std::vector<Value> receiver_history(std::uint64_t seed, int records) {
    Rng rng(seed);
    std::vector<Value> out;
    std::int64_t now = 0;
    auto name = [&] { return "hall/p" + std::to_string(rng.next_below(4)); };
    auto version = [&] { return static_cast<std::uint32_t>(1 + rng.next_below(3)); };
    while (static_cast<int>(out.size()) < records) {
        now += 1 + static_cast<std::int64_t>(rng.next_below(1'000'000));
        const std::uint64_t pick = rng.next_below(100);
        if (pick < 30) {
            out.push_back(ReceiverDurableState::rec_install(name(), version(), "hall"));
        } else if (pick < 50) {
            out.push_back(ReceiverDurableState::rec_withdraw(name()));
        } else if (pick < 65) {
            out.push_back(ReceiverDurableState::rec_quarantine(name(), version()));
        } else if (pick < 80) {
            out.push_back(ReceiverDurableState::rec_unquarantine(name(), version()));
        } else {
            std::vector<obs::TraceEvent> events;
            for (std::uint64_t e = rng.next_below(3); e > 0; --e) {
                obs::TraceEvent ev;
                ev.at = SimTime{now - static_cast<std::int64_t>(e)};
                ev.kind = static_cast<obs::EventKind>(rng.next_below(3));
                ev.span = rng.next_below(1000);
                ev.trace = rng.next_below(1000);
                ev.component = "midas.receiver";
                ev.name = "advice.error";
                ev.kv = {{"pkg", name()}};
                events.push_back(std::move(ev));
            }
            out.push_back(ReceiverDurableState::rec_flight("quarantine:" + name(),
                                                           SimTime{now}, events));
        }
    }
    return out;
}

/// Appends `history` to a never-compacted journal and to one compacted at
/// every compaction point (snapshot = to_snapshot() of the state replayed
/// there), comparing the two replays at each point and at the end.
template <typename State>
void expect_snapshot_equals_log(const std::vector<Value>& history) {
    auto log_disk = std::make_shared<db::JournalStorage>();
    auto compacted_disk = std::make_shared<db::JournalStorage>();
    db::Journal log(log_disk);
    db::Journal compacted(compacted_disk);
    int compactions = 0;
    for (std::size_t i = 0; i < history.size(); ++i) {
        log.append(history[i]);
        compacted.append(history[i]);
        if (!compacted.compaction_due()) continue;
        compacted.compact(State::replay(compacted.restore()).to_snapshot());
        ++compactions;
        const State from_log = State::replay(log.restore());
        const State from_snapshot = State::replay(compacted.restore());
        ASSERT_EQ(from_log.skipped_records, 0u);
        ASSERT_TRUE(from_snapshot == from_log) << "after record " << i;
    }
    EXPECT_GE(compactions, 2);
    EXPECT_TRUE(State::replay(compacted.restore()) == State::replay(log.restore()));
}

class SnapshotEqualsLog : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotEqualsLog, BaseHistory) {
    const std::vector<Value> history = base_history(GetParam(), 2000);
    expect_snapshot_equals_log<BaseDurableState>(history);

    // The base compacts from its live hall store; the event records it
    // writes from there are the ones it writes from `events`.
    db::Journal::Restored restored;
    restored.wal = history;
    const BaseDurableState st = BaseDurableState::replay(restored);
    ASSERT_FALSE(st.events.empty());
    db::EventStore hall;
    for (const auto& ev : st.events) hall.append(ev.source, ev.at, ev.data);
    EXPECT_EQ(st.to_snapshot(&hall), st.to_snapshot());
}

TEST_P(SnapshotEqualsLog, ReceiverHistory) {
    const std::vector<Value> history = receiver_history(GetParam(), 1500);
    expect_snapshot_equals_log<ReceiverDurableState>(history);

    db::Journal::Restored restored;
    restored.wal = history;
    const ReceiverDurableState st = ReceiverDurableState::replay(restored);
    EXPECT_EQ(st.flights.size(), ReceiverDurableState::kMaxFlights);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotEqualsLog, ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// CrashPlan expansion: deterministic, seed-sensitive, window-bounded.

TEST(CrashPlan, ExpansionIsDeterministicAndSeedSensitive) {
    net::CrashPlan plan;
    plan.events.push_back(net::CrashEvent{"a", SimTime::zero() + seconds(1), seconds(2)});
    plan.windows.push_back(net::CrashWindow{"b", SimTime::zero() + seconds(2),
                                            SimTime::zero() + seconds(30), 0.5,
                                            milliseconds(1500)});
    auto one = net::expand_crashes(plan, 42);
    auto two = net::expand_crashes(plan, 42);
    auto other = net::expand_crashes(plan, 43);
    ASSERT_EQ(one.size(), two.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].node, two[i].node);
        EXPECT_EQ(one[i].at.ns, two[i].at.ns);
    }
    // The scheduled event survives expansion verbatim; window events stay
    // inside their window and never overlap a downtime.
    ASSERT_GE(one.size(), 1u);
    EXPECT_EQ(one[0].node, "a");
    SimTime prev_up = SimTime::zero();
    for (const auto& ev : one) {
        if (ev.node != "b") continue;
        EXPECT_GE(ev.at.ns, (SimTime::zero() + seconds(2)).ns);
        EXPECT_LT(ev.at.ns, (SimTime::zero() + seconds(30)).ns);
        EXPECT_GE(ev.at.ns, prev_up.ns);  // no crash while already down
        prev_up = ev.at + milliseconds(1500);
    }
    // A different seed draws a different window expansion (sizes or times).
    bool differs = other.size() != one.size();
    for (std::size_t i = 0; !differs && i < one.size(); ++i) {
        differs = one[i].at.ns != other[i].at.ns;
    }
    EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------------
// Base recovery end to end.

constexpr const char* kMonitoringScript = R"(
    fun onEntry() {
        owner.post("collector", "post",
                   [sys.node(), {"device": ctx.target(), "action": ctx.method()}]);
    }
)";

ExtensionPackage monitoring_pkg(const std::string& name = "hall/monitoring") {
    ExtensionPackage pkg;
    pkg.name = name;
    pkg.script = kMonitoringScript;
    pkg.bindings = {
        PackageBinding{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    pkg.capabilities = {"net", "target"};
    return pkg;
}

struct RecoveryWorld {
    sim::Simulator sim;
    net::Network net;
    std::shared_ptr<db::JournalStorage> disk;
    std::unique_ptr<BaseStation> hall;
    std::unique_ptr<MobileNode> robot;
    std::shared_ptr<rt::ServiceObject> motor;

    explicit RecoveryWorld(std::uint64_t seed = 11)
        : net(sim, net::NetworkConfig{}, seed),
          disk(std::make_shared<db::JournalStorage>()) {
        disk->name = "hall";
        start_hall();
        robot = std::make_unique<MobileNode>(net, "robot", net::Position{10, 0}, 100.0);
        robot->trust().trust("hall", to_bytes("k"));
        robot->receiver().allow_capabilities("hall", {"net", "target", "log"});
        motor = robot::make_motor(robot->runtime(), "motor:x");
    }

    void start_hall() {
        BaseConfig bc;
        bc.issuer = "hall";
        hall = std::make_unique<BaseStation>(net, "hall", net::Position{0, 0}, 100.0, bc,
                                             disco::RegistrarConfig{}, disk);
        hall->keys().add_key("hall", to_bytes("k"));
    }

    /// The power-cord crash: journal off, radio gone, object destroyed.
    void crash_hall() {
        hall->journal()->power_off();
        net.remove_node(hall->id());
        hall.reset();
    }

    bool run_until(const std::function<bool()>& pred, Duration timeout = seconds(20)) {
        SimTime deadline = sim.now() + timeout;
        while (sim.now() < deadline) {
            if (pred()) return true;
            sim.run_until(sim.now() + milliseconds(100));
        }
        return pred();
    }
};

TEST(BaseRecovery, RestartedBaseRecoversPolicyBookAndHallDb) {
    RecoveryWorld w;
    w.hall->base().add_extension(monitoring_pkg());
    ASSERT_TRUE(w.run_until([&] { return w.robot->receiver().installed_count() == 1; }));

    // Hall activity lands in the database and — via the append hook — in
    // the journal.
    w.motor->call("rotate", {Value{30.0}});
    w.motor->call("stop", {});
    ASSERT_TRUE(w.run_until([&] { return w.hall->store().size() == 2; }));
    EXPECT_EQ(w.hall->base().epoch(), 1u);

    w.crash_hall();
    // Long enough for the robot's lease to lapse: its extension withdraws
    // autonomously while the base is down.
    w.sim.run_for(seconds(4));
    EXPECT_EQ(w.robot->receiver().installed_count(), 0u);

    w.start_hall();
    // Everything journaled before the crash is back, under a bumped epoch.
    EXPECT_EQ(w.hall->base().epoch(), 2u);
    ASSERT_EQ(w.hall->base().policy_names().size(), 1u);
    EXPECT_EQ(w.hall->base().policy_names()[0], "hall/monitoring");
    ASSERT_EQ(w.hall->store().size(), 2u);
    EXPECT_EQ(w.hall->store().at(1).source, "robot");
    ASSERT_EQ(w.hall->base().adapted_count(), 1u);  // recovered book entry

    // The ordinary adaptation loop re-extends the robot; new hall records
    // append after the recovered ones.
    ASSERT_TRUE(w.run_until([&] { return w.robot->receiver().installed_count() == 1; }));
    EXPECT_EQ(w.robot->receiver().installed()[0].base_epoch, 2u);
    w.motor->call("rotate", {Value{5.0}});
    ASSERT_TRUE(w.run_until([&] { return w.hall->store().size() == 3; }));
}

TEST(BaseRecovery, ShortOutageReadoptsLiveLeaseUnderNewEpoch) {
    RecoveryWorld w;
    w.hall->base().add_extension(monitoring_pkg());
    ASSERT_TRUE(w.run_until([&] { return w.robot->receiver().installed_count() == 1; }));
    EXPECT_EQ(w.robot->receiver().installed()[0].base_epoch, 1u);

    // Restart faster than the robot's lease: the robot still holds the
    // extension granted under epoch 1 when the base comes back as epoch 2.
    w.crash_hall();
    w.sim.run_for(milliseconds(300));
    EXPECT_EQ(w.robot->receiver().installed_count(), 1u);
    w.start_hall();
    EXPECT_EQ(w.hall->base().epoch(), 2u);

    // Whichever side wins the race — a refresh push re-adopting the lease
    // or a keep-alive tripping the stale-epoch withdrawal followed by one
    // re-install — the robot must end converged on epoch 2 with exactly
    // one copy.
    ASSERT_TRUE(w.run_until([&] {
        return w.robot->receiver().installed_count() == 1 &&
               w.robot->receiver().installed()[0].base_epoch == 2u;
    }));
    w.sim.run_for(seconds(5));
    EXPECT_EQ(w.robot->receiver().installed_count(), 1u);
    EXPECT_EQ(w.robot->receiver().installed()[0].base_epoch, 2u);
}

// A durable base over a disk that already holds a prior life with a
// `nodes`-entry adapted book (one installed extension each), fed hall
// records straight into its store — the append hook journals each one.
struct BookWorld {
    sim::Simulator sim;
    net::Network net;
    std::shared_ptr<db::JournalStorage> disk;
    std::unique_ptr<BaseStation> hall;

    BookWorld(const std::string& name, int nodes)
        : net(sim, net::NetworkConfig{}, 17), disk(std::make_shared<db::JournalStorage>()) {
        disk->name = name;
        {
            db::Journal j(disk);
            j.append(BaseDurableState::rec_epoch(1));
            for (int n = 0; n < nodes; ++n) {
                const std::string label = "fleet" + std::to_string(n);
                const auto node = static_cast<std::uint64_t>(1000 + n);
                j.append(BaseDurableState::rec_adapt(node, label, SimTime{n * 1'000'000LL}));
                j.append(BaseDurableState::rec_install(node, label, "hall/monitoring",
                                                       static_cast<std::uint64_t>(n + 1)));
            }
        }
        start();
    }

    void start() {
        BaseConfig bc;
        bc.issuer = "hall";
        hall = std::make_unique<BaseStation>(net, "hall", net::Position{0, 0}, 100.0, bc,
                                             disco::RegistrarConfig{}, disk);
    }

    void crash() {
        hall->journal()->power_off();
        net.remove_node(hall->id());
        hall.reset();
    }

    void post(int i) {
        hall->store().append("robot:" + std::to_string(i % 37), SimTime{i * 1'000LL},
                             Value{Dict{{"device", Value{"motor:x"}},
                                        {"action", Value{"rotate"}},
                                        {"degrees", Value{static_cast<double>(i % 360)}}}});
    }

    std::uint64_t compactions() const {
        return obs::Registry::global().counter("db.journal.compactions", disk->name).value();
    }
};

TEST(BaseCompaction, HallLogGrowthCompactsLogarithmically) {
    BookWorld w("hall-log-growth", 1'000);
    ASSERT_EQ(w.hall->base().adapted_count(), 1'000u);
    constexpr int kRecords = 20'000;
    const std::uint64_t before = w.compactions();
    for (int i = 0; i < kRecords; ++i) w.post(i);
    ASSERT_EQ(w.hall->store().size(), static_cast<std::size_t>(kRecords));
    // Byte-paced: the snapshot at least doubles between compactions of an
    // append-only log, so their count grows with log2 of the log, not with
    // its length (a fixed 256-record cadence would compact 78 times).
    const double bound = 2.0 * std::log2(kRecords / 256.0) + 4.0;
    EXPECT_LE(static_cast<double>(w.compactions() - before), bound);
}

TEST(BaseCompaction, CrashIntoLongUncompactedWalRestoresLiveState) {
    BookWorld w("hall-long-wal", 1'000);
    // Past a few compactions, then 1,500 records on: the crash lands well
    // into a WAL the byte pacing has not folded yet.
    const std::uint64_t start = w.compactions();
    int posted = 0;
    while (w.compactions() < start + 3) w.post(posted++);
    for (const int end = posted + 1'500; posted < end;) w.post(posted++);
    ASSERT_GT(w.hall->journal()->wal_records(), 256u);

    const std::vector<db::Record> hall_log = w.hall->store().query(db::Query{});
    auto book_of = [](BaseStation& b) {
        std::map<std::string, std::pair<std::uint64_t, std::map<std::string, std::uint64_t>>>
            book;
        for (const auto& a : b.base().adapted()) {
            book[a.label] = {a.node.value, a.installed};
        }
        return book;
    };
    const auto book = book_of(*w.hall);

    w.crash();
    w.start();
    EXPECT_EQ(w.hall->base().epoch(), 3u);
    EXPECT_EQ(book_of(*w.hall), book);
    const std::vector<db::Record> recovered = w.hall->store().query(db::Query{});
    ASSERT_EQ(recovered.size(), hall_log.size());
    for (std::size_t i = 0; i < recovered.size(); ++i) {
        ASSERT_EQ(recovered[i].source, hall_log[i].source) << i;
        ASSERT_EQ(recovered[i].at, hall_log[i].at) << i;
        ASSERT_EQ(recovered[i].data, hall_log[i].data) << i;
    }
}

TEST(EpochProtocol, KeepaliveFromNewerEpochWithdrawsStaleLease) {
    RecoveryWorld w;
    w.sim.run_for(seconds(2));  // discovery settles; no policy pushed

    ExtensionPackage pkg = monitoring_pkg();
    Bytes sealed = pkg.seal(w.hall->keys(), "hall");
    Value reply = w.hall->rpc().call_sync(
        w.robot->id(), "adaptation", "install",
        {Value{sealed}, Value{std::int64_t{60'000}}, Value{std::int64_t{1}}});
    std::int64_t ext = reply.as_dict().at("ext").as_int();
    ASSERT_EQ(w.robot->receiver().installed_count(), 1u);

    // Same epoch: lease renews.
    EXPECT_TRUE(w.hall->rpc()
                    .call_sync(w.robot->id(), "adaptation", "keepalive",
                               {Value{ext}, Value{std::int64_t{60'000}},
                                Value{std::int64_t{1}}})
                    .as_bool());

    // A keep-alive from epoch 2 carries a recovered ext id from the base's
    // previous life: withdraw and report false so the base re-installs.
    EXPECT_FALSE(w.hall->rpc()
                     .call_sync(w.robot->id(), "adaptation", "keepalive",
                                {Value{ext}, Value{std::int64_t{60'000}},
                                 Value{std::int64_t{2}}})
                     .as_bool());
    EXPECT_EQ(w.robot->receiver().installed_count(), 0u);

    // The re-install is accepted cleanly under the new epoch.
    Value again = w.hall->rpc().call_sync(
        w.robot->id(), "adaptation", "install",
        {Value{sealed}, Value{std::int64_t{60'000}}, Value{std::int64_t{2}}});
    EXPECT_EQ(w.robot->receiver().installed_count(), 1u);
    EXPECT_EQ(w.robot->receiver().installed()[0].base_epoch, 2u);
    EXPECT_NE(again.as_dict().at("ext").as_int(), ext);
}

// ---------------------------------------------------------------------------
// Named crash-points via the Supervisor.

TEST(CrashPoints, CrashAfterInstallSentRecoversExactlyOnce) {
    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 29);
    Supervisor sup(net);
    auto disk = std::make_shared<db::JournalStorage>();
    disk->name = "hall";

    std::unique_ptr<BaseStation> hall;
    sup.manage("hall", Supervisor::Lifecycle{
                           [&]() {
                               BaseConfig bc;
                               bc.issuer = "hall";
                               hall = std::make_unique<BaseStation>(
                                   net, "hall", net::Position{0, 0}, 100.0, bc,
                                   disco::RegistrarConfig{}, disk);
                               hall->keys().add_key("hall", to_bytes("k"));
                           },
                           [&]() { return hall->id(); },
                           [&]() {
                               if (hall && hall->journal()) hall->journal()->power_off();
                           },
                           [&]() { hall.reset(); },
                       });

    MobileNode robot(net, "robot", net::Position{10, 0}, 100.0);
    robot.trust().trust("hall", to_bytes("k"));
    robot.receiver().allow_capabilities("hall", {"net", "target", "log"});
    robot::make_motor(robot.runtime(), "motor:x");

    // Die the instant the first install leaves the radio: the package is
    // in flight, the install not yet journaled — the canonical torn state.
    sim::ScopedFailPoint fp("hall", "install.sent", 1,
                            [&]() { sup.crash("hall", seconds(2)); });
    hall->base().add_extension(monitoring_pkg());

    auto run_until = [&](const std::function<bool()>& pred, Duration timeout) {
        SimTime deadline = sim.now() + timeout;
        while (sim.now() < deadline) {
            if (pred()) return true;
            sim.run_until(sim.now() + milliseconds(100));
        }
        return pred();
    };

    ASSERT_TRUE(run_until([&] { return sup.stats().crashes == 1; }, seconds(5)));
    ASSERT_TRUE(run_until([&] { return sup.stats().restarts == 1; }, seconds(5)));
    // The restarted base recovered the policy (journaled before the send)
    // and converges the robot back to exactly one live copy.
    ASSERT_TRUE(hall != nullptr);
    EXPECT_EQ(hall->base().epoch(), 2u);
    ASSERT_TRUE(run_until(
        [&] {
            return robot.receiver().installed_count() == 1 &&
                   robot.receiver().installed()[0].base_epoch == 2u;
        },
        seconds(20)));
    sim.run_for(seconds(5));
    EXPECT_EQ(robot.receiver().installed_count(), 1u);
}

// ---------------------------------------------------------------------------
// Receiver quarantine.

ExtensionPackage throwing_pkg() {
    ExtensionPackage pkg;
    pkg.name = "hall/flaky";
    pkg.script = "fun onEntry() { throw \"boom\"; }";
    pkg.bindings = {
        PackageBinding{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    return pkg;
}

struct QuarantineWorld {
    sim::Simulator sim;
    net::Network net;
    std::shared_ptr<db::JournalStorage> robot_disk;
    std::unique_ptr<BaseStation> hall;
    std::unique_ptr<MobileNode> robot;
    std::shared_ptr<rt::ServiceObject> motor;

    QuarantineWorld() : net(sim, net::NetworkConfig{}, 31),
                        robot_disk(std::make_shared<db::JournalStorage>()) {
        robot_disk->name = "robot";
        BaseConfig bc;
        bc.issuer = "hall";
        hall = std::make_unique<BaseStation>(net, "hall", net::Position{0, 0}, 100.0, bc);
        hall->keys().add_key("hall", to_bytes("k"));
        start_robot();
    }

    void start_robot() {
        robot = std::make_unique<MobileNode>(net, "robot", net::Position{10, 0}, 100.0,
                                             ReceiverConfig{}, robot_disk);
        robot->trust().trust("hall", to_bytes("k"));
        robot->receiver().allow_capabilities("hall", {"net", "target", "log"});
        motor = robot::make_motor(robot->runtime(), "motor:x");
    }

    bool run_until(const std::function<bool()>& pred, Duration timeout = seconds(20)) {
        SimTime deadline = sim.now() + timeout;
        while (sim.now() < deadline) {
            if (pred()) return true;
            sim.run_until(sim.now() + milliseconds(100));
        }
        return pred();
    }
};

TEST(Quarantine, RepeatedAdviceFailuresQuarantineTheExtension) {
    QuarantineWorld w;
    w.hall->base().add_extension(throwing_pkg());
    ASSERT_TRUE(w.run_until([&] { return w.robot->receiver().installed_count() == 1; }));
    std::uint32_t version = w.robot->receiver().installed()[0].version;

    // Each intercepted call blows up in the advice; the app sees the error
    // each time, and the third consecutive failure trips the quarantine.
    for (int i = 0; i < 3; ++i) {
        EXPECT_THROW(w.motor->call("rotate", {Value{1.0}}), std::exception);
    }
    // Withdrawal is deferred one tick (we were inside the dispatch).
    w.sim.run_for(milliseconds(10));
    EXPECT_EQ(w.robot->receiver().installed_count(), 0u);
    EXPECT_TRUE(w.robot->receiver().is_quarantined("hall/flaky", version));

    // The base keeps pushing; the node keeps refusing. No flapping.
    w.sim.run_for(seconds(5));
    EXPECT_EQ(w.robot->receiver().installed_count(), 0u);
    // The motor dispatches cleanly again (aspect really gone).
    w.motor->call("rotate", {Value{2.0}});

    // A fixed (newer) version is accepted.
    ExtensionPackage fixed = throwing_pkg();
    fixed.script = "fun onEntry() { }";
    w.hall->base().add_extension(fixed);  // version bumps past the bad one
    ASSERT_TRUE(w.run_until([&] { return w.robot->receiver().installed_count() == 1; }));
    EXPECT_GT(w.robot->receiver().installed()[0].version, version);
}

TEST(Quarantine, SurvivesReceiverRestart) {
    QuarantineWorld w;
    w.hall->base().add_extension(throwing_pkg());
    ASSERT_TRUE(w.run_until([&] { return w.robot->receiver().installed_count() == 1; }));
    std::uint32_t version = w.robot->receiver().installed()[0].version;
    for (int i = 0; i < 3; ++i) {
        EXPECT_THROW(w.motor->call("rotate", {Value{1.0}}), std::exception);
    }
    w.sim.run_for(milliseconds(10));
    ASSERT_TRUE(w.robot->receiver().is_quarantined("hall/flaky", version));

    // Crash the robot: journal off, radio gone, object destroyed; then a
    // fresh life over the same disk.
    w.robot->journal()->power_off();
    w.net.remove_node(w.robot->id());
    w.robot.reset();
    w.sim.run_for(seconds(1));
    w.start_robot();

    // The quarantine list came back; the crash-time manifest is readable;
    // the base's continuing pushes of the bad version still bounce.
    EXPECT_TRUE(w.robot->receiver().is_quarantined("hall/flaky", version));
    w.sim.run_for(seconds(5));
    EXPECT_EQ(w.robot->receiver().installed_count(), 0u);
}

TEST(Quarantine, SurvivesCrashIntoLongUncompactedWal) {
    QuarantineWorld w;
    auto crash_robot = [&] {
        w.robot->journal()->power_off();
        w.net.remove_node(w.robot->id());
        w.robot.reset();
    };
    // A previous life quarantined thousands of retired builds; this life's
    // recovery folds them into a large snapshot chain, so hundreds of small
    // records can follow before the WAL is worth compacting.
    constexpr int kRetired = 4'000;
    auto retired = [](int i) { return "hall/retired-build-" + std::to_string(i); };
    crash_robot();
    {
        db::Journal j(w.robot_disk);
        for (int i = 0; i < kRetired; ++i) {
            j.append(ReceiverDurableState::rec_quarantine(retired(i), 1));
        }
    }
    w.start_robot();
    ASSERT_TRUE(w.robot->receiver().is_quarantined(retired(kRetired - 1), 1));

    w.hall->base().add_extension(throwing_pkg());
    ASSERT_TRUE(w.run_until([&] { return w.robot->receiver().installed_count() == 1; }));
    std::uint32_t version = w.robot->receiver().installed()[0].version;
    for (int i = 0; i < 3; ++i) {
        EXPECT_THROW(w.motor->call("rotate", {Value{1.0}}), std::exception);
    }
    w.sim.run_for(milliseconds(10));
    ASSERT_TRUE(w.robot->receiver().is_quarantined("hall/flaky", version));
    constexpr int kLifted = 300;
    for (int i = 0; i < kLifted; ++i) ASSERT_TRUE(w.robot->receiver().unquarantine(retired(i), 1));
    ASSERT_GT(w.robot->journal()->wal_records(), 256u);

    crash_robot();
    w.sim.run_for(seconds(1));
    w.start_robot();
    EXPECT_TRUE(w.robot->receiver().is_quarantined("hall/flaky", version));
    for (int i = 0; i < kRetired; ++i) {
        ASSERT_EQ(w.robot->receiver().is_quarantined(retired(i), 1), i >= kLifted) << i;
    }
    w.sim.run_for(seconds(5));
    EXPECT_EQ(w.robot->receiver().installed_count(), 0u);
}

TEST(Quarantine, AccessDeniedDoesNotCount) {
    QuarantineWorld w;
    // The script calls a capability-gated builtin (owner.post needs "net")
    // that the package never requested. The sandbox refuses at dispatch —
    // that is this node's own policy saying no, not broken extension code,
    // so it must never trip the quarantine however often it happens.
    ExtensionPackage pkg;
    pkg.name = "hall/nosy";
    pkg.script = "fun onEntry() { owner.post(\"collector\", \"post\", [1]); }";
    pkg.bindings = {
        PackageBinding{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    w.hall->base().add_extension(pkg);
    ASSERT_TRUE(w.run_until([&] { return w.robot->receiver().installed_count() == 1; }));
    std::uint32_t version = w.robot->receiver().installed()[0].version;
    for (int i = 0; i < 6; ++i) {
        EXPECT_THROW(w.motor->call("rotate", {Value{1.0}}), std::exception);
    }
    w.sim.run_for(milliseconds(10));
    EXPECT_EQ(w.robot->receiver().installed_count(), 1u);
    EXPECT_FALSE(w.robot->receiver().is_quarantined("hall/nosy", version));
}

// ---------------------------------------------------------------------------
// Federation hand-off racing a base restart.

ExtensionPackage noop_pkg(const std::string& name) {
    ExtensionPackage pkg;
    pkg.name = name;
    pkg.script = "fun onEntry() { }";
    pkg.bindings = {{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    return pkg;
}

struct FederationWorld {
    sim::Simulator sim;
    net::Network net;
    std::shared_ptr<db::JournalStorage> disk_a;
    std::unique_ptr<BaseStation> hall_a;
    std::unique_ptr<BaseStation> hall_b;
    std::unique_ptr<Federation> fed_a;
    std::unique_ptr<Federation> fed_b;
    std::unique_ptr<MobileNode> robot;

    FederationWorld() : net(sim, net::NetworkConfig{}, 37),
                        disk_a(std::make_shared<db::JournalStorage>()) {
        disk_a->name = "hall-a";
        start_hall_a();
        BaseConfig bcb;
        bcb.issuer = "hall-b";
        hall_b = std::make_unique<BaseStation>(net, "hall-b", net::Position{300, 0}, 120.0,
                                               bcb);
        hall_b->keys().add_key("hall-b", to_bytes("kb"));
        fed_b = std::make_unique<Federation>(hall_b->rpc(), hall_b->base(), "hall-b");
        wire();

        hall_a->base().add_extension(noop_pkg("hall-a/p"));
        hall_b->base().add_extension(noop_pkg("hall-b/p"));

        robot = std::make_unique<MobileNode>(net, "robot", net::Position{10, 0}, 120.0);
        robot->trust().trust("hall-a", to_bytes("ka"));
        robot->trust().trust("hall-b", to_bytes("kb"));
        robot::make_motor(robot->runtime(), "motor:x");
    }

    void start_hall_a() {
        BaseConfig bca;
        bca.issuer = "hall-a";
        hall_a = std::make_unique<BaseStation>(net, "hall-a", net::Position{0, 0}, 120.0,
                                               bca, disco::RegistrarConfig{}, disk_a);
        hall_a->keys().add_key("hall-a", to_bytes("ka"));
        fed_a = std::make_unique<Federation>(hall_a->rpc(), hall_a->base(), "hall-a");
    }

    void wire() {
        net.add_wire(hall_a->id(), hall_b->id());
        fed_a->add_neighbor(hall_b->id());
        fed_b->add_neighbor(hall_a->id());
    }

    void crash_hall_a() {
        hall_a->journal()->power_off();
        net.remove_node(hall_a->id());
        fed_a.reset();
        hall_a.reset();
    }

    bool run_until(const std::function<bool()>& pred, Duration timeout = seconds(30)) {
        SimTime deadline = sim.now() + timeout;
        while (sim.now() < deadline) {
            if (pred()) return true;
            sim.run_until(sim.now() + milliseconds(100));
        }
        return pred();
    }
};

TEST(FederationRecovery, HandoffDuringOutageBeatsTheRecoveredClaim) {
    FederationWorld w;
    ASSERT_TRUE(w.run_until([&] { return w.hall_a->base().adapted_count() == 1; }));

    // Hall A dies holding the robot in its journaled book; the robot
    // wanders into hall B's cell during the outage and B adapts it with a
    // fresher stamp.
    w.crash_hall_a();
    w.robot->move_to({310, 0});
    ASSERT_TRUE(w.run_until([&] { return w.hall_b->base().adapted_count() == 1; }));
    SimTime b_stamp = *w.hall_b->base().claim_stamp_of("robot");

    // A restarts, recovers the stale book entry, and probes the
    // federation. B's stamp is newer, so A cedes — no double-adaptation.
    w.start_hall_a();
    w.wire();
    ASSERT_EQ(w.hall_a->base().adapted_count(), 1u);  // probation entry
    ASSERT_TRUE(w.run_until([&] { return w.hall_a->base().adapted_count() == 0; },
                            seconds(10)));
    EXPECT_EQ(w.fed_a->stats().recoveries_ceded, 1u);
    EXPECT_EQ(w.fed_a->stats().recoveries_confirmed, 0u);
    // B keeps the robot with its original stamp; A sent it nothing.
    EXPECT_EQ(w.hall_b->base().adapted_count(), 1u);
    EXPECT_EQ(w.hall_b->base().claim_stamp_of("robot")->ns, b_stamp.ns);
    EXPECT_EQ(w.hall_a->base().stats().installs_sent, 0u);
    // The robot converges on exactly hall B's policy.
    ASSERT_TRUE(w.run_until([&] {
        return w.robot->receiver().installed_count() == 1 &&
               w.robot->receiver().installed()[0].issuer == "hall-b";
    }));
}

TEST(FederationRecovery, UnclaimedNodesAreConfirmedAndReadopted) {
    FederationWorld w;
    ASSERT_TRUE(w.run_until([&] { return w.robot->receiver().installed_count() == 1; }));

    // A short outage; the robot never leaves hall A's cell and B never
    // touches it. The recovery claim comes back unopposed.
    w.crash_hall_a();
    w.sim.run_for(seconds(1));
    w.start_hall_a();
    w.wire();
    ASSERT_TRUE(w.run_until([&] { return w.fed_a->stats().recoveries_confirmed == 1; },
                            seconds(10)));
    EXPECT_EQ(w.fed_a->stats().recoveries_ceded, 0u);
    ASSERT_TRUE(w.run_until([&] {
        return w.robot->receiver().installed_count() == 1 &&
               w.robot->receiver().installed()[0].base_epoch == 2u;
    }));
    EXPECT_EQ(w.hall_a->base().adapted_count(), 1u);
    EXPECT_EQ(w.hall_b->base().adapted_count(), 0u);
}

}  // namespace
}  // namespace pmp::midas
