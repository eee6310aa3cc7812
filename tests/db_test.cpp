// Tests for the hall database: append, query predicates, sources, replay.
#include <gtest/gtest.h>

#include "common/error.h"
#include "db/store.h"

namespace pmp::db {
namespace {

using rt::Dict;
using rt::Value;

Value action(const std::string& motor, double degrees) {
    return Value{Dict{{"device", Value{motor}}, {"degrees", Value{degrees}}}};
}

TEST(EventStore, AppendAssignsIncreasingSeq) {
    EventStore store;
    EXPECT_EQ(store.append("r1", SimTime{100}, action("x", 10)), 1u);
    EXPECT_EQ(store.append("r1", SimTime{200}, action("y", 20)), 2u);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.at(1).source, "r1");
    EXPECT_THROW(store.at(0), Error);
    EXPECT_THROW(store.at(3), Error);
}

TEST(EventStore, QueryBySource) {
    EventStore store;
    store.append("r1", SimTime{1}, action("x", 1));
    store.append("r2", SimTime{2}, action("x", 2));
    store.append("r1", SimTime{3}, action("x", 3));

    Query q;
    q.source = "r1";
    auto out = store.query(q);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].seq, 1u);
    EXPECT_EQ(out[1].seq, 3u);
}

TEST(EventStore, QueryByTimeRange) {
    EventStore store;
    for (int i = 0; i < 10; ++i) {
        store.append("r1", SimTime{i * 100}, action("x", i));
    }
    Query q;
    q.from = SimTime{300};   // inclusive
    q.until = SimTime{600};  // exclusive
    auto out = store.query(q);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out.front().at, SimTime{300});
    EXPECT_EQ(out.back().at, SimTime{500});
}

TEST(EventStore, QueryLimit) {
    EventStore store;
    for (int i = 0; i < 10; ++i) store.append("r1", SimTime{i}, action("x", i));
    Query q;
    q.limit = 4;
    EXPECT_EQ(store.query(q).size(), 4u);
}

TEST(EventStore, QueryCombinedPredicates) {
    EventStore store;
    for (int i = 0; i < 10; ++i) {
        store.append(i % 2 ? "odd" : "even", SimTime{i * 10}, action("x", i));
    }
    Query q;
    q.source = "even";
    q.from = SimTime{20};
    q.limit = 2;
    auto out = store.query(q);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].at, SimTime{20});
    EXPECT_EQ(out[1].at, SimTime{40});
}

TEST(EventStore, SourcesAreDistinctSorted) {
    EventStore store;
    store.append("r2", SimTime{1}, action("x", 1));
    store.append("r1", SimTime{2}, action("x", 2));
    store.append("r2", SimTime{3}, action("x", 3));
    EXPECT_EQ(store.sources(), (std::vector<std::string>{"r1", "r2"}));
}

TEST(EventStore, SnapshotRestoreRoundTrip) {
    EventStore store;
    store.append("r1", SimTime{100}, action("x", 10));
    store.append("r2", SimTime{200}, action("y", -3.5));

    EventStore back = EventStore::restore(std::span<const std::uint8_t>(store.snapshot()));
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back.at(1).source, "r1");
    EXPECT_EQ(back.at(1).at, SimTime{100});
    EXPECT_EQ(back.at(1).data, store.at(1).data);
    EXPECT_EQ(back.at(2).source, "r2");
    // Appends continue with the right sequence numbers.
    EXPECT_EQ(back.append("r3", SimTime{300}, action("z", 1)), 3u);
}

TEST(EventStore, EmptySnapshotRestores) {
    EventStore store;
    EventStore back = EventStore::restore(std::span<const std::uint8_t>(store.snapshot()));
    EXPECT_EQ(back.size(), 0u);
}

TEST(EventStore, CorruptSnapshotThrows) {
    Bytes garbage{0xFF, 0x01, 0x02};
    EXPECT_THROW(EventStore::restore(std::span<const std::uint8_t>(garbage)), ParseError);
}

// ---------------------------------------------------------------------------
// Retention: the hall log must not grow without bound (docs/storage.md).

TEST(EventStoreRetention, RecordCapTrimsOldestKeepsSeqs) {
    EventStore store;
    store.set_retention(Retention{.max_records = 3}, "hall");
    for (int i = 1; i <= 5; ++i) {
        store.append("r", SimTime{i * 100}, action("x", i));
    }
    EXPECT_EQ(store.size(), 3u);
    EXPECT_EQ(store.base_seq(), 2u);
    // Trimmed seqs no longer resolve; retained ones keep their numbers.
    EXPECT_THROW(store.at(2), Error);
    EXPECT_EQ(store.at(3).at, SimTime{300});
    EXPECT_EQ(store.at(5).at, SimTime{500});
    // New appends continue the sequence — numbers are never reused.
    EXPECT_EQ(store.append("r", SimTime{600}, action("x", 6)), 6u);
    EXPECT_EQ(store.size(), 3u);
    EXPECT_EQ(store.base_seq(), 3u);
}

TEST(EventStoreRetention, ByteCapTrimsUntilUnderBudget) {
    EventStore store;
    // Each record is a few dozen bytes; a 200-byte budget holds only a few.
    store.set_retention(Retention{.max_bytes = 200}, "hall");
    for (int i = 1; i <= 50; ++i) {
        store.append("robot", SimTime{i}, action("motor", i));
    }
    EXPECT_LT(store.size(), 10u);
    EXPECT_GT(store.size(), 0u);
    EXPECT_EQ(store.base_seq() + store.size(), 50u);
}

TEST(EventStoreRetention, PolicyAppliedRetroactivelyOnSet) {
    EventStore store;
    for (int i = 1; i <= 10; ++i) store.append("r", SimTime{i}, action("x", i));
    store.set_retention(Retention{.max_records = 4});
    EXPECT_EQ(store.size(), 4u);
    EXPECT_EQ(store.base_seq(), 6u);
}

TEST(EventStoreRetention, SnapshotRestoreReconstructsCurrentState) {
    // The regression the retention satellite guards: restore after a
    // compaction must rebuild exactly the retained window, with the same
    // sequence numbers — not a store renumbered from 1.
    EventStore store;
    store.set_retention(Retention{.max_records = 3}, "hall");
    for (int i = 1; i <= 7; ++i) store.append("r", SimTime{i * 10}, action("x", i));
    Bytes snap = store.snapshot();
    EventStore back = EventStore::restore(std::span(snap));
    EXPECT_EQ(back.size(), 3u);
    EXPECT_EQ(back.base_seq(), 4u);
    EXPECT_EQ(back.at(5).at, SimTime{50});
    EXPECT_EQ(back.at(7).at, SimTime{70});
    EXPECT_THROW(back.at(4), Error);
    // A store that never trimmed uses the same {base_seq, records} format,
    // with base_seq 0, and round-trips through it.
    EventStore plain;
    plain.append("r", SimTime{1}, action("x", 1));
    Bytes plain_snap = plain.snapshot();
    rt::Value v = rt::Value::decode(std::span(plain_snap));
    ASSERT_TRUE(v.is_dict());
    EXPECT_EQ(v.as_dict().at("base_seq").as_int(), 0);
    EventStore plain_back = EventStore::restore(std::span(plain_snap));
    EXPECT_EQ(plain_back.base_seq(), 0u);
    EXPECT_EQ(plain_back.at(1).at, SimTime{1});
}

TEST(EventStoreRetention, MalformedRetentionHeaderRaisesTypedError) {
    Bytes bad = rt::Value{Dict{{"base_seq", rt::Value{std::string("nope")}},
                               {"records", rt::Value{rt::List{}}}}}
                    .encode();
    EXPECT_THROW(EventStore::restore(std::span(bad)), Error);
    Bytes negative = rt::Value{Dict{{"base_seq", rt::Value{std::int64_t{-4}}},
                                    {"records", rt::Value{rt::List{}}}}}
                         .encode();
    EXPECT_THROW(EventStore::restore(std::span(negative)), Error);
}

TEST(ReplayCursor, IteratesInTimeOrder) {
    std::vector<Record> records;
    records.push_back(Record{3, "r", SimTime{300}, action("x", 3)});
    records.push_back(Record{1, "r", SimTime{100}, action("x", 1)});
    records.push_back(Record{2, "r", SimTime{200}, action("x", 2)});
    ReplayCursor cursor(std::move(records));

    std::vector<std::int64_t> times;
    while (!cursor.done()) times.push_back(cursor.next().at.ns);
    EXPECT_EQ(times, (std::vector<std::int64_t>{100, 200, 300}));
}

TEST(ReplayCursor, GapsPreserveRelativeTiming) {
    std::vector<Record> records;
    records.push_back(Record{1, "r", SimTime{100}, action("x", 1)});
    records.push_back(Record{2, "r", SimTime{350}, action("x", 2)});
    ReplayCursor cursor(std::move(records));

    EXPECT_EQ(cursor.gap_before_next(), Duration{0});  // before first
    cursor.next();
    EXPECT_EQ(cursor.gap_before_next(), Duration{250});
    // Scaled replay: half-speed doubles nothing — 0.5 halves the gap.
    EXPECT_EQ(cursor.gap_before_next(0.5), Duration{125});
    cursor.next();
    EXPECT_TRUE(cursor.done());
    EXPECT_THROW(cursor.next(), Error);
}

TEST(ReplayCursor, EmptyIsDone) {
    ReplayCursor cursor({});
    EXPECT_TRUE(cursor.done());
}

}  // namespace
}  // namespace pmp::db
