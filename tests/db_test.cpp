// Tests for the hall database: append, query predicates, sources, replay.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "db/journal.h"
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

// ----------------------------------------------------------------- crc32 ----
// The journal frames are checksummed with the sliced CRC-32; it must agree
// with the classic byte-at-a-time loop on every length and at every
// alignment of the input.

std::uint32_t crc32_bytewise(const std::uint8_t* p, std::size_t n) {
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswerAtEveryAlignment) {
    std::vector<std::uint8_t> buf(9 + 8);
    for (std::size_t start = 0; start < 8; ++start) {
        std::memcpy(buf.data() + start, "123456789", 9);
        EXPECT_EQ(crc32(std::span<const std::uint8_t>(buf.data() + start, 9)), 0xCBF43926u)
            << "start " << start;
    }
}

TEST(Crc32, MatchesBytewiseReferenceOnEveryLengthAndAlignment) {
    std::vector<std::uint8_t> buf(4100 + 8);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (auto& b : buf) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = static_cast<std::uint8_t>(x);
    }
    for (std::size_t start : {0, 1, 2, 3, 5, 7}) {
        for (std::size_t len = 0; len <= 4100; ++len) {
            const std::uint8_t* p = buf.data() + start;
            ASSERT_EQ(crc32(std::span<const std::uint8_t>(p, len)), crc32_bytewise(p, len))
                << "start " << start << " len " << len;
        }
    }
}

}  // namespace
}  // namespace pmp::db
