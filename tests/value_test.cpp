// Tests for the dynamic Value type: accessors, equality, copy/move
// lifetimes across every kind, Dict, rendering, and the canonical encoding
// (including a property-style random round-trip sweep).
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "rt/value.h"

namespace pmp::rt {
namespace {

TEST(Value, KindsAndAccessors) {
    EXPECT_TRUE(Value{}.is_null());
    EXPECT_EQ(Value{true}.as_bool(), true);
    EXPECT_EQ(Value{42}.as_int(), 42);
    EXPECT_DOUBLE_EQ(Value{2.5}.as_real(), 2.5);
    EXPECT_EQ(Value{"hi"}.as_str(), "hi");
    EXPECT_EQ((Value{Bytes{1, 2}}.as_blob()), (Bytes{1, 2}));
    EXPECT_EQ((Value{List{Value{1}}}.as_list().size()), 1u);
    EXPECT_EQ((Value{Dict{{"k", Value{1}}}}.as_dict().size()), 1u);
}

TEST(Value, IntPromotesToRealAccessor) {
    EXPECT_DOUBLE_EQ(Value{3}.as_real(), 3.0);
}

TEST(Value, WrongKindThrows) {
    EXPECT_THROW(Value{1}.as_str(), TypeError);
    EXPECT_THROW(Value{"x"}.as_int(), TypeError);
    EXPECT_THROW(Value{2.5}.as_int(), TypeError);  // no silent truncation
    EXPECT_THROW(Value{}.as_list(), TypeError);
}

TEST(Value, Truthiness) {
    EXPECT_FALSE(Value{}.truthy());
    EXPECT_FALSE(Value{false}.truthy());
    EXPECT_FALSE(Value{0}.truthy());
    EXPECT_FALSE(Value{0.0}.truthy());
    EXPECT_FALSE(Value{""}.truthy());
    EXPECT_FALSE(Value{List{}}.truthy());
    EXPECT_FALSE(Value{Dict{}}.truthy());
    EXPECT_TRUE(Value{true}.truthy());
    EXPECT_TRUE(Value{-1}.truthy());
    EXPECT_TRUE(Value{"x"}.truthy());
    EXPECT_TRUE((Value{List{Value{}}}.truthy()));
}

TEST(Value, EqualityIsStrict) {
    EXPECT_EQ(Value{1}, Value{1});
    EXPECT_NE(Value{1}, Value{1.0});  // different kinds
    EXPECT_EQ(Value{"a"}, Value{"a"});
    EXPECT_EQ((Value{List{Value{1}, Value{2}}}), (Value{List{Value{1}, Value{2}}}));
}

TEST(Value, EqualityIsKindStrictAndNanIsUnequal) {
    EXPECT_FALSE(Value{1} == Value{1.0});
    EXPECT_FALSE(Value{0} == Value{false});
    EXPECT_FALSE(Value{} == Value{false});
    EXPECT_FALSE(Value{""} == Value{Bytes{}});
    EXPECT_FALSE(Value{List{}} == Value{Dict{}});
    EXPECT_TRUE(Value{0.0} == Value{-0.0});
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const Value n{nan};
    EXPECT_FALSE(n == n);
    EXPECT_FALSE((Value{List{n}}) == (Value{List{n}}));
}

TEST(Value, ToStringRendering) {
    EXPECT_EQ(Value{}.to_string(), "null");
    EXPECT_EQ(Value{true}.to_string(), "true");
    EXPECT_EQ(Value{42}.to_string(), "42");
    EXPECT_EQ(Value{"a\"b"}.to_string(), "\"a\\\"b\"");
    EXPECT_EQ((Value{List{Value{1}, Value{"x"}}}.to_string()), "[1, \"x\"]");
    Dict d{{"b", Value{2}}, {"a", Value{1}}};
    EXPECT_EQ(Value{d}.to_string(), "{\"a\": 1, \"b\": 2}");  // sorted keys
}

// ------------------------------------------------------------ lifetime ----

static_assert(sizeof(Value) <= 40, "Value is a kind byte plus a 32-byte union");

/// One value of every kind, in Kind order. The heap kinds are non-empty
/// (the string past the small-string buffer) so a shallow copy, a leak or
/// a double free shows up, under the sanitizers too.
std::vector<Value> one_of_each_kind() {
    return {Value{},
            Value{true},
            Value{std::int64_t{-7}},
            Value{2.5},
            Value{std::string(40, 's')},
            Value{Bytes{1, 2, 3}},
            Value{List{Value{1}, Value{std::string(40, 'l')}}},
            Value{Dict{{"k", Value{List{Value{2}}}}}}};
}

TEST(ValueLifetime, CopyAndMoveMatrixOverAllKinds) {
    const std::vector<Value> samples = one_of_each_kind();
    ASSERT_EQ(samples.size(), 8u);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Value& src = samples[i];
        ASSERT_EQ(static_cast<std::size_t>(src.kind()), i);
        Value copied(src);
        EXPECT_EQ(copied, src);
        Value moved(std::move(copied));
        EXPECT_EQ(moved, src);
        // Every (from, to) kind pair: scalar<->scalar, scalar<->heap and
        // heap<->heap, same kind and different kinds.
        for (std::size_t j = 0; j < samples.size(); ++j) {
            SCOPED_TRACE("assign " + std::string(Value::kind_name(src.kind())) + " over " +
                         Value::kind_name(samples[j].kind()));
            Value copy_target = samples[j];
            copy_target = src;
            EXPECT_EQ(copy_target, src);
            Value move_target = samples[j];
            Value source = src;
            move_target = std::move(source);
            EXPECT_EQ(move_target, src);
            EXPECT_EQ(source.kind(), src.kind());
        }
    }
}

TEST(ValueLifetime, SelfAssignmentKeepsTheValue) {
    for (const Value& sample : one_of_each_kind()) {
        Value v = sample;
        Value& alias = v;
        v = alias;
        EXPECT_EQ(v, sample);
        v = std::move(alias);
        EXPECT_EQ(v, sample);
    }
}

TEST(ValueLifetime, AssignFromAValueItOwns) {
    // The right-hand side lives inside the left: it must be taken before
    // the left's old contents are destroyed.
    const Value inner{Dict{{"k", Value{std::string(40, 'd')}}}};
    Value v{List{inner, Value{2}}};
    v = v.as_list()[0];
    EXPECT_EQ(v, inner);
    Value w{List{Value{std::string(40, 'w')}, Value{3}}};
    w = std::move(w.as_list()[0]);
    EXPECT_EQ(w, Value{std::string(40, 'w')});
    Value x{List{Value{5}}};
    x = std::move(x.as_list()[0]);
    EXPECT_EQ(x, Value{5});
    Value y{List{Value{List{Value{6}}}}};
    y = std::move(y.as_list()[0]);
    EXPECT_EQ(y, (Value{List{Value{6}}}));
}

TEST(ValueLifetime, MovedFromKeepsItsKind) {
    for (const Value& sample : one_of_each_kind()) {
        Value source = sample;
        Value target(std::move(source));
        EXPECT_EQ(target, sample);
        EXPECT_EQ(source.kind(), sample.kind());
        switch (sample.kind()) {
            case Value::Kind::kNull:
            case Value::Kind::kBool:
            case Value::Kind::kInt:
            case Value::Kind::kReal: EXPECT_EQ(source, sample); break;  // copied
            case Value::Kind::kStr: break;  // valid but unspecified
            case Value::Kind::kBlob:
            case Value::Kind::kList:
            case Value::Kind::kDict: EXPECT_FALSE(source.truthy()); break;  // emptied
        }
        source = Value{1};  // still assignable
        EXPECT_EQ(source, Value{1});
    }
}

TEST(ValueLifetime, CopiesAreDeep) {
    const Value expected{
        List{Value{Dict{{"xs", Value{List{Value{1}, Value{std::string(40, 'x')}}}}}},
             Value{"s"}}};
    Value original = expected;
    Value copy = original;
    copy.as_list()[0].as_dict().set("xs", Value{List{}});
    copy.as_list()[0].as_dict().set("new", Value{2});
    copy.as_list()[1] = Value{7};
    copy.as_list().push_back(Value{});
    EXPECT_EQ(original, expected);
    Value assigned{Bytes{9}};
    assigned = original;
    assigned.as_list()[0].as_dict().set("xs", Value{3});
    EXPECT_EQ(original, expected);
    original.as_list().clear();
    EXPECT_EQ(assigned.as_list().size(), 2u);
}

TEST(Dict, SetFindErase) {
    Dict d;
    EXPECT_TRUE(d.empty());
    d.set("x", Value{1});
    d.set("a", Value{2});
    d.set("x", Value{3});  // overwrite
    EXPECT_EQ(d.size(), 2u);
    ASSERT_NE(d.find("x"), nullptr);
    EXPECT_EQ(d.find("x")->as_int(), 3);
    EXPECT_EQ(d.find("missing"), nullptr);
    EXPECT_EQ(d.at("a").as_int(), 2);
    EXPECT_THROW(d.at("missing"), TypeError);
    EXPECT_TRUE(d.erase("a"));
    EXPECT_FALSE(d.erase("a"));
    EXPECT_EQ(d.size(), 1u);
}

TEST(Dict, IterationIsSorted) {
    Dict d{{"zebra", Value{1}}, {"apple", Value{2}}, {"mango", Value{3}}};
    std::vector<std::string> keys;
    for (const auto& [k, _] : d) keys.push_back(k);
    EXPECT_EQ(keys, (std::vector<std::string>{"apple", "mango", "zebra"}));
}

TEST(ValueEncode, ScalarsRoundTrip) {
    for (const Value& v :
         {Value{}, Value{true}, Value{false}, Value{0}, Value{-1}, Value{INT64_MAX},
          Value{3.14159}, Value{-0.0}, Value{""}, Value{"hello"}, Value{Bytes{0, 255}}}) {
        EXPECT_EQ(Value::decode(std::span<const std::uint8_t>(v.encode())), v)
            << v.to_string();
    }
}

TEST(ValueEncode, NestedRoundTrip) {
    Value v{Dict{{"list", Value{List{Value{1}, Value{"two"}, Value{Dict{{"x", Value{}}}}}}},
                 {"blob", Value{Bytes{1, 2, 3}}}}};
    EXPECT_EQ(Value::decode(std::span<const std::uint8_t>(v.encode())), v);
}

TEST(ValueEncode, CanonicalAcrossInsertionOrder) {
    Dict d1;
    d1.set("a", Value{1});
    d1.set("b", Value{2});
    Dict d2;
    d2.set("b", Value{2});
    d2.set("a", Value{1});
    EXPECT_EQ(Value{d1}.encode(), Value{d2}.encode());
}

// Hand-built dict encoding: header, then (key, value) in the given order.
Bytes dict_bytes(const std::vector<std::pair<std::string, Value>>& entries) {
    Bytes out;
    codec::put_header(out, Value::Kind::kDict, entries.size());
    for (const auto& [k, v] : entries) {
        codec::put_key(out, k);
        v.encode(out);
    }
    return out;
}

TEST(ValueEncode, DecodingUnsortedDictEqualsSetBuilt) {
    Dict built;
    built.set("m", Value{1});
    built.set("b", Value{"two"});
    built.set("x", Value{List{Value{3}}});
    Value back = Value::decode(std::span<const std::uint8_t>(
        dict_bytes({{"m", Value{1}}, {"x", Value{List{Value{3}}}}, {"b", Value{"two"}}})));
    EXPECT_EQ(back, Value{built});
    // And it re-encodes canonically (sorted), not in wire order.
    EXPECT_EQ(back.encode(), Value{built}.encode());
}

TEST(ValueEncode, DecodingDuplicateKeysEqualsSetBuilt) {
    // set() semantics: the last occurrence of a key wins, wherever it sits.
    Dict built;
    built.set("a", Value{1});
    built.set("c", Value{2});
    built.set("a", Value{3});
    built.set("c", Value{4});
    built.set("b", Value{5});
    Value back = Value::decode(std::span<const std::uint8_t>(dict_bytes(
        {{"a", Value{1}}, {"c", Value{2}}, {"a", Value{3}}, {"c", Value{4}}, {"b", Value{5}}})));
    EXPECT_EQ(back, Value{built});
    EXPECT_EQ(back.as_dict().size(), 3u);
    EXPECT_EQ(back.as_dict().at("a"), Value{3});
    EXPECT_EQ(back.as_dict().at("c"), Value{4});
}

TEST(ValueEncode, WritersMatchValueEncoding) {
    Bytes out;
    codec::put_int(out, -7);
    codec::put_bool(out, true);
    codec::put_str(out, "hi");
    Bytes want = Value{-7}.encode();
    append(want, Value{true}.encode());
    append(want, Value{"hi"}.encode());
    EXPECT_EQ(out, want);
    EXPECT_EQ(codec::kIntSize, Value{-7}.encode().size());
    EXPECT_EQ(codec::kBoolSize, Value{true}.encode().size());
    EXPECT_EQ(codec::str_size("hi"), Value{"hi"}.encode().size());
}

TEST(ValueEncode, TruncatedInputThrows) {
    Bytes enc = Value{"hello"}.encode();
    enc.resize(enc.size() - 2);
    EXPECT_THROW(Value::decode(std::span<const std::uint8_t>(enc)), ParseError);
}

TEST(ValueEncode, UnknownTagThrows) {
    Bytes enc{0x7F};
    EXPECT_THROW(Value::decode(std::span<const std::uint8_t>(enc)), ParseError);
}

// Property sweep: random value trees survive encode/decode for many seeds.
class ValueRoundTrip : public ::testing::TestWithParam<std::uint64_t> {
protected:
    static Value random_value(Rng& rng, int depth) {
        int pick = static_cast<int>(rng.next_below(depth > 3 ? 6 : 8));
        switch (pick) {
            case 0: return Value{};
            case 1: return Value{rng.chance(0.5)};
            case 2: return Value{static_cast<std::int64_t>(rng.next_u64())};
            case 3: return Value{rng.next_double() * 1e6 - 5e5};
            case 4: {
                std::string s;
                for (std::uint64_t i = rng.next_below(20); i > 0; --i) {
                    s.push_back(static_cast<char>('a' + rng.next_below(26)));
                }
                return Value{std::move(s)};
            }
            case 5: {
                Bytes b;
                for (std::uint64_t i = rng.next_below(32); i > 0; --i) {
                    b.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
                }
                return Value{std::move(b)};
            }
            case 6: {
                List l;
                for (std::uint64_t i = rng.next_below(5); i > 0; --i) {
                    l.push_back(random_value(rng, depth + 1));
                }
                return Value{std::move(l)};
            }
            default: {
                Dict d;
                for (std::uint64_t i = rng.next_below(5); i > 0; --i) {
                    d.set("k" + std::to_string(rng.next_below(100)),
                          random_value(rng, depth + 1));
                }
                return Value{std::move(d)};
            }
        }
    }
};

TEST_P(ValueRoundTrip, EncodeDecodeIdentity) {
    Rng rng(GetParam());
    for (int i = 0; i < 50; ++i) {
        Value v = random_value(rng, 0);
        Value back = Value::decode(std::span<const std::uint8_t>(v.encode()));
        EXPECT_EQ(back, v) << v.to_string();
        // Canonical: re-encoding the decoded value gives identical bytes.
        EXPECT_EQ(back.encode(), v.encode());
    }
}

TEST_P(ValueRoundTrip, EncodedSizeMatchesEncoding) {
    Rng rng(GetParam());
    for (int i = 0; i < 50; ++i) {
        Value v = random_value(rng, 0);
        EXPECT_EQ(v.encoded_size(), v.encode().size()) << v.to_string();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace pmp::rt
