// Dynamic value type of the metaobject runtime.
//
// Value plays the role Java's Object plays in the paper: the type of every
// method argument and result crossing the middleware, of marshaled RPC
// payloads, of AdviceScript values, and of extension configuration. It is a
// tree: scalars, byte blobs, lists and string-keyed dictionaries, with a
// canonical byte encoding (used both on the wire and as the signed payload
// of extension packages).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace pmp::rt {

class Value;

/// Ordered sequence of values.
using List = std::vector<Value>;

/// String-keyed mapping with deterministic (sorted) iteration order.
/// Implemented as a sorted vector so it works with the incomplete Value
/// type and encodes canonically (same content => same bytes => same MAC).
class Dict {
public:
    using Entry = std::pair<std::string, Value>;
    using const_iterator = std::vector<Entry>::const_iterator;

    Dict() = default;
    Dict(std::initializer_list<Entry> entries);

    /// Insert or overwrite. A key above every present key is appended
    /// without a search, so building a dict in key order (decoding a
    /// canonical encoding) is linear.
    void set(std::string key, Value value);

    /// nullptr if absent.
    const Value* find(std::string_view key) const;
    Value* find(std::string_view key);

    /// Reference to the value; throws TypeError if absent.
    const Value& at(std::string_view key) const;
    Value& at(std::string_view key);

    bool contains(std::string_view key) const { return find(key) != nullptr; }
    bool erase(std::string_view key);

    void reserve(std::size_t n) { entries_.reserve(n); }
    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    const_iterator begin() const { return entries_.begin(); }
    const_iterator end() const { return entries_.end(); }

    bool operator==(const Dict&) const;

private:
    std::vector<Entry>::iterator lower_bound(std::string_view key);
    std::vector<Entry>::const_iterator lower_bound(std::string_view key) const;

    std::vector<Entry> entries_;  // kept sorted by key
};

/// The dynamic value.
///
/// Representation: a kind byte plus a union. The null/bool/int/real arm is
/// one trivially copyable 8-byte scalar, so copying, moving, assigning and
/// destroying a scalar Value is a kind test and a word copy, all inline;
/// only the heap kinds (str/blob/list/dict) leave the header. Moving from a
/// Value leaves its kind in place: a scalar keeps its value, a heap kind
/// holds its member's moved-from state.
class Value {
public:
    enum class Kind : std::uint8_t {
        kNull = 0,
        kBool = 1,
        kInt = 2,
        kReal = 3,
        kStr = 4,
        kBlob = 5,
        kList = 6,
        kDict = 7,
    };

    Value() noexcept : kind_(Kind::kNull), scalar_{} {}
    Value(bool b) noexcept : kind_(Kind::kBool), scalar_{} { scalar_.b = b; }
    Value(std::int64_t i) noexcept : kind_(Kind::kInt), scalar_{} { scalar_.i = i; }
    Value(int i) noexcept : Value(static_cast<std::int64_t>(i)) {}
    Value(double d) noexcept : kind_(Kind::kReal), scalar_{} { scalar_.d = d; }
    Value(const char* s) : Value(std::string(s)) {}
    Value(std::string s) : kind_(Kind::kStr), str_(std::move(s)) {}
    Value(Bytes b) : kind_(Kind::kBlob), blob_(std::move(b)) {}
    Value(List l) : kind_(Kind::kList), list_(std::move(l)) {}
    Value(Dict d) : kind_(Kind::kDict), dict_(std::move(d)) {}

    Value(const Value& o) : kind_(o.kind_) {
        if (o.is_heap()) copy_heap(o);
        else scalar_ = o.scalar_;
    }
    Value(Value&& o) noexcept : kind_(o.kind_) {
        if (o.is_heap()) move_heap(std::move(o));
        else scalar_ = o.scalar_;
    }
    ~Value() {
        if (is_heap()) destroy_heap();
    }
    Value& operator=(const Value& o) {
        if (!is_heap() && !o.is_heap()) {
            kind_ = o.kind_;
            scalar_ = o.scalar_;
        } else if (this != &o) {
            assign_heap(Value(o));
        }
        return *this;
    }
    Value& operator=(Value&& o) noexcept {
        if (!is_heap() && !o.is_heap()) {
            kind_ = o.kind_;
            scalar_ = o.scalar_;
        } else if (this != &o) {
            assign_heap(std::move(o));
        }
        return *this;
    }

    Kind kind() const { return kind_; }
    static const char* kind_name(Kind k);

    bool is_null() const { return kind_ == Kind::kNull; }
    bool is_bool() const { return kind_ == Kind::kBool; }
    bool is_int() const { return kind_ == Kind::kInt; }
    bool is_real() const { return kind_ == Kind::kReal; }
    bool is_number() const { return is_int() || is_real(); }
    bool is_str() const { return kind_ == Kind::kStr; }
    bool is_blob() const { return kind_ == Kind::kBlob; }
    bool is_list() const { return kind_ == Kind::kList; }
    bool is_dict() const { return kind_ == Kind::kDict; }

    /// Inline non-throwing accessor: nullptr unless the value is an Int.
    /// For engine fast paths that cannot afford an out-of-line call.
    const std::int64_t* if_int() const { return is_int() ? &scalar_.i : nullptr; }

    /// Checked accessors; throw TypeError on kind mismatch.
    bool as_bool() const {
        if (!is_bool()) kind_error(Kind::kBool);
        return scalar_.b;
    }
    std::int64_t as_int() const {
        if (!is_int()) kind_error(Kind::kInt);
        return scalar_.i;
    }
    /// Numeric accessor: accepts both Int and Real.
    double as_real() const {
        if (is_real()) return scalar_.d;
        if (!is_int()) kind_error(Kind::kReal);
        return static_cast<double>(scalar_.i);
    }
    const std::string& as_str() const {
        if (!is_str()) kind_error(Kind::kStr);
        return str_;
    }
    const Bytes& as_blob() const {
        if (!is_blob()) kind_error(Kind::kBlob);
        return blob_;
    }
    const List& as_list() const {
        if (!is_list()) kind_error(Kind::kList);
        return list_;
    }
    List& as_list() {
        if (!is_list()) kind_error(Kind::kList);
        return list_;
    }
    const Dict& as_dict() const {
        if (!is_dict()) kind_error(Kind::kDict);
        return dict_;
    }
    Dict& as_dict() {
        if (!is_dict()) kind_error(Kind::kDict);
        return dict_;
    }

    /// Script truthiness: null/false/0/""/empty containers are false.
    bool truthy() const {
        switch (kind_) {
            case Kind::kNull: return false;
            case Kind::kBool: return scalar_.b;
            case Kind::kInt: return scalar_.i != 0;
            case Kind::kReal: return scalar_.d != 0.0;
            default: return !heap_empty();
        }
    }

    /// Kind-strict: Int 1 != Real 1.0, and NaN != NaN.
    bool operator==(const Value& o) const {
        if (kind_ != o.kind_) return false;
        switch (kind_) {
            case Kind::kNull: return true;
            case Kind::kBool: return scalar_.b == o.scalar_.b;
            case Kind::kInt: return scalar_.i == o.scalar_.i;
            case Kind::kReal: return scalar_.d == o.scalar_.d;
            default: return heap_equal(o);
        }
    }

    /// Human-readable JSON-like rendering (for logs and examples).
    std::string to_string() const;

    /// Canonical binary encoding (self-delimiting).
    void encode(Bytes& out) const;
    /// Encodes into a buffer sized by encoded_size(): one allocation.
    Bytes encode() const;
    /// Exact byte length of encode().
    std::size_t encoded_size() const;
    static Value decode(ByteReader& reader);
    static Value decode(std::span<const std::uint8_t> data);

private:
    /// The scalar arm: trivially copyable, so copying it copies whichever
    /// member is live (all bytes; constructors zero the unused ones).
    union Scalar {
        std::int64_t i;
        double d;
        bool b;
    };

    bool is_heap() const { return kind_ >= Kind::kStr; }

    [[noreturn]] void kind_error(Kind want) const;
    // Out of line: the heap kinds. Each requires is_heap().
    void copy_heap(const Value& o);
    void move_heap(Value&& o) noexcept;
    void destroy_heap() noexcept;
    /// Either side is a heap kind; `o` may live inside *this.
    void assign_heap(Value&& o) noexcept;
    bool heap_empty() const;
    bool heap_equal(const Value& o) const;

    Kind kind_;
    union {
        Scalar scalar_;
        std::string str_;
        Bytes blob_;
        List list_;
        Dict dict_;
    };
};

/// Writers for the canonical encoding, for code that emits a value's bytes
/// without building the Value first (the rpc envelopes). Value::encode is
/// made of the same writers. A dict written this way is canonical only if
/// its keys are written in ascending order.
namespace codec {
constexpr std::size_t kIntSize = 9;     ///< tag + u64
constexpr std::size_t kBoolSize = 2;    ///< tag + byte
constexpr std::size_t kHeaderSize = 5;  ///< list/dict tag + u32 count
constexpr std::size_t key_size(std::string_view key) { return 4 + key.size(); }
constexpr std::size_t str_size(std::string_view s) { return 5 + s.size(); }

void put_header(Bytes& out, Value::Kind kind, std::size_t count);  ///< list or dict
void put_key(Bytes& out, std::string_view key);
void put_int(Bytes& out, std::int64_t v);
void put_bool(Bytes& out, bool v);
void put_str(Bytes& out, std::string_view s);
}  // namespace codec

}  // namespace pmp::rt
