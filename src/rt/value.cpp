#include "rt/value.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <utility>

#include "common/error.h"

namespace pmp::rt {

// ---------------------------------------------------------------- Dict ----

Dict::Dict(std::initializer_list<Entry> entries) {
    entries_.reserve(entries.size());
    for (const auto& e : entries) set(e.first, e.second);
}

std::vector<Dict::Entry>::iterator Dict::lower_bound(std::string_view key) {
    return std::lower_bound(entries_.begin(), entries_.end(), key,
                            [](const Entry& e, std::string_view k) { return e.first < k; });
}

std::vector<Dict::Entry>::const_iterator Dict::lower_bound(std::string_view key) const {
    return std::lower_bound(entries_.begin(), entries_.end(), key,
                            [](const Entry& e, std::string_view k) { return e.first < k; });
}

void Dict::set(std::string key, Value value) {
    if (entries_.empty() || entries_.back().first < key) {
        entries_.emplace_back(std::move(key), std::move(value));
        return;
    }
    auto it = lower_bound(key);
    if (it != entries_.end() && it->first == key) {
        it->second = std::move(value);
    } else {
        entries_.insert(it, Entry{std::move(key), std::move(value)});
    }
}

const Value* Dict::find(std::string_view key) const {
    auto it = lower_bound(key);
    if (it != entries_.end() && it->first == key) return &it->second;
    return nullptr;
}

Value* Dict::find(std::string_view key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
}

const Value& Dict::at(std::string_view key) const {
    if (const Value* v = find(key)) return *v;
    throw TypeError("dict has no key '" + std::string(key) + "'");
}

Value& Dict::at(std::string_view key) { return const_cast<Value&>(std::as_const(*this).at(key)); }

bool Dict::erase(std::string_view key) {
    auto it = lower_bound(key);
    if (it != entries_.end() && it->first == key) {
        entries_.erase(it);
        return true;
    }
    return false;
}

bool Dict::operator==(const Dict& other) const { return entries_ == other.entries_; }

// --------------------------------------------------------------- Value ----

const char* Value::kind_name(Kind k) {
    switch (k) {
        case Kind::kNull: return "null";
        case Kind::kBool: return "bool";
        case Kind::kInt: return "int";
        case Kind::kReal: return "real";
        case Kind::kStr: return "str";
        case Kind::kBlob: return "blob";
        case Kind::kList: return "list";
        case Kind::kDict: return "dict";
    }
    return "?";
}

void Value::kind_error(Kind want) const {
    throw TypeError(std::string("expected ") + kind_name(want) + ", got " + kind_name(kind_));
}

void Value::copy_heap(const Value& o) {
    switch (o.kind_) {
        case Kind::kStr: std::construct_at(&str_, o.str_); break;
        case Kind::kBlob: std::construct_at(&blob_, o.blob_); break;
        case Kind::kList: std::construct_at(&list_, o.list_); break;
        case Kind::kDict: std::construct_at(&dict_, o.dict_); break;
        default: break;
    }
}

void Value::move_heap(Value&& o) noexcept {
    switch (o.kind_) {
        case Kind::kStr: std::construct_at(&str_, std::move(o.str_)); break;
        case Kind::kBlob: std::construct_at(&blob_, std::move(o.blob_)); break;
        case Kind::kList: std::construct_at(&list_, std::move(o.list_)); break;
        case Kind::kDict: std::construct_at(&dict_, std::move(o.dict_)); break;
        default: break;
    }
}

void Value::destroy_heap() noexcept {
    switch (kind_) {
        case Kind::kStr: std::destroy_at(&str_); break;
        case Kind::kBlob: std::destroy_at(&blob_); break;
        case Kind::kList: std::destroy_at(&list_); break;
        case Kind::kDict: std::destroy_at(&dict_); break;
        default: break;
    }
}

void Value::assign_heap(Value&& o) noexcept {
    if (kind_ == o.kind_) {
        switch (kind_) {
            case Kind::kStr: str_ = std::move(o.str_); return;
            case Kind::kBlob: blob_ = std::move(o.blob_); return;
            case Kind::kList: list_ = std::move(o.list_); return;
            case Kind::kDict: dict_ = std::move(o.dict_); return;
            default: break;
        }
    }
    // Kinds differ: take `o` out first, since destroying our member may
    // destroy `o` (v = std::move(v.as_list()[0])).
    Value tmp(std::move(o));
    if (is_heap()) destroy_heap();
    kind_ = tmp.kind_;
    if (tmp.is_heap()) move_heap(std::move(tmp));
    else scalar_ = tmp.scalar_;
}

bool Value::heap_empty() const {
    switch (kind_) {
        case Kind::kStr: return str_.empty();
        case Kind::kBlob: return blob_.empty();
        case Kind::kList: return list_.empty();
        case Kind::kDict: return dict_.empty();
        default: return true;
    }
}

bool Value::heap_equal(const Value& o) const {
    switch (kind_) {
        case Kind::kStr: return str_ == o.str_;
        case Kind::kBlob: return blob_ == o.blob_;
        case Kind::kList: return list_ == o.list_;
        case Kind::kDict: return dict_ == o.dict_;
        default: return false;
    }
}

namespace {
void quote_into(std::ostream& os, const std::string& s) {
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\') os << '\\';
        os << c;
    }
    os << '"';
}
}  // namespace

std::string Value::to_string() const {
    std::ostringstream os;
    switch (kind()) {
        case Kind::kNull: os << "null"; break;
        case Kind::kBool: os << (scalar_.b ? "true" : "false"); break;
        case Kind::kInt: os << scalar_.i; break;
        case Kind::kReal: os << scalar_.d; break;
        case Kind::kStr: quote_into(os, str_); break;
        case Kind::kBlob:
            os << "blob(" << hex_encode(std::span<const std::uint8_t>(blob_)) << ")";
            break;
        case Kind::kList: {
            os << '[';
            for (std::size_t i = 0; i < list_.size(); ++i) {
                if (i) os << ", ";
                os << list_[i].to_string();
            }
            os << ']';
            break;
        }
        case Kind::kDict: {
            os << '{';
            bool first = true;
            for (const auto& [k, v] : dict_) {
                if (!first) os << ", ";
                first = false;
                quote_into(os, k);
                os << ": " << v.to_string();
            }
            os << '}';
            break;
        }
    }
    return os.str();
}

namespace codec {

void put_header(Bytes& out, Value::Kind kind, std::size_t count) {
    out.push_back(static_cast<std::uint8_t>(kind));
    append_u32(out, static_cast<std::uint32_t>(count));
}

void put_key(Bytes& out, std::string_view key) {
    append_u32(out, static_cast<std::uint32_t>(key.size()));
    append(out, as_bytes(key));
}

void put_int(Bytes& out, std::int64_t v) {
    out.push_back(static_cast<std::uint8_t>(Value::Kind::kInt));
    append_u64(out, static_cast<std::uint64_t>(v));
}

void put_bool(Bytes& out, bool v) {
    out.push_back(static_cast<std::uint8_t>(Value::Kind::kBool));
    out.push_back(v ? 1 : 0);
}

void put_str(Bytes& out, std::string_view s) {
    out.push_back(static_cast<std::uint8_t>(Value::Kind::kStr));
    put_key(out, s);
}

}  // namespace codec

void Value::encode(Bytes& out) const {
    switch (kind_) {
        case Kind::kNull: out.push_back(static_cast<std::uint8_t>(kind_)); break;
        case Kind::kBool: codec::put_bool(out, scalar_.b); break;
        case Kind::kInt: codec::put_int(out, scalar_.i); break;
        case Kind::kReal: {
            std::uint64_t bits;
            static_assert(sizeof(bits) == sizeof(scalar_.d));
            std::memcpy(&bits, &scalar_.d, sizeof(bits));
            out.push_back(static_cast<std::uint8_t>(kind_));
            append_u64(out, bits);
            break;
        }
        case Kind::kStr: codec::put_str(out, str_); break;
        case Kind::kBlob:
            out.push_back(static_cast<std::uint8_t>(kind_));
            append_u32(out, static_cast<std::uint32_t>(blob_.size()));
            append(out, std::span<const std::uint8_t>(blob_));
            break;
        case Kind::kList:
            codec::put_header(out, kind_, list_.size());
            for (const auto& v : list_) v.encode(out);
            break;
        case Kind::kDict:
            codec::put_header(out, kind_, dict_.size());
            for (const auto& [k, v] : dict_) {
                codec::put_key(out, k);
                v.encode(out);
            }
            break;
    }
}

Bytes Value::encode() const {
    Bytes out;
    out.reserve(encoded_size());
    encode(out);
    return out;
}

std::size_t Value::encoded_size() const {
    switch (kind_) {
        case Kind::kNull: return 1;
        case Kind::kBool: return codec::kBoolSize;
        case Kind::kInt:
        case Kind::kReal: return codec::kIntSize;
        case Kind::kStr: return codec::str_size(str_);
        case Kind::kBlob: return 5 + blob_.size();
        case Kind::kList: {
            std::size_t n = codec::kHeaderSize;
            for (const auto& v : list_) n += v.encoded_size();
            return n;
        }
        case Kind::kDict: {
            std::size_t n = codec::kHeaderSize;
            for (const auto& [k, v] : dict_) n += codec::key_size(k) + v.encoded_size();
            return n;
        }
    }
    return 1;
}

Value Value::decode(ByteReader& reader) {
    auto tag = reader.read(1)[0];
    switch (static_cast<Kind>(tag)) {
        case Kind::kNull: return Value{};
        case Kind::kBool: return Value{reader.read(1)[0] != 0};
        case Kind::kInt: return Value{static_cast<std::int64_t>(reader.read_u64())};
        case Kind::kReal: {
            std::uint64_t bits = reader.read_u64();
            double d;
            std::memcpy(&d, &bits, sizeof(d));
            return Value{d};
        }
        case Kind::kStr: {
            std::uint32_t n = reader.read_u32();
            return Value{reader.read_string(n)};
        }
        case Kind::kBlob: {
            std::uint32_t n = reader.read_u32();
            auto span = reader.read(n);
            return Value{Bytes(span.begin(), span.end())};
        }
        case Kind::kList: {
            std::uint32_t n = reader.read_u32();
            // A hostile length prefix must not drive allocation: every
            // element needs at least its one-byte tag, so n can never
            // exceed the bytes actually present.
            if (n > reader.remaining()) {
                throw ParseError("list length exceeds available bytes", 0, 0);
            }
            List list;
            list.reserve(n);
            for (std::uint32_t i = 0; i < n; ++i) list.push_back(decode(reader));
            return Value{std::move(list)};
        }
        case Kind::kDict: {
            std::uint32_t n = reader.read_u32();
            if (n > reader.remaining()) {
                throw ParseError("dict size exceeds available bytes", 0, 0);
            }
            // Canonical encodings list keys in order, so set() appends;
            // out-of-order or duplicate keys still land where set() puts them.
            Dict dict;
            dict.reserve(n);
            for (std::uint32_t i = 0; i < n; ++i) {
                std::uint32_t klen = reader.read_u32();
                std::string key = reader.read_string(klen);
                dict.set(std::move(key), decode(reader));
            }
            return Value{std::move(dict)};
        }
    }
    throw ParseError("unknown value tag " + std::to_string(tag), 0, 0);
}

Value Value::decode(std::span<const std::uint8_t> data) {
    ByteReader reader(data);
    return decode(reader);
}

}  // namespace pmp::rt
