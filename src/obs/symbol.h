// Interned names.
//
// A Symbol is a handle to one process-wide, never-freed copy of a string:
// two Symbols of equal text share one address, so comparing, copying and
// hashing a Symbol is a pointer operation. Trace events record their
// component and operation names as Symbols (a ring slot stores two words,
// not two strings), and net::Message carries its kind as one (the router
// dispatches on the pointer). It lives in the lowest library because both
// obs and net use it.
//
// Interning costs a table lookup under a lock, so call sites intern once:
// hot paths hold Symbols (rpc's message kinds, a lease engine's component
// name). A string literal takes a cheaper path: a per-thread cache keyed
// by the literal's address, confirmed by comparing the text (a fixed-size
// compare, since the literal's length is part of its type), so
// `trace.instant("rt.rpc", ...)` costs a few compares rather than a lookup.
//
// The table only grows; it holds names (protocol kinds, component names,
// per-node labels), not data, so it is bounded by the names a run uses.
#pragma once

#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>

namespace pmp {

class Symbol {
public:
    /// The empty name.
    Symbol() : text_(&kEmpty) {}
    /// Literal path (see the file comment).
    template <std::size_t N>
    Symbol(const char (&text)[N]) {
        const LiteralEntry& e =
            literal_cache_[(reinterpret_cast<std::uintptr_t>(text) >> 3) & 255];
        if (e.key == text && e.text->size() == N - 1 &&
            std::memcmp(text, e.text->data(), N - 1) == 0) {
            text_ = e.text;
        } else {
            text_ = intern_literal(text, N);
        }
    }
    Symbol(std::string_view text) : text_(intern(text)) {}
    Symbol(const std::string& text) : text_(intern(text)) {}

    const std::string& str() const { return *text_; }
    std::size_t size() const { return text_->size(); }
    bool starts_with(std::string_view p) const { return text_->starts_with(p); }
    bool ends_with(std::string_view s) const { return text_->ends_with(s); }

    operator const std::string&() const { return *text_; }
    operator std::string_view() const { return *text_; }

    friend bool operator==(Symbol a, Symbol b) { return a.text_ == b.text_; }
    friend bool operator==(Symbol a, const char* b) { return *a.text_ == b; }
    friend bool operator==(Symbol a, std::string_view b) { return *a.text_ == b; }
    friend bool operator==(Symbol a, const std::string& b) { return *a.text_ == b; }
    friend std::ostream& operator<<(std::ostream& os, Symbol s) { return os << *s.text_; }

private:
    struct LiteralEntry {  ///< zero-initialized: no key matches
        const char* key;
        const std::string* text;
    };

    static const std::string* intern(std::string_view text);
    /// Interns `text` (an array of `n` chars, NUL-terminated within them)
    /// and caches it for this thread under the array's address.
    static const std::string* intern_literal(const char* text, std::size_t n);

    inline static const std::string kEmpty{};
    inline static thread_local LiteralEntry literal_cache_[256];

    const std::string* text_;
};

}  // namespace pmp
