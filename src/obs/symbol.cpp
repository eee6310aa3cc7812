#include "obs/symbol.h"

#include <deque>
#include <mutex>
#include <unordered_map>

namespace pmp {

namespace {

struct Table {
    std::mutex mu;
    std::deque<std::string> texts;  // stable addresses; never shrinks
    std::unordered_map<std::string_view, const std::string*> index;
};

Table& table() {
    static Table* t = new Table();  // leaked: Symbols outlive static teardown
    return *t;
}

}  // namespace

const std::string* Symbol::intern(std::string_view text) {
    if (text.empty()) return &kEmpty;
    Table& t = table();
    std::lock_guard<std::mutex> lock(t.mu);
    auto it = t.index.find(text);
    if (it != t.index.end()) return it->second;
    const std::string* stored = &t.texts.emplace_back(text);
    t.index.emplace(*stored, stored);
    return stored;
}

const std::string* Symbol::intern_literal(const char* text, std::size_t n) {
    const std::string* stored = intern(std::string_view(text, strnlen(text, n)));
    literal_cache_[(reinterpret_cast<std::uintptr_t>(text) >> 3) & 255] =
        LiteralEntry{text, stored};
    return stored;
}

}  // namespace pmp
