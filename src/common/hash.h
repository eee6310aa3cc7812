// Cheap deterministic non-cryptographic hashing.
//
// Used wherever the platform needs a stable, seed-free placement or jitter
// decision that must replay identically run to run: simulator shard
// placement (sim::ShardedSimulator), per-lease renewal phase jitter. Not for
// security (see pmp::crypto) and not for randomness (see pmp::Rng) — this
// is for *placement*, where the same key must land in the same place on
// every node that computes it.
#pragma once

#include <cstdint>
#include <string_view>

namespace pmp {

/// FNV-1a, 64-bit. Stable across platforms and runs.
constexpr std::uint64_t fnv1a64(std::string_view s) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/// Mix one more 64-bit word into a hash (for composite keys like
/// (registrar, lease) without building a string).
constexpr std::uint64_t fnv1a64_mix(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xffull;
        h *= 0x100000001b3ull;
    }
    return h;
}

/// Finalizing avalanche (the splitmix64 mixer). FNV-1a is stable but its
/// high bits barely move for keys that share a prefix ("hall/0", "hall/1");
/// run placements through this whenever bit *distribution* matters, not
/// just stability.
constexpr std::uint64_t hash_avalanche(std::uint64_t h) {
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return h;
}

}  // namespace pmp
