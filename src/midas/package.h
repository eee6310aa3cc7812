// Extension packages: the unit MIDAS distributes (paper §3.2).
//
// A package carries everything a receiver needs to adapt itself: the
// AdviceScript source, the bindings mapping advice kinds + pointcuts to
// script functions, shipped configuration, the capabilities the extension
// requests, and the names of implicit extensions it depends on (the paper's
// session-management example: installing access control automatically
// installs session management first). Packages are signed by the issuing
// authority; receivers verify the signature against their trust store
// before anything is compiled or woven.
#pragma once

#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "core/aspect.h"
#include "crypto/trust.h"
#include "rt/value.h"

namespace pmp::midas {

/// Maps one advice kind + pointcut to a script function.
struct PackageBinding {
    prose::AdviceKind kind;
    std::string pointcut;
    std::string function;
    int priority = 0;
};

struct ExtensionPackage {
    /// Logical identity: a newer version with the same name *replaces* the
    /// installed one (paper: "allow the replacement of obsolete extensions").
    std::string name;
    std::uint32_t version = 1;

    std::string script;
    std::vector<PackageBinding> bindings;
    rt::Value config;
    std::vector<std::string> capabilities;  ///< requested sandbox grants
    std::vector<std::string> implies;       ///< names of implicit prerequisites

    /// Canonical bytes covered by the signature.
    Bytes signed_payload() const;

    /// Payload + signature, as shipped over the radio.
    Bytes seal(const crypto::KeyStore& keys, const std::string& issuer) const;

    /// Parse a sealed package. Returns the package and its (unverified)
    /// signature; callers must verify against their trust store.
    static std::pair<ExtensionPackage, crypto::Signature> open(
        std::span<const std::uint8_t> sealed);

    /// Approximate shipped size (for benchmarks).
    std::size_t wire_size() const;
};

/// A receiver refusing a quarantined (name, version) says so with this
/// phrase; the installer on the far side of the rpc boundary (the lease
/// engine, midas/cell.h) recognises the refusal by it.
inline constexpr std::string_view kQuarantineRefusal = "is quarantined on this node";

inline bool is_quarantine_refusal(const std::exception& e) {
    return std::string_view{e.what()}.find(kQuarantineRefusal) != std::string_view::npos;
}

}  // namespace pmp::midas
