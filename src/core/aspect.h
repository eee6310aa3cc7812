// Aspects: first-class run-time extensions (paper §3.1).
//
// An Aspect bundles advice bindings — (pointcut, kind, action) triples —
// plus an optional withdraw handler that MIDAS invokes before the aspect is
// removed ("each extension is notified before leaving a proactive space so
// that it can execute a shut-down procedure").
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pointcut.h"

namespace pmp::prose {

enum class AdviceKind {
    kBefore,         ///< runs before the method body; may rewrite args or veto
    kAfter,          ///< runs after normal completion; sees/replaces the result
    kAfterThrowing,  ///< runs when the body (or earlier advice) throws
    kAround,         ///< wraps the execution; controls proceed()
    kFieldSet,       ///< runs on field writes; sees old value, may adjust new
    kFieldGet,       ///< runs on field reads; may adjust the value seen
};

const char* advice_kind_name(AdviceKind kind);

/// Why an aspect is being withdrawn — passed to the shutdown handler.
enum class WithdrawReason {
    kExplicit,       ///< host or base revoked it deliberately
    kLeaseExpired,   ///< the node left the proactive space (lease lapsed)
    kReplaced,       ///< a newer version of the same extension supersedes it
    kBaseRestarted,  ///< the issuing base restarted; this lease is from a
                     ///< previous epoch and a fresh install follows
    kQuarantined,    ///< the extension's advice kept crashing; the node
                     ///< withdrew it in self-defence
};

const char* withdraw_reason_name(WithdrawReason reason);

/// One advice binding. Exactly the member matching `kind` is set.
struct AdviceBinding {
    AdviceKind kind;
    Pointcut pointcut;
    int priority = 0;

    rt::EntryHook before;
    rt::ExitHook after;
    rt::ErrorHook after_throwing;
    rt::AroundHook around;
    rt::FieldSetHook field_set;
    rt::FieldGetHook field_get;
};

/// A run-time extension: named, holds advice bindings, knows how to shut
/// down. Build fluently:
///
///   auto logging = std::make_shared<Aspect>("logging");
///   logging->before("call(* Motor.*(..))",
///                   [](rt::CallFrame& f) { ... });
class Aspect {
public:
    explicit Aspect(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }

    Aspect& before(const std::string& pointcut, rt::EntryHook fn, int priority = 0);
    Aspect& after(const std::string& pointcut, rt::ExitHook fn, int priority = 0);
    Aspect& after_throwing(const std::string& pointcut, rt::ErrorHook fn, int priority = 0);
    Aspect& around(const std::string& pointcut, rt::AroundHook fn, int priority = 0);
    Aspect& on_field_set(const std::string& pointcut, rt::FieldSetHook fn, int priority = 0);
    Aspect& on_field_get(const std::string& pointcut, rt::FieldGetHook fn, int priority = 0);

    /// Pre-parsed overloads: callers that cache Pointcuts (e.g. the MIDAS
    /// receiver, which sees the same pointcut source across many package
    /// installs) skip the parse entirely. The string overloads delegate.
    Aspect& before(Pointcut pointcut, rt::EntryHook fn, int priority = 0);
    Aspect& after(Pointcut pointcut, rt::ExitHook fn, int priority = 0);
    Aspect& after_throwing(Pointcut pointcut, rt::ErrorHook fn, int priority = 0);
    Aspect& around(Pointcut pointcut, rt::AroundHook fn, int priority = 0);
    Aspect& on_field_set(Pointcut pointcut, rt::FieldSetHook fn, int priority = 0);
    Aspect& on_field_get(Pointcut pointcut, rt::FieldGetHook fn, int priority = 0);

    /// Install the shutdown procedure run at withdrawal.
    Aspect& on_withdraw(std::function<void(WithdrawReason)> fn);

    /// The host's controls on this aspect's advice, run by the weaver at
    /// its one composition point around every advice execution:
    ///   admit   — consulted first; false skips the advice for this join
    ///             point (around advice passes straight through to
    ///             proceed(), so the application call itself is untouched)
    ///   outcome — told nullptr on success or the escaping exception on
    ///             failure (which then propagates unchanged)
    /// Either may be empty. The MIDAS receiver binds its resource governor
    /// and quarantine ledger here. Set before weaving.
    struct Guard {
        std::function<bool()> admit;
        std::function<void(const std::exception*)> outcome;
    };
    Aspect& set_guard(Guard guard) {
        guard_ = std::move(guard);
        return *this;
    }
    const Guard& guard() const { return guard_; }

    const std::vector<AdviceBinding>& bindings() const { return bindings_; }
    void notify_withdraw(WithdrawReason reason);

private:
    std::string name_;
    std::vector<AdviceBinding> bindings_;
    std::function<void(WithdrawReason)> withdraw_fn_;
    Guard guard_;
};

}  // namespace pmp::prose
