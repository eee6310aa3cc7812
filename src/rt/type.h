// Type metadata: the metaobject protocol the platform is built on.
//
// In the paper, PROSE leans on the JVM's JIT to plant *minimal hooks* at
// every potential join point of every loaded class. Our analog: every
// service class is described by a TypeInfo whose Methods and Fields carry a
// hook slot. Un-woven, a hook is a single predictable branch on a bool
// ("two native instructions"); woven, it runs the attached advice chains.
// The AOP engine (pmp::prose) installs and removes advice through the
// generic hook interfaces declared here — rt knows the firing protocol, not
// aspects.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rt/small_vec.h"
#include "rt/value.h"

namespace pmp::rt {

class ServiceObject;
class Method;

/// Declared parameter / return / field types. kAny opts out of checking.
enum class TypeKind : std::uint8_t {
    kAny,
    kVoid,
    kBool,
    kInt,
    kReal,
    kStr,
    kBlob,
    kList,
    kDict,
};

const char* type_kind_name(TypeKind k);

/// Parse "int", "str", ... ; returns std::nullopt for unknown names.
std::optional<TypeKind> parse_type_kind(std::string_view name);

/// Does `v` satisfy a declared kind? (kAny always; kReal also accepts Int.)
bool value_matches(TypeKind kind, const Value& v);

struct ParamSpec {
    std::string name;
    TypeKind type = TypeKind::kAny;
};

/// Declaration of one method: the unit pointcuts match against.
struct MethodDecl {
    std::string name;
    TypeKind returns = TypeKind::kVoid;
    std::vector<ParamSpec> params;
    bool varargs = false;  ///< accepts extra trailing arguments of any type

    /// "void Motor.forward(int)" — used in logs and join-point reports.
    std::string signature(std::string_view type_name) const;
};

struct FieldDecl {
    std::string name;
    TypeKind type = TypeKind::kAny;
    Value initial;
};

/// One in-flight invocation, visible to hooks. Entry hooks may rewrite
/// args (the paper's encryption example); exit hooks may inspect/replace
/// the result; any hook may throw to abort the call (access control).
struct CallFrame {
    ServiceObject& self;
    const Method& method;
    List& args;
    Value result;  ///< valid in exit hooks and after proceed()
    /// Per-call annotations: implicit context that cooperating extensions
    /// pass along one invocation (the paper's session information — an
    /// early hook extracts the caller identity here, a later access-control
    /// hook reads it). Cleared when the call completes.
    Dict notes;
};

using MethodHandler = std::function<Value(ServiceObject&, List&)>;
using EntryHook = std::function<void(CallFrame&)>;
using ExitHook = std::function<void(CallFrame&)>;
using ErrorHook = std::function<void(CallFrame&, std::exception_ptr)>;
/// Around advice: receives the frame and a proceed() continuation; its
/// return value becomes the call's result. It may skip proceed() entirely.
using AroundHook = std::function<Value(CallFrame&, const std::function<Value()>&)>;

using FieldSetHook =
    std::function<void(ServiceObject&, const FieldDecl&, const Value& old_value, Value& new_value)>;
using FieldGetHook = std::function<void(ServiceObject&, const FieldDecl&, Value& value)>;

/// Identifies which aspect installed a hook so it can be withdrawn again.
using HookOwner = std::uint64_t;

template <typename Fn>
struct HookSlot {
    HookOwner owner = 0;
    int priority = 0;  ///< lower fires earlier
    Fn fn;
};

/// Inline capacity of the per-member advice tables: up to this many hooks
/// per slot live inside the Method/Field itself (no heap allocation, same
/// cache lines as the minimal-hook flag). Real workloads rarely stack more
/// than two advice entries on one join point; beyond that the table spills.
inline constexpr std::size_t kInlineHookSlots = 2;

/// Flat, priority-sorted advice table for one hook slot.
template <typename Fn>
using HookTable = SmallVec<HookSlot<Fn>, kInlineHookSlots>;

namespace detail {
template <typename Fn>
void insert_by_priority(HookTable<Fn>& slots, HookSlot<Fn> slot) {
    auto it = slots.begin();
    while (it != slots.end() && it->priority <= slot.priority) ++it;
    slots.insert(it, std::move(slot));
}

template <typename Fn>
bool remove_owner(HookTable<Fn>& slots, HookOwner owner) {
    return slots.remove_if([owner](const HookSlot<Fn>& s) { return s.owner == owner; }) > 0;
}
}  // namespace detail

/// The complete advice state of one Method, published behind a single
/// atomic pointer (RCU). Snapshots are immutable once published: the
/// weaver copies the current snapshot, edits the copy, swaps the pointer,
/// and retires the old snapshot through rt::EpochDomain — so dispatch on
/// another shard can keep walking the old table through the grace period
/// while weave/withdraw proceed. nullptr stands for "no advice" and keeps
/// the un-woven minimal hook a single load + branch.
struct AdviceTables {
    HookTable<EntryHook> entry;
    HookTable<ExitHook> exit;
    HookTable<ErrorHook> error;
    HookTable<AroundHook> around;
    bool empty() const {
        return entry.empty() && exit.empty() && error.empty() && around.empty();
    }
};

/// Same discipline for Field hooks.
struct FieldHookTables {
    HookTable<FieldSetHook> set;
    HookTable<FieldGetHook> get;
    bool empty() const { return set.empty() && get.empty(); }
};

/// A callable method with its hook slot.
class Method {
public:
    Method(MethodDecl decl, MethodHandler handler)
        : decl_(std::move(decl)), handler_(std::move(handler)) {}
    ~Method();

    Method(const Method&) = delete;
    Method& operator=(const Method&) = delete;

    const MethodDecl& decl() const { return decl_; }

    /// Fresh copy with the same declaration and handler but pristine hook
    /// slots (used by copy-down inheritance: every class owns its methods,
    /// so weaving into "Motor" never leaks advice to sibling subclasses).
    std::unique_ptr<Method> clone_unwoven() const {
        return std::make_unique<Method>(decl_, handler_);
    }

    /// Full dispatch including the minimal hook (one branch when un-woven).
    Value invoke(ServiceObject& self, List args);

    /// Dispatch as if the adaptation platform were absent: no hook at all.
    /// Stays here because the E3 baseline (specmini's kUnhooked mode) must
    /// reach the private handler_ the same way invoke() does.
    Value invoke_unhooked(ServiceObject& self, List args);

    /// Debugger-style dispatch: unconditionally enter the interception
    /// machinery (build a frame, walk the — possibly empty — advice
    /// chains), the way the JVMDI-based first PROSE prototype intercepted
    /// every call whether or not advice was attached. Stays here because
    /// the v1-vs-v2 ablation row needs the private advice chain walk that
    /// invoke() itself runs; real dispatch is invoke().
    Value invoke_debugger_style(ServiceObject& self, List args);

    /// True if any advice is attached.
    bool woven() const { return advice_.load(std::memory_order_acquire) != nullptr; }

    // --- hook management (used by pmp::prose::Weaver) ---
    // Mutations follow the RCU discipline (copy, edit, publish, retire).
    // Contract: a single mutator per Method at a time — the weaver that
    // owns the node's runtime, running on that node's shard. Concurrent
    // *dispatch* from any thread is safe.
    void add_entry_hook(HookOwner owner, int priority, EntryHook fn);
    void add_exit_hook(HookOwner owner, int priority, ExitHook fn);
    void add_error_hook(HookOwner owner, int priority, ErrorHook fn);
    void add_around_hook(HookOwner owner, int priority, AroundHook fn);
    /// Remove every hook `owner` installed. Returns true if any was removed.
    bool remove_hooks(HookOwner owner);

private:
    void validate(const List& args) const;
    Value invoke_hooked(const AdviceTables& tables, ServiceObject& self, List& args);
    /// Runs tables.around[index..] then the core (entry advice, handler,
    /// exit advice; error advice on throw). proceed() continuations advance
    /// `index` instead of building a per-call closure chain.
    Value run_advice_chain(const AdviceTables& tables, std::size_t index, CallFrame& frame,
                           ServiceObject& self, List& args);
    /// Copy of the current snapshot (or a fresh empty one) for editing.
    std::unique_ptr<AdviceTables> copy_tables() const;
    /// Swap in `next` (normalized: empty -> nullptr), retire the old
    /// snapshot into the global epoch domain.
    void publish(std::unique_ptr<AdviceTables> next);

    MethodDecl decl_;
    MethodHandler handler_;
    /// The minimal hook: one acquire load, nullptr <=> un-woven.
    std::atomic<const AdviceTables*> advice_{nullptr};
};

/// A field with its hook slot. Values live per-instance in ServiceObject;
/// hooks (like advice generally) attach at the class level.
class Field {
public:
    explicit Field(FieldDecl decl) : decl_(std::move(decl)) {}
    ~Field();

    /// Moves happen only during single-threaded TypeInfo construction
    /// (fields live in a std::vector); woven Fields are never moved.
    Field(Field&& other) noexcept
        : decl_(std::move(other.decl_)),
          hooks_(other.hooks_.exchange(nullptr, std::memory_order_relaxed)) {}
    Field& operator=(Field&&) = delete;
    Field(const Field&) = delete;
    Field& operator=(const Field&) = delete;

    const FieldDecl& decl() const { return decl_; }
    bool woven() const { return hooks_.load(std::memory_order_acquire) != nullptr; }

    // Same RCU discipline and single-mutator contract as Method.
    void add_set_hook(HookOwner owner, int priority, FieldSetHook fn);
    void add_get_hook(HookOwner owner, int priority, FieldGetHook fn);
    bool remove_hooks(HookOwner owner);

    /// Fire hooks for a write; called by ServiceObject::set.
    void on_set(ServiceObject& self, const Value& old_value, Value& new_value);
    /// Fire hooks for a read; called by ServiceObject::get.
    void on_get(ServiceObject& self, Value& value);

private:
    std::unique_ptr<FieldHookTables> copy_tables() const;
    void publish(std::unique_ptr<FieldHookTables> next);

    FieldDecl decl_;
    std::atomic<const FieldHookTables*> hooks_{nullptr};
};

/// Class metadata: name, methods, fields. Shared by all instances of the
/// class; advice woven here affects every instance (class-level join
/// points, as in PROSE).
class TypeInfo {
public:
    /// Fluent construction:
    ///   auto type = TypeInfo::Builder("Motor")
    ///       .method("forward", TypeKind::kVoid, {{"power", TypeKind::kInt}}, handler)
    ///       .field("position", TypeKind::kReal, Value{0.0})
    ///       .build();
    class Builder {
    public:
        explicit Builder(std::string name) : name_(std::move(name)) {}

        /// Single inheritance: methods and fields of `parent` are inherited
        /// (own declarations override by name), and pointcut subtype
        /// patterns ("Device+") select this class through the parent chain
        /// — the paper's Device <- Motor/Sensor hierarchy.
        Builder& extends(std::shared_ptr<TypeInfo> parent);

        Builder& method(std::string name, TypeKind returns, std::vector<ParamSpec> params,
                        MethodHandler handler, bool varargs = false);
        Builder& field(std::string name, TypeKind type, Value initial = Value{});
        std::shared_ptr<TypeInfo> build();

    private:
        std::string name_;
        std::shared_ptr<TypeInfo> parent_;
        std::vector<std::unique_ptr<Method>> methods_;
        std::vector<Field> fields_;
    };

    const std::string& name() const { return name_; }

    /// Direct superclass; nullptr for roots. The weaver keeps the parent
    /// alive through this pointer, so hooks woven into inherited methods
    /// (which live in the parent's Method objects) stay valid.
    const std::shared_ptr<TypeInfo>& parent() const { return parent_; }

    /// True if this type is `ancestor_name` or inherits from it.
    bool is_a(std::string_view ancestor_name) const;

    /// nullptr if no such method; searches the inheritance chain. Method
    /// names are unique per type (no overloading, as in the script layer
    /// above); a subclass method with the same name overrides.
    Method* method(std::string_view name);
    const Method* method(std::string_view name) const;

    Field* field(std::string_view name);
    const Field* field(std::string_view name) const;
    /// Index of a field in per-instance storage; SIZE_MAX if absent.
    std::size_t field_index(std::string_view name) const;

    std::vector<Method*> methods();
    const std::vector<Field>& fields() const { return fields_; }
    std::vector<Field>& fields() { return fields_; }

private:
    friend class Builder;
    TypeInfo() = default;

    std::string name_;
    std::shared_ptr<TypeInfo> parent_;
    std::vector<std::unique_ptr<Method>> methods_;
    std::vector<Field> fields_;
    /// Parallel to methods_ / fields_: what method() and field_index()
    /// scan. A type declares a handful of members, and a scan of a flat
    /// name list (length first, then bytes) looks a std::string_view up
    /// faster than hashing it, and builds no std::string.
    std::vector<std::string> method_names_;
    std::vector<std::string> field_names_;
};

}  // namespace pmp::rt
