#include "rt/type.h"

#include <sstream>

#include "common/error.h"
#include "rt/epoch.h"
#include "rt/object.h"

namespace pmp::rt {

namespace {
/// Position of `name` in `names`; SIZE_MAX if absent.
std::size_t index_of(const std::vector<std::string>& names, std::string_view name) {
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == name) return i;
    }
    return SIZE_MAX;
}

// SmallVec is move-only (dispatch never copies); building an RCU snapshot
// aside is the one place a deep copy is needed.
template <typename Fn>
void copy_table(const HookTable<Fn>& from, HookTable<Fn>& to) {
    for (const auto& slot : from) to.push_back(HookSlot<Fn>{slot.owner, slot.priority, slot.fn});
}

// Shared empty snapshot for invoke_debugger_style on an un-woven method.
const AdviceTables& no_advice() {
    static const AdviceTables empty;
    return empty;
}
}  // namespace

const char* type_kind_name(TypeKind k) {
    switch (k) {
        case TypeKind::kAny: return "any";
        case TypeKind::kVoid: return "void";
        case TypeKind::kBool: return "bool";
        case TypeKind::kInt: return "int";
        case TypeKind::kReal: return "real";
        case TypeKind::kStr: return "str";
        case TypeKind::kBlob: return "blob";
        case TypeKind::kList: return "list";
        case TypeKind::kDict: return "dict";
    }
    return "?";
}

std::optional<TypeKind> parse_type_kind(std::string_view name) {
    if (name == "any") return TypeKind::kAny;
    if (name == "void") return TypeKind::kVoid;
    if (name == "bool") return TypeKind::kBool;
    if (name == "int") return TypeKind::kInt;
    if (name == "real") return TypeKind::kReal;
    if (name == "str") return TypeKind::kStr;
    if (name == "blob" || name == "bytes") return TypeKind::kBlob;
    if (name == "list") return TypeKind::kList;
    if (name == "dict") return TypeKind::kDict;
    return std::nullopt;
}

bool value_matches(TypeKind kind, const Value& v) {
    switch (kind) {
        case TypeKind::kAny: return true;
        case TypeKind::kVoid: return v.is_null();
        case TypeKind::kBool: return v.is_bool();
        case TypeKind::kInt: return v.is_int();
        case TypeKind::kReal: return v.is_number();
        case TypeKind::kStr: return v.is_str();
        case TypeKind::kBlob: return v.is_blob();
        case TypeKind::kList: return v.is_list();
        case TypeKind::kDict: return v.is_dict();
    }
    return false;
}

std::string MethodDecl::signature(std::string_view type_name) const {
    std::ostringstream os;
    os << type_kind_name(returns) << ' ' << type_name << '.' << name << '(';
    for (std::size_t i = 0; i < params.size(); ++i) {
        if (i) os << ", ";
        os << type_kind_name(params[i].type);
    }
    if (varargs) {
        if (!params.empty()) os << ", ";
        os << "..";
    }
    os << ')';
    return os.str();
}

// -------------------------------------------------------------- Method ----

void Method::validate(const List& args) const {
    if (decl_.varargs ? args.size() < decl_.params.size()
                      : args.size() != decl_.params.size()) {
        throw TypeError("method '" + decl_.name + "' expects " +
                        std::to_string(decl_.params.size()) +
                        (decl_.varargs ? "+ args, got " : " args, got ") +
                        std::to_string(args.size()));
    }
    for (std::size_t i = 0; i < decl_.params.size(); ++i) {
        if (!value_matches(decl_.params[i].type, args[i])) {
            throw TypeError("method '" + decl_.name + "' parameter '" + decl_.params[i].name +
                            "' expects " + type_kind_name(decl_.params[i].type) + ", got " +
                            Value::kind_name(args[i].kind()));
        }
    }
}

Method::~Method() { publish(nullptr); }

Value Method::invoke(ServiceObject& self, List args) {
    validate(args);
    // The minimal hook. When the method carries no advice this is the whole
    // cost of carrying the adaptation platform: one well-predicted load +
    // branch.
    const AdviceTables* tables = advice_.load(std::memory_order_acquire);
    if (tables == nullptr) [[likely]] return handler_(self, args);
    // Woven slow path: pin reclamation (no-op on epoch-covered worker
    // threads), then re-load — the snapshot read *under* the guard is one
    // whose retirement cannot have been reaped yet.
    EpochDomain::ReadGuard guard;
    tables = advice_.load(std::memory_order_seq_cst);
    if (tables == nullptr) return handler_(self, args);  // raced with withdraw
    return invoke_hooked(*tables, self, args);
}

Value Method::invoke_unhooked(ServiceObject& self, List args) {
    validate(args);
    return handler_(self, args);
}

Value Method::invoke_debugger_style(ServiceObject& self, List args) {
    validate(args);
    EpochDomain::ReadGuard guard;
    const AdviceTables* tables = advice_.load(std::memory_order_seq_cst);
    return invoke_hooked(tables ? *tables : no_advice(), self, args);  // no short-circuit
}

Value Method::invoke_hooked(const AdviceTables& tables, ServiceObject& self, List& args) {
    CallFrame frame{self, *this, args, Value{}, Dict{}};
    frame.result = run_advice_chain(tables, 0, frame, self, args);
    return frame.result;
}

Value Method::run_advice_chain(const AdviceTables& tables, std::size_t index, CallFrame& frame,
                               ServiceObject& self, List& args) {
    if (index == tables.around.size()) {
        // The innermost stage: entry advice, the original handler, exit
        // advice; error advice fires if any of those throw.
        try {
            for (const auto& slot : tables.entry) slot.fn(frame);
            frame.result = handler_(self, args);
            for (const auto& slot : tables.exit) slot.fn(frame);
        } catch (...) {
            auto error = std::current_exception();
            for (const auto& slot : tables.error) slot.fn(frame, error);
            throw;
        }
        return frame.result;
    }

    // Around advice at `index` wraps everything deeper in the table. Its
    // proceed() continuation re-enters this function at index + 1, so the
    // chain lives in the call stack instead of a per-dispatch tower of
    // heap-allocated closures. The lambda captures one pointer to a
    // stack-local context, which std::function keeps in its small-object
    // buffer — dispatch stays allocation-free however deep the advice
    // stack. The continuation is only valid during the hook call (as
    // before: proceed must not be stashed past the join point).
    struct Continuation {
        Method* method;
        const AdviceTables* tables;
        CallFrame* frame;
        ServiceObject* self;
        List* args;
        std::size_t next_index;
    } cont{this, &tables, &frame, &self, &args, index + 1};
    Continuation* ctx = &cont;
    const std::function<Value()> proceed = [ctx]() -> Value {
        return ctx->method->run_advice_chain(*ctx->tables, ctx->next_index, *ctx->frame,
                                             *ctx->self, *ctx->args);
    };
    return tables.around[index].fn(frame, proceed);
}

std::unique_ptr<AdviceTables> Method::copy_tables() const {
    auto next = std::make_unique<AdviceTables>();
    // The single-mutator contract makes this load the mutator's own last
    // publish — no torn or stale snapshot is possible.
    if (const AdviceTables* cur = advice_.load(std::memory_order_acquire)) {
        copy_table(cur->entry, next->entry);
        copy_table(cur->exit, next->exit);
        copy_table(cur->error, next->error);
        copy_table(cur->around, next->around);
    }
    return next;
}

void Method::publish(std::unique_ptr<AdviceTables> next) {
    const AdviceTables* fresh = (next != nullptr && !next->empty()) ? next.release() : nullptr;
    const AdviceTables* old = advice_.exchange(fresh, std::memory_order_seq_cst);
    if (old != nullptr) EpochDomain::global().retire([old] { delete old; });
}

void Method::add_entry_hook(HookOwner owner, int priority, EntryHook fn) {
    auto next = copy_tables();
    detail::insert_by_priority(next->entry, {owner, priority, std::move(fn)});
    publish(std::move(next));
}

void Method::add_exit_hook(HookOwner owner, int priority, ExitHook fn) {
    auto next = copy_tables();
    detail::insert_by_priority(next->exit, {owner, priority, std::move(fn)});
    publish(std::move(next));
}

void Method::add_error_hook(HookOwner owner, int priority, ErrorHook fn) {
    auto next = copy_tables();
    detail::insert_by_priority(next->error, {owner, priority, std::move(fn)});
    publish(std::move(next));
}

void Method::add_around_hook(HookOwner owner, int priority, AroundHook fn) {
    auto next = copy_tables();
    detail::insert_by_priority(next->around, {owner, priority, std::move(fn)});
    publish(std::move(next));
}

bool Method::remove_hooks(HookOwner owner) {
    if (advice_.load(std::memory_order_acquire) == nullptr) return false;
    auto next = copy_tables();
    bool removed = detail::remove_owner(next->entry, owner);
    removed |= detail::remove_owner(next->exit, owner);
    removed |= detail::remove_owner(next->error, owner);
    removed |= detail::remove_owner(next->around, owner);
    if (!removed) return false;  // nothing of `owner`'s here; keep the snapshot
    publish(std::move(next));
    return true;
}

// --------------------------------------------------------------- Field ----

Field::~Field() { publish(nullptr); }

std::unique_ptr<FieldHookTables> Field::copy_tables() const {
    auto next = std::make_unique<FieldHookTables>();
    if (const FieldHookTables* cur = hooks_.load(std::memory_order_acquire)) {
        copy_table(cur->set, next->set);
        copy_table(cur->get, next->get);
    }
    return next;
}

void Field::publish(std::unique_ptr<FieldHookTables> next) {
    const FieldHookTables* fresh = (next != nullptr && !next->empty()) ? next.release() : nullptr;
    const FieldHookTables* old = hooks_.exchange(fresh, std::memory_order_seq_cst);
    if (old != nullptr) EpochDomain::global().retire([old] { delete old; });
}

void Field::add_set_hook(HookOwner owner, int priority, FieldSetHook fn) {
    auto next = copy_tables();
    detail::insert_by_priority(next->set, {owner, priority, std::move(fn)});
    publish(std::move(next));
}

void Field::add_get_hook(HookOwner owner, int priority, FieldGetHook fn) {
    auto next = copy_tables();
    detail::insert_by_priority(next->get, {owner, priority, std::move(fn)});
    publish(std::move(next));
}

bool Field::remove_hooks(HookOwner owner) {
    if (hooks_.load(std::memory_order_acquire) == nullptr) return false;
    auto next = copy_tables();
    bool removed = detail::remove_owner(next->set, owner);
    removed |= detail::remove_owner(next->get, owner);
    if (!removed) return false;
    publish(std::move(next));
    return true;
}

void Field::on_set(ServiceObject& self, const Value& old_value, Value& new_value) {
    const FieldHookTables* tables = hooks_.load(std::memory_order_acquire);
    if (tables == nullptr) [[likely]] return;
    EpochDomain::ReadGuard guard;
    tables = hooks_.load(std::memory_order_seq_cst);
    if (tables == nullptr) return;
    for (const auto& slot : tables->set) slot.fn(self, decl_, old_value, new_value);
}

void Field::on_get(ServiceObject& self, Value& value) {
    const FieldHookTables* tables = hooks_.load(std::memory_order_acquire);
    if (tables == nullptr) [[likely]] return;
    EpochDomain::ReadGuard guard;
    tables = hooks_.load(std::memory_order_seq_cst);
    if (tables == nullptr) return;
    for (const auto& slot : tables->get) slot.fn(self, decl_, value);
}

// ------------------------------------------------------------ TypeInfo ----

TypeInfo::Builder& TypeInfo::Builder::extends(std::shared_ptr<TypeInfo> parent) {
    parent_ = std::move(parent);
    return *this;
}

TypeInfo::Builder& TypeInfo::Builder::method(std::string name, TypeKind returns,
                                             std::vector<ParamSpec> params,
                                             MethodHandler handler, bool varargs) {
    MethodDecl decl{std::move(name), returns, std::move(params), varargs};
    methods_.push_back(std::make_unique<Method>(std::move(decl), std::move(handler)));
    return *this;
}

TypeInfo::Builder& TypeInfo::Builder::field(std::string name, TypeKind type, Value initial) {
    fields_.push_back(Field{FieldDecl{std::move(name), type, std::move(initial)}});
    return *this;
}

std::shared_ptr<TypeInfo> TypeInfo::Builder::build() {
    auto type = std::shared_ptr<TypeInfo>(new TypeInfo());
    type->name_ = std::move(name_);
    type->parent_ = parent_;

    if (parent_) {
        // Copy-down inheritance: inherited members come first (stable field
        // layout for tooling), own declarations override by name.
        auto declares = [](const auto& owned, std::string_view member) {
            for (const auto& m : owned) {
                if constexpr (requires { m->decl(); }) {
                    if (m->decl().name == member) return true;
                } else {
                    if (m.decl().name == member) return true;
                }
            }
            return false;
        };
        for (const auto& parent_method : parent_->methods_) {
            if (!declares(methods_, parent_method->decl().name)) {
                type->methods_.push_back(parent_method->clone_unwoven());
            }
        }
        for (const Field& parent_field : parent_->fields_) {
            if (!declares(fields_, parent_field.decl().name)) {
                type->fields_.push_back(Field{parent_field.decl()});
            }
        }
    }
    for (auto& m : methods_) type->methods_.push_back(std::move(m));
    for (auto& f : fields_) type->fields_.push_back(std::move(f));
    for (const auto& m : type->methods_) {
        const std::string& name = m->decl().name;
        if (index_of(type->method_names_, name) != SIZE_MAX) {
            throw TypeError("duplicate method '" + name + "' in type '" + type->name_ + "'");
        }
        type->method_names_.push_back(name);
    }
    for (const Field& f : type->fields_) {
        const std::string& name = f.decl().name;
        if (index_of(type->field_names_, name) != SIZE_MAX) {
            throw TypeError("duplicate field '" + name + "' in type '" + type->name_ + "'");
        }
        type->field_names_.push_back(name);
    }
    return type;
}

bool TypeInfo::is_a(std::string_view ancestor_name) const {
    for (const TypeInfo* t = this; t != nullptr; t = t->parent_.get()) {
        if (t->name_ == ancestor_name) return true;
    }
    return false;
}

Method* TypeInfo::method(std::string_view name) {
    const std::size_t i = index_of(method_names_, name);
    return i == SIZE_MAX ? nullptr : methods_[i].get();
}

const Method* TypeInfo::method(std::string_view name) const {
    const std::size_t i = index_of(method_names_, name);
    return i == SIZE_MAX ? nullptr : methods_[i].get();
}

Field* TypeInfo::field(std::string_view name) {
    const std::size_t i = index_of(field_names_, name);
    return i == SIZE_MAX ? nullptr : &fields_[i];
}

const Field* TypeInfo::field(std::string_view name) const {
    const std::size_t i = index_of(field_names_, name);
    return i == SIZE_MAX ? nullptr : &fields_[i];
}

std::size_t TypeInfo::field_index(std::string_view name) const {
    return index_of(field_names_, name);
}

std::vector<Method*> TypeInfo::methods() {
    std::vector<Method*> out;
    out.reserve(methods_.size());
    for (auto& m : methods_) out.push_back(m.get());
    return out;
}

}  // namespace pmp::rt
