// Service objects: instances of TypeInfo with per-instance field storage
// and optional native backing state.
#pragma once

#include <memory>
#include <string>

#include "common/error.h"
#include "rt/type.h"

namespace pmp::rt {

/// An instance of a service class. All invocations — local calls, remote
/// calls after unmarshaling, script calls — go through ServiceObject::call,
/// which is where PROSE's join points fire.
class ServiceObject {
public:
    ServiceObject(std::shared_ptr<TypeInfo> type, std::string instance_name);

    TypeInfo& type() { return *type_; }
    const TypeInfo& type() const { return *type_; }
    const std::shared_ptr<TypeInfo>& type_ptr() const { return type_; }

    /// Instance name, e.g. "motor:x" or "robot:1:1".
    const std::string& name() const { return name_; }

    /// Invoke through the platform dispatch path (minimal hook included).
    Value call(std::string_view method, List args = {});

    /// Field access. Reads and writes flow through the field's hook slot so
    /// state-change join points fire (the paper's quality-assurance
    /// extension intercepts robot state changes this way).
    Value get(std::string_view field);
    void set(std::string_view field, Value value);

    /// Raw field access bypassing hooks (used by native handlers that need
    /// to update state without re-entering advice).
    const Value& peek(std::string_view field) const;
    void poke(std::string_view field, Value value);

    /// Native backing state for handlers implemented in C++ (e.g. the motor
    /// physics model). The object keeps it alive.
    template <typename T>
    T& state() {
        if (!state_) throw TypeError("object '" + name_ + "' has no native state");
        return *static_cast<T*>(state_.get());
    }
    template <typename T, typename... Args>
    T& emplace_state(Args&&... args) {
        auto owned = std::make_shared<T>(std::forward<Args>(args)...);
        T& ref = *owned;
        state_ = std::move(owned);
        return ref;
    }
    /// Share state owned elsewhere (e.g. a device model also held by its
    /// controller). state<T>() must be called with the same T.
    template <typename T>
    void adopt_state(std::shared_ptr<T> state) {
        state_ = std::move(state);
    }

private:
    Method& require_method(std::string_view name);
    std::size_t require_field(std::string_view name) const;

    std::shared_ptr<TypeInfo> type_;
    std::string name_;
    std::vector<Value> fields_;  // parallel to TypeInfo::fields()
    std::shared_ptr<void> state_;
};

}  // namespace pmp::rt
