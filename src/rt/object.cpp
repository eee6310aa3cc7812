#include "rt/object.h"

#include "common/error.h"

namespace pmp::rt {

ServiceObject::ServiceObject(std::shared_ptr<TypeInfo> type, std::string instance_name)
    : type_(std::move(type)), name_(std::move(instance_name)) {
    fields_.reserve(type_->fields().size());
    for (const auto& field : type_->fields()) {
        fields_.push_back(field.decl().initial);
    }
}

Method& ServiceObject::require_method(std::string_view name) {
    Method* m = type_->method(name);
    if (!m) {
        throw TypeError("type '" + type_->name() + "' has no method '" + std::string(name) + "'");
    }
    return *m;
}

std::size_t ServiceObject::require_field(std::string_view name) const {
    std::size_t idx = type_->field_index(name);
    if (idx == SIZE_MAX) {
        throw TypeError("type '" + type_->name() + "' has no field '" + std::string(name) + "'");
    }
    return idx;
}

Value ServiceObject::call(std::string_view method, List args) {
    return require_method(method).invoke(*this, std::move(args));
}

Value ServiceObject::get(std::string_view field) {
    std::size_t idx = require_field(field);
    Value value = fields_[idx];
    Field& meta = type_->fields()[idx];
    if (meta.woven()) {
        meta.on_get(*this, value);
    }
    return value;
}

void ServiceObject::set(std::string_view field, Value value) {
    std::size_t idx = require_field(field);
    Field& meta = type_->fields()[idx];
    if (!value_matches(meta.decl().type, value)) {
        throw TypeError("field '" + meta.decl().name + "' expects " +
                        type_kind_name(meta.decl().type) + ", got " +
                        Value::kind_name(value.kind()));
    }
    if (meta.woven()) {
        meta.on_set(*this, fields_[idx], value);
    }
    fields_[idx] = std::move(value);
}

const Value& ServiceObject::peek(std::string_view field) const {
    return fields_[require_field(field)];
}

void ServiceObject::poke(std::string_view field, Value value) {
    fields_[require_field(field)] = std::move(value);
}

}  // namespace pmp::rt
