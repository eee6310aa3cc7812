#include "script/ops.h"

#include "common/error.h"

namespace pmp::script::ops {

using rt::Dict;
using rt::List;
using rt::Value;

void script_fail(const std::string& what, int line) {
    throw ScriptError(what + " (line " + std::to_string(line) + ")");
}

std::int64_t want_int(const Value& v, const char* what) {
    if (!v.is_int()) throw ScriptError(std::string(what) + " expects an int");
    return v.as_int();
}

const std::string& want_str(const Value& v, const char* what) {
    if (!v.is_str()) throw ScriptError(std::string(what) + " expects a str");
    return v.as_str();
}

std::string display(const Value& v) {
    return v.is_str() ? v.as_str() : v.to_string();
}

void tick_check(const Sandbox& sandbox, std::uint64_t steps, int line) {
    if (sandbox.deadline_steps != 0 && steps > sandbox.deadline_steps) {
        throw DeadlineExceeded("advice overran its watchdog deadline at line " +
                               std::to_string(line));
    }
    if (steps > sandbox.step_budget) {
        throw ResourceExhausted("script exceeded step budget at line " +
                                std::to_string(line));
    }
}

namespace {
bool numeric_pair(const Value& a, const Value& b) { return a.is_number() && b.is_number(); }
bool both_int(const Value& a, const Value& b) { return a.is_int() && b.is_int(); }
}  // namespace

Value binary(BinOp op, const Value& a, const Value& b, int line) {
    switch (op) {
        case BinOp::kAdd:
            if (both_int(a, b)) return Value{a.as_int() + b.as_int()};
            if (numeric_pair(a, b)) return Value{a.as_real() + b.as_real()};
            if (a.is_str() || b.is_str()) return Value{display(a) + display(b)};
            if (a.is_list() && b.is_list()) {
                List out = a.as_list();
                const List& more = b.as_list();
                out.insert(out.end(), more.begin(), more.end());
                return Value{std::move(out)};
            }
            script_fail("'+' expects numbers, strings or lists", line);
        case BinOp::kSub:
            if (both_int(a, b)) return Value{a.as_int() - b.as_int()};
            if (numeric_pair(a, b)) return Value{a.as_real() - b.as_real()};
            script_fail("'-' expects numbers", line);
        case BinOp::kMul:
            if (both_int(a, b)) return Value{a.as_int() * b.as_int()};
            if (numeric_pair(a, b)) return Value{a.as_real() * b.as_real()};
            script_fail("'*' expects numbers", line);
        case BinOp::kDiv:
            if (both_int(a, b)) {
                if (b.as_int() == 0) script_fail("integer division by zero", line);
                return Value{a.as_int() / b.as_int()};
            }
            if (numeric_pair(a, b)) {
                if (b.as_real() == 0.0) script_fail("division by zero", line);
                return Value{a.as_real() / b.as_real()};
            }
            script_fail("'/' expects numbers", line);
        case BinOp::kMod:
            if (both_int(a, b)) {
                if (b.as_int() == 0) script_fail("modulo by zero", line);
                return Value{a.as_int() % b.as_int()};
            }
            script_fail("'%' expects ints", line);
        case BinOp::kEq:
            if (numeric_pair(a, b)) return Value{a.as_real() == b.as_real()};
            return Value{a == b};
        case BinOp::kNe:
            if (numeric_pair(a, b)) return Value{a.as_real() != b.as_real()};
            return Value{!(a == b)};
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe: {
            int cmp;
            if (numeric_pair(a, b)) {
                double da = a.as_real(), db = b.as_real();
                cmp = da < db ? -1 : (da > db ? 1 : 0);
            } else if (a.is_str() && b.is_str()) {
                cmp = a.as_str().compare(b.as_str());
                cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
            } else {
                script_fail("comparison expects two numbers or two strings", line);
            }
            switch (op) {
                case BinOp::kLt: return Value{cmp < 0};
                case BinOp::kLe: return Value{cmp <= 0};
                case BinOp::kGt: return Value{cmp > 0};
                default: return Value{cmp >= 0};
            }
        }
        default: script_fail("internal: unknown binary op", line);
    }
}

Value negate(const Value& v, int line) {
    if (v.is_int()) return Value{-v.as_int()};
    if (v.is_real()) return Value{-v.as_real()};
    script_fail("unary '-' expects a number", line);
}

Value index_get(const Value& base, const Value& idx, int line) {
    if (base.is_list()) {
        const List& l = base.as_list();
        std::int64_t i = want_int(idx, "index");
        if (i < 0 || i >= static_cast<std::int64_t>(l.size())) {
            script_fail("list index " + std::to_string(i) + " out of range", line);
        }
        return l[static_cast<std::size_t>(i)];
    }
    if (base.is_dict()) {
        const Value* v = base.as_dict().find(want_str(idx, "dict index"));
        return v ? *v : Value{};  // missing keys read as null
    }
    if (base.is_str()) {
        const std::string& s = base.as_str();
        std::int64_t i = want_int(idx, "index");
        if (i < 0 || i >= static_cast<std::int64_t>(s.size())) {
            script_fail("string index out of range", line);
        }
        return Value{std::string(1, s[static_cast<std::size_t>(i)])};
    }
    script_fail("cannot index into " + std::string(Value::kind_name(base.kind())), line);
}

Value member_get(const Value& base, const std::string& name, int line) {
    if (base.is_dict()) {
        const Value* v = base.as_dict().find(name);
        return v ? *v : Value{};
    }
    script_fail("member access needs a dict", line);
}

Value* lval_index(Value* base, const Value& idx, int line) {
    if (base->is_list()) {
        List& l = base->as_list();
        std::int64_t i = want_int(idx, "index");
        if (i == static_cast<std::int64_t>(l.size())) {
            l.push_back(Value{});  // l[len(l)] = v appends
            return &l.back();
        }
        if (i < 0 || i > static_cast<std::int64_t>(l.size())) {
            script_fail("list index " + std::to_string(i) + " out of range", line);
        }
        return &l[static_cast<std::size_t>(i)];
    }
    if (base->is_dict()) {
        Dict& d = base->as_dict();
        const std::string& key = want_str(idx, "dict index");
        if (!d.contains(key)) d.set(key, Value{});
        // set() keeps the vector sorted; find() returns a stable pointer
        // valid until the next structural change.
        return const_cast<Value*>(d.find(key));
    }
    script_fail("cannot index into " + std::string(Value::kind_name(base->kind())), line);
}

Value* lval_member(Value* base, const std::string& name, int line) {
    if (!base->is_dict()) {
        script_fail("member assignment needs a dict", line);
    }
    Dict& d = base->as_dict();
    if (!d.contains(name)) d.set(name, Value{});
    return const_cast<Value*>(d.find(name));
}

List foreach_items(Value iterable, int line) {
    List items;
    if (iterable.is_list()) {
        items = std::move(iterable.as_list());
    } else if (iterable.is_dict()) {
        for (const auto& [k, _] : iterable.as_dict()) items.push_back(Value{k});
    } else {
        script_fail("for-in expects a list or dict", line);
    }
    return items;
}

}  // namespace pmp::script::ops
