#include "script/sandbox.h"

#include <cmath>

#include "common/error.h"
#include "script/ops.h"

namespace pmp::script {

using ops::display;
using ops::want_int;
using ops::want_str;
using rt::Dict;
using rt::List;
using rt::Value;

void BuiltinRegistry::add(const std::string& name, const std::string& capability, Fn fn) {
    if (!own_) own_ = std::make_shared<Table>();
    else if (own_.use_count() > 1) own_ = std::make_shared<Table>(*own_);
    (*own_)[name] = Entry{capability, std::move(fn)};
}

const BuiltinRegistry::Entry* BuiltinRegistry::find(const std::string& name) const {
    if (own_) {
        if (auto it = own_->find(name); it != own_->end()) return &it->second;
    }
    return parent_ ? parent_->find(name) : nullptr;
}

BuiltinRegistry BuiltinRegistry::over(std::shared_ptr<const BuiltinRegistry> parent) const {
    BuiltinRegistry layer = *this;
    layer.parent_ = std::move(parent);
    return layer;
}

namespace {

BuiltinRegistry core_library() {
    BuiltinRegistry reg;

    reg.add("len", "", [](List& args) -> Value {
        if (args.size() != 1) throw ScriptError("len expects 1 arg");
        const Value& v = args[0];
        switch (v.kind()) {
            case Value::Kind::kStr: return Value{static_cast<std::int64_t>(v.as_str().size())};
            case Value::Kind::kBlob: return Value{static_cast<std::int64_t>(v.as_blob().size())};
            case Value::Kind::kList: return Value{static_cast<std::int64_t>(v.as_list().size())};
            case Value::Kind::kDict: return Value{static_cast<std::int64_t>(v.as_dict().size())};
            default: throw ScriptError("len expects str/blob/list/dict");
        }
    });

    reg.add("str", "", [](List& args) -> Value {
        if (args.size() != 1) throw ScriptError("str expects 1 arg");
        return Value{display(args[0])};
    });

    reg.add("int", "", [](List& args) -> Value {
        if (args.size() != 1) throw ScriptError("int expects 1 arg");
        const Value& v = args[0];
        if (v.is_int()) return v;
        if (v.is_real()) return Value{static_cast<std::int64_t>(v.as_real())};
        if (v.is_bool()) return Value{static_cast<std::int64_t>(v.as_bool() ? 1 : 0)};
        if (v.is_str()) {
            try {
                return Value{static_cast<std::int64_t>(std::stoll(v.as_str()))};
            } catch (...) {
                throw ScriptError("int: cannot parse '" + v.as_str() + "'");
            }
        }
        throw ScriptError("int expects a number, bool or str");
    });

    reg.add("real", "", [](List& args) -> Value {
        if (args.size() != 1) throw ScriptError("real expects 1 arg");
        const Value& v = args[0];
        if (v.is_number()) return Value{v.as_real()};
        if (v.is_str()) {
            try {
                return Value{std::stod(v.as_str())};
            } catch (...) {
                throw ScriptError("real: cannot parse '" + v.as_str() + "'");
            }
        }
        throw ScriptError("real expects a number or str");
    });

    reg.add("typeof", "", [](List& args) -> Value {
        if (args.size() != 1) throw ScriptError("typeof expects 1 arg");
        return Value{std::string(Value::kind_name(args[0].kind()))};
    });

    reg.add("push", "", [](List& args) -> Value {
        if (args.size() != 2) throw ScriptError("push expects (list, value)");
        if (!args[0].is_list()) throw ScriptError("push expects a list");
        List out = args[0].as_list();
        out.push_back(args[1]);
        return Value{std::move(out)};
    });

    reg.add("concat", "", [](List& args) -> Value {
        List out;
        for (const Value& v : args) {
            if (!v.is_list()) throw ScriptError("concat expects lists");
            const List& l = v.as_list();
            out.insert(out.end(), l.begin(), l.end());
        }
        return Value{std::move(out)};
    });

    reg.add("slice", "", [](List& args) -> Value {
        if (args.size() != 3) throw ScriptError("slice expects (list, start, end)");
        if (!args[0].is_list()) throw ScriptError("slice expects a list");
        const List& l = args[0].as_list();
        auto clamp = [&](std::int64_t i) {
            if (i < 0) i = 0;
            if (i > static_cast<std::int64_t>(l.size())) i = static_cast<std::int64_t>(l.size());
            return static_cast<std::size_t>(i);
        };
        std::size_t start = clamp(want_int(args[1], "slice"));
        std::size_t end = clamp(want_int(args[2], "slice"));
        if (start > end) start = end;
        return Value{List(l.begin() + start, l.begin() + end)};
    });

    reg.add("keys", "", [](List& args) -> Value {
        if (args.size() != 1 || !args[0].is_dict()) throw ScriptError("keys expects a dict");
        List out;
        for (const auto& [k, _] : args[0].as_dict()) out.push_back(Value{k});
        return Value{std::move(out)};
    });

    reg.add("contains", "", [](List& args) -> Value {
        if (args.size() != 2) throw ScriptError("contains expects 2 args");
        const Value& c = args[0];
        if (c.is_list()) {
            for (const Value& v : c.as_list()) {
                if (v == args[1]) return Value{true};
            }
            return Value{false};
        }
        if (c.is_dict()) return Value{c.as_dict().contains(want_str(args[1], "contains"))};
        if (c.is_str()) {
            return Value{c.as_str().find(want_str(args[1], "contains")) != std::string::npos};
        }
        throw ScriptError("contains expects list/dict/str");
    });

    reg.add("remove", "", [](List& args) -> Value {
        if (args.size() != 2 || !args[0].is_dict()) throw ScriptError("remove expects (dict, key)");
        Dict out = args[0].as_dict();
        out.erase(want_str(args[1], "remove"));
        return Value{std::move(out)};
    });

    reg.add("range", "", [](List& args) -> Value {
        std::int64_t lo = 0, hi = 0;
        if (args.size() == 1) {
            hi = want_int(args[0], "range");
        } else if (args.size() == 2) {
            lo = want_int(args[0], "range");
            hi = want_int(args[1], "range");
        } else {
            throw ScriptError("range expects 1 or 2 args");
        }
        List out;
        for (std::int64_t i = lo; i < hi; ++i) out.push_back(Value{i});
        return Value{std::move(out)};
    });

    reg.add("abs", "", [](List& args) -> Value {
        if (args.size() != 1 || !args[0].is_number()) throw ScriptError("abs expects a number");
        if (args[0].is_int()) return Value{args[0].as_int() < 0 ? -args[0].as_int() : args[0].as_int()};
        return Value{std::fabs(args[0].as_real())};
    });

    reg.add("min", "", [](List& args) -> Value {
        if (args.size() < 2) throw ScriptError("min expects >= 2 args");
        Value best = args[0];
        for (std::size_t i = 1; i < args.size(); ++i) {
            if (args[i].as_real() < best.as_real()) best = args[i];
        }
        return best;
    });

    reg.add("max", "", [](List& args) -> Value {
        if (args.size() < 2) throw ScriptError("max expects >= 2 args");
        Value best = args[0];
        for (std::size_t i = 1; i < args.size(); ++i) {
            if (args[i].as_real() > best.as_real()) best = args[i];
        }
        return best;
    });

    reg.add("floor", "", [](List& args) -> Value {
        if (args.size() != 1 || !args[0].is_number()) throw ScriptError("floor expects a number");
        return Value{static_cast<std::int64_t>(std::floor(args[0].as_real()))};
    });

    reg.add("sqrt", "", [](List& args) -> Value {
        if (args.size() != 1 || !args[0].is_number()) throw ScriptError("sqrt expects a number");
        return Value{std::sqrt(args[0].as_real())};
    });

    reg.add("substr", "", [](List& args) -> Value {
        if (args.size() != 3) throw ScriptError("substr expects (str, start, len)");
        const std::string& s = want_str(args[0], "substr");
        std::int64_t start = want_int(args[1], "substr");
        std::int64_t count = want_int(args[2], "substr");
        if (start < 0 || start > static_cast<std::int64_t>(s.size()) || count < 0) {
            throw ScriptError("substr out of range");
        }
        return Value{s.substr(static_cast<std::size_t>(start),
                              static_cast<std::size_t>(count))};
    });

    reg.add("find", "", [](List& args) -> Value {
        if (args.size() != 2) throw ScriptError("find expects (str, needle)");
        auto pos = want_str(args[0], "find").find(want_str(args[1], "find"));
        return Value{pos == std::string::npos ? std::int64_t{-1}
                                              : static_cast<std::int64_t>(pos)};
    });

    reg.add("split", "", [](List& args) -> Value {
        if (args.size() != 2) throw ScriptError("split expects (str, sep)");
        const std::string& s = want_str(args[0], "split");
        const std::string& sep = want_str(args[1], "split");
        if (sep.empty()) throw ScriptError("split separator must be non-empty");
        List out;
        std::size_t pos = 0;
        for (;;) {
            std::size_t next = s.find(sep, pos);
            if (next == std::string::npos) {
                out.push_back(Value{s.substr(pos)});
                return Value{std::move(out)};
            }
            out.push_back(Value{s.substr(pos, next - pos)});
            pos = next + sep.size();
        }
    });

    reg.add("join", "", [](List& args) -> Value {
        if (args.size() != 2 || !args[0].is_list()) throw ScriptError("join expects (list, sep)");
        const std::string& sep = want_str(args[1], "join");
        std::string out;
        const List& l = args[0].as_list();
        for (std::size_t i = 0; i < l.size(); ++i) {
            if (i) out += sep;
            out += display(l[i]);
        }
        return Value{std::move(out)};
    });

    return reg;
}

}  // namespace

BuiltinRegistry BuiltinRegistry::with_core() {
    static const auto core = std::make_shared<const BuiltinRegistry>(core_library());
    return BuiltinRegistry(core);
}

}  // namespace pmp::script
