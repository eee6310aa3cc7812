#include "specmini/suite.h"

#include <cmath>
#include <map>

#include "common/error.h"
#include "common/rng.h"

namespace pmp::specmini {

using rt::List;
using rt::TypeKind;
using rt::Value;

namespace {

// ----------------------------------------------------------- compress ----

/// Run-length compressor state: counts produced output bytes.
struct CompressState {
    int last = -1;
    std::uint32_t run = 0;
    std::uint64_t out_bytes = 0;

    std::int64_t put(std::int64_t byte) {
        if (byte == last && run < 255) {
            ++run;
            return 0;
        }
        std::int64_t emitted = last >= 0 ? 2 : 0;  // (value, count) pair
        out_bytes += emitted;
        last = static_cast<int>(byte);
        run = 1;
        return emitted;
    }
};

// ----------------------------------------------------------------- db ----

struct DbState {
    std::map<std::int64_t, std::int64_t> table;
};

// ---------------------------------------------------------------- ray ----

struct RayState {
    // A fixed little scene of spheres: (cx, cy, cz, r).
    static constexpr double spheres[4][4] = {
        {0, 0, 5, 1}, {2, 1, 8, 2}, {-3, -1, 12, 1.5}, {1, -2, 6, 0.5}};

    /// Nearest positive intersection distance, or -1.
    double trace(double ox, double oy, double dx, double dy) const {
        double dz = 1.0;
        double norm = std::sqrt(dx * dx + dy * dy + dz * dz);
        dx /= norm;
        dy /= norm;
        dz /= norm;
        double best = -1.0;
        for (const auto& s : spheres) {
            double lx = s[0] - ox, ly = s[1] - oy, lz = s[2];
            double tca = lx * dx + ly * dy + lz * dz;
            if (tca < 0) continue;
            double d2 = lx * lx + ly * ly + lz * lz - tca * tca;
            double r2 = s[3] * s[3];
            if (d2 > r2) continue;
            double thc = std::sqrt(r2 - d2);
            double t = tca - thc;
            if (t > 0 && (best < 0 || t < best)) best = t;
        }
        return best;
    }
};

// -------------------------------------------------------------- parse ----

/// Tiny tokenizer: counts identifiers, numbers and punctuation in a
/// character stream.
struct ParseState {
    enum class In { kNone, kWord, kNumber } in = In::kNone;
    std::uint64_t tokens = 0;

    std::int64_t feed(std::int64_t c) {
        bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
        bool digit = c >= '0' && c <= '9';
        std::int64_t completed = 0;
        if (alpha) {
            if (in != In::kWord) {
                if (in != In::kNone) completed = 1;
                in = In::kWord;
            }
        } else if (digit) {
            if (in == In::kNone) in = In::kNumber;
            // digits extend words too
        } else {
            if (in != In::kNone) completed = 1;
            in = In::kNone;
            if (c > ' ') ++tokens;  // punctuation is its own token
        }
        tokens += completed;
        return completed;
    }
};

void register_types(rt::Runtime& runtime) {
    if (runtime.find_type("SpecCompress")) return;

    runtime.register_type(
        rt::TypeInfo::Builder("SpecCompress")
            .method("put", TypeKind::kInt, {{"byte", TypeKind::kInt}},
                    [](rt::ServiceObject& self, List& args) -> Value {
                        return Value{self.state<CompressState>().put(args[0].as_int())};
                    })
            .method("out_bytes", TypeKind::kInt, {},
                    [](rt::ServiceObject& self, List&) -> Value {
                        return Value{
                            static_cast<std::int64_t>(self.state<CompressState>().out_bytes)};
                    })
            .build());

    runtime.register_type(
        rt::TypeInfo::Builder("SpecDb")
            .method("insert", TypeKind::kVoid,
                    {{"key", TypeKind::kInt}, {"value", TypeKind::kInt}},
                    [](rt::ServiceObject& self, List& args) -> Value {
                        self.state<DbState>().table[args[0].as_int()] = args[1].as_int();
                        return Value{};
                    })
            .method("get", TypeKind::kInt, {{"key", TypeKind::kInt}},
                    [](rt::ServiceObject& self, List& args) -> Value {
                        auto& table = self.state<DbState>().table;
                        auto it = table.find(args[0].as_int());
                        return Value{it == table.end() ? std::int64_t{-1} : it->second};
                    })
            .method("count_gt", TypeKind::kInt, {{"threshold", TypeKind::kInt}},
                    [](rt::ServiceObject& self, List& args) -> Value {
                        auto& table = self.state<DbState>().table;
                        std::int64_t n = 0;
                        for (auto it = table.upper_bound(args[0].as_int());
                             it != table.end(); ++it) {
                            ++n;
                        }
                        return Value{n};
                    })
            .build());

    runtime.register_type(
        rt::TypeInfo::Builder("SpecRay")
            .method("trace", TypeKind::kReal,
                    {{"ox", TypeKind::kReal},
                     {"oy", TypeKind::kReal},
                     {"dx", TypeKind::kReal},
                     {"dy", TypeKind::kReal}},
                    [](rt::ServiceObject& self, List& args) -> Value {
                        return Value{self.state<RayState>().trace(
                            args[0].as_real(), args[1].as_real(), args[2].as_real(),
                            args[3].as_real())};
                    })
            .build());

    runtime.register_type(
        rt::TypeInfo::Builder("SpecParse")
            .method("feed", TypeKind::kInt, {{"char", TypeKind::kInt}},
                    [](rt::ServiceObject& self, List& args) -> Value {
                        return Value{self.state<ParseState>().feed(args[0].as_int())};
                    })
            .method("tokens", TypeKind::kInt, {},
                    [](rt::ServiceObject& self, List&) -> Value {
                        return Value{
                            static_cast<std::int64_t>(self.state<ParseState>().tokens)};
                    })
            .build());
}

/// Dispatch through the selected mode.
Value call(rt::ServiceObject& obj, rt::Method& method, List args, DispatchMode mode) {
    return mode == DispatchMode::kHooked ? method.invoke(obj, std::move(args))
                                         : method.invoke_unhooked(obj, std::move(args));
}

}  // namespace

Suite::Suite(rt::Runtime& runtime) : runtime_(runtime) {
    register_types(runtime_);
    auto get_or_create = [&](const char* type, const char* name) {
        if (auto existing = runtime_.find_object(name)) return existing;
        return runtime_.create(type, name);
    };
    compress_ = get_or_create("SpecCompress", "spec.compress");
    compress_->emplace_state<CompressState>();
    db_ = get_or_create("SpecDb", "spec.db");
    db_->emplace_state<DbState>();
    ray_ = get_or_create("SpecRay", "spec.ray");
    ray_->emplace_state<RayState>();
    parse_ = get_or_create("SpecParse", "spec.parse");
    parse_->emplace_state<ParseState>();
}

const std::vector<std::string>& Suite::kernel_names() {
    static const std::vector<std::string> names{"compress", "db", "ray", "parse"};
    return names;
}

KernelResult Suite::run(const std::string& kernel, std::uint64_t scale, DispatchMode mode) {
    Rng rng(0xC0FFEEull ^ std::hash<std::string>{}(kernel));
    KernelResult result{kernel, 0, 0};

    if (kernel == "compress") {
        compress_->emplace_state<CompressState>();  // fresh run
        rt::Method& put = *compress_->type().method("put");
        for (std::uint64_t i = 0; i < scale; ++i) {
            // Runs of repeated bytes with pseudo-random lengths.
            std::int64_t byte = static_cast<std::int64_t>(rng.next_below(16));
            std::uint64_t run = 1 + rng.next_below(8);
            for (std::uint64_t j = 0; j < run && i < scale; ++j, ++i) {
                result.checksum +=
                    static_cast<std::uint64_t>(call(*compress_, put, {Value{byte}}, mode).as_int());
                ++result.calls;
            }
        }
    } else if (kernel == "db") {
        db_->emplace_state<DbState>();
        rt::Method& insert = *db_->type().method("insert");
        rt::Method& get = *db_->type().method("get");
        rt::Method& count_gt = *db_->type().method("count_gt");
        for (std::uint64_t i = 0; i < scale; ++i) {
            std::int64_t key = static_cast<std::int64_t>(rng.next_below(1024));
            switch (rng.next_below(8)) {
                case 0:
                    call(*db_, insert, {Value{key}, Value{static_cast<std::int64_t>(i)}},
                         mode);
                    break;
                case 1:
                    result.checksum += static_cast<std::uint64_t>(
                        call(*db_, count_gt, {Value{key}}, mode).as_int());
                    break;
                default:
                    result.checksum += static_cast<std::uint64_t>(
                        call(*db_, get, {Value{key}}, mode).as_int() + 1);
                    break;
            }
            ++result.calls;
        }
    } else if (kernel == "ray") {
        rt::Method& trace = *ray_->type().method("trace");
        for (std::uint64_t i = 0; i < scale; ++i) {
            double ox = rng.next_double() * 4 - 2;
            double oy = rng.next_double() * 4 - 2;
            double dx = rng.next_double() - 0.5;
            double dy = rng.next_double() - 0.5;
            double t = call(*ray_, trace,
                            {Value{ox}, Value{oy}, Value{dx}, Value{dy}}, mode)
                           .as_real();
            result.checksum += t > 0 ? static_cast<std::uint64_t>(t * 1000) : 1;
            ++result.calls;
        }
    } else if (kernel == "parse") {
        parse_->emplace_state<ParseState>();
        rt::Method& feed = *parse_->type().method("feed");
        static const char kText[] =
            "let x1 = foo(bar, 42); while (x1 < 100) { x1 = x1 + qux_7; } // demo\n";
        for (std::uint64_t i = 0; i < scale; ++i) {
            std::int64_t c = kText[i % (sizeof(kText) - 1)];
            result.checksum +=
                static_cast<std::uint64_t>(call(*parse_, feed, {Value{c}}, mode).as_int());
            ++result.calls;
        }
    } else {
        throw Error("unknown specmini kernel '" + kernel + "'");
    }
    return result;
}

std::vector<KernelResult> Suite::run_all(std::uint64_t scale, DispatchMode mode) {
    std::vector<KernelResult> out;
    for (const std::string& kernel : kernel_names()) {
        out.push_back(run(kernel, scale, mode));
    }
    return out;
}

}  // namespace pmp::specmini
