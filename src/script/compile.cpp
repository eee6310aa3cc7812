#include "script/compile.h"

#include <bit>
#include <utility>

namespace pmp::script {

namespace {

/// Interning tables shared by every chunk of one unit.
class UnitBuilder {
public:
    explicit UnitBuilder(std::shared_ptr<const Program> program)
        : unit_(std::make_shared<CompiledUnit>()) {
        unit_->program = std::move(program);
    }

    CompiledUnit& unit() { return *unit_; }
    const Program& program() const { return *unit_->program; }

    std::int32_t constant(rt::Value v) {
        // Literals are null/bool/int/real/str; intern by a type-tagged key
        // so 1, 1.0 and "1" stay distinct (reals keyed by bit pattern).
        std::string key;
        if (v.is_null()) {
            key = "n";
        } else if (v.is_bool()) {
            key = v.as_bool() ? "b1" : "b0";
        } else if (v.is_int()) {
            key = "i" + std::to_string(v.as_int());
        } else if (v.is_real()) {
            key = "d" + std::to_string(std::bit_cast<std::uint64_t>(v.as_real()));
        } else if (v.is_str()) {
            key = "s" + v.as_str();
        } else {
            unit_->constants.push_back(std::move(v));
            return static_cast<std::int32_t>(unit_->constants.size() - 1);
        }
        auto [it, fresh] = constant_index_.try_emplace(key, unit_->constants.size());
        if (fresh) unit_->constants.push_back(std::move(v));
        return static_cast<std::int32_t>(it->second);
    }

    std::int32_t name(const std::string& s) {
        auto [it, fresh] = name_index_.try_emplace(s, unit_->names.size());
        if (fresh) unit_->names.push_back(s);
        return static_cast<std::int32_t>(it->second);
    }

    std::int32_t builtin(const std::string& s) {
        auto [it, fresh] = builtin_index_.try_emplace(s, unit_->builtin_names.size());
        if (fresh) unit_->builtin_names.push_back(s);
        return static_cast<std::int32_t>(it->second);
    }

    /// First function with this name, mirroring Program::find_function.
    std::int32_t fn_index(const std::string& s) const {
        const auto& fns = unit_->program->functions;
        for (std::size_t i = 0; i < fns.size(); ++i) {
            if (fns[i].name == s) return static_cast<std::int32_t>(i);
        }
        return -1;
    }

    std::shared_ptr<CompiledUnit> take() { return std::move(unit_); }

private:
    std::shared_ptr<CompiledUnit> unit_;
    std::unordered_map<std::string, std::size_t> constant_index_;
    std::unordered_map<std::string, std::size_t> name_index_;
    std::unordered_map<std::string, std::size_t> builtin_index_;
};

/// Compiles one Chunk (a function body or the top level).
///
/// Lexical blocks map to slot ranges: entering a block records the slot
/// watermark, leaving it rewinds, so sibling blocks reuse slots. A read
/// that lexically precedes any `let` of that name compiles to a by-name
/// global access — exactly the interpreter's scope-walk fallback — and a
/// read after a `let` compiles to the slot, which is sound because within
/// a block, reaching a statement after a `let` implies the `let` ran.
class ChunkCompiler {
public:
    ChunkCompiler(UnitBuilder& u, bool top_level) : u_(u), top_(top_level) {}

    Chunk compile_function(const FunctionDecl& fn) {
        chunk_.name = fn.name;
        chunk_.n_params = static_cast<int>(fn.params.size());
        fn_name_ = fn.name;
        enter_block();  // parameter scope
        for (const auto& p : fn.params) declare(p);
        enter_block();  // body block (Interpreter::call_function + exec_block)
        for (const auto& s : fn.body) stmt(*s);
        exit_block();
        exit_block();
        emit(Op::kReturnNull);
        chunk_.n_slots = max_slots_;
        return std::move(chunk_);
    }

    Chunk compile_top(const std::vector<StmtPtr>& stmts) {
        for (const auto& s : stmts) stmt(*s);
        emit(Op::kReturnNull);
        chunk_.n_slots = max_slots_;
        return std::move(chunk_);
    }

private:
    struct Local {
        std::string name;
        int slot;
    };
    struct Block {
        std::size_t locals_base;
        int slot_base;
    };
    struct Loop {
        std::size_t continue_target;
        std::vector<std::size_t> break_fixups;
    };

    std::size_t here() const { return chunk_.code.size(); }

    std::size_t emit(Op op, std::int32_t a = 0, std::int32_t b = 0, std::int32_t line = 0) {
        chunk_.code.push_back(Insn{op, a, b, line});
        return chunk_.code.size() - 1;
    }

    void patch(std::size_t at, std::size_t target) {
        chunk_.code[at].a = static_cast<std::int32_t>(target);
    }

    void enter_block() { blocks_.push_back(Block{locals_.size(), next_slot_}); }

    void exit_block() {
        locals_.resize(blocks_.back().locals_base);
        next_slot_ = blocks_.back().slot_base;
        blocks_.pop_back();
    }

    int new_slot() {
        int s = next_slot_++;
        if (next_slot_ > max_slots_) max_slots_ = next_slot_;
        return s;
    }

    /// Declare in the current block; a repeated `let` of the same name in
    /// the same block overwrites the same variable, so reuse its slot.
    int declare(const std::string& name) {
        for (std::size_t i = locals_.size(); i-- > blocks_.back().locals_base;) {
            if (locals_[i].name == name) return locals_[i].slot;
        }
        int s = new_slot();
        locals_.push_back(Local{name, s});
        return s;
    }

    /// Bind `name` to a pre-reserved slot (for-in loop variable).
    void declare_fixed(const std::string& name, int slot) {
        locals_.push_back(Local{name, slot});
    }

    int resolve(const std::string& name) const {
        for (std::size_t i = locals_.size(); i-- > 0;) {
            if (locals_[i].name == name) return locals_[i].slot;
        }
        return -1;
    }

    std::string in_fn_suffix() const {
        return top_ ? std::string{} : " in '" + fn_name_ + "'";
    }

    void compile_block(const std::vector<StmtPtr>& body) {
        enter_block();
        for (const auto& s : body) stmt(*s);
        exit_block();
    }

    void stmt(const Stmt& s) {
        emit(Op::kTick, 1, 0, s.line);
        switch (s.kind) {
            case Stmt::Kind::kLet: {
                expr(*s.expr);
                if (top_ && blocks_.empty()) {
                    emit(Op::kLetGlobal, u_.name(s.name));
                } else {
                    emit(Op::kStoreLocal, declare(s.name));
                }
                return;
            }
            case Stmt::Kind::kAssign: {
                expr(*s.expr);
                compile_store(*s.target);
                return;
            }
            case Stmt::Kind::kExpr:
                expr(*s.expr);
                emit(Op::kPop);
                return;
            case Stmt::Kind::kIf: {
                expr(*s.expr);
                std::size_t jf = emit(Op::kJumpIfFalse);
                compile_block(s.body);
                if (s.else_body.empty()) {
                    patch(jf, here());
                    return;
                }
                std::size_t j = emit(Op::kJump);
                patch(jf, here());
                compile_block(s.else_body);
                patch(j, here());
                return;
            }
            case Stmt::Kind::kWhile: {
                std::size_t cond_ip = here();
                expr(*s.expr);
                std::size_t jf = emit(Op::kJumpIfFalse);
                loops_.push_back(Loop{cond_ip, {}});
                compile_block(s.body);
                emit(Op::kJump, static_cast<std::int32_t>(cond_ip));
                std::size_t end = here();
                patch(jf, end);
                for (std::size_t brk : loops_.back().break_fixups) patch(brk, end);
                loops_.pop_back();
                return;
            }
            case Stmt::Kind::kForIn: {
                expr(*s.expr);
                // Three consecutive slots: items, cursor, loop variable.
                int base = next_slot_;
                next_slot_ += 3;
                if (next_slot_ > max_slots_) max_slots_ = next_slot_;
                emit(Op::kForPrep, base, 0, s.line);
                std::size_t next_ip = here();
                std::size_t fn = emit(Op::kForNext, 0, base);
                loops_.push_back(Loop{next_ip, {}});
                enter_block();
                declare_fixed(s.name, base + 2);
                for (const auto& inner : s.body) stmt(*inner);
                exit_block();
                emit(Op::kJump, static_cast<std::int32_t>(next_ip));
                std::size_t end = here();
                patch(fn, end);
                for (std::size_t brk : loops_.back().break_fixups) patch(brk, end);
                loops_.pop_back();
                next_slot_ = base;
                return;
            }
            case Stmt::Kind::kReturn: {
                if (top_) {
                    // The interpreter evaluates the returned expression
                    // before the signal unwinds to run_top_level's catch.
                    if (s.expr) expr(*s.expr);
                    emit(Op::kFail, u_.name("'return' outside a function"));
                } else if (s.expr) {
                    expr(*s.expr);
                    emit(Op::kReturn);
                } else {
                    emit(Op::kReturnNull);
                }
                return;
            }
            case Stmt::Kind::kBreak: {
                if (loops_.empty()) {
                    emit(Op::kFail, u_.name("'break' outside a loop" + in_fn_suffix()));
                } else {
                    loops_.back().break_fixups.push_back(emit(Op::kJump));
                }
                return;
            }
            case Stmt::Kind::kContinue: {
                if (loops_.empty()) {
                    emit(Op::kFail, u_.name("'continue' outside a loop" + in_fn_suffix()));
                } else {
                    emit(Op::kJump,
                         static_cast<std::int32_t>(loops_.back().continue_target));
                }
                return;
            }
            case Stmt::Kind::kThrow:
                expr(*s.expr);
                emit(Op::kThrow, 0, 0, s.line);
                return;
            case Stmt::Kind::kBlock: compile_block(s.body); return;
        }
    }

    /// Store the value on top of the stack into `target` (the value was
    /// evaluated first, matching Interpreter::exec kAssign order).
    void compile_store(const Expr& target) {
        switch (target.kind) {
            case Expr::Kind::kVar: {
                int slot = resolve(target.name);
                if (slot >= 0) {
                    emit(Op::kStoreLocal, slot);
                } else {
                    emit(Op::kStoreGlobal, u_.name(target.name), 0, target.line);
                }
                return;
            }
            case Expr::Kind::kIndex:
            case Expr::Kind::kMember:
                compile_lval(target);
                emit(Op::kLvalStore);
                return;
            default:
                emit(Op::kFail, u_.name("expression is not assignable (line " +
                                        std::to_string(target.line) + ")"));
                return;
        }
    }

    /// Push a pointer to the storage `target` denotes onto the lval stack,
    /// root-first then one level per index/member — the interpreter's
    /// resolve_lvalue order (base resolved before the index expression).
    void compile_lval(const Expr& target) {
        switch (target.kind) {
            case Expr::Kind::kVar: {
                int slot = resolve(target.name);
                if (slot >= 0) {
                    emit(Op::kLvalLocal, slot);
                } else {
                    emit(Op::kLvalGlobal, u_.name(target.name), 0, target.line);
                }
                return;
            }
            case Expr::Kind::kIndex:
                compile_lval(*target.lhs);
                expr(*target.rhs);
                emit(Op::kLvalIndex, 0, 0, target.line);
                return;
            case Expr::Kind::kMember:
                compile_lval(*target.lhs);
                emit(Op::kLvalMember, u_.name(target.name), 0, target.line);
                return;
            default:
                emit(Op::kFail, u_.name("expression is not assignable (line " +
                                        std::to_string(target.line) + ")"));
                return;
        }
    }

    void expr(const Expr& e) {
        emit(Op::kTick, 1, 0, e.line);
        switch (e.kind) {
            case Expr::Kind::kLiteral: emit(Op::kConst, u_.constant(e.literal)); return;
            case Expr::Kind::kVar: {
                int slot = resolve(e.name);
                if (slot >= 0) {
                    emit(Op::kLoadLocal, slot);
                } else {
                    emit(Op::kLoadGlobal, u_.name(e.name), 0, e.line);
                }
                return;
            }
            case Expr::Kind::kBinary: {
                if (e.bin_op == BinOp::kAnd) {
                    expr(*e.lhs);
                    std::size_t sc = emit(Op::kAndShort);
                    expr(*e.rhs);
                    emit(Op::kToBool);
                    patch(sc, here());
                    return;
                }
                if (e.bin_op == BinOp::kOr) {
                    expr(*e.lhs);
                    std::size_t sc = emit(Op::kOrShort);
                    expr(*e.rhs);
                    emit(Op::kToBool);
                    patch(sc, here());
                    return;
                }
                expr(*e.lhs);
                expr(*e.rhs);
                emit(Op::kBinary, static_cast<std::int32_t>(e.bin_op), 0, e.line);
                return;
            }
            case Expr::Kind::kUnary:
                expr(*e.lhs);
                emit(e.un_op == UnOp::kNot ? Op::kNot : Op::kNeg, 0, 0, e.line);
                return;
            case Expr::Kind::kCall: {
                for (const auto& a : e.args) expr(*a);
                const std::int32_t argc = static_cast<std::int32_t>(e.args.size());
                std::int32_t fi = u_.fn_index(e.name);
                if (fi >= 0) {
                    const FunctionDecl& fn = u_.program().functions[fi];
                    if (fn.params.size() != e.args.size()) {
                        // Dynamic semantics: the fault fires only if the
                        // call executes, after its arguments ran.
                        emit(Op::kFail,
                             u_.name("function '" + fn.name + "' expects " +
                                     std::to_string(fn.params.size()) + " args, got " +
                                     std::to_string(e.args.size())));
                    } else {
                        emit(Op::kCallFn, fi, argc);
                    }
                } else {
                    emit(Op::kCallBuiltin, u_.builtin(e.name), argc, e.line);
                }
                return;
            }
            case Expr::Kind::kIndex:
                expr(*e.lhs);
                expr(*e.rhs);
                emit(Op::kIndexGet, 0, 0, e.line);
                return;
            case Expr::Kind::kMember:
                expr(*e.lhs);
                emit(Op::kMemberGet, u_.name(e.name), 0, e.line);
                return;
            case Expr::Kind::kListLit:
                for (const auto& a : e.args) expr(*a);
                emit(Op::kMakeList, static_cast<std::int32_t>(e.args.size()));
                return;
            case Expr::Kind::kDictLit:
                emit(Op::kNewDict);
                for (const auto& [k, v] : e.entries) {
                    expr(*k);
                    emit(Op::kDictKeyCheck);
                    expr(*v);
                    emit(Op::kDictInsert);
                }
                return;
        }
    }

    UnitBuilder& u_;
    Chunk chunk_;
    bool top_;
    std::string fn_name_;
    std::vector<Local> locals_;
    std::vector<Block> blocks_;
    std::vector<Loop> loops_;
    int next_slot_ = 0;
    int max_slots_ = 0;
};

bool is_jump(Op op) {
    return op == Op::kJump || op == Op::kJumpIfFalse || op == Op::kAndShort ||
           op == Op::kOrShort || op == Op::kForNext;
}

/// Merge each run of consecutive same-line kTicks into its first one, which
/// then charges the run's total, and remap jump targets to the shortened
/// stream. A tick some jump lands on starts a new run: a jump must charge
/// exactly the steps from its target onward.
void fuse_ticks(Chunk& chunk) {
    std::vector<Insn>& code = chunk.code;
    const std::size_t n = code.size();
    std::vector<bool> is_target(n + 1, false);
    for (const Insn& in : code) {
        if (is_jump(in.op)) is_target[static_cast<std::size_t>(in.a)] = true;
    }
    std::vector<std::int32_t> remap(n + 1);
    std::size_t out = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Insn in = code[i];
        // code[out - 1] is what original insn i - 1 became, so it is a tick
        // only if insn i - 1 was one (or was fused into one).
        if (in.op == Op::kTick && out > 0 && !is_target[i] && code[out - 1].op == Op::kTick &&
            code[out - 1].line == in.line) {
            code[out - 1].a += in.a;
            continue;
        }
        remap[i] = static_cast<std::int32_t>(out);
        code[out++] = in;
    }
    remap[n] = static_cast<std::int32_t>(out);
    code.resize(out);
    for (Insn& in : code) {
        if (is_jump(in.op)) in.a = remap[static_cast<std::size_t>(in.a)];
    }
}

}  // namespace

std::shared_ptr<const CompiledUnit> compile(std::shared_ptr<const Program> program) {
    UnitBuilder b(std::move(program));
    CompiledUnit& u = b.unit();
    const auto& fns = b.program().functions;
    u.functions.reserve(fns.size());
    for (std::size_t i = 0; i < fns.size(); ++i) {
        ChunkCompiler c(b, /*top_level=*/false);
        u.functions.push_back(c.compile_function(fns[i]));
        fuse_ticks(u.functions.back());
        u.function_index.try_emplace(fns[i].name, i);  // first decl wins
    }
    ChunkCompiler top(b, /*top_level=*/true);
    u.top_level = top.compile_top(b.program().top_level);
    fuse_ticks(u.top_level);
    return b.take();
}

const char* op_name(Op op) {
    switch (op) {
        case Op::kTick: return "tick";
        case Op::kConst: return "const";
        case Op::kLoadLocal: return "load_local";
        case Op::kStoreLocal: return "store_local";
        case Op::kLoadGlobal: return "load_global";
        case Op::kLetGlobal: return "let_global";
        case Op::kStoreGlobal: return "store_global";
        case Op::kPop: return "pop";
        case Op::kJump: return "jump";
        case Op::kJumpIfFalse: return "jump_if_false";
        case Op::kAndShort: return "and_short";
        case Op::kOrShort: return "or_short";
        case Op::kToBool: return "to_bool";
        case Op::kNot: return "not";
        case Op::kNeg: return "neg";
        case Op::kBinary: return "binary";
        case Op::kIndexGet: return "index_get";
        case Op::kMemberGet: return "member_get";
        case Op::kMakeList: return "make_list";
        case Op::kNewDict: return "new_dict";
        case Op::kDictKeyCheck: return "dict_key_check";
        case Op::kDictInsert: return "dict_insert";
        case Op::kCallFn: return "call_fn";
        case Op::kCallBuiltin: return "call_builtin";
        case Op::kReturn: return "return";
        case Op::kReturnNull: return "return_null";
        case Op::kFail: return "fail";
        case Op::kThrow: return "throw";
        case Op::kLvalLocal: return "lval_local";
        case Op::kLvalGlobal: return "lval_global";
        case Op::kLvalIndex: return "lval_index";
        case Op::kLvalMember: return "lval_member";
        case Op::kLvalStore: return "lval_store";
        case Op::kForPrep: return "for_prep";
        case Op::kForNext: return "for_next";
    }
    return "?";
}

namespace {

void list_chunk(const CompiledUnit& unit, const Chunk& chunk, std::string& out) {
    out += chunk.name.empty() ? std::string("<top>") : chunk.name;
    out += " (params " + std::to_string(chunk.n_params) + ", slots " +
           std::to_string(chunk.n_slots) + ")\n";
    for (std::size_t i = 0; i < chunk.code.size(); ++i) {
        const Insn& in = chunk.code[i];
        out += "  " + std::to_string(i) + ": " + op_name(in.op);
        switch (in.op) {
            case Op::kConst:
                out += " " + unit.constants[in.a].to_string();
                break;
            case Op::kLoadGlobal:
            case Op::kLetGlobal:
            case Op::kStoreGlobal:
            case Op::kLvalGlobal:
            case Op::kMemberGet:
            case Op::kLvalMember:
            case Op::kFail:
                out += " '" + unit.names[in.a] + "'";
                break;
            case Op::kCallFn:
                out += " " + unit.functions[in.a].name + "/" + std::to_string(in.b);
                break;
            case Op::kCallBuiltin:
                out += " " + unit.builtin_names[in.a] + "/" + std::to_string(in.b);
                break;
            case Op::kTick:
                out += " " + std::to_string(in.a) + " line " + std::to_string(in.line);
                break;
            default:
                if (in.a || in.b) {
                    out += " " + std::to_string(in.a);
                    if (in.b) out += " " + std::to_string(in.b);
                }
                break;
        }
        out += "\n";
    }
}

}  // namespace

std::string disassemble(const CompiledUnit& unit) {
    std::string out;
    list_chunk(unit, unit.top_level, out);
    for (const Chunk& c : unit.functions) list_chunk(unit, c, out);
    return out;
}

}  // namespace pmp::script
