#include "script/vm.h"

#include <algorithm>
#include <cassert>

#include "common/error.h"
#include "script/ops.h"

namespace pmp::script {

using rt::Dict;
using rt::List;
using rt::Value;

Vm::Vm(std::shared_ptr<const CompiledUnit> unit, Sandbox sandbox,
       std::shared_ptr<const BuiltinRegistry> builtins)
    : unit_(std::move(unit)), sandbox_(std::move(sandbox)), builtins_(std::move(builtins)) {
    // Resolve every distinct builtin callee once. Unknown names stay as
    // null entries and fail at execution time with the interpreter's
    // message; capability verdicts are precomputed against the fixed
    // sandbox so the hot loop does a single bool test.
    resolved_.reserve(unit_->builtin_names.size());
    for (const std::string& name : unit_->builtin_names) {
        const BuiltinRegistry::Entry* entry = builtins_->find(name);
        resolved_.push_back(ResolvedBuiltin{
            entry, entry != nullptr && sandbox_.allows(entry->capability), &name});
    }
    global_refs_.assign(unit_->names.size(), nullptr);
    max_frame_slots_ = static_cast<std::size_t>(unit_->top_level.n_slots);
    for (const Chunk& fn : unit_->functions) {
        max_frame_slots_ = std::max(max_frame_slots_, static_cast<std::size_t>(fn.n_slots));
    }
    step_limit_ = sandbox_.step_budget;
    if (sandbox_.deadline_steps != 0 && sandbox_.deadline_steps < step_limit_) {
        step_limit_ = sandbox_.deadline_steps;
    }
}

void Vm::run_top_level() {
    steps_ = 0;
    invoke(unit_->top_level, {}, /*counts_depth=*/false);
}

Value Vm::call(FunctionHandle fn, List args) {
    const Chunk* chunk = static_cast<const Chunk*>(fn.impl);
    if (!chunk) throw ScriptError("call of an unbound script function");
    if (call_nesting_ > 0) {
        // Re-entrant call (host builtin calling back into script): one
        // invocation for budget purposes, so don't reset the meter and
        // don't report to the observer twice.
        return invoke(*chunk, std::move(args), /*counts_depth=*/true);
    }
    if (arena_.size() > 1 && frames_.empty()) merge_arena();
    steps_ = 0;
    ++call_nesting_;
    // Report on every exit path — a throwing invocation burned steps too,
    // and the governor must see them.
    struct Guard {
        Vm* self;
        ~Guard() {
            --self->call_nesting_;
            self->last_call_steps_ = self->steps_;
            if (self->step_observer_) self->step_observer_(self->last_call_steps_);
        }
    } guard{this};
    return invoke(*chunk, std::move(args), /*counts_depth=*/true);
}

const Value* Vm::global(const std::string& name) const {
    auto it = globals_.find(name);
    return it == globals_.end() ? nullptr : &it->second;
}

void Vm::set_global(const std::string& name, Value value) {
    globals_[name] = std::move(value);
}

Value* Vm::global_ref(std::int32_t name) {
    Value*& ref = global_refs_[name];
    if (!ref) [[unlikely]] {
        auto it = globals_.find(unit_->names[name]);
        if (it != globals_.end()) ref = &it->second;
    }
    return ref;
}

Value Vm::invoke(const Chunk& chunk, List args, bool counts_depth) {
    if (static_cast<int>(args.size()) != chunk.n_params) {
        throw ScriptError("function '" + chunk.name + "' expects " +
                          std::to_string(chunk.n_params) + " args, got " +
                          std::to_string(args.size()));
    }
    const std::size_t entry_frames = frames_.size();
    const std::size_t entry_stack = stack_.size();
    const std::size_t entry_lstack = lstack_.size();
    try {
        for (Value& a : args) stack_.push_back(std::move(a));
        push_frame(chunk, args.size(), counts_depth);
        return run(entry_frames);
    } catch (...) {
        unwind(entry_frames, entry_stack, entry_lstack);
        throw;
    }
}

void Vm::push_frame(const Chunk& chunk, std::size_t argc, bool counts_depth) {
    if (counts_depth) {
        if (++depth_ > sandbox_.max_recursion) {
            --depth_;
            throw ResourceExhausted("script recursion limit reached in '" + chunk.name +
                                    "'");
        }
    }
    const std::size_t n = static_cast<std::size_t>(chunk.n_slots);
    const ArenaMark mark{arena_block_, arena_top_};
    if (arena_top_ + n > arena_size_) next_block();
    Value* slots = arena_base_ + arena_top_;
    arena_top_ += n;
    Value* const args = stack_.data() + stack_.size() - argc;
    for (std::size_t i = 0; i < argc; ++i) slots[i] = std::move(args[i]);
    stack_.resize(stack_.size() - argc);
    frames_.push_back(Frame{&chunk, 0, stack_.size(), slots, mark, counts_depth});
}

void Vm::next_block() {
    const std::size_t next = arena_.empty() ? 0 : arena_block_ + 1;
    if (next == arena_.size()) {
        const std::size_t size = arena_.empty() ? max_frame_slots_ : 2 * arena_.back().size;
        arena_.push_back(ArenaBlock{std::make_unique<Value[]>(size), size});
    }
    use_block(next);
    arena_top_ = 0;
}

void Vm::merge_arena() {
    std::size_t size = 0;
    for (const ArenaBlock& b : arena_) size += b.size;
    arena_.clear();
    arena_.push_back(ArenaBlock{std::make_unique<Value[]>(size), size});
    use_block(0);
    arena_top_ = 0;
}

void Vm::use_block(std::size_t block) {
    arena_block_ = block;
    arena_base_ = arena_[block].slots.get();
    arena_size_ = arena_[block].size;
}

void Vm::pop_frame() {
    const Frame& f = frames_.back();
    for (int i = 0; i < f.chunk->n_slots; ++i) f.slots[i] = Value{};
    if (f.mark.block != arena_block_) use_block(f.mark.block);
    arena_top_ = f.mark.top;
    if (f.counts_depth) --depth_;
    frames_.pop_back();
}

void Vm::unwind(std::size_t entry_frames, std::size_t entry_stack,
                std::size_t entry_lstack) {
    while (frames_.size() > entry_frames) pop_frame();
    stack_.resize(entry_stack);
    lstack_.resize(entry_lstack);
}

Vm::ArenaStats Vm::arena_stats() const {
    ArenaStats out;
    out.blocks = arena_.size();
    for (const ArenaBlock& b : arena_) {
        out.capacity += b.size;
        for (std::size_t i = 0; i < b.size; ++i) out.live_slots += !b.slots[i].is_null();
    }
    return out;
}

List& Vm::lease_args() {
    if (arg_pool_top_ == arg_pool_.size()) {
        arg_pool_.push_back(std::make_unique<List>());
    }
    return *arg_pool_[arg_pool_top_++];
}

/// RAII lease of a pooled builtin-argument list; entries are unique_ptrs
/// so references stay valid when re-entrant calls grow the pool.
struct Vm::ArgLease {
    Vm& vm;
    List& args;
    explicit ArgLease(Vm& v) : vm(v), args(v.lease_args()) {}
    ~ArgLease() {
        args.clear();
        --vm.arg_pool_top_;
    }
};

Value Vm::run(std::size_t entry_frames) {
    // The dispatch registers: the current frame's code, instruction pointer
    // and local slots are cached in locals instead of re-read through
    // frames_.back() on every instruction. `pc` is written back to the
    // frame only at the points that can suspend this frame (script calls,
    // builtins that may re-enter the VM); `reload` re-derives the cache
    // after any operation that may have switched frames or reallocated
    // frames_. A frame's slots never move (arena blocks are pointer-stable),
    // so `slots` survives pushes and pops of other frames.
    Frame* f;
    const Insn* code;
    Value* slots;
    const Insn* pc;
    auto reload = [&] {
        f = &frames_.back();
        code = f->chunk->code.data();
        slots = f->slots;
        pc = code + f->ip;
    };
    reload();
    for (;;) {
        const Insn in = *pc++;
        // Fast path: one test, then one add and one compare for the
        // instruction's whole run of steps. Past the precomputed limit, charge only up to the
        // first step of the run beyond it, as one tick per step would have,
        // and let tick_check raise the correct typed error (deadline before
        // budget, like the interpreter). An instruction that charges no
        // step never fails here, even with the meter already past the limit
        // (a host builtin caught a nested call's overrun).
        if (in.steps != 0) {
            steps_ += in.steps;
            if (steps_ > step_limit_) [[unlikely]] {
                steps_ = std::max(steps_ - in.steps + 1, step_limit_ + 1);
                ops::tick_check(sandbox_, steps_, in.line);
            }
        }
        switch (in.op) {
            case Op::kTick: break;
            case Op::kConst: stack_.push_back(unit_->constants[in.a]); break;
            case Op::kLoadLocal: stack_.push_back(slots[in.a]); break;
            case Op::kStoreLocal:
                slots[in.a] = std::move(stack_.back());
                stack_.pop_back();
                break;
            case Op::kLoadGlobal: {
                const Value* g = global_ref(in.a);
                if (!g) {
                    ops::script_fail("undefined variable '" + unit_->names[in.a] + "'",
                                     in.line);
                }
                if (pc->op == Op::kMemberGet) {
                    // `g.k`: read the member in place instead of copying the
                    // whole global first. Both steps ride on this load.
                    const Insn& member = *pc++;
                    assert(member.steps == 0);
                    stack_.push_back(ops::member_get(*g, unit_->names[member.a], member.line));
                } else {
                    stack_.push_back(*g);
                }
                break;
            }
            case Op::kLetGlobal: {
                Value*& ref = global_refs_[in.a];
                if (!ref) ref = &globals_[unit_->names[in.a]];
                *ref = std::move(stack_.back());
                stack_.pop_back();
                break;
            }
            case Op::kStoreGlobal: {
                Value* g = global_ref(in.a);
                if (!g) {
                    ops::script_fail("assignment to undeclared variable '" +
                                         unit_->names[in.a] + "'",
                                     in.line);
                }
                *g = std::move(stack_.back());
                stack_.pop_back();
                break;
            }
            case Op::kPop: stack_.pop_back(); break;
            case Op::kJump: pc = code + in.a; break;
            case Op::kJumpIfFalse: {
                const bool t = stack_.back().truthy();
                stack_.pop_back();
                if (!t) pc = code + in.a;
                break;
            }
            case Op::kAndShort: {
                const bool t = stack_.back().truthy();
                stack_.pop_back();
                if (!t) {
                    stack_.push_back(Value{false});
                    pc = code + in.a;
                }
                break;
            }
            case Op::kOrShort: {
                const bool t = stack_.back().truthy();
                stack_.pop_back();
                if (t) {
                    stack_.push_back(Value{true});
                    pc = code + in.a;
                }
                break;
            }
            case Op::kToBool: stack_.back() = Value{stack_.back().truthy()}; break;
            case Op::kNot: stack_.back() = Value{!stack_.back().truthy()}; break;
            case Op::kNeg: stack_.back() = ops::negate(stack_.back(), in.line); break;
            case Op::kBinary: {
                // The right operand is read in place when the compiler
                // encoded it in b (> 0: a constant, < 0: a local slot);
                // with b == 0 it is on the stack above the left one.
                const Value& rhs = in.b > 0   ? unit_->constants[in.b - 1]
                                   : in.b < 0 ? slots[-in.b - 1]
                                              : stack_.back();
                Value& lhs = stack_[stack_.size() - (in.b == 0 ? 2 : 1)];
                // Int fast path, inline, writing the result over the left
                // operand. Comparisons go through double like ops::binary
                // does (numeric_pair + as_real), so results are bit-identical
                // to the interpreter's; div/mod fall back on a zero divisor
                // for the exact error message.
                if (lhs.is_int() && rhs.is_int()) {
                    const std::int64_t x = *lhs.if_int();
                    const std::int64_t y = *rhs.if_int();
                    bool handled = true;
                    switch (static_cast<BinOp>(in.a)) {
                        case BinOp::kAdd: lhs = Value{x + y}; break;
                        case BinOp::kSub: lhs = Value{x - y}; break;
                        case BinOp::kMul: lhs = Value{x * y}; break;
                        case BinOp::kDiv:
                            if (y == 0) handled = false;
                            else lhs = Value{x / y};
                            break;
                        case BinOp::kMod:
                            if (y == 0) handled = false;
                            else lhs = Value{x % y};
                            break;
                        case BinOp::kEq:
                            lhs = Value{static_cast<double>(x) == static_cast<double>(y)};
                            break;
                        case BinOp::kNe:
                            lhs = Value{static_cast<double>(x) != static_cast<double>(y)};
                            break;
                        case BinOp::kLt:
                            lhs = Value{static_cast<double>(x) < static_cast<double>(y)};
                            break;
                        case BinOp::kLe:
                            lhs = Value{static_cast<double>(x) <= static_cast<double>(y)};
                            break;
                        case BinOp::kGt:
                            lhs = Value{static_cast<double>(x) > static_cast<double>(y)};
                            break;
                        case BinOp::kGe:
                            lhs = Value{static_cast<double>(x) >= static_cast<double>(y)};
                            break;
                        default: handled = false; break;
                    }
                    if (handled) {
                        if (in.b == 0) stack_.pop_back();
                        break;
                    }
                }
                Value out = ops::binary(static_cast<BinOp>(in.a), lhs, rhs, in.line);
                if (in.b == 0) stack_.pop_back();
                stack_.back() = std::move(out);
                break;
            }
            case Op::kIndexGet: {
                Value idx = std::move(stack_.back());
                stack_.pop_back();
                stack_.back() = ops::index_get(stack_.back(), idx, in.line);
                break;
            }
            case Op::kMemberGet:
                stack_.back() = ops::member_get(stack_.back(), unit_->names[in.a], in.line);
                break;
            case Op::kMakeList: {
                const std::size_t n = static_cast<std::size_t>(in.a);
                List out;
                out.reserve(n);
                for (std::size_t i = stack_.size() - n; i < stack_.size(); ++i) {
                    out.push_back(std::move(stack_[i]));
                }
                stack_.resize(stack_.size() - n);
                stack_.push_back(Value{std::move(out)});
                break;
            }
            case Op::kNewDict: stack_.push_back(Value{Dict{}}); break;
            case Op::kDictKeyCheck:
                ops::want_str(stack_.back(), "dict key");
                break;
            case Op::kDictInsert: {
                Value v = std::move(stack_.back());
                stack_.pop_back();
                Value k = std::move(stack_.back());
                stack_.pop_back();
                stack_.back().as_dict().set(k.as_str(), std::move(v));
                break;
            }
            case Op::kCallFn:
                f->ip = static_cast<std::size_t>(pc - code);
                push_frame(unit_->functions[in.a], static_cast<std::size_t>(in.b),
                           /*counts_depth=*/true);
                reload();
                break;
            case Op::kCallBuiltin: {
                const ResolvedBuiltin& rb = resolved_[in.a];
                if (!rb.entry) {
                    ops::script_fail("unknown function '" + *rb.name + "'", in.line);
                }
                if (!rb.allowed) {
                    throw AccessDenied("extension lacks capability '" +
                                       rb.entry->capability + "' required by " +
                                       *rb.name);
                }
                const std::size_t n = static_cast<std::size_t>(in.b);
                ArgLease lease(*this);
                lease.args.reserve(n);
                for (std::size_t i = stack_.size() - n; i < stack_.size(); ++i) {
                    lease.args.push_back(std::move(stack_[i]));
                }
                stack_.resize(stack_.size() - n);
                // The builtin may re-enter the VM (host callback into
                // script), pushing frames and reallocating frames_.
                f->ip = static_cast<std::size_t>(pc - code);
                Value result = rb.entry->fn(lease.args);
                stack_.push_back(std::move(result));
                reload();
                break;
            }
            case Op::kReturn:
            case Op::kReturnNull: {
                Value result;
                if (in.op == Op::kReturn) {
                    result = std::move(stack_.back());
                    stack_.pop_back();
                }
                stack_.resize(f->stack_base);
                pop_frame();
                if (frames_.size() == entry_frames) return result;
                stack_.push_back(std::move(result));
                reload();
                break;
            }
            case Op::kFail: throw ScriptError(unit_->names[in.a]);
            case Op::kThrow: {
                Value v = std::move(stack_.back());
                stack_.pop_back();
                throw ScriptError(ops::display(v) + " (line " + std::to_string(in.line) +
                                  ")");
            }
            case Op::kLvalLocal: lstack_.push_back(&slots[in.a]); break;
            case Op::kLvalGlobal: {
                Value* g = global_ref(in.a);
                if (!g) {
                    ops::script_fail("assignment to undeclared variable '" +
                                         unit_->names[in.a] + "'",
                                     in.line);
                }
                lstack_.push_back(g);
                break;
            }
            case Op::kLvalIndex: {
                Value idx = std::move(stack_.back());
                stack_.pop_back();
                lstack_.back() = ops::lval_index(lstack_.back(), idx, in.line);
                break;
            }
            case Op::kLvalMember:
                lstack_.back() =
                    ops::lval_member(lstack_.back(), unit_->names[in.a], in.line);
                break;
            case Op::kLvalStore: {
                Value* target = lstack_.back();
                lstack_.pop_back();
                *target = std::move(stack_.back());
                stack_.pop_back();
                break;
            }
            case Op::kForPrep: {
                Value iterable = std::move(stack_.back());
                stack_.pop_back();
                List items = ops::foreach_items(std::move(iterable), in.line);
                slots[in.a] = Value{std::move(items)};
                slots[in.a + 1] = Value{std::int64_t{0}};
                break;
            }
            case Op::kForNext: {
                const std::int64_t i = slots[in.b + 1].as_int();
                List& items = slots[in.b].as_list();
                if (i >= static_cast<std::int64_t>(items.size())) {
                    pc = code + in.a;
                } else {
                    slots[in.b + 2] = std::move(items[static_cast<std::size_t>(i)]);
                    slots[in.b + 1] = Value{i + 1};
                }
                break;
            }
            default: __builtin_unreachable();  // every Op has a case: no range check
        }
    }
}

}  // namespace pmp::script
