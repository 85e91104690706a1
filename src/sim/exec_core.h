/**
 * @file
 * Shared architected state of both simulators: register frames, the
 * call stack they live on, the per-instruction Effect record and the
 * operand/ALU helpers of the one execution kernel, execDecodedImpl() in
 * sim/decode.h.
 *
 * The functional interpreter (profiling, semantic checks) and the timing
 * simulator execute every instruction through that kernel, so architected
 * semantics cannot drift between them. It implements IA-64-style NaT
 * (not-a-thing) deferral for control-speculative loads:
 * a speculative load to the NULL page or an unmapped page writes NaT; NaT
 * propagates through consumers; compares with NaT inputs clear their
 * destination predicates; chk.s branches to recovery when it sees NaT;
 * and any non-speculative consumption of NaT at a memory or control
 * boundary traps.
 */
#ifndef EPIC_SIM_EXEC_CORE_H
#define EPIC_SIM_EXEC_CORE_H

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "ir/program.h"
#include "sim/memory.h"
#include "sim/run_result.h"
#include "support/logging.h"

namespace epic {

/** General-register value with its NaT bit. */
struct GrVal
{
    int64_t v = 0;
    bool nat = false;
};

/**
 * One activation record (IA-64 register stack semantics: registers are
 * private to the frame).
 *
 * Slot 0 of the general and predicate files is architected: gr[0] is
 * r0, hardwired to {0, not NaT}, and pr[0] is p0, hardwired true.
 * reset() establishes both and writeGr()/writePr() never write slot 0,
 * so the read accessors index the files directly with no r0/p0 test
 * (they run for every register operand and every guard). A CallStack
 * slot reused for a later call goes through reset(), and a checkpoint
 * restores register files saved from frames that kept the invariant.
 */
struct Frame
{
    const Function *fn = nullptr;
    std::vector<GrVal> gr;
    std::vector<uint8_t> pr;

    // Caller resume point.
    int ret_block = -1;
    int ret_pos = -1; ///< caller's position: execution-order index or group
    Reg ret_dest;     ///< caller register receiving the return value

    /// Stack pointer for this frame's spill area (also placed in gr12).
    uint64_t sp = 0;

    /**
     * Start a new activation of `f`, reusing the register files'
     * capacity when the record held an earlier one.
     *
     * @param f The function this frame activates.
     * @param sp_value Frame stack pointer (spill area base); written to
     *        the architected SP register (gr12).
     */
    void
    reset(const Function *f, uint64_t sp_value)
    {
        fn = f;
        sp = sp_value;
        ret_block = -1;
        ret_pos = -1;
        ret_dest = Reg();
        int ngr = std::max(physRegCount(RegClass::Gr),
                           f->virtLimit(RegClass::Gr));
        int npr = std::max(physRegCount(RegClass::Pr),
                           f->virtLimit(RegClass::Pr));
        gr.assign(ngr, GrVal{});
        pr.assign(npr, 0);
        pr[0] = 1; // p0; r0 is the GrVal{} assigned above
        gr[kGrSp.id] = GrVal{static_cast<int64_t>(sp), false};
    }

    /** Bytes of stack this function's frame occupies (16-aligned). */
    static uint64_t
    frameBytes(const Function &f)
    {
        return (static_cast<uint64_t>(f.spill_slots) * 8 + 15) & ~15ull;
    }

    GrVal
    readGr(Reg r) const
    {
        return gr[r.id];
    }
    void
    writeGr(Reg r, GrVal val)
    {
        if (r.id != 0)
            gr[r.id] = val;
    }
    bool
    readPr(Reg r) const
    {
        return pr[r.id] != 0;
    }
    void
    writePr(Reg r, bool val)
    {
        if (r.id != 0)
            pr[r.id] = val ? 1 : 0;
    }
};

/** Control/observable effects of executing one instruction. */
struct Effect
{
    enum class Ctl : uint8_t { Next, Branch, Call, Ret };

    Ctl ctl = Ctl::Next;
    bool executed = false; ///< guard evaluated true

    int branch_target = -1; ///< Ctl::Branch
    int callee = -1;        ///< Ctl::Call (resolved for indirect calls)

    bool has_ret_val = false;
    GrVal ret_val;

    // Memory observation (for the timing model and statistics).
    bool is_mem = false;
    bool is_load = false;
    uint64_t addr = 0;
    /// Speculative load deferred to NaT: at page 0, at an unmapped
    /// page, or on a NaT address (which touches no memory).
    bool mem_deferred = false;
    bool mem_null_page = false; ///< deferred at the architected NaT page 0
    bool mem_wild = false;      ///< deferred at an unmapped page

    bool trap = false;
    /// Static description of the trap; always a string literal (keeps
    /// Effect trivially destructible — one is constructed per simulated
    /// instruction).
    const char *trap_msg = nullptr;
};

namespace detail {

/** Evaluate a Gr-or-immediate source operand. */
inline GrVal
evalGr(const Program &prog, const Frame &f, const Operand &o)
{
    switch (o.kind) {
      case Operand::Kind::Reg:
        return f.readGr(o.reg);
      case Operand::Kind::Imm:
        return GrVal{o.imm, false};
      case Operand::Kind::Sym:
        return GrVal{
            static_cast<int64_t>(prog.symbolAddr(o.sym) + o.imm), false};
      case Operand::Kind::Func:
        return GrVal{o.func, false};
      default:
        epic_panic("bad Gr operand kind");
    }
}

inline bool
cmpEval(CmpCond cond, int64_t a, int64_t b)
{
    switch (cond) {
      case CmpCond::EQ: return a == b;
      case CmpCond::NE: return a != b;
      case CmpCond::LT: return a < b;
      case CmpCond::LE: return a <= b;
      case CmpCond::GT: return a > b;
      case CmpCond::GE: return a >= b;
      case CmpCond::LTU:
        return static_cast<uint64_t>(a) < static_cast<uint64_t>(b);
      case CmpCond::GEU:
        return static_cast<uint64_t>(a) >= static_cast<uint64_t>(b);
    }
    return false;
}

/** Integer ALU result. Forced inline like the kernel itself: out of
 *  line, every ALU op would pay a call plus a second opcode switch. */
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline int64_t
aluEval(Opcode op, int64_t a, int64_t b, Effect &eff)
{
    auto ua = static_cast<uint64_t>(a);
    auto ub = static_cast<uint64_t>(b);
    switch (op) {
      case Opcode::ADD: case Opcode::ADDI:
        return static_cast<int64_t>(ua + ub);
      case Opcode::SUB: case Opcode::SUBI:
        return static_cast<int64_t>(ua - ub);
      case Opcode::AND: case Opcode::ANDI: return a & b;
      case Opcode::OR: case Opcode::ORI: return a | b;
      case Opcode::XOR: case Opcode::XORI: return a ^ b;
      case Opcode::SHL: case Opcode::SHLI:
        return static_cast<int64_t>(ua << (ub & 63));
      case Opcode::SHR: case Opcode::SHRI:
        return static_cast<int64_t>(ua >> (ub & 63));
      case Opcode::SAR: case Opcode::SARI:
        return a >> (ub & 63);
      case Opcode::MUL:
        return static_cast<int64_t>(ua * ub);
      case Opcode::DIV:
        if (b == 0) {
            eff.trap = true;
            eff.trap_msg = "integer divide by zero";
            return 0;
        }
        return a / b;
      case Opcode::REM:
        if (b == 0) {
            eff.trap = true;
            eff.trap_msg = "integer remainder by zero";
            return 0;
        }
        return a % b;
      default:
        epic_panic("aluEval: not an ALU op");
    }
}

} // namespace detail

/**
 * The call stack both simulators run on: one activation record per
 * live call, indexed by call depth, outermost first. The records above
 * the current depth are the pool: a return leaves its record in place,
 * and the next call that reaches that depth resets it, reusing its
 * register files' capacity. std::deque never relocates an element when
 * it grows, so a record's address holds for the whole run.
 *
 * `Rec` is Frame, or a Frame extended with per-register state whose
 * reset(fn, sp) also resets that state.
 */
template <class Rec>
class CallStack
{
  public:
    /** Start a run: the entry function's activation, alone. */
    CallStack(const Function *entry, int max_depth) : max_depth_(max_depth)
    {
        push(entry, kStackBase - Frame::frameBytes(*entry));
    }

    size_t depth() const { return live_; }
    bool empty() const { return live_ == 0; }
    /** The record at depth `i` (0 = outermost); `i < depth()`. */
    Rec &operator[](size_t i) { return recs_[i]; }
    Rec &top() { return recs_[live_ - 1]; }

    /**
     * Enter `callee_id` from the call `inst` in the top activation, to
     * resume at (`ret_block`, `ret_pos`) of the caller: checks the
     * depth budget and the arity, evaluates the arguments from the
     * caller straight into the callee's parameters, and places the
     * callee's frame below the caller's. Returns the callee's record,
     * or nullptr with `res` failed.
     */
    Rec *
    call(const Program &prog, const Instruction &inst, int callee_id,
         int ret_block, int ret_pos, RunResult &res)
    {
        Rec &caller = top();
        if (static_cast<int>(live_) >= max_depth_) {
            res.fail(RunStatus::BudgetExceeded,
                     "call depth limit exceeded (" +
                         std::to_string(max_depth_) + ") in " +
                         caller.fn->name);
            return nullptr;
        }
        const Function *callee = prog.func(callee_id);
        epic_assert(callee, "call to missing function");
        // An indirect call's first source is the callee token.
        const size_t first_arg = inst.op == Opcode::BR_ICALL ? 1 : 0;
        const size_t nargs = inst.srcs.size() - first_arg;
        if (nargs != callee->params.size()) {
            res.fail(RunStatus::Faulted,
                     "arity mismatch calling " + callee->name);
            return nullptr;
        }
        Rec &nf = push(callee, caller.sp - Frame::frameBytes(*callee));
        nf.ret_block = ret_block;
        nf.ret_pos = ret_pos;
        nf.ret_dest = inst.dests.empty() ? Reg() : inst.dests[0];
        for (size_t i = 0; i < nargs; ++i)
            nf.writeGr(callee->params[i],
                       detail::evalGr(prog, caller,
                                      inst.srcs[first_arg + i]));
        return &nf;
    }

    /**
     * Leave the top activation with the return `eff`. Its value (0 when
     * the return carries none) goes to the call's destination in the
     * caller or, from the outermost activation, ends the run in `res`.
     * Returns the left record: it holds the return point and stays as
     * it is until a call reuses its slot.
     */
    const Rec &
    ret(const Effect &eff, RunResult &res)
    {
        const Rec &done = recs_[--live_];
        const GrVal val = eff.has_ret_val ? eff.ret_val : GrVal{0, false};
        if (live_ == 0)
            res.succeed(val.v);
        else if (done.ret_dest.valid())
            top().writeGr(done.ret_dest, val);
        return done;
    }

    /** Checkpoint restore: drop every activation; the records stay
     *  for push() to reuse. */
    void
    clear()
    {
        live_ = 0;
    }

    /** Push an activation of `fn` with stack pointer `sp`. */
    Rec &
    push(const Function *fn, uint64_t sp)
    {
        if (live_ == recs_.size())
            recs_.emplace_back();
        Rec &r = recs_[live_++];
        r.reset(fn, sp);
        return r;
    }

  private:
    /// The entry activation's frame sits just below this address.
    static constexpr uint64_t kStackBase = Program::kStackTop - 64;

    std::deque<Rec> recs_;
    size_t live_ = 0; ///< live activations: the depth
    int max_depth_;
};

} // namespace epic

#endif // EPIC_SIM_EXEC_CORE_H
