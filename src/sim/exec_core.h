/**
 * @file
 * Shared architected state of both simulators: register frames, the
 * per-instruction Effect record and the operand/ALU helpers of the one
 * execution kernel, execDecodedImpl() in sim/decode.h.
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
#include <vector>

#include "ir/program.h"
#include "sim/memory.h"
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
 * (they run for every register operand and every guard). Pooled
 * frames keep the invariant because reuse goes through reset(), and a
 * checkpoint restores register files saved from frames that kept it.
 */
struct Frame
{
    const Function *fn = nullptr;
    std::vector<GrVal> gr;
    std::vector<uint8_t> pr;

    // Caller resume point.
    int ret_block = -1;
    int ret_pos = -1; ///< index into the caller's execution order
    Reg ret_dest;     ///< caller register receiving the return value

    /// Stack pointer for this frame's spill area (also placed in gr12).
    uint64_t sp = 0;

    /**
     * @param f The function this frame activates.
     * @param sp_value Frame stack pointer (spill area base); written to
     *        the architected SP register (gr12).
     */
    Frame(const Function *f, uint64_t sp_value)
    {
        reset(f, sp_value);
    }

    /**
     * Re-initialize a recycled frame for a new activation — identical
     * post-state to constructing Frame(f, sp_value), but reuses the
     * register-file vector capacity. Lets the simulators pool frames
     * across call/return instead of reallocating two vectors per call.
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
    int size = 0;
    bool mem_deferred = false; ///< speculative access got NaT
    bool mem_null_page = false; ///< access hit the architected NaT page 0
    bool mem_wild = false;      ///< speculative access to unmapped page

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

} // namespace epic

#endif // EPIC_SIM_EXEC_CORE_H
