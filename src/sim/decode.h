/**
 * @file
 * Predecoded simulation cache (DESIGN.md §12).
 *
 * Both simulators repeatedly re-derive per-block views of the program in
 * their hot loops: the functional interpreter materialized a fresh
 * execution-order vector on every block entry and return, and the timing
 * simulator looked issue groups up in a (function, block) tree keyed per
 * group. A `DecodedProgram` hoists all of that to a single pass over the
 * program at simulation start: for every function it holds dense,
 * block-id-indexed arrays of (a) the flattened execution order and (b)
 * the issue groups, so the simulators' inner loops touch only flat
 * arrays.
 *
 * Lifecycle: a DecodedProgram is built once per `interpret()` /
 * `simulate()` call and is an immutable snapshot of the program's
 * *structure* (blocks, bundles, instruction order). Profile annotations
 * (weights, branch/callee counts) may still be written into the program
 * while a decode is live — they are not part of the decoded state — but
 * a DecodedProgram must never outlive a structural mutation of its
 * Program (adding/removing blocks or instructions, rescheduling).
 */
#ifndef EPIC_SIM_DECODE_H
#define EPIC_SIM_DECODE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "ir/program.h"
#include "sim/exec_core.h"
#include "support/arena.h"

namespace epic {

/**
 * One flattened source operand. Immediates, function tokens and (when
 * data layout has already run) symbol addresses are resolved at decode
 * time, so the execution kernel evaluates an operand with one branch
 * instead of a kind switch plus a symbol-table lookup. The kinds mirror
 * Operand::Kind exactly so malformed programs fail in the same way they
 * did when operands were evaluated from the IR.
 */
struct DecodedOp
{
    enum class K : uint8_t {
        Reg,    ///< read a register
        Imm,    ///< integer immediate
        Val,    ///< resolved symbol address or function token
        SymLazy ///< symbol whose address was unknown at decode time
    };

    K kind = K::Imm;
    Reg reg;
    int64_t imm = 0;   ///< integer value (K::Imm/Val) or offset (SymLazy)
    int32_t sym = -1;  ///< data symbol id (K::SymLazy)
};

/// DecodedInstr::flags bits (static properties hoisted out of the IR).
enum : uint8_t {
    kDecLoad = 1u << 0,
    kDecStore = 1u << 1,
    kDecCall = 1u << 2,
    kDecRet = 1u << 3,
    kDecHasGuard = 1u << 4, ///< guard is a real predicate, not p0
};

/**
 * One predecoded instruction: a fixed-size, pointer-chase-free view of
 * an IR Instruction. The IR form keeps operands in two heap vectors per
 * instruction; the decoded form packs the guard, up to two destinations
 * and up to three flattened sources into one contiguous record, stored
 * in dense per-block arrays aligned with BasicBlock::instrs indices.
 * Call argument lists (up to eight sources) stay on the original
 * instruction — calls are rare and need the caller's full operand list.
 */
struct DecodedInstr
{
    Opcode op = Opcode::NOP;
    uint8_t size = 8;      ///< LD/ST/SXT/ZXT access size
    bool spec = false;     ///< control-speculative form
    CmpCond cond = CmpCond::EQ;
    CmpType ctype = CmpType::Norm;
    uint8_t nsrcs = 0;     ///< flattened sources in src[]
    uint8_t fu = 0;        ///< FuClass of the executing unit
    uint8_t flags = 0;     ///< kDec* bits
    int8_t latency = 1;    ///< static result latency
    Reg guard;
    Reg dest0, dest1;      ///< invalid() when absent
    int32_t target = -1;   ///< branch/chk target block or callee id
    const Instruction *orig = nullptr; ///< profile writes, call args, str()
    DecodedOp src[3];
};

/**
 * One issue group of a scheduled block (its bundles up to a stop bit),
 * flattened: spans into the per-function pools
 * (DecodedFunction::gop/gaddr/gline pools). A group averages only a
 * few ops, so keeping each group's members in three small heap vectors
 * made the timing simulator's per-group walk three pointer chases; the
 * pooled form is one 16-byte record plus contiguous member arrays.
 */
struct DecodedGroup
{
    uint32_t op_off = 0;   ///< first member in gop/gaddr pools
    uint32_t line_off = 0; ///< first line in gline pool
    uint16_t nops = 0;     ///< executable member count
    uint16_t nnops = 0;    ///< explicit NOP slots in the group
    uint16_t nlines = 0;   ///< distinct I-cache lines touched
    uint32_t attr_union = 0; ///< OR of member provenance attrs
};

/** Decoded view of one block: flat order and/or group span. */
struct DecodedBlock
{
    /// Execution order (indices into BasicBlock::instrs); nullptr means
    /// the identity order 0..order_len-1 (source order).
    const int32_t *order = nullptr;
    uint32_t order_len = 0;

    /// Issue groups (timing decode only); member spans index the
    /// owning DecodedFunction's pools.
    const DecodedGroup *groups = nullptr;
    uint32_t ngroups = 0;

    /// Predecoded instructions, indexed like BasicBlock::instrs (source
    /// order — the order/group indices above index into this array too).
    const DecodedInstr *dinstrs = nullptr;

    /// Length of the maximal control-free prefix of the execution
    /// order: ops [0, straight_len) never branch, call, return or
    /// raise a speculation check, so the interpreter may run the whole
    /// prefix as one fused span with the budget check hoisted to the
    /// span boundary. Most blocks end in a branch, so this is usually
    /// order_len - 1.
    uint32_t straight_len = 0;
};

/** Dense per-function decode table indexed by block id. */
class DecodedFunction
{
  public:
    const DecodedBlock &
    block(int bid) const
    {
        return blocks_[static_cast<size_t>(bid)];
    }

    /// Pool bases for DecodedGroup spans (timing decode only).
    const int32_t *gops() const { return gop_pool_.data(); }
    const uint64_t *gaddrs() const { return gaddr_pool_.data(); }
    const uint64_t *glines() const { return gline_pool_.data(); }

    /// Group-ordered DecodedInstr copies, parallel to the gop pool:
    /// ginstrs()[g.op_off + mi] is the record for member mi of group g.
    /// The timing loop's scoreboard and execute passes walk this dense
    /// stream instead of chasing gops()[mi] back into the per-block
    /// dinstr span (one dependent load per op saved, prefetch-friendly).
    const DecodedInstr *ginstrs() const { return gdinstr_pool_.data(); }

  private:
    friend class DecodedProgram;

    /// All pools bump-allocate from the owning DecodedProgram's arena:
    /// one decode is one arena, built in a single forward pass and torn
    /// down as a unit (DESIGN.md §16).
    void
    bindArena(Arena *a)
    {
        blocks_.rebind(a);
        order_pool_.rebind(a);
        group_pool_.rebind(a);
        gop_pool_.rebind(a);
        gaddr_pool_.rebind(a);
        gline_pool_.rebind(a);
        dinstr_pool_.rebind(a);
        gdinstr_pool_.rebind(a);
    }

    ArenaVec<DecodedBlock> blocks_;
    ArenaVec<int32_t> order_pool_;  ///< backing store for order spans
    ArenaVec<DecodedGroup> group_pool_; ///< flattened group records
    ArenaVec<int32_t> gop_pool_;    ///< group member instr indices
    ArenaVec<uint64_t> gaddr_pool_; ///< member code addresses
    ArenaVec<uint64_t> gline_pool_; ///< distinct I-cache lines
    ArenaVec<DecodedInstr> dinstr_pool_; ///< backing for dinstr spans
    ArenaVec<DecodedInstr> gdinstr_pool_; ///< group-ordered copies
};

/** Immutable per-Program decode cache (see file comment for lifecycle). */
class DecodedProgram
{
  public:
    /**
     * Decode for the functional interpreter: per-block execution order.
     * With `scheduled_order`, scheduled blocks get their bundle-slot
     * order; unscheduled blocks (and everything when the flag is off)
     * use the implicit identity order.
     */
    static DecodedProgram forInterp(const Program &prog,
                                    bool scheduled_order);

    /** Decode for the timing simulator: per-block issue groups. */
    static DecodedProgram forTiming(const Program &prog);

    const DecodedFunction &
    func(int fid) const
    {
        return funcs_[static_cast<size_t>(fid)];
    }

    // Spans point into the arena the unique_ptr owns: moving is safe
    // (the arena's chunks never move), copying would dangle.
    DecodedProgram(DecodedProgram &&) = default;
    DecodedProgram &operator=(DecodedProgram &&) = default;
    DecodedProgram(const DecodedProgram &) = delete;
    DecodedProgram &operator=(const DecodedProgram &) = delete;

  private:
    DecodedProgram() = default;
    static DecodedProgram build(const Program &prog, bool want_order,
                                bool scheduled_order, bool want_groups);

    /// Backing store for every per-function pool.
    std::unique_ptr<Arena> arena_;
    std::vector<DecodedFunction> funcs_;
};

namespace detail {

/** Evaluate a Gr-or-immediate decoded source operand. Forced inline
 *  like the kernel: GCC otherwise emits it out of line, a call per
 *  operand. */
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline GrVal
evalGrDec(const Program &prog, const Frame &f, const DecodedOp &o)
{
    switch (o.kind) {
      case DecodedOp::K::Reg:
        return f.readGr(o.reg);
      case DecodedOp::K::Imm:
      case DecodedOp::K::Val:
        return GrVal{o.imm, false};
      case DecodedOp::K::SymLazy:
        return GrVal{
            static_cast<int64_t>(prog.symbolAddr(o.sym) + o.imm), false};
      default:
        epic_panic("bad Gr operand kind");
    }
}

} // namespace detail

/**
 * Execute one predecoded instruction: the single ISA-semantics kernel
 * both simulators run per dynamic instruction (sim/exec_core.h lists
 * the NaT-deferral rules it implements).
 *
 * `KnownOp` lets a caller whose dispatch already established the opcode
 * (the interpreter's threaded loop) instantiate a per-opcode kernel: the
 * switch below folds to the single live case, so there is exactly one
 * body to maintain for both the generic and the specialized forms. Pass
 * -1 (or call execDecoded) for the ordinary runtime-dispatched kernel.
 */
template <int KnownOp>
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline Effect
execDecodedImpl(const Program &prog, const DecodedInstr &inst,
                Frame &frame, Memory &mem)
{
    using detail::evalGrDec;

    const Opcode op =
        KnownOp >= 0 ? static_cast<Opcode>(KnownOp) : inst.op;

    Effect eff;
    const bool guard_true = frame.readPr(inst.guard);

    // Unc-type compares write their destinations even when the guard is
    // false; everything else is fully squashed.
    const bool is_cmp = op == Opcode::CMP || op == Opcode::CMPI;
    if (!guard_true) {
        if (is_cmp && inst.ctype == CmpType::Unc) {
            frame.writePr(inst.dest0, false);
            frame.writePr(inst.dest1, false);
        }
        return eff;
    }
    eff.executed = true;

    switch (op) {
      case Opcode::MOV:
      case Opcode::MOVI:
      case Opcode::MOVA:
      case Opcode::MOVFN:
        frame.writeGr(inst.dest0, evalGrDec(prog, frame, inst.src[0]));
        break;

      case Opcode::MOVP:
        frame.writePr(inst.dest0, inst.src[0].imm != 0);
        break;

      case Opcode::ADD: case Opcode::SUB: case Opcode::AND:
      case Opcode::OR: case Opcode::XOR: case Opcode::MUL:
      case Opcode::DIV: case Opcode::REM: case Opcode::SHL:
      case Opcode::SHR: case Opcode::SAR:
      case Opcode::ADDI: case Opcode::SUBI: case Opcode::ANDI:
      case Opcode::ORI: case Opcode::XORI: case Opcode::SHLI:
      case Opcode::SHRI: case Opcode::SARI: {
        GrVal a = evalGrDec(prog, frame, inst.src[0]);
        GrVal b = evalGrDec(prog, frame, inst.src[1]);
        if (a.nat || b.nat) {
            frame.writeGr(inst.dest0, GrVal{0, true});
            break;
        }
        int64_t r = detail::aluEval(op, a.v, b.v, eff);
        if (eff.trap)
            break;
        frame.writeGr(inst.dest0, GrVal{r, false});
        break;
      }

      case Opcode::SXT: case Opcode::ZXT: {
        GrVal a = evalGrDec(prog, frame, inst.src[0]);
        if (a.nat) {
            frame.writeGr(inst.dest0, GrVal{0, true});
            break;
        }
        uint64_t u = static_cast<uint64_t>(a.v);
        int bits = inst.size * 8;
        uint64_t maskv = bits >= 64 ? ~0ull : ((1ull << bits) - 1);
        u &= maskv;
        int64_t r;
        if (op == Opcode::SXT && bits < 64 &&
            (u & (1ull << (bits - 1)))) {
            r = static_cast<int64_t>(u | ~maskv);
        } else {
            r = static_cast<int64_t>(u);
        }
        frame.writeGr(inst.dest0, GrVal{r, false});
        break;
      }

      case Opcode::CMP:
      case Opcode::CMPI: {
        GrVal a = evalGrDec(prog, frame, inst.src[0]);
        GrVal b = evalGrDec(prog, frame, inst.src[1]);
        if (a.nat || b.nat) {
            // IA-64: NaT sources clear the destination pair (norm/unc/and);
            // or-type leaves destinations unchanged.
            if (inst.ctype != CmpType::Or) {
                frame.writePr(inst.dest0, false);
                frame.writePr(inst.dest1, false);
            }
            break;
        }
        bool c = detail::cmpEval(inst.cond, a.v, b.v);
        switch (inst.ctype) {
          case CmpType::Norm:
          case CmpType::Unc:
            frame.writePr(inst.dest0, c);
            frame.writePr(inst.dest1, !c);
            break;
          case CmpType::And:
            if (!c) {
                frame.writePr(inst.dest0, false);
                frame.writePr(inst.dest1, false);
            }
            break;
          case CmpType::Or:
            if (c) {
                frame.writePr(inst.dest0, true);
                frame.writePr(inst.dest1, true);
            }
            break;
        }
        break;
      }

      // ld.a is architecturally a plain load (the ALAT is timing-only
      // state); chk.a is an idempotent reload of the same address into
      // the same destination, so re-executing the load IS the recovery.
      case Opcode::LD:
      case Opcode::LD_A:
      case Opcode::CHK_A: {
        GrVal a = evalGrDec(prog, frame, inst.src[0]);
        eff.is_mem = true;
        eff.is_load = true;
        if (a.nat) {
            if (inst.spec) {
                // NaT address on a speculative chain: defer.
                frame.writeGr(inst.dest0, GrVal{0, true});
                eff.mem_deferred = true;
                break;
            }
            eff.trap = true;
            eff.trap_msg = "non-speculative load with NaT address";
            break;
        }
        uint64_t addr = static_cast<uint64_t>(a.v);
        eff.addr = addr;
        bool null_page = (addr >> Memory::kPageBits) == 0;
        uint64_t raw = 0;
        // Single page lookup resolves "mapped?" and the data together.
        if (null_page || !mem.tryRead(addr, inst.size, raw)) {
            if (inst.spec) {
                frame.writeGr(inst.dest0, GrVal{0, true});
                eff.mem_deferred = true;
                eff.mem_null_page = null_page;
                eff.mem_wild = !null_page;
                break;
            }
            eff.trap = true;
            eff.trap_msg = null_page
                               ? "non-speculative NULL-page access"
                               : "non-speculative load from unmapped page";
            break;
        }
        // Loads zero-extend like IA-64 ld1/ld2/ld4; full-width as-is.
        frame.writeGr(inst.dest0,
                      GrVal{static_cast<int64_t>(raw), false});
        break;
      }

      case Opcode::ST: {
        GrVal a = evalGrDec(prog, frame, inst.src[0]);
        GrVal v = evalGrDec(prog, frame, inst.src[1]);
        eff.is_mem = true;
        if (a.nat || v.nat) {
            eff.trap = true;
            eff.trap_msg = "store consumed NaT";
            break;
        }
        uint64_t addr = static_cast<uint64_t>(a.v);
        eff.addr = addr;
        if ((addr >> Memory::kPageBits) == 0 ||
            !mem.tryWrite(addr, static_cast<uint64_t>(v.v), inst.size)) {
            eff.trap = true;
            eff.trap_msg = "store to unmapped page";
            break;
        }
        break;
      }

      case Opcode::BR:
        eff.ctl = Effect::Ctl::Branch;
        eff.branch_target = inst.target;
        break;

      case Opcode::BR_CALL:
        eff.ctl = Effect::Ctl::Call;
        eff.callee = inst.target;
        break;

      case Opcode::BR_ICALL: {
        GrVal tok = evalGrDec(prog, frame, inst.src[0]);
        if (tok.nat) {
            eff.trap = true;
            eff.trap_msg = "indirect call through NaT token";
            break;
        }
        if (!prog.func(static_cast<int>(tok.v))) {
            eff.trap = true;
            eff.trap_msg = "indirect call to bad function token";
            break;
        }
        eff.ctl = Effect::Ctl::Call;
        eff.callee = static_cast<int>(tok.v);
        break;
      }

      case Opcode::BR_RET:
        eff.ctl = Effect::Ctl::Ret;
        if (inst.nsrcs > 0) {
            eff.has_ret_val = true;
            eff.ret_val = evalGrDec(prog, frame, inst.src[0]);
        }
        break;

      case Opcode::CHK_S: {
        GrVal a = evalGrDec(prog, frame, inst.src[0]);
        if (a.nat) {
            eff.ctl = Effect::Ctl::Branch;
            eff.branch_target = inst.target;
        }
        break;
      }

      case Opcode::ALLOC:
      case Opcode::NOP:
        break;

      default:
        epic_panic("execDecoded: unhandled opcode ",
                   opcodeInfo(op).name);
    }

    return eff;
}

/** Runtime-dispatched form of the kernel (see execDecodedImpl). */
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline Effect
execDecoded(const Program &prog, const DecodedInstr &inst, Frame &frame,
            Memory &mem)
{
    return execDecodedImpl<-1>(prog, inst, frame, mem);
}

} // namespace epic

#endif // EPIC_SIM_DECODE_H
