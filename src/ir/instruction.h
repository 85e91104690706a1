/**
 * @file
 * Instruction representation for the EPIC IR (Lcode-like: non-SSA,
 * three-operand, fully predicated).
 *
 * Every instruction carries a guard predicate (kPrTrue when unconditional),
 * up to two destinations (parallel compares write a predicate pair), a
 * source list (calls may have up to eight argument sources), an optional
 * control-flow target, a memory access size, a control-speculation flag,
 * and provenance attributes used by the experiment harnesses to attribute
 * cache misses to the transformation that created the code (tail
 * duplication, loop peeling, ...), as the paper does in Section 4.1.
 */
#ifndef EPIC_IR_INSTRUCTION_H
#define EPIC_IR_INSTRUCTION_H

#include <cstdint>
#include <string>

#include "ir/handles.h"
#include "ir/opcode.h"
#include "ir/reg.h"
#include "support/arena.h"
#include "support/smallvec.h"

namespace epic {

/** Operand: a register, an immediate, or a symbol/function reference. */
struct Operand
{
    enum class Kind : uint8_t { None, Reg, Imm, Sym, Func };

    Kind kind = Kind::None;
    Reg reg;
    int64_t imm = 0;    ///< integer immediate / symbol offset
    int32_t sym = -1;   ///< data symbol id (Kind::Sym)
    int32_t func = -1;  ///< function id (Kind::Func)

    Operand() = default;
    static Operand
    makeReg(Reg r)
    {
        Operand o;
        o.kind = Kind::Reg;
        o.reg = r;
        return o;
    }
    static Operand
    makeImm(int64_t v)
    {
        Operand o;
        o.kind = Kind::Imm;
        o.imm = v;
        return o;
    }
    static Operand
    makeSym(int32_t sym_id, int64_t offset)
    {
        Operand o;
        o.kind = Kind::Sym;
        o.sym = sym_id;
        o.imm = offset;
        return o;
    }
    static Operand
    makeFunc(int32_t func_id)
    {
        Operand o;
        o.kind = Kind::Func;
        o.func = func_id;
        return o;
    }

    bool isReg() const { return kind == Kind::Reg; }
    std::string str() const;
};

/**
 * Provenance attributes (bitmask). The I-cache experiments attribute
 * misses by these flags, reproducing the paper's Section 4.1 accounting
 * of tail-duplicated and residual-loop code.
 */
enum InstrAttr : uint32_t {
    kAttrNone = 0,
    kAttrTailDup = 1u << 0,    ///< created by tail duplication
    kAttrPeelCopy = 1u << 1,   ///< peeled-out loop iteration copy
    kAttrRemainder = 1u << 2,  ///< residual ("clean-up") loop body
    kAttrInlined = 1u << 3,    ///< inlined from another function
    kAttrPromoted = 1u << 4,   ///< predicate-promoted (speculative)
    kAttrSpecMoved = 1u << 5,  ///< moved above a branch (speculative)
    kAttrSpill = 1u << 6,      ///< register-allocator spill/fill code
    kAttrUnrolled = 1u << 7,   ///< loop-unroll copy
    kAttrAdvanced = 1u << 8,   ///< data-speculation pair (ld.a / chk.a)
};

/** Profile annotation entry for indirect calls. */
struct ProfCallee
{
    int32_t callee = -1;
    double count = 0.0;
};

/**
 * One IR instruction.
 *
 * Trivially copyable by design (DESIGN.md §16): operand lists use
 * fixed-capacity inline storage (the verifier enforces the arities) and
 * the variable-length indirect-call profile lives in the owning
 * function's arena as a raw span. That makes a function clone a memcpy
 * of instruction arrays plus explicit profile-span reattachment, and
 * lets arena rollback discard instructions without destructor sweeps.
 */
class Instruction
{
  public:
    /// Maximum destinations (parallel compares write a predicate pair).
    static constexpr uint32_t kMaxDests = 2;
    /// Maximum sources (indirect call: function token + 8 arguments).
    static constexpr uint32_t kMaxSrcs = 9;

    Opcode op = Opcode::NOP;
    Reg guard = kPrTrue;   ///< qualifying predicate
    InlineVec<Reg, kMaxDests> dests;
    InlineVec<Operand, kMaxSrcs> srcs;

    CmpCond cond = CmpCond::EQ;  ///< CMP/CMPI only
    CmpType ctype = CmpType::Norm;
    uint8_t size = 8;    ///< LD/ST/SXT/ZXT access size; NOP unit class
    bool spec = false;   ///< control-speculative (ld.s / moved code)

    BlockId target = kNoBlock; ///< branch/chk target block id (-1: none)
    int callee = -1;     ///< direct-call target function id (-1: none)

    uint32_t attr = kAttrNone;

    /// Memory disambiguation hints, filled by the program builder: the
    /// data symbol this access provably stays within (-1 if unknown), and
    /// an "alias group" that over-approximates may-alias classes among
    /// unknown accesses (-1: may alias anything).
    int32_t sym_hint = -1;
    int32_t alias_group = -1;

    /// Profile annotation: times this branch was taken (branches only).
    double prof_taken = 0.0;

    /// Scheduler result: issue cycle within the block (-1: unscheduled).
    int sched_cycle = -1;

    /**
     * Profile annotation for indirect calls: (callee id, count) pairs
     * in the owning function's arena. The span is part of the trivial
     * copy, so cross-arena copies (clone, inlining) must call
     * reattachProf() on the destination or the span dangles once the
     * source function dies.
     */
    Span<const ProfCallee> profCallees() const
    {
        return {prof_data_, prof_len_};
    }
    Span<ProfCallee> profCallees() { return {prof_data_, prof_len_}; }

    /** Append a profile entry, growing in `a` (the owner's arena). */
    void
    addProfCallee(Arena &a, int32_t callee_id, double count)
    {
        if (prof_len_ == prof_cap_) {
            uint32_t cap = prof_cap_ ? prof_cap_ * 2 : 4;
            ProfCallee *nd = a.allocArray<ProfCallee>(cap);
            for (uint32_t i = 0; i < prof_len_; ++i)
                nd[i] = prof_data_[i];
            prof_data_ = nd; // old span abandoned in the arena
            prof_cap_ = cap;
        }
        prof_data_[prof_len_++] = ProfCallee{callee_id, count};
    }

    /** Empty the profile, keeping the span for in-place refill. */
    void clearProfCallees() { prof_len_ = 0; }

    /**
     * Empty the profile AND detach the span. Use instead of clear()
     * when this instruction was copied from another one and both are
     * still live: a trivial copy shares the span, so refilling a merely
     * cleared copy would scribble over the original's entries.
     */
    void
    dropProfCallees()
    {
        prof_data_ = nullptr;
        prof_len_ = prof_cap_ = 0;
    }

    /** Re-home the profile span into `a` after a cross-arena copy. */
    void
    reattachProf(Arena &a)
    {
        if (prof_len_ == 0) {
            prof_data_ = nullptr;
            prof_cap_ = 0;
            return;
        }
        ProfCallee *nd = a.allocArray<ProfCallee>(prof_len_);
        for (uint32_t i = 0; i < prof_len_; ++i)
            nd[i] = prof_data_[i];
        prof_data_ = nd;
        prof_cap_ = prof_len_;
    }

    const OpcodeInfo &info() const { return opcodeInfo(op); }
    bool isLoad() const { return info().is_load; }
    bool isStore() const { return info().is_store; }
    bool isMem() const { return isLoad() || isStore(); }
    bool isBranch() const { return info().is_branch; }
    bool isCall() const { return info().is_call; }
    bool isRet() const { return info().is_ret; }
    bool
    hasGuard() const
    {
        return guard != kPrTrue;
    }

    /** Render in assembly-like text. */
    std::string str() const;

  private:
    ProfCallee *prof_data_ = nullptr;
    uint32_t prof_len_ = 0;
    uint32_t prof_cap_ = 0;
};

static_assert(std::is_trivially_copyable_v<Instruction>,
              "Instruction must stay memcpy-clonable (DESIGN.md §16)");

} // namespace epic

#endif // EPIC_IR_INSTRUCTION_H
