/**
 * @file
 * Opcode set and static opcode metadata for the EPIC IR.
 *
 * The opcode set is a distilled IA-64: three-operand integer ALU ops,
 * sized loads/stores with an optional control-speculative form, parallel
 * compares writing predicate pairs, fully-predicated branches, a
 * speculation check (chk.s), and a register-stack alloc. Functional-unit
 * classes and latencies follow the Itanium 2 dispersal and bypass model.
 * The ISA is integer-only, like the SPECint programs it stands in for:
 * the F unit executes integer multiply and divide, as xma does.
 */
#ifndef EPIC_IR_OPCODE_H
#define EPIC_IR_OPCODE_H

#include <cstddef>
#include <cstdint>

namespace epic {

/** Operation codes. */
enum class Opcode : uint8_t {
    // Data movement
    MOV,    ///< gr = gr
    MOVI,   ///< gr = imm
    MOVA,   ///< gr = address of data symbol (+offset)
    MOVFN,  ///< gr = function token (for indirect calls)
    MOVP,   ///< pr = imm (predicate set/clear)
    // Integer ALU (A-type: any M or I slot)
    ADD, SUB, AND, OR, XOR, ADDI, SUBI, ANDI, ORI, XORI,
    CMP,    ///< pr1, pr2 = cond(gr, gr); ctype selects unc/and/or behavior
    CMPI,   ///< pr1, pr2 = cond(gr, imm)
    // Integer shifts and extensions (I-unit only, like Itanium 2)
    SHL, SHR, SAR, SHLI, SHRI, SARI,
    SXT,    ///< sign-extend low 1/2/4 bytes (size field)
    ZXT,    ///< zero-extend low 1/2/4 bytes (size field)
    // Multiply/divide (executed on the FP unit, like IA-64 xma/frcpa)
    MUL, DIV, REM,
    // Memory (M-unit); access size in Instruction::size
    LD,     ///< gr = [gr]; speculative form when Instruction::spec
    ST,     ///< [gr] = gr
    // Control (B-unit); all fully predicated by the guard
    BR,      ///< branch to label when guard true
    BR_CALL, ///< direct call; srcs = args, dest0 = return value (optional)
    BR_ICALL,///< indirect call through gr holding a function token
    BR_RET,  ///< return; src0 = return value (optional)
    CHK_S,   ///< if src gr holds NaT, branch to recovery label
    // Misc
    ALLOC,   ///< declare register-stack frame of 'imm' stacked registers
    NOP,     ///< explicit no-op (slot filler; unit class in 'size' field)
    // Data speculation (appended so existing positional tables persist)
    LD_A,    ///< advanced load: gr = [gr], allocates an ALAT entry
    CHK_A,   ///< advanced-load check: reload [gr] into the same dest;
             ///< an ALAT hit makes the reload free in the timing model

    NumOpcodes,
};

/** Comparison conditions for CMP/CMPI. */
enum class CmpCond : uint8_t { EQ, NE, LT, LE, GT, GE, LTU, GEU };

/**
 * Parallel-compare types (IA-64): how the two predicate destinations are
 * written. Norm writes (cond, !cond); Unc additionally clears both when
 * the guard is false; And clears both dests when cond is false (guard
 * true); Or sets both dests when cond is true.
 */
enum class CmpType : uint8_t { Norm, Unc, And, Or };

/** Functional-unit classes (dispersal targets). */
enum class FuClass : uint8_t {
    A, ///< either an M or an I slot
    I, ///< integer unit only
    M, ///< memory unit only
    F, ///< floating-point unit only (integer multiply/divide here)
    B, ///< branch unit only
};

/** Static metadata for one opcode. */
struct OpcodeInfo
{
    const char *name;
    FuClass fu;
    int latency;     ///< result latency in cycles (loads: L1-hit latency)
    bool is_load;
    bool is_store;
    bool is_branch;  ///< any control transfer (br/call/ret/chk)
    bool is_call;
    bool is_ret;
    bool has_side_effect; ///< must not be speculated or dead-code removed
};

namespace detail {

// Latencies follow the Itanium 2 bypass network: ALU 1 cycle, integer
// load 1 cycle on an L1D hit, integer multiply 6 (xma via the FP unit),
// divide ~24 (frcpa Newton-Raphson sequence).
inline constexpr OpcodeInfo kOpcodeTable[] = {
    //                      name     fu          lat  ld     st     br     call   ret    side
    /* MOV      */ {"mov",      FuClass::A, 1, false, false, false, false, false, false},
    /* MOVI     */ {"movi",     FuClass::A, 1, false, false, false, false, false, false},
    /* MOVA     */ {"mova",     FuClass::A, 1, false, false, false, false, false, false},
    /* MOVFN    */ {"movfn",    FuClass::A, 1, false, false, false, false, false, false},
    /* MOVP     */ {"movp",     FuClass::A, 1, false, false, false, false, false, false},
    /* ADD      */ {"add",      FuClass::A, 1, false, false, false, false, false, false},
    /* SUB      */ {"sub",      FuClass::A, 1, false, false, false, false, false, false},
    /* AND      */ {"and",      FuClass::A, 1, false, false, false, false, false, false},
    /* OR       */ {"or",       FuClass::A, 1, false, false, false, false, false, false},
    /* XOR      */ {"xor",      FuClass::A, 1, false, false, false, false, false, false},
    /* ADDI     */ {"addi",     FuClass::A, 1, false, false, false, false, false, false},
    /* SUBI     */ {"subi",     FuClass::A, 1, false, false, false, false, false, false},
    /* ANDI     */ {"andi",     FuClass::A, 1, false, false, false, false, false, false},
    /* ORI      */ {"ori",      FuClass::A, 1, false, false, false, false, false, false},
    /* XORI     */ {"xori",     FuClass::A, 1, false, false, false, false, false, false},
    /* CMP      */ {"cmp",      FuClass::A, 1, false, false, false, false, false, false},
    /* CMPI     */ {"cmpi",     FuClass::A, 1, false, false, false, false, false, false},
    /* SHL      */ {"shl",      FuClass::I, 1, false, false, false, false, false, false},
    /* SHR      */ {"shr",      FuClass::I, 1, false, false, false, false, false, false},
    /* SAR      */ {"sar",      FuClass::I, 1, false, false, false, false, false, false},
    /* SHLI     */ {"shli",     FuClass::I, 1, false, false, false, false, false, false},
    /* SHRI     */ {"shri",     FuClass::I, 1, false, false, false, false, false, false},
    /* SARI     */ {"sari",     FuClass::I, 1, false, false, false, false, false, false},
    /* SXT      */ {"sxt",      FuClass::I, 1, false, false, false, false, false, false},
    /* ZXT      */ {"zxt",      FuClass::I, 1, false, false, false, false, false, false},
    /* MUL      */ {"mul",      FuClass::F, 6, false, false, false, false, false, false},
    /* DIV      */ {"div",      FuClass::F, 24, false, false, false, false, false, false},
    /* REM      */ {"rem",      FuClass::F, 24, false, false, false, false, false, false},
    /* LD       */ {"ld",       FuClass::M, 1, true,  false, false, false, false, false},
    /* ST       */ {"st",       FuClass::M, 1, false, true,  false, false, false, true},
    /* BR       */ {"br",       FuClass::B, 1, false, false, true,  false, false, true},
    /* BR_CALL  */ {"br.call",  FuClass::B, 1, false, false, true,  true,  false, true},
    /* BR_ICALL */ {"br.icall", FuClass::B, 1, false, false, true,  true,  false, true},
    /* BR_RET   */ {"br.ret",   FuClass::B, 1, false, false, true,  false, true,  true},
    /* CHK_S    */ {"chk.s",    FuClass::I, 1, false, false, true,  false, false, true},
    /* ALLOC    */ {"alloc",    FuClass::M, 1, false, false, false, false, false, true},
    /* NOP      */ {"nop",      FuClass::A, 1, false, false, false, false, false, false},
    // chk.a carries has_side_effect so no transform ever moves, guards
    // or dead-code-removes the check away from its original site; it is
    // still is_load (the architected semantics are an idempotent reload)
    // so the DAG keeps it ordered against may-aliasing stores.
    /* LD_A     */ {"ld.a",     FuClass::M, 1, true,  false, false, false, false, false},
    /* CHK_A    */ {"chk.a",    FuClass::M, 1, true,  false, false, false, false, true},
};

static_assert(sizeof(kOpcodeTable) / sizeof(kOpcodeTable[0]) ==
                  static_cast<size_t>(Opcode::NumOpcodes),
              "opcode table out of sync");

} // namespace detail

/** Lookup static metadata. Header-inline: this runs once per simulated
 *  instruction, so the table indexing must fold into the caller. Opcode
 *  values come from the enum, so the index is in range by construction
 *  (the static_assert above keeps the table in sync). */
inline const OpcodeInfo &
opcodeInfo(Opcode op)
{
    return detail::kOpcodeTable[static_cast<size_t>(op)];
}

/** Condition mnemonic ("eq", "ne", ...). */
const char *cmpCondName(CmpCond c);
/** Compare-type mnemonic ("", "unc", "and", "or"). */
const char *cmpTypeName(CmpType t);

} // namespace epic

#endif // EPIC_IR_OPCODE_H
