/**
 * @file
 * Convenience builder for constructing IR programs (the workload
 * generators and unit tests are its main clients).
 *
 * The builder tracks a current function and insertion block; emit helpers
 * allocate a destination virtual register and return it. All helpers take
 * an optional guard predicate (defaults to always-true kPrTrue).
 */
#ifndef EPIC_IR_BUILDER_H
#define EPIC_IR_BUILDER_H

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "ir/program.h"

namespace epic {

/** Memory-disambiguation hint attached to loads/stores by the builder. */
struct MemHint
{
    int32_t sym = -1;   ///< symbol the access provably stays within
    int32_t group = -1; ///< alias group among hint-less accesses
};

/** Fluent IR construction helper. */
class IRBuilder
{
  public:
    explicit IRBuilder(Program &prog) : prog_(prog) {}

    /**
     * Create a function with `nparams` parameters and make it current.
     * The entry block is created and becomes the insertion point.
     */
    Function *beginFunction(const std::string &name, int nparams,
                            uint32_t attr = kFuncNone);

    /** Set the insertion block. */
    void setBlock(BasicBlock *b) { bb_ = b; }

    BasicBlock *blockNow() { return bb_; }

    /** Create a new empty block in the current function. */
    BasicBlock *newBlock();

    /** i-th parameter register of the current function. */
    Reg param(int i) const;

    // ---- Register creation ----
    Reg gr() { return fn_->makeReg(RegClass::Gr); }
    Reg pr() { return fn_->makeReg(RegClass::Pr); }

    // ---- Data movement ----
    Reg movi(int64_t v, Reg guard = kPrTrue);
    void moviTo(Reg d, int64_t v, Reg guard = kPrTrue);
    Reg mov(Reg s, Reg guard = kPrTrue);
    void movTo(Reg d, Reg s, Reg guard = kPrTrue);
    Reg mova(int sym, int64_t offset = 0, Reg guard = kPrTrue);
    Reg movfn(const Function *f, Reg guard = kPrTrue);
    void movp(Reg pd, bool value, Reg guard = kPrTrue);

    // ---- Integer arithmetic ----
    Reg add(Reg a, Reg b, Reg guard = kPrTrue);
    void addTo(Reg d, Reg a, Reg b, Reg guard = kPrTrue);
    Reg addi(Reg a, int64_t imm, Reg guard = kPrTrue);
    void addiTo(Reg d, Reg a, int64_t imm, Reg guard = kPrTrue);
    Reg sub(Reg a, Reg b, Reg guard = kPrTrue);
    Reg subi(Reg a, int64_t imm, Reg guard = kPrTrue);
    Reg mul(Reg a, Reg b, Reg guard = kPrTrue);
    Reg div(Reg a, Reg b, Reg guard = kPrTrue);
    Reg rem(Reg a, Reg b, Reg guard = kPrTrue);
    Reg and_(Reg a, Reg b, Reg guard = kPrTrue);
    Reg andi(Reg a, int64_t imm, Reg guard = kPrTrue);
    Reg or_(Reg a, Reg b, Reg guard = kPrTrue);
    Reg ori(Reg a, int64_t imm, Reg guard = kPrTrue);
    Reg xor_(Reg a, Reg b, Reg guard = kPrTrue);
    Reg xori(Reg a, int64_t imm, Reg guard = kPrTrue);
    Reg shli(Reg a, int64_t sh, Reg guard = kPrTrue);
    Reg shri(Reg a, int64_t sh, Reg guard = kPrTrue);
    Reg shl(Reg a, Reg b, Reg guard = kPrTrue);
    Reg shr(Reg a, Reg b, Reg guard = kPrTrue);

    // ---- Compares (return the {true, false} predicate pair) ----
    std::pair<Reg, Reg> cmp(CmpCond cond, Reg a, Reg b,
                            CmpType ctype = CmpType::Norm,
                            Reg guard = kPrTrue);
    std::pair<Reg, Reg> cmpi(CmpCond cond, Reg a, int64_t imm,
                             CmpType ctype = CmpType::Norm,
                             Reg guard = kPrTrue);

    // ---- Memory ----
    Reg ld(Reg addr, int size = 8, MemHint hint = {}, Reg guard = kPrTrue);
    void ldTo(Reg d, Reg addr, int size = 8, MemHint hint = {},
              Reg guard = kPrTrue);
    void st(Reg addr, Reg val, int size = 8, MemHint hint = {},
            Reg guard = kPrTrue);

    // ---- Control flow ----
    /** Conditional branch: taken when `pred` is true. */
    void br(Reg pred, BasicBlock *tgt);
    /** Unconditional branch. */
    void jump(BasicBlock *tgt);
    /** Set the fall-through successor of the current block. */
    void fallthrough(BasicBlock *next) { bb_->fallthrough = next->id; }
    /** Direct call with a return value. */
    Reg call(const Function *f, std::initializer_list<Reg> args,
             Reg guard = kPrTrue);
    /** Direct call without a return value. */
    void callv(const Function *f, std::initializer_list<Reg> args,
               Reg guard = kPrTrue);
    /** Indirect call through a function token. */
    Reg icall(Reg fn_token, std::initializer_list<Reg> args,
              Reg guard = kPrTrue);
    /** Return (optionally with a value). */
    void ret(Reg val = Reg(), Reg guard = kPrTrue);

    /** Append an arbitrary prebuilt instruction. */
    Instruction &emit(Instruction inst);

  private:
    Instruction &push(Opcode op, Reg guard);

    Program &prog_;
    Function *fn_ = nullptr;
    BasicBlock *bb_ = nullptr;
};

} // namespace epic

#endif // EPIC_IR_BUILDER_H
