/**
 * @file
 * Regression tests pinning bugs found during development, so they stay
 * fixed. Each test documents the failure mode it guards against.
 */
#include <gtest/gtest.h>

#include "analysis/cfg.h"
#include "analysis/liveness.h"
#include "analysis/manager.h"
#include "ilp/superblock.h"
#include "opt/classical.h"
#include "driver/compiler.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "sched/regalloc.h"
#include "sim/interp.h"
#include "sim/timing.h"

namespace epic {
namespace {

/**
 * Guard: a value redefined *after* a mid-block side exit must stay
 * live-in to the block along the exit path. The original gen/kill
 * formulation treated superblocks as straight-line code, so the
 * register allocator recycled the physical register and corrupted the
 * value observed at the side-exit target (found by the fuzz suite).
 */
TEST(LivenessRegression, SideExitBeforeRedefinitionKeepsValueLive)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("sb", 1);
    BasicBlock *body = b.newBlock();
    BasicBlock *exit_bb = b.newBlock();
    BasicBlock *done = b.newBlock();

    Reg x = b.gr();
    b.moviTo(x, 7);
    b.fallthrough(body);

    // body (superblock shape): side exit, then redefine x, loop back.
    b.setBlock(body);
    auto [pe, pne] = b.cmpi(CmpCond::GT, b.param(0), 10);
    (void)pne;
    b.br(pe, exit_bb); // x's old value must survive along this edge
    b.moviTo(x, 99);   // redefinition AFTER the side exit
    auto [pl, pge] = b.cmpi(CmpCond::LT, x, 100);
    (void)pge;
    b.br(pl, done);
    b.jump(body);

    b.setBlock(exit_bb);
    b.ret(x); // reads the pre-redefinition value when exit taken

    b.setBlock(done);
    b.ret(b.movi(0));

    Cfg cfg(*f);
    Liveness live(cfg);
    EXPECT_TRUE(live.liveIn(body->id).count(x))
        << "x must be live-in: the side exit reads the incoming value";
}

/** The end-to-end shape of the same bug: semantics across allocation. */
TEST(LivenessRegression, AllocationPreservesSideExitValues)
{
    Program p;
    int sym = p.addSymbol("arr", 64 * 8);
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    BasicBlock *loop = b.newBlock();
    BasicBlock *out = b.newBlock();

    Reg i = b.gr(), x = b.gr(), acc = b.gr();
    b.moviTo(i, 0);
    b.moviTo(x, 1111);
    b.moviTo(acc, 0);
    Reg base = b.mova(sym);
    b.fallthrough(loop);

    // Superblock-style body: use-at-exit-target of a value redefined
    // after the side exit.
    b.setBlock(loop);
    auto [pex, pstay] = b.cmpi(CmpCond::GE, i, 40);
    (void)pstay;
    b.br(pex, out);              // when taken, x holds LAST iteration's value
    Reg ea = b.add(base, b.shli(b.andi(i, 63), 3));
    b.st(ea, x, 8, MemHint{sym, -1});
    Reg nx = b.addi(x, 3);       // redefine x after the exit
    b.movTo(x, nx);
    b.addiTo(i, i, 1);
    b.jump(loop);

    b.setBlock(out);
    b.ret(b.add(acc, x));
    p.entry_func = f->id;

    p.layoutData();
    int64_t truth;
    {
        Memory mem;
        mem.initFromProgram(p);
        auto r = interpret(p, mem);
        ASSERT_TRUE(r.ok) << r.error;
        truth = r.ret_value;
    }
    AnalysisManager am(*f);
    allocateRegisters(*f, am);
    ASSERT_TRUE(verifyProgram(p).empty());
    {
        Memory mem;
        mem.initFromProgram(p);
        auto r = interpret(p, mem);
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.ret_value, truth);
    }
}

/**
 * Guard: and/or-type parallel compares conditionally merge into their
 * destinations (read-modify-write); they must not kill the previous
 * value in liveness/DCE. Before the fix the previous value's range
 * ended at the compare and allocation could recycle its register.
 */
TEST(LivenessRegression, AndTypeCompareDoesNotKill)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("andcmp", 2);
    Reg pd = b.pr(), pjunk = b.pr();
    b.movp(pd, true);
    // and-type: clears pd only when param0 <= 5.
    Instruction andc;
    andc.op = Opcode::CMPI;
    andc.cond = CmpCond::GT;
    andc.ctype = CmpType::And;
    andc.dests = {pd, pjunk};
    andc.srcs = {Operand::makeReg(b.param(0)), Operand::makeImm(5)};
    b.emit(andc);
    Reg out = b.movi(1);
    b.moviTo(out, 2, pd);
    b.ret(out);

    // The incoming movp value flows through the and-compare.
    std::vector<Reg> uses;
    instrUses(f->block(f->entry)->instrs[1], uses);
    bool pd_used = false;
    for (Reg r : uses)
        if (r == pd)
            pd_used = true;
    EXPECT_TRUE(pd_used);
    EXPECT_FALSE(
        defsAreUnconditional(f->block(f->entry)->instrs[1]));

    // DCE must not delete the initializing movp.
    AnalysisManager am(*f);
    deadCodeElim(*f, am);
    bool movp_alive = false;
    for (const Instruction &inst : f->block(f->entry)->instrs)
        if (inst.op == Opcode::MOVP)
            movp_alive = true;
    EXPECT_TRUE(movp_alive);
}

/**
 * Guard: an unc-type compare under a guard writes its destinations
 * unconditionally (clearing them when squashed) and must count as a
 * kill.
 */
TEST(LivenessRegression, UncCompareKills)
{
    Instruction unc;
    unc.op = Opcode::CMPI;
    unc.ctype = CmpType::Unc;
    unc.guard = Reg(RegClass::Pr, 20);
    EXPECT_TRUE(defsAreUnconditional(unc));

    Instruction norm;
    norm.op = Opcode::CMPI;
    norm.ctype = CmpType::Norm;
    norm.guard = Reg(RegClass::Pr, 20);
    EXPECT_FALSE(defsAreUnconditional(norm));
    norm.guard = kPrTrue;
    EXPECT_TRUE(defsAreUnconditional(norm));
}

/**
 * Guard: immediate substitution must never produce reg+imm forms for
 * opcodes without immediate encodings (mul once received an Imm
 * operand and the verifier rejected the function mid-pipeline).
 */
TEST(ClassicalRegression, MulWithConstantBecomesShiftOrStaysReg)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 1);
    Reg k7 = b.movi(7);
    Reg m7 = b.mul(b.param(0), k7); // not a power of two: stays mul
    Reg k8 = b.movi(8);
    Reg m8 = b.mul(b.param(0), k8); // power of two: becomes a shift
    b.ret(b.add(m7, m8));
    p.entry_func = f->id;

    localValueProp(*f);
    auto errs = verifyFunction(*f);
    ASSERT_TRUE(errs.empty()) << errs[0];
    for (const Instruction &inst : f->block(f->entry)->instrs) {
        if (inst.op == Opcode::MUL) {
            EXPECT_TRUE(inst.srcs[1].isReg())
                << "mul has no immediate form";
        }
    }
}

/**
 * Guard: superblock formation must not merge away a block that a
 * second (mid-block) branch still targets — that left dangling branch
 * targets in crafty until trace growth checked for duplicate exits.
 */
TEST(SuperblockRegression, DuplicateExitTargetsDoNotDangle)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    BasicBlock *mid = b.newBlock();
    BasicBlock *shared = b.newBlock();
    BasicBlock *done = b.newBlock();

    Reg x = b.movi(3);
    auto [p1, p1f] = b.cmpi(CmpCond::GT, x, 100);
    (void)p1f;
    b.br(p1, shared); // first exit to `shared`
    b.fallthrough(mid);

    b.setBlock(mid);
    auto [p2, p2f] = b.cmpi(CmpCond::GT, x, 50);
    (void)p2f;
    b.br(p2, shared); // second exit to the same target
    b.fallthrough(shared);

    b.setBlock(shared);
    Reg r = b.addi(x, 1);
    b.fallthrough(done);
    b.setBlock(done);
    b.ret(r);
    p.entry_func = f->id;

    // Hand profile so traces form.
    for (auto &bp : f->blocks)
        if (bp)
            bp->weight = 100;
    AnalysisManager am(*f);
    formSuperblocks(*f, am);
    auto errs = verifyProgram(p);
    EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs[0]);
}

} // namespace
/**
 * Compile `p` at GCC, O-NS and ILP-CS (after a profile run) and check
 * that the timing simulator returns what the source interpreter does.
 */
void
expectRungsMatchSource(Program &p, int64_t truth)
{
    p.layoutData();
    ASSERT_TRUE(verifyProgram(p).empty());
    {
        Memory mem;
        mem.initFromProgram(p);
        auto r = interpret(p, mem);
        ASSERT_TRUE(r.ok) << r.error;
        ASSERT_EQ(r.ret_value, truth);
    }
    {
        Memory mem;
        mem.initFromProgram(p);
        ASSERT_TRUE(profileRun(p, mem).ok);
    }
    for (Config cfg : {Config::Gcc, Config::ONS, Config::IlpCs}) {
        Compiled c = compileProgram(p, cfg);
        Memory mem;
        mem.initFromProgram(*c.prog);
        auto r = simulate(*c.prog, mem, {});
        ASSERT_TRUE(r.ok) << configName(cfg) << ": " << r.error;
        EXPECT_EQ(r.ret_value, truth) << configName(cfg);
    }
}

/**
 * Guard: r0 is hardwired to zero and both simulators discard writes to
 * it, so a constant written to r0 must not reach r0's readers (value
 * propagation once folded `movi gr0 = 77; add x = n, gr0` to 82).
 */
TEST(ClassicalRegression, ConstantWrittenToR0IsNotPropagated)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    Reg n = b.movi(5);
    b.moviTo(kGrZero, 77);
    b.ret(b.add(n, kGrZero));
    p.entry_func = f->id;
    expectRungsMatchSource(p, 5);
}

/** Guard: the same for a copy into r0 (`mov gr0 = y`). */
TEST(ClassicalRegression, CopyIntoR0IsNotPropagated)
{
    Program p;
    IRBuilder b(p);
    Function *callee = b.beginFunction("callee", 2);
    Reg n = b.param(0), y = b.param(1);
    b.movTo(kGrZero, y);
    b.ret(b.add(n, kGrZero));
    Function *f = b.beginFunction("main", 0);
    b.ret(b.call(callee, {b.movi(5), b.movi(9)}));
    p.entry_func = f->id;
    expectRungsMatchSource(p, 5);
}

/**
 * Guard: an expression computed into r0 is not available there, so CSE
 * must not replace a later `add y = a, b` with a copy of r0.
 */
TEST(ClassicalRegression, ExpressionComputedIntoR0IsNotReused)
{
    Program p;
    IRBuilder b(p);
    Function *callee = b.beginFunction("callee", 2);
    Reg a = b.param(0), c = b.param(1);
    b.addTo(kGrZero, a, c);
    b.ret(b.add(a, c));
    Function *f = b.beginFunction("main", 0);
    b.ret(b.call(callee, {b.movi(5), b.movi(9)}));
    p.entry_func = f->id;
    expectRungsMatchSource(p, 14);
}

} // namespace epic
