/**
 * @file
 * Classical-optimization and inliner tests. The core invariant exercised
 * everywhere: optimization must preserve the architected program result.
 */
#include <gtest/gtest.h>

#include "analysis/cfg.h"
#include "analysis/manager.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "opt/classical.h"
#include "opt/inline.h"
#include "sim/interp.h"

namespace epic {
namespace {

int64_t
runOnce(Program &p)
{
    p.layoutData();
    Memory mem;
    mem.initFromProgram(p);
    auto r = interpret(p, mem);
    EXPECT_TRUE(r.ok) << r.error;
    return r.ret_value;
}

void
profileOnce(Program &p)
{
    p.layoutData();
    Memory mem;
    mem.initFromProgram(p);
    auto r = profileRun(p, mem);
    ASSERT_TRUE(r.ok) << r.error;
}

TEST(ClassicalTest, ConstantFoldingChain)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    Reg a = b.movi(6);
    Reg c = b.movi(7);
    Reg d = b.mul(a, c);
    Reg e = b.addi(d, 8);
    b.ret(e);
    p.entry_func = f->id;

    int64_t before = runOnce(p);
    AliasAnalysis aa(p, AliasLevel::Inter);
    AnalysisManager am(*f, &aa);
    OptStats s = classicalOptimizeFunction(*f, am);
    EXPECT_GT(s.folded, 0);
    EXPECT_TRUE(verifyProgram(p).empty());
    EXPECT_EQ(runOnce(p), before);
    // The whole chain should be a single movi 50 + ret.
    EXPECT_LE(f->staticInstrCount(), 2);
}

TEST(ClassicalTest, CopyPropagation)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 1);
    Reg a = b.mov(b.param(0));
    Reg c = b.mov(a);
    Reg d = b.addi(c, 1);
    b.ret(d);
    p.entry_func = f->id;
    AliasAnalysis aa(p, AliasLevel::Inter);
    AnalysisManager am(*f, &aa);
    OptStats s = classicalOptimizeFunction(*f, am);
    EXPECT_GT(s.propagated + s.dce_removed, 0);
    // Copies should be gone.
    int movs = 0;
    for (auto &inst : f->block(f->entry)->instrs)
        if (inst.op == Opcode::MOV)
            ++movs;
    EXPECT_EQ(movs, 0);
}

TEST(ClassicalTest, CseRemovesRedundantCompute)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 2);
    Reg x = b.add(b.param(0), b.param(1));
    Reg y = b.add(b.param(0), b.param(1)); // redundant
    Reg z = b.add(x, y);
    b.ret(z);
    p.entry_func = f->id;
    AliasAnalysis aa(p, AliasLevel::Inter);
    AnalysisManager am(*f, &aa);
    OptStats s = classicalOptimizeFunction(*f, am);
    EXPECT_GT(s.cse_removed, 0);
    EXPECT_TRUE(verifyProgram(p).empty());
}

TEST(ClassicalTest, RedundantLoadEliminatedUnlessStoreIntervenes)
{
    Program p;
    int sym = p.addSymbol("g", 16);
    int other = p.addSymbol("h", 16);
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    Reg a = b.mova(sym);
    Reg oa = b.mova(other);
    Reg v1 = b.ld(a, 8, MemHint{sym, -1});
    b.st(oa, v1, 8, MemHint{other, -1}); // provably no alias
    Reg v2 = b.ld(a, 8, MemHint{sym, -1}); // redundant under Inter
    b.ret(b.add(v1, v2));
    p.entry_func = f->id;

    auto p2 = p.clone();
    AliasAnalysis inter(p, AliasLevel::Inter);
    OptStats s1 = localCse(*p.func(0), inter);
    EXPECT_EQ(s1.cse_removed, 1);

    AliasAnalysis none(*p2, AliasLevel::None);
    OptStats s2 = localCse(*p2->func(0), none);
    EXPECT_EQ(s2.cse_removed, 0);
}

Reg
gr(int32_t id)
{
    return Reg{RegClass::Gr, id};
}

Instruction
alu(Opcode op, Reg d, Operand a, Operand b)
{
    Instruction inst;
    inst.op = op;
    inst.dests = {d};
    inst.srcs = {a, b};
    return inst;
}

Instruction
addRegs(Reg d, Reg a, Reg b)
{
    return alu(Opcode::ADD, d, Operand::makeReg(a), Operand::makeReg(b));
}

Instruction
moviTo(Reg d, int64_t v)
{
    Instruction inst;
    inst.op = Opcode::MOVI;
    inst.dests = {d};
    inst.srcs = {Operand::makeImm(v)};
    return inst;
}

/** localCse over one block holding `body`; returns the eliminations. */
int
cseRemovals(std::initializer_list<Instruction> body)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    for (const Instruction &inst : body)
        f->block(f->entry)->append(inst);
    b.ret();
    AliasAnalysis aa(p, AliasLevel::Inter);
    return localCse(*f, aa).cse_removed;
}

TEST(ClassicalTest, CseKillsWhenValueRegisterIsRedefined)
{
    const Reg x = gr(200), y = gr(201), a = gr(150), c = gr(151);
    EXPECT_EQ(cseRemovals({addRegs(x, a, c), addRegs(y, a, c)}), 1);
    EXPECT_EQ(cseRemovals({addRegs(x, a, c), moviTo(x, 7),
                           addRegs(y, a, c)}),
              0);
}

TEST(ClassicalTest, CseKillsWhenSourceRegisterIsRedefined)
{
    const Reg x = gr(200), y = gr(201), a = gr(150), c = gr(151);
    EXPECT_EQ(cseRemovals({addRegs(x, a, c), moviTo(c, 7),
                           addRegs(y, a, c)}),
              0);
    // An unrelated def keeps the fact.
    EXPECT_EQ(cseRemovals({addRegs(x, a, c), moviTo(gr(152), 7),
                           addRegs(y, a, c)}),
              1);
}

TEST(ClassicalTest, CseKillsOnlyTheDefinedRegister)
{
    // A fact over gr12 survives a redefinition of gr1, whose name is a
    // prefix of gr12's, and dies at a redefinition of gr12 itself.
    const Reg x = gr(200), y = gr(201);
    EXPECT_EQ(cseRemovals({addRegs(x, gr(12), gr(30)), moviTo(gr(1), 7),
                           addRegs(y, gr(12), gr(30))}),
              1);
    EXPECT_EQ(cseRemovals({addRegs(x, gr(12), gr(30)), moviTo(gr(12), 7),
                           addRegs(y, gr(12), gr(30))}),
              0);
    // Likewise for the second source: gr3 leaves a fact over gr30.
    EXPECT_EQ(cseRemovals({addRegs(x, gr(12), gr(30)), moviTo(gr(3), 7),
                           addRegs(y, gr(12), gr(30))}),
              1);
}

TEST(ClassicalTest, CseSkipsSelfReferencingExpression)
{
    // add x = x, 1 reads the old x: recording it would make the second
    // increment a copy of the first.
    const Reg x = gr(200), y = gr(201);
    const Operand one = Operand::makeImm(1);
    EXPECT_EQ(cseRemovals({alu(Opcode::ADDI, x, Operand::makeReg(x), one),
                           alu(Opcode::ADDI, y, Operand::makeReg(x), one)}),
              0);
    // The same shape into a fresh register is recorded.
    EXPECT_EQ(cseRemovals({alu(Opcode::ADDI, y, Operand::makeReg(x), one),
                           alu(Opcode::ADDI, gr(202), Operand::makeReg(x),
                               one)}),
              1);
}

TEST(ClassicalTest, DceRemovesDeadAndKeepsStores)
{
    Program p;
    int sym = p.addSymbol("g", 16);
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    Reg dead = b.movi(42);
    Reg dead2 = b.addi(dead, 1);
    (void)dead2;
    Reg a = b.mova(sym);
    Reg v = b.movi(9);
    b.st(a, v, 8, MemHint{sym, -1});
    b.ret(v);
    p.entry_func = f->id;
    AnalysisManager am(*f);
    OptStats s = deadCodeElim(*f, am);
    EXPECT_GE(s.dce_removed, 1);
    bool store_alive = false;
    for (auto &inst : f->block(f->entry)->instrs)
        if (inst.isStore())
            store_alive = true;
    EXPECT_TRUE(store_alive);
    EXPECT_EQ(runOnce(p), 9);
}

TEST(ClassicalTest, GuardedDefNotDeadWhilePathLive)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    Reg x = b.movi(5);
    auto [pt, pf] = b.cmpi(CmpCond::GT, x, 3);
    (void)pf;
    Reg out = b.movi(1);
    b.moviTo(out, 2, pt); // guarded def of live reg: must stay
    b.ret(out);
    p.entry_func = f->id;
    AnalysisManager am(*f);
    deadCodeElim(*f, am);
    int movis = 0;
    for (auto &inst : f->block(f->entry)->instrs)
        if (inst.op == Opcode::MOVI)
            ++movis;
    EXPECT_GE(movis, 2);
    EXPECT_EQ(runOnce(p), 2);
}

TEST(ClassicalTest, LicmHoistsInvariantLoad)
{
    Program p;
    int sym = p.addSymbol("inv", 8);
    int arr = p.addSymbol("arr", 800);
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    BasicBlock *loop = b.newBlock();
    BasicBlock *done = b.newBlock();
    Reg i = b.gr(), sum = b.gr();
    b.moviTo(i, 0);
    b.moviTo(sum, 0);
    // Initialize inv.
    Reg ia = b.mova(sym);
    b.st(ia, b.movi(3), 8, MemHint{sym, -1});
    b.fallthrough(loop);

    b.setBlock(loop);
    Reg inv_addr = b.mova(sym);
    Reg inv = b.ld(inv_addr, 8, MemHint{sym, -1}); // invariant
    Reg a = b.mova(arr);
    Reg off = b.shli(i, 3);
    Reg ea = b.add(a, off);
    b.st(ea, inv, 8, MemHint{arr, -1});
    b.addTo(sum, sum, inv);
    b.addiTo(i, i, 1);
    auto [plt, pge] = b.cmpi(CmpCond::LT, i, 100);
    (void)pge;
    b.br(plt, loop);
    b.fallthrough(done);

    b.setBlock(done);
    b.ret(sum);
    p.entry_func = f->id;

    int64_t before = runOnce(p);
    AliasAnalysis aa(p, AliasLevel::Inter);
    AnalysisManager am(*f, &aa);
    OptStats s = classicalOptimizeFunction(*f, am);
    EXPECT_GT(s.licm_moved, 0);
    EXPECT_TRUE(verifyProgram(p).empty());
    EXPECT_EQ(runOnce(p), before);
    EXPECT_EQ(before, 300);
}

TEST(ClassicalTest, PeepholeStrengthReduction)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 1);
    Reg m = b.movi(8);
    Reg r = b.mul(b.param(0), m);
    b.ret(r);
    p.entry_func = f->id;
    AliasAnalysis aa(p, AliasLevel::Inter);
    AnalysisManager am(*f, &aa);
    classicalOptimizeFunction(*f, am);
    bool has_mul = false, has_shl = false;
    for (auto &inst : f->block(f->entry)->instrs) {
        if (inst.op == Opcode::MUL)
            has_mul = true;
        if (inst.op == Opcode::SHLI)
            has_shl = true;
    }
    EXPECT_FALSE(has_mul);
    EXPECT_TRUE(has_shl);
}

// ---------------------------------------------------------------------
// Inliner
// ---------------------------------------------------------------------

/** Build a program where main calls a small hot callee in a loop. */
struct InlineFixture
{
    Program p;
    Function *callee, *mainf;

    InlineFixture()
    {
        IRBuilder b(p);
        callee = b.beginFunction("hot", 2);
        Reg s = b.add(b.param(0), b.param(1));
        b.ret(b.addi(s, 1));

        mainf = b.beginFunction("main", 0);
        BasicBlock *loop = b.newBlock();
        BasicBlock *done = b.newBlock();
        Reg i = b.gr(), acc = b.gr();
        b.moviTo(i, 0);
        b.moviTo(acc, 0);
        b.fallthrough(loop);
        b.setBlock(loop);
        Reg v = b.call(callee, {acc, i});
        b.movTo(acc, v);
        b.addiTo(i, i, 1);
        auto [plt, pge] = b.cmpi(CmpCond::LT, i, 50);
        (void)pge;
        b.br(plt, loop);
        b.fallthrough(done);
        b.setBlock(done);
        b.ret(acc);
        p.entry_func = mainf->id;
    }
};

TEST(InlineTest, InlinesHotCallsite)
{
    InlineFixture fx;
    profileOnce(fx.p);
    int64_t before = runOnce(fx.p);

    InlineStats s = inlineProgram(fx.p);
    EXPECT_GE(s.inlined, 1);
    EXPECT_TRUE(verifyProgram(fx.p).empty());
    EXPECT_EQ(runOnce(fx.p), before);

    // No remaining calls in main.
    int calls = 0;
    for (auto &bp : fx.mainf->blocks) {
        if (!bp)
            continue;
        for (auto &inst : bp->instrs)
            if (inst.isCall())
                ++calls;
    }
    EXPECT_EQ(calls, 0);
}

TEST(InlineTest, BudgetLimitsGrowth)
{
    InlineFixture fx;
    profileOnce(fx.p);
    InlineOptions opts;
    opts.growth_budget = 1.0; // no growth allowed
    InlineStats s = inlineProgram(fx.p, opts);
    EXPECT_EQ(s.inlined, 0);
}

TEST(InlineTest, NoInlineAttrRespected)
{
    InlineFixture fx;
    fx.callee->attr |= kFuncNoInline;
    profileOnce(fx.p);
    InlineStats s = inlineProgram(fx.p);
    EXPECT_EQ(s.inlined, 0);
}

TEST(InlineTest, LibraryFunctionsNeverInlined)
{
    InlineFixture fx;
    fx.callee->attr |= kFuncLibrary;
    profileOnce(fx.p);
    InlineStats s = inlineProgram(fx.p);
    EXPECT_EQ(s.inlined, 0);
}

TEST(InlineTest, IndirectPromotionThenInline)
{
    Program p;
    IRBuilder b(p);
    Function *f1 = b.beginFunction("vcall1", 1);
    b.ret(b.addi(b.param(0), 100));
    Function *f2 = b.beginFunction("vcall2", 1);
    b.ret(b.addi(b.param(0), 200));

    Function *mainf = b.beginFunction("main", 0);
    BasicBlock *loop = b.newBlock();
    BasicBlock *done = b.newBlock();
    Reg i = b.gr(), acc = b.gr();
    b.moviTo(i, 0);
    b.moviTo(acc, 0);
    Reg t1 = b.movfn(f1);
    Reg t2 = b.movfn(f2);
    b.fallthrough(loop);
    b.setBlock(loop);
    // 9 of 10 iterations call f1 (monomorphic-ish dispatch).
    Reg md = b.rem(i, b.movi(10));
    auto [p_rare, p_common] = b.cmpi(CmpCond::EQ, md, 7);
    Reg tok = b.gr();
    b.movTo(tok, t1, p_common);
    b.movTo(tok, t2, p_rare);
    Reg v = b.icall(tok, {i});
    b.addTo(acc, acc, v);
    b.addiTo(i, i, 1);
    auto [plt, pge] = b.cmpi(CmpCond::LT, i, 100);
    (void)pge;
    b.br(plt, loop);
    b.fallthrough(done);
    b.setBlock(done);
    b.ret(acc);
    p.entry_func = mainf->id;

    profileOnce(p);
    int64_t before = runOnce(p);

    InlineStats s = inlineProgram(p);
    EXPECT_GE(s.promoted, 1);
    EXPECT_GE(s.inlined, 1);
    EXPECT_TRUE(verifyProgram(p).empty());
    EXPECT_EQ(runOnce(p), before);
}

TEST(InlineTest, ProfileCountsIndirectCallees)
{
    Program p;
    IRBuilder b(p);
    Function *f1 = b.beginFunction("a", 0);
    b.ret(b.movi(1));
    Function *f2 = b.beginFunction("c", 0);
    b.ret(b.movi(2));
    Function *mainf = b.beginFunction("main", 0);
    Reg t1 = b.movfn(f1);
    Reg t2 = b.movfn(f2);
    Reg x = b.icall(t1, {});
    Reg y = b.icall(t1, {});
    Reg z = b.icall(t2, {});
    b.ret(b.add(b.add(x, y), z));
    p.entry_func = mainf->id;
    profileOnce(p);

    // First icall site saw f1 twice? No: each site ran once.
    const auto &instrs = mainf->block(mainf->entry)->instrs;
    int sites = 0;
    for (const auto &inst : instrs) {
        if (inst.op == Opcode::BR_ICALL) {
            ++sites;
            ASSERT_EQ(inst.profCallees().size(), 1u);
            EXPECT_DOUBLE_EQ(inst.profCallees()[0].count, 1.0);
        }
    }
    EXPECT_EQ(sites, 3);
}

} // namespace
} // namespace epic
