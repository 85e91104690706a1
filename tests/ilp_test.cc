/**
 * @file
 * Structural-transform tests: superblock formation, hyperblock
 * if-conversion, loop peeling/unrolling, control speculation, layout.
 * Every transform must preserve the architected result.
 */
#include <gtest/gtest.h>

#include "analysis/manager.h"
#include "ilp/hyperblock.h"
#include "ilp/layout.h"
#include "ilp/peel.h"
#include "ilp/speculate.h"
#include "ilp/superblock.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "sim/interp.h"

namespace epic {
namespace {

int64_t
run(Program &p)
{
    p.layoutData();
    Memory mem;
    mem.initFromProgram(p);
    auto r = interpret(p, mem);
    EXPECT_TRUE(r.ok) << r.error;
    return r.ret_value;
}

/** Number of live (non-erased) blocks. */
int
liveBlocks(const Function &f)
{
    int n = 0;
    for (const BasicBlock *b : f.blocks)
        if (b)
            ++n;
    return n;
}

void
profileP(Program &p)
{
    p.layoutData();
    Memory mem;
    mem.initFromProgram(p);
    auto r = profileRun(p, mem);
    ASSERT_TRUE(r.ok) << r.error;
}

void
expectVerified(Program &p)
{
    auto errs = verifyProgram(p);
    EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs[0]);
}

/**
 * Loop whose body has a biased branch: 95% take the "common" block.
 * Shape: loop { if (i%20==7) rare else common } — good trace fodder.
 */
Program
biasedLoopProgram()
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    BasicBlock *loop = b.newBlock();
    BasicBlock *rare = b.newBlock();
    BasicBlock *common = b.newBlock();
    BasicBlock *latch = b.newBlock();
    BasicBlock *done = b.newBlock();

    Reg i = b.gr(), acc = b.gr();
    b.moviTo(i, 0);
    b.moviTo(acc, 0);
    b.fallthrough(loop);

    b.setBlock(loop);
    Reg m20 = b.movi(20);
    Reg md = b.rem(i, m20);
    auto [p_rare, p_common] = b.cmpi(CmpCond::EQ, md, 7);
    (void)p_common;
    b.br(p_rare, rare);
    b.fallthrough(common);

    b.setBlock(common);
    b.addTo(acc, acc, i);
    b.jump(latch);

    b.setBlock(rare);
    Reg t = b.shli(i, 1);
    b.addTo(acc, acc, t);
    b.fallthrough(latch);

    b.setBlock(latch);
    b.addiTo(i, i, 1);
    auto [p_lt, p_ge] = b.cmpi(CmpCond::LT, i, 400);
    (void)p_ge;
    b.br(p_lt, loop);
    b.fallthrough(done);

    b.setBlock(done);
    b.ret(acc);
    p.entry_func = f->id;
    return p;
}

TEST(SuperblockTest, FormsTraceAlongDominantPath)
{
    Program p = biasedLoopProgram();
    profileP(p);
    int64_t before = run(p);
    Function *f = p.func(0);
    int blocks_before = liveBlocks(*f);

    AnalysisManager am(*f);
    SuperblockStats s = formSuperblocks(*f, am);
    EXPECT_GE(s.traces, 1);
    EXPECT_GT(s.blocks_merged, 0);
    expectVerified(p);
    EXPECT_EQ(run(p), before);
    EXPECT_LT(liveBlocks(*f), blocks_before + 3); // merged + dup
}

TEST(SuperblockTest, TailDuplicationMarksProvenance)
{
    Program p = biasedLoopProgram();
    profileP(p);
    Function *f = p.func(0);
    AnalysisManager am(*f);
    SuperblockStats s = formSuperblocks(*f, am);
    if (s.tail_dup_instrs > 0) {
        bool found = false;
        for (const auto &bp : f->blocks) {
            if (!bp)
                continue;
            for (const Instruction &inst : bp->instrs)
                if (inst.attr & kAttrTailDup)
                    found = true;
        }
        EXPECT_TRUE(found);
    }
}

TEST(SuperblockTest, NoTailDupModeTruncates)
{
    Program p = biasedLoopProgram();
    profileP(p);
    int before_instrs = p.staticInstrCount();
    SuperblockOptions opts;
    opts.allow_tail_dup = false;
    AnalysisManager am(*p.func(0));
    formSuperblocks(*p.func(0), am, opts);
    // Without duplication, the static size cannot grow.
    EXPECT_LE(p.staticInstrCount(), before_instrs);
    EXPECT_EQ(run(p), [] {
        int64_t acc = 0;
        for (int i = 0; i < 400; ++i)
            acc += (i % 20 == 7) ? 2ll * i : i;
        return acc;
    }());
}

/** if (x > y) max = x else max = y, in a counted loop. */
Program
diamondProgram()
{
    Program p;
    int sym = p.addSymbol("arr", 8 * 64);
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    BasicBlock *loop = b.newBlock();
    BasicBlock *t = b.newBlock();
    BasicBlock *e = b.newBlock();
    BasicBlock *join = b.newBlock();
    BasicBlock *done = b.newBlock();

    Reg i = b.gr(), acc = b.gr();
    b.moviTo(i, 0);
    b.moviTo(acc, 0);
    Reg base = b.mova(sym);
    // Fill the array with a pseudo-pattern.
    BasicBlock *fill = b.newBlock();
    BasicBlock *fill2 = b.newBlock();
    b.jump(fill);
    b.setBlock(fill);
    Reg fi = b.mov(i);
    Reg addr = b.add(base, b.shli(fi, 3));
    Reg val = b.xori(b.mul(fi, b.movi(37)), 11);
    b.st(addr, val, 8, MemHint{sym, -1});
    b.addiTo(i, i, 1);
    auto [pf_lt, pf_ge] = b.cmpi(CmpCond::LT, i, 64);
    (void)pf_ge;
    b.br(pf_lt, fill);
    b.fallthrough(fill2);
    b.setBlock(fill2);
    b.moviTo(i, 0);
    b.fallthrough(loop);

    Reg picked = b.gr();
    b.setBlock(loop);
    Reg a1 = b.add(base, b.shli(i, 3));
    Reg v = b.ld(a1, 8, MemHint{sym, -1});
    auto [p_gt, p_le] = b.cmpi(CmpCond::GT, v, 600);
    (void)p_le;
    b.br(p_gt, t);
    b.fallthrough(e);

    b.setBlock(t);
    b.moviTo(picked, 1);
    b.jump(join);

    b.setBlock(e);
    b.moviTo(picked, 0);
    b.fallthrough(join);

    b.setBlock(join);
    b.addTo(acc, acc, picked);
    b.addiTo(i, i, 1);
    auto [p_lt, p_ge] = b.cmpi(CmpCond::LT, i, 64);
    (void)p_ge;
    b.br(p_lt, loop);
    b.fallthrough(done);

    b.setBlock(done);
    b.ret(acc);
    p.entry_func = f->id;
    return p;
}

TEST(HyperblockTest, ConvertsDiamond)
{
    Program p = diamondProgram();
    profileP(p);
    int64_t before = run(p);

    AnalysisManager am(*p.func(0));
    HyperblockStats s = formHyperblocks(*p.func(0), am);
    EXPECT_GE(s.regions, 1);
    EXPECT_GE(s.branches_removed, 1);
    EXPECT_GT(s.instrs_predicated, 0);
    expectVerified(p);
    EXPECT_EQ(run(p), before);
}

TEST(HyperblockTest, ConservativeModeConvertsLess)
{
    Program p1 = diamondProgram();
    profileP(p1);
    auto p2 = p1.clone();

    AnalysisManager am1(*p1.func(0));
    HyperblockStats incl = formHyperblocks(*p1.func(0), am1);
    HyperblockOptions copts;
    copts.conservative = true;
    AnalysisManager am2(*p2->func(0));
    HyperblockStats cons = formHyperblocks(*p2->func(0), am2, copts);
    EXPECT_GE(incl.regions, cons.regions);
}

TEST(HyperblockTest, AlreadyGuardedCodeGetsCombinedGuard)
{
    // The taken-side block contains an instruction that is already
    // guarded (as produced by a previous inner conversion); absorbing it
    // must synthesize a combined guard with the unc/and idiom.
    auto build = [](Program &p) -> Function * {
        IRBuilder b(p);
        Function *f = b.beginFunction("main", 0);
        BasicBlock *t = b.newBlock();
        BasicBlock *join = b.newBlock();

        Reg x = b.movi(25);
        Reg out = b.movi(0);
        auto [po, po_f] = b.cmpi(CmpCond::GT, x, 10); // true
        (void)po_f;
        b.br(po, t);
        b.fallthrough(join);

        b.setBlock(t);
        auto [pi, pi_f] = b.cmpi(CmpCond::GT, x, 20); // true
        (void)pi_f;
        b.moviTo(out, 2, pi); // pre-guarded instruction
        Reg out3 = b.addi(out, 1);
        b.movTo(out, out3);
        b.jump(join);

        b.setBlock(join);
        b.ret(out);
        p.entry_func = f->id;

        // Hand profile so heuristics fire.
        f->weight = 100;
        for (auto &bp : f->blocks)
            if (bp)
                bp->weight = 60;
        for (auto &bp : f->blocks)
            if (bp)
                for (auto &inst : bp->instrs)
                    if (inst.op == Opcode::BR && inst.hasGuard())
                        inst.prof_taken = 30;
        return f;
    };

    Program p;
    Function *f = build(p);
    int64_t before = run(p);
    EXPECT_EQ(before, 3);

    AnalysisManager am(*f);
    HyperblockStats s = formHyperblocks(*f, am);
    EXPECT_GE(s.regions, 1);
    expectVerified(p);
    EXPECT_EQ(run(p), before);

    // The combined-guard idiom appears: an unc compare against gr0.
    bool has_unc = false;
    for (const auto &bp : f->blocks) {
        if (!bp)
            continue;
        for (const Instruction &inst : bp->instrs)
            if ((inst.op == Opcode::CMP || inst.op == Opcode::CMPI) &&
                inst.ctype == CmpType::Unc && inst.hasGuard())
                has_unc = true;
    }
    EXPECT_TRUE(has_unc);

    // And no conditional branch remains in the entry block.
    int cond_branches = 0;
    for (const auto &bp : f->blocks) {
        if (!bp)
            continue;
        for (const Instruction &inst : bp->instrs)
            if (inst.op == Opcode::BR && inst.hasGuard())
                ++cond_branches;
    }
    EXPECT_EQ(cond_branches, 0);
}

TEST(PeelTest, PeelsLowTripLoop)
{
    // Loop that usually runs exactly one iteration (crafty pattern).
    Program p;
    int sym = p.addSymbol("trips", 8 * 128);
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    BasicBlock *outer = b.newBlock();
    BasicBlock *inner = b.newBlock();
    BasicBlock *next = b.newBlock();
    BasicBlock *done = b.newBlock();

    Reg i = b.gr(), acc = b.gr();
    b.moviTo(i, 0);
    b.moviTo(acc, 0);
    Reg base = b.mova(sym);
    // trips[i] = 1 + (i % 16 == 0): mostly 1, sometimes 2.
    BasicBlock *fill = b.newBlock();
    b.jump(fill);
    b.setBlock(fill);
    Reg fmod = b.andi(i, 15);
    auto [pz, pnz] = b.cmpi(CmpCond::EQ, fmod, 0);
    (void)pnz;
    Reg tv = b.movi(1);
    Reg tv2 = b.addi(tv, 1);
    Reg tsel = b.gr();
    b.movTo(tsel, tv);
    b.movTo(tsel, tv2, pz);
    Reg fa = b.add(base, b.shli(i, 3));
    b.st(fa, tsel, 8, MemHint{sym, -1});
    b.addiTo(i, i, 1);
    auto [pl, pge] = b.cmpi(CmpCond::LT, i, 128);
    (void)pge;
    b.br(pl, fill);
    b.fallthrough(outer);

    b.setBlock(outer);
    b.moviTo(i, 0);
    b.fallthrough(inner);
    // inner: self-loop running trips[i] iterations.
    Reg k = b.gr();
    b.setBlock(outer);
    // (reset insertion to add k init before entering inner)
    b.moviTo(k, 0);

    b.setBlock(inner);
    b.addiTo(acc, acc, 3);
    b.addiTo(k, k, 1);
    Reg ta = b.add(base, b.shli(i, 3));
    Reg trip = b.ld(ta, 8, MemHint{sym, -1});
    auto [pcont, pstop] = b.cmp(CmpCond::LT, k, trip);
    (void)pstop;
    b.br(pcont, inner);
    b.fallthrough(next);

    b.setBlock(next);
    b.moviTo(k, 0);
    b.addiTo(i, i, 1);
    auto [pl2, pge2] = b.cmpi(CmpCond::LT, i, 128);
    (void)pge2;
    b.br(pl2, inner); // re-enter loop for next i (k reset above)
    b.fallthrough(done);

    b.setBlock(done);
    b.ret(acc);
    p.entry_func = f->id;

    profileP(p);
    int64_t before = run(p);

    PeelStats s = peelLoops(*f);
    EXPECT_GE(s.peeled, 1);
    expectVerified(p);
    EXPECT_EQ(run(p), before);

    // Remainder and peel provenance recorded.
    bool has_rem = false, has_peel = false;
    for (const auto &bp : f->blocks) {
        if (!bp)
            continue;
        for (const Instruction &inst : bp->instrs) {
            if (inst.attr & kAttrRemainder)
                has_rem = true;
            if (inst.attr & kAttrPeelCopy)
                has_peel = true;
        }
    }
    EXPECT_TRUE(has_rem);
    EXPECT_TRUE(has_peel);
}

TEST(PeelTest, UnrollsHotCountedLoop)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    BasicBlock *loop = b.newBlock();
    BasicBlock *done = b.newBlock();
    Reg i = b.gr(), acc = b.gr();
    b.moviTo(i, 0);
    b.moviTo(acc, 0);
    b.fallthrough(loop);
    b.setBlock(loop);
    b.addTo(acc, acc, i);
    b.addiTo(i, i, 1);
    auto [pl, pge] = b.cmpi(CmpCond::LT, i, 1000);
    (void)pge;
    b.br(pl, loop);
    b.fallthrough(done);
    b.setBlock(done);
    b.ret(acc);
    p.entry_func = f->id;

    profileP(p);
    int64_t before = run(p);
    PeelStats s = peelLoops(*f);
    EXPECT_GE(s.unrolled, 1);
    expectVerified(p);
    EXPECT_EQ(run(p), before);
}

TEST(SpeculateTest, PromotesGuardedLoad)
{
    Program p;
    int sym = p.addSymbol("g", 16);
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    Reg base = b.mova(sym);
    b.st(base, b.movi(77), 8, MemHint{sym, -1});
    Reg sel = b.movi(1);
    auto [pt, pf] = b.cmpi(CmpCond::EQ, sel, 1);
    (void)pf;
    Reg v = b.gr();
    b.ldTo(v, base, 8, MemHint{sym, -1}, pt);
    Reg out = b.movi(0);
    Instruction add;
    add.op = Opcode::ADD;
    add.guard = pt;
    add.dests = {out};
    add.srcs = {Operand::makeReg(out), Operand::makeReg(v)};
    b.emit(add);
    b.ret(out);
    p.entry_func = f->id;

    int64_t before = run(p);
    AnalysisManager am(*f);
    SpecStats s = speculateFunction(*f, am);
    EXPECT_GE(s.promoted, 1);
    EXPECT_GE(s.spec_loads, 1);
    expectVerified(p);
    EXPECT_EQ(run(p), before);

    bool promoted_load = false;
    for (const Instruction &inst : f->block(f->entry)->instrs)
        if (inst.isLoad() && inst.spec && (inst.attr & kAttrPromoted))
            promoted_load = true;
    EXPECT_TRUE(promoted_load);
}

TEST(SpeculateTest, PromotedWildLoadStaysCorrect)
{
    // Pointer/int union: when tag==0 the "pointer" field holds a junk
    // integer. The guarded load is promoted and becomes a wild load;
    // the program result must not change.
    Program p;
    int sym = p.addSymbol("slot", 16);
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    Reg base = b.mova(sym);
    // slot.tag = 0, slot.val = junk (odd address in unmapped space).
    b.st(base, b.movi(0), 8, MemHint{sym, -1});
    Reg junk = b.movi(0x500000123ll);
    Reg a1 = b.addi(base, 8);
    b.st(a1, junk, 8, MemHint{sym, -1});

    Reg tag = b.ld(base, 8, MemHint{sym, -1});
    auto [p_ptr, p_int] = b.cmpi(CmpCond::NE, tag, 0);
    (void)p_int;
    Reg pv = b.ld(a1, 8, MemHint{sym, -1}); // the "pointer" bits
    Reg v = b.gr();
    b.ldTo(v, pv, 8, MemHint{-1, -1}, p_ptr); // guarded deref
    Reg out = b.movi(5);
    Instruction add;
    add.op = Opcode::ADD;
    add.guard = p_ptr;
    add.dests = {out};
    add.srcs = {Operand::makeReg(out), Operand::makeReg(v)};
    b.emit(add);
    b.ret(out);
    p.entry_func = f->id;

    int64_t before = run(p);
    EXPECT_EQ(before, 5);
    AnalysisManager am(*f);
    SpecStats s = speculateFunction(*f, am);
    EXPECT_GE(s.spec_loads, 1);
    p.layoutData();
    Memory mem;
    mem.initFromProgram(p);
    auto r = interpret(p, mem);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.ret_value, before);
    EXPECT_GE(r.wild_loads, 1u); // the promoted load went wild
}

TEST(SpeculateTest, HoistsLoadAboveSideExit)
{
    Program p;
    int sym = p.addSymbol("data", 64);
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    BasicBlock *exit_bb = b.newBlock();
    Reg base = b.mova(sym);
    b.st(base, b.movi(9), 8, MemHint{sym, -1});
    Reg c = b.movi(3);
    auto [p_exit, p_stay] = b.cmpi(CmpCond::GT, c, 5); // not taken
    (void)p_stay;
    b.br(p_exit, exit_bb);
    Reg v = b.ld(base, 8, MemHint{sym, -1}); // hoistable above the exit
    Reg w = b.addi(v, 1);
    b.ret(w);

    b.setBlock(exit_bb);
    b.ret(b.movi(-1));
    p.entry_func = f->id;

    int64_t before = run(p);
    AnalysisManager am(*f);
    SpecStats s = speculateFunction(*f, am);
    EXPECT_GE(s.moved, 1);
    EXPECT_GE(s.spec_loads, 1);
    expectVerified(p);
    EXPECT_EQ(run(p), before);

    // The load now sits before the side-exit branch.
    const auto &instrs = f->block(f->entry)->instrs;
    int br_pos = -1, ld_pos = -1;
    for (int i = 0; i < static_cast<int>(instrs.size()); ++i) {
        if (instrs[i].op == Opcode::BR && instrs[i].hasGuard())
            br_pos = i;
        if (instrs[i].isLoad())
            ld_pos = i;
    }
    EXPECT_GE(br_pos, 0);
    EXPECT_GE(ld_pos, 0);
    EXPECT_LT(ld_pos, br_pos);
}

TEST(LayoutTest, HotColdSeparation)
{
    Program p = biasedLoopProgram();
    profileP(p);
    Function *f = p.func(0);
    AnalysisManager am(*f);
    formSuperblocks(*f, am);
    // Fake-schedule: wrap every instruction in a trivial bundle so the
    // layout has something to address.
    for (auto &bp : f->blocks) {
        if (!bp)
            continue;
        for (int i = 0; i < static_cast<int>(bp->instrs.size()); ++i) {
            Bundle bun;
            bun.tmpl = 0;
            bun.slots[0] = static_cast<int16_t>(i);
            bun.stop_after = true;
            bp->bundles.push_back(bun);
        }
    }
    LayoutStats s = layoutProgram(p);
    EXPECT_GT(s.hot_bundles, 0);
    // All hot bundles are addressed within the hot section.
    for (const auto &bp : f->blocks) {
        if (!bp)
            continue;
        for (const Bundle &bun : bp->bundles) {
            EXPECT_NE(bun.addr, 0u);
            if (!bp->cold) {
                EXPECT_LT(bun.addr,
                          Program::kTextBase + (64ull << 20));
            } else {
                EXPECT_GE(bun.addr,
                          Program::kTextBase + (64ull << 20));
            }
        }
    }
}

} // namespace
} // namespace epic
