/**
 * @file
 * Tests for CFG construction, dominators, natural loops, liveness,
 * alias analysis and predicate relations.
 */
#include <gtest/gtest.h>

#include "analysis/alias.h"
#include "analysis/cfg.h"
#include "analysis/dom.h"
#include "analysis/liveness.h"
#include "analysis/loops.h"
#include "analysis/manager.h"
#include "analysis/predrel.h"
#include "ir/builder.h"

namespace epic {
namespace {

/** Build the classic diamond: entry -> {then, else} -> join. */
struct Diamond
{
    Program p;
    Function *f;
    BasicBlock *entry, *then_bb, *else_bb, *join;
    Reg result;

    Diamond()
    {
        IRBuilder b(p);
        f = b.beginFunction("d", 1);
        entry = f->block(f->entry);
        then_bb = b.newBlock();
        else_bb = b.newBlock();
        join = b.newBlock();
        auto [pt, pf] = b.cmpi(CmpCond::GT, b.param(0), 0);
        (void)pf;
        b.br(pt, then_bb);
        b.fallthrough(else_bb);
        result = b.gr();
        b.setBlock(then_bb);
        b.moviTo(result, 1);
        b.jump(join);
        b.setBlock(else_bb);
        b.moviTo(result, 2);
        b.fallthrough(join);
        b.setBlock(join);
        b.ret(result);
    }
};

TEST(CfgTest, DiamondEdges)
{
    Diamond d;
    Cfg cfg(*d.f);
    EXPECT_EQ(cfg.succs(d.entry->id).size(), 2u);
    EXPECT_EQ(cfg.preds(d.join->id).size(), 2u);
    EXPECT_EQ(cfg.rpo().size(), 4u);
    EXPECT_EQ(cfg.rpo()[0], d.entry->id);
    EXPECT_TRUE(cfg.reachable(d.join->id));
}

TEST(CfgTest, EdgeWeightsFromProfile)
{
    Diamond d;
    d.entry->weight = 100;
    // The conditional branch (taken -> then) fired 70 times.
    for (auto &inst : d.entry->instrs)
        if (inst.op == Opcode::BR)
            inst.prof_taken = 70;
    Cfg cfg(*d.f);
    double taken = 0, ft = 0;
    for (const CfgEdge &e : cfg.outEdges(d.entry->id)) {
        if (e.is_fallthrough)
            ft = e.weight;
        else
            taken = e.weight;
    }
    EXPECT_DOUBLE_EQ(taken, 70.0);
    EXPECT_DOUBLE_EQ(ft, 30.0);
}

TEST(CfgTest, PruneUnreachable)
{
    Diamond d;
    BasicBlock *dead = d.f->newBlock();
    {
        Instruction r;
        r.op = Opcode::BR_RET;
        dead->append(r);
    }
    const int dead_id = dead->id; // pruning frees the block
    AnalysisManager am(*d.f);
    EXPECT_EQ(pruneUnreachableBlocks(*d.f, am), 1);
    EXPECT_EQ(d.f->block(dead_id), nullptr);
}

TEST(DomTest, Diamond)
{
    Diamond d;
    Cfg cfg(*d.f);
    DomTree dom(cfg);
    EXPECT_EQ(dom.idom(d.entry->id), -1);
    EXPECT_EQ(dom.idom(d.then_bb->id), d.entry->id);
    EXPECT_EQ(dom.idom(d.else_bb->id), d.entry->id);
    EXPECT_EQ(dom.idom(d.join->id), d.entry->id);
    EXPECT_TRUE(dom.dominates(d.entry->id, d.join->id));
    EXPECT_FALSE(dom.dominates(d.then_bb->id, d.join->id));
    EXPECT_TRUE(dom.dominates(d.join->id, d.join->id));
}

/** while-loop shape: pre -> header -> (body -> header | exit). */
struct LoopFn
{
    Program p;
    Function *f;
    BasicBlock *pre, *header, *body, *exit_bb;

    LoopFn()
    {
        IRBuilder b(p);
        f = b.beginFunction("loopy", 1);
        pre = f->block(f->entry);
        header = b.newBlock();
        body = b.newBlock();
        exit_bb = b.newBlock();

        Reg i = b.gr();
        b.moviTo(i, 0);
        b.fallthrough(header);

        b.setBlock(header);
        auto [plt, pge] = b.cmp(CmpCond::LT, i, b.param(0));
        (void)pge;
        b.br(plt, body);
        b.fallthrough(exit_bb);

        b.setBlock(body);
        b.addiTo(i, i, 1);
        b.jump(header);

        b.setBlock(exit_bb);
        b.ret(i);
    }
};

TEST(LoopTest, DetectsNaturalLoop)
{
    LoopFn l;
    Cfg cfg(*l.f);
    DomTree dom(cfg);
    LoopForest forest(cfg, dom);
    ASSERT_EQ(forest.loops().size(), 1u);
    const Loop &loop = forest.loops()[0];
    EXPECT_EQ(loop.header, l.header->id);
    EXPECT_TRUE(loop.blocks.count(l.body->id));
    EXPECT_FALSE(loop.blocks.count(l.pre->id));
    ASSERT_EQ(loop.latches.size(), 1u);
    EXPECT_EQ(loop.latches[0], l.body->id);
    EXPECT_FALSE(loop.exits.empty());
}

TEST(LoopTest, TripCountFromProfile)
{
    LoopFn l;
    // 10 entries, 5 iterations each: header 60 (10 entry + 50 back),
    // body 50.
    l.pre->weight = 10;
    l.header->weight = 60;
    l.body->weight = 50;
    for (auto &inst : l.body->instrs)
        if (inst.op == Opcode::BR)
            inst.prof_taken = 50;
    Cfg cfg(*l.f);
    DomTree dom(cfg);
    LoopForest forest(cfg, dom);
    ASSERT_EQ(forest.loops().size(), 1u);
    EXPECT_NEAR(forest.loops()[0].avg_trip, 6.0, 1e-9);
}

TEST(LivenessTest, DiamondResult)
{
    Diamond d;
    Cfg cfg(*d.f);
    Liveness live(cfg);
    // `result` is defined in both arms and used at join.
    EXPECT_TRUE(live.liveIn(d.join->id).count(d.result));
    EXPECT_TRUE(live.liveOut(d.then_bb->id).count(d.result));
    // param(0) is dead after the entry compare.
    EXPECT_FALSE(live.liveIn(d.join->id).count(d.f->params[0]));
    EXPECT_TRUE(live.liveIn(d.entry->id).count(d.f->params[0]));
}

TEST(LivenessTest, GuardedDefDoesNotKill)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("g", 1);
    BasicBlock *next = b.newBlock();
    Reg x = b.gr();
    b.moviTo(x, 1);
    b.fallthrough(next);
    b.setBlock(next);
    auto [pt, pf] = b.cmpi(CmpCond::GT, b.param(0), 0);
    (void)pf;
    b.moviTo(x, 2, pt); // guarded def: x's old value may survive
    b.ret(x);

    Cfg cfg(*f);
    Liveness live(cfg);
    // x must be live into `next` because the guarded def may not execute.
    EXPECT_TRUE(live.liveIn(next->id).count(x));
}

TEST(AliasTest, LevelNoneConflictsEverything)
{
    Program p;
    int s1 = p.addSymbol("a", 64), s2 = p.addSymbol("b", 64);
    IRBuilder b(p);
    Function *f = b.beginFunction("m", 0);
    Reg a1 = b.mova(s1), a2 = b.mova(s2);
    b.st(a1, b.movi(1), 8, MemHint{s1, -1});
    b.st(a2, b.movi(2), 8, MemHint{s2, -1});
    b.ret();

    auto &i1 = f->block(f->entry)->instrs[3];
    auto &i2 = f->block(f->entry)->instrs[5];
    ASSERT_TRUE(i1.isStore());
    ASSERT_TRUE(i2.isStore());

    AliasAnalysis none(p, AliasLevel::None);
    EXPECT_TRUE(none.mayAlias(*f, i1, i2));
    AliasAnalysis intra(p, AliasLevel::Intra);
    EXPECT_FALSE(intra.mayAlias(*f, i1, i2));
}

TEST(AliasTest, AliasGroupsDisambiguate)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("m", 2);
    Reg v = b.ld(b.param(0), 8, MemHint{-1, 1});
    b.st(b.param(1), v, 8, MemHint{-1, 2});
    b.ret();
    auto &ld = f->block(f->entry)->instrs[0];
    auto &st = f->block(f->entry)->instrs[1];
    AliasAnalysis aa(p, AliasLevel::Inter);
    EXPECT_FALSE(aa.mayAlias(*f, ld, st));
    // Same group conflicts.
    st.alias_group = 1;
    EXPECT_TRUE(aa.mayAlias(*f, ld, st));
}

TEST(AliasTest, InterproceduralModRef)
{
    Program p;
    int s1 = p.addSymbol("a", 64), s2 = p.addSymbol("b", 64);
    IRBuilder b(p);
    // callee touches only s1.
    Function *callee = b.beginFunction("callee", 0);
    b.st(b.mova(s1), b.movi(5), 8, MemHint{s1, -1});
    b.ret();
    // caller loads from s2 around a call.
    Function *caller = b.beginFunction("caller", 0);
    Reg addr = b.mova(s2);
    b.callv(callee, {});
    Reg v = b.ld(addr, 8, MemHint{s2, -1});
    b.ret(v);

    auto &call = caller->block(caller->entry)->instrs[1];
    auto &load = caller->block(caller->entry)->instrs[2];
    ASSERT_TRUE(call.isCall());

    AliasAnalysis inter(p, AliasLevel::Inter);
    EXPECT_FALSE(inter.callMayTouch(call, load));
    AliasAnalysis intra(p, AliasLevel::Intra);
    EXPECT_TRUE(intra.callMayTouch(call, load));
}

TEST(AliasTest, NoPointerAnalysisAttrDisablesHints)
{
    Program p;
    int s1 = p.addSymbol("a", 64), s2 = p.addSymbol("b", 64);
    IRBuilder b(p);
    Function *f =
        b.beginFunction("nop_analysis", 0, kFuncNoPointerAnalysis);
    b.st(b.mova(s1), b.movi(1), 8, MemHint{s1, -1});
    b.st(b.mova(s2), b.movi(2), 8, MemHint{s2, -1});
    b.ret();
    auto &i1 = f->block(f->entry)->instrs[2];
    auto &i2 = f->block(f->entry)->instrs[5];
    AliasAnalysis aa(p, AliasLevel::Inter);
    EXPECT_TRUE(aa.mayAlias(*f, i1, i2));
}

TEST(PredRelTest, CmpPairDisjoint)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("pr", 1);
    auto [pt, pf] = b.cmpi(CmpCond::GT, b.param(0), 0);
    Reg x = b.gr();
    b.moviTo(x, 1, pt);
    b.moviTo(x, 2, pf);
    b.ret(x);
    PredRelations rel(*f->block(f->entry));
    EXPECT_TRUE(rel.disjointAt(1, pt, pf));
    EXPECT_TRUE(rel.disjointAt(2, pt, pf));
    EXPECT_FALSE(rel.disjointAt(0, pt, pf)); // before the compare
    EXPECT_FALSE(rel.disjointAt(1, pt, pt));
}

TEST(PredRelTest, RedefinitionKillsFact)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("pr2", 1);
    auto [pt, pf] = b.cmpi(CmpCond::GT, b.param(0), 0);
    b.movp(pt, true); // kills the relation
    Reg x = b.gr();
    b.moviTo(x, 1, pt);
    b.ret(x);
    PredRelations rel(*f->block(f->entry));
    EXPECT_FALSE(rel.disjointAt(2, pt, pf));
}

TEST(PredRelTest, GuardedNormCmpNotTrusted)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("pr3", 1);
    Reg g = b.pr();
    b.movp(g, false);
    auto [pt, pf] =
        b.cmpi(CmpCond::GT, b.param(0), 0, CmpType::Norm, g);
    b.ret(b.param(0));
    PredRelations rel(*f->block(f->entry));
    // Guard may be false, leaving stale values: must not claim disjoint.
    EXPECT_FALSE(rel.disjointAt(2, pt, pf));
}

TEST(PredRelTest, GuardedUncCmpTrusted)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("pr4", 1);
    Reg g = b.pr();
    b.movp(g, false);
    auto [pt, pf] = b.cmpi(CmpCond::GT, b.param(0), 0, CmpType::Unc, g);
    b.ret(b.param(0));
    PredRelations rel(*f->block(f->entry));
    EXPECT_TRUE(rel.disjointAt(2, pt, pf));
}

} // namespace
} // namespace epic
