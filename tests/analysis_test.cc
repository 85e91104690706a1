/**
 * @file
 * Tests for CFG construction, dominators, natural loops, liveness,
 * alias analysis and predicate relations.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/alias.h"
#include "analysis/cfg.h"
#include "analysis/dom.h"
#include "analysis/liveness.h"
#include "analysis/loops.h"
#include "analysis/manager.h"
#include "analysis/predrel.h"
#include "driver/compiler.h"
#include "driver/experiment.h"
#include "ir/builder.h"
#include "workloads/workload.h"

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

// ---- RegSet: dense bit vectors per register class --------------------

Reg
gr(int id)
{
    return Reg(RegClass::Gr, id);
}

/** The members of `s` in iteration order. */
std::vector<Reg>
members(const RegSet &s)
{
    std::vector<Reg> v;
    for (Reg r : s)
        v.push_back(r);
    return v;
}

TEST(RegSetTest, WordBoundariesAndLargeIds)
{
    RegSet s;
    const std::vector<Reg> ids = {gr(63), gr(64), gr(127), gr(128),
                                  gr(1000), gr(4097)};
    for (Reg r : ids) {
        EXPECT_FALSE(s.count(r)) << r.str();
        s.insert(r);
        EXPECT_TRUE(s.count(r)) << r.str();
    }
    EXPECT_EQ(s.size(), ids.size());
    EXPECT_EQ(members(s), ids);
    for (int id : {0, 62, 65, 126, 129, 999, 1001, 4096, 100000})
        EXPECT_FALSE(s.count(gr(id))) << id;
    s.erase(gr(64));
    s.erase(gr(128));
    EXPECT_FALSE(s.count(gr(64)));
    EXPECT_FALSE(s.count(gr(128)));
    EXPECT_EQ(members(s),
              (std::vector<Reg>{gr(63), gr(127), gr(1000), gr(4097)}));
}

TEST(RegSetTest, ClassesAreSeparate)
{
    RegSet s;
    s.insert(Reg(RegClass::Pr, 5));
    EXPECT_TRUE(s.count(Reg(RegClass::Pr, 5)));
    EXPECT_FALSE(s.count(gr(5)));
    EXPECT_FALSE(s.count(Reg(RegClass::Br, 5)));
    // r0 and p0 are ordinary members.
    s.insert(kGrZero);
    s.insert(kPrTrue);
    EXPECT_TRUE(s.count(kGrZero));
    EXPECT_TRUE(s.count(kPrTrue));
    EXPECT_FALSE(s.count(Reg(RegClass::Br, 0)));
    s.erase(kGrZero);
    EXPECT_FALSE(s.count(kGrZero));
    EXPECT_TRUE(s.count(kPrTrue));
    EXPECT_EQ(s.size(), 2u);
}

TEST(RegSetTest, ErasingAnAbsentOrOutOfRangeIdIsANoOp)
{
    RegSet s;
    s.erase(gr(7)); // empty set
    s.insert(gr(3));
    s.erase(gr(4));                   // absent, same word
    s.erase(gr(64));                  // one past the last word
    s.erase(gr(5000));                // far past it
    s.erase(Reg(RegClass::Pr, 3));    // same id, other class
    EXPECT_EQ(members(s), std::vector<Reg>{gr(3)});
    EXPECT_FALSE(s.count(Reg())); // an invalid id is never a member
}

TEST(RegSetTest, EqualityIgnoresBuildOrderAndTrailingZeroWords)
{
    RegSet a, b;
    for (int id : {5, 200, 64, 0})
        a.insert(gr(id));
    for (int id : {0, 64, 200, 5})
        b.insert(gr(id));
    EXPECT_TRUE(a == b);
    b.insert(gr(3000));
    EXPECT_FALSE(a == b);
    b.erase(gr(3000)); // b keeps the words that held gr3000, all zero
    EXPECT_TRUE(a == b);
    EXPECT_TRUE(b == a);
    RegSet c;
    c |= b; // the union takes b's length
    EXPECT_TRUE(c == a);
    c |= RegSet();
    EXPECT_TRUE(c == a);
    c.insert(Reg(RegClass::Br, 2));
    EXPECT_FALSE(c == a);
    a.clear();
    EXPECT_TRUE(a == RegSet());
    EXPECT_EQ(a.size(), 0u);
    EXPECT_FALSE(b == RegSet());
}

TEST(RegSetTest, IteratesInClassThenIdOrder)
{
    const std::vector<Reg> want = {
        gr(0),
        gr(63),
        gr(64),
        gr(1001),
        Reg(RegClass::Pr, 0),
        Reg(RegClass::Pr, 17),
        Reg(RegClass::Br, 1),
        Reg(RegClass::Br, 7),
    };
    ASSERT_TRUE(std::is_sorted(want.begin(), want.end()));
    RegSet s;
    for (auto it = want.rbegin(); it != want.rend(); ++it)
        s.insert(*it);
    EXPECT_EQ(members(s), want);
    EXPECT_TRUE(members(RegSet()).empty());
}

TEST(RegSetDeathTest, InsertingAnInvalidRegisterAsserts)
{
    RegSet s;
    EXPECT_DEATH(s.insert(Reg()), "invalid register");
}

/**
 * Reference fixpoint: Liveness as it was before its sets became dense
 * bit vectors, with unordered sets and a per-block map for the
 * predicate-aware effective uses. The dense form must match it on
 * every block.
 */
struct RefLiveness
{
    std::vector<std::unordered_set<Reg>> in, out;

    explicit RefLiveness(const Cfg &cfg)
    {
        const Function &f = cfg.function();
        const int n = cfg.maxBlockId();
        in.assign(n, {});
        out.assign(n, {});
        std::vector<std::vector<std::vector<Reg>>> eff_uses(n);
        std::vector<Reg> uses, defs;
        for (int bid : cfg.rpo()) {
            const BasicBlock *b = f.block(bid);
            auto &block_uses = eff_uses[bid];
            block_uses.resize(b->instrs.size());
            std::unordered_map<Reg, Reg> kill_guard;
            std::unordered_set<Reg> killed;
            for (size_t i = 0; i < b->instrs.size(); ++i) {
                const Instruction &inst = b->instrs[i];
                instrUses(inst, uses);
                for (Reg r : uses) {
                    auto it = kill_guard.find(r);
                    if (!killed.count(r) && it != kill_guard.end() &&
                        it->second == inst.guard)
                        continue;
                    block_uses[i].push_back(r);
                }
                instrDefs(inst, defs);
                if (defsAreUnconditional(inst)) {
                    for (Reg r : defs) {
                        killed.insert(r);
                        kill_guard.erase(r);
                    }
                } else if (inst.guard != kPrTrue) {
                    for (Reg r : defs) {
                        kill_guard[r] = inst.guard;
                        killed.erase(r);
                    }
                }
                for (Reg r : defs) {
                    if (r.cls != RegClass::Pr)
                        continue;
                    for (auto it = kill_guard.begin();
                         it != kill_guard.end();)
                        it = it->second == r ? kill_guard.erase(it)
                                             : std::next(it);
                }
            }
        }
        const auto &rpo = cfg.rpo();
        bool changed = true;
        while (changed) {
            changed = false;
            for (size_t ri = rpo.size(); ri-- > 0;) {
                const int bid = rpo[ri];
                const BasicBlock *b = f.block(bid);
                std::unordered_set<Reg> o;
                for (int s : cfg.succs(bid))
                    if (cfg.reachable(s))
                        o.insert(in[s].begin(), in[s].end());
                std::unordered_set<Reg> i_set = o;
                for (int i = static_cast<int>(b->instrs.size()) - 1; i >= 0;
                     --i) {
                    const Instruction &inst = b->instrs[i];
                    if (inst.isBranch() && inst.target >= 0 &&
                        cfg.reachable(inst.target))
                        i_set.insert(in[inst.target].begin(),
                                     in[inst.target].end());
                    if (defsAreUnconditional(inst)) {
                        instrDefs(inst, defs);
                        for (Reg r : defs)
                            i_set.erase(r);
                    }
                    for (Reg r : eff_uses[bid][i])
                        i_set.insert(r);
                }
                if (o != out[bid] || i_set != in[bid]) {
                    out[bid] = std::move(o);
                    in[bid] = std::move(i_set);
                    changed = true;
                }
            }
        }
    }
};

std::vector<Reg>
sorted(const std::unordered_set<Reg> &s)
{
    std::vector<Reg> v(s.begin(), s.end());
    std::sort(v.begin(), v.end());
    return v;
}

/** Every block's live-in and live-out of `f` match the reference. */
void
expectMatchesReference(const Function &f, const std::string &where)
{
    Cfg cfg(f);
    Liveness live(cfg);
    RefLiveness ref(cfg);
    for (int bid = 0; bid < cfg.maxBlockId(); ++bid) {
        ASSERT_EQ(members(live.liveIn(bid)), sorted(ref.in[bid]))
            << where << " " << f.name << " bb" << bid << " live-in";
        ASSERT_EQ(members(live.liveOut(bid)), sorted(ref.out[bid]))
            << where << " " << f.name << " bb" << bid << " live-out";
    }
}

/**
 * A use guarded by p right after a def of the same register guarded by
 * p is covered — unless p is redefined in between (`redefine`), and
 * never by a def in another block (`split`). Returns whether x is live
 * into the use's block.
 */
bool
sameGuardUseExposed(bool redefine, bool split)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("g", 1);
    BasicBlock *use_bb = f->block(f->entry);
    Reg x = b.gr();
    auto [pt, pf] = b.cmpi(CmpCond::GT, b.param(0), 0);
    (void)pf;
    b.moviTo(x, 1, pt);
    if (redefine)
        b.movp(pt, true);
    if (split) {
        use_bb = b.newBlock();
        b.fallthrough(use_bb);
        b.setBlock(use_bb);
    }
    b.ret(b.addi(x, 1, pt));

    Cfg cfg(*f);
    Liveness live(cfg);
    expectMatchesReference(*f, "synthetic");
    return live.liveIn(use_bb->id).count(x);
}

TEST(LivenessTest, SameGuardDefCoversUseUntilTheGuardIsRedefined)
{
    EXPECT_FALSE(sameGuardUseExposed(false, false));
    EXPECT_TRUE(sameGuardUseExposed(true, false));
}

TEST(LivenessTest, SameGuardDefCoversNoUseInAnotherBlock)
{
    EXPECT_TRUE(sameGuardUseExposed(false, true));
}

TEST(LivenessTest, MatchesReferenceFixpointOnEveryWorkload)
{
    const Config rungs[] = {Config::Gcc, Config::ONS, Config::IlpNs,
                            Config::IlpCs, Config::IlpCsDs};
    int functions = 0;
    for (const Workload &w : allWorkloads()) {
        const ProfiledSource src = prepareWorkload(w, RunOptions{});
        ASSERT_TRUE(src.prog) << w.name << ": " << src.error;
        for (const auto &fp : src.prog->funcs) {
            if (!fp)
                continue;
            expectMatchesReference(*fp, w.name + " as built");
            ++functions;
        }
        for (Config c : rungs) {
            const Compiled out = compileProgram(*src.prog, c);
            for (const auto &fp : out.prog->funcs) {
                if (!fp)
                    continue;
                expectMatchesReference(*fp, w.name + " " + configName(c));
                ++functions;
            }
        }
    }
    EXPECT_GT(functions, 0);
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
