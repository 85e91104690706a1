/**
 * @file
 * Scheduler and register-allocator tests. The load-bearing invariants:
 * scheduled (bundle-order) execution must produce the same architected
 * result as source-order execution, the verifier's bundle checks must
 * pass, and dispersal limits must be respected.
 */
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "analysis/alias.h"
#include "analysis/manager.h"
#include "driver/compiler.h"
#include "driver/experiment.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "sched/dag.h"
#include "sched/listsched.h"
#include "sched/regalloc.h"
#include "sim/interp.h"
#include "workloads/workload.h"

namespace epic {
namespace {

int64_t
runOrder(Program &p, bool scheduled)
{
    p.layoutData();
    Memory mem;
    mem.initFromProgram(p);
    InterpOptions opts;
    opts.scheduled_order = scheduled;
    auto r = interpret(p, mem, opts);
    EXPECT_TRUE(r.ok) << r.error;
    return r.ret_value;
}

/** Full low-level pipeline on every function: allocate + schedule. */
SchedStats
compileLowLevel(Program &p, const MachineConfig &mach = {})
{
    AliasAnalysis aa(p, AliasLevel::Inter);
    SchedStats s;
    for (auto &fp : p.funcs) {
        if (!fp)
            continue;
        AnalysisManager ra(*fp);
        allocateRegisters(*fp, ra);
        AnalysisManager sched(*fp, &aa);
        s += scheduleFunction(*fp, sched, mach);
    }
    auto errs = verifyProgram(p);
    EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs[0]);
    return s;
}

/** A block with abundant ILP: 8 independent adds, then a reduction. */
Program
wideProgram()
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    std::vector<Reg> vals;
    for (int i = 0; i < 8; ++i)
        vals.push_back(b.movi(i + 1));
    std::vector<Reg> sums;
    for (int i = 0; i < 4; ++i)
        sums.push_back(b.add(vals[2 * i], vals[2 * i + 1]));
    Reg s01 = b.add(sums[0], sums[1]);
    Reg s23 = b.add(sums[2], sums[3]);
    b.ret(b.add(s01, s23));
    p.entry_func = f->id;
    return p;
}

TEST(SchedTest, WideBlockExploitsIssueWidth)
{
    Program p = wideProgram();
    int64_t before = runOrder(p, false);
    SchedStats s = compileLowLevel(p);
    // 15 real ops (8 movi + 7 add + ret + alloc = 17) over >= 4 cycles;
    // a serial schedule would need 17 groups.
    EXPECT_LT(s.groups, 10);
    EXPECT_GT(s.ops, 15);
    EXPECT_EQ(runOrder(p, true), before);
}

TEST(SchedTest, SerialChainSchedulesSerially)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    Reg x = b.movi(1);
    for (int i = 0; i < 10; ++i)
        x = b.addi(x, 1);
    b.ret(x);
    p.entry_func = f->id;
    SchedStats s = compileLowLevel(p);
    // A 11-op dependence chain cannot take fewer than 11 groups.
    EXPECT_GE(s.groups, 11);
}

TEST(SchedTest, CompareAndBranchShareAGroup)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    BasicBlock *t = b.newBlock();
    auto [pt, pf] = b.cmpi(CmpCond::GT, b.movi(5), 3);
    (void)pf;
    b.br(pt, t);
    b.fallthrough(t);
    b.setBlock(t);
    b.ret(b.movi(0));
    p.entry_func = f->id;
    compileLowLevel(p);

    const BasicBlock *entry = f->block(f->entry);
    int cmp_cycle = -1, br_cycle = -1;
    for (const Instruction &inst : entry->instrs) {
        if (inst.op == Opcode::CMPI)
            cmp_cycle = inst.sched_cycle;
        if (inst.op == Opcode::BR)
            br_cycle = inst.sched_cycle;
    }
    EXPECT_GE(cmp_cycle, 0);
    EXPECT_EQ(cmp_cycle, br_cycle); // IA-64 same-group cmp->br
}

TEST(SchedTest, LoadLimitPerGroup)
{
    Program p;
    int sym = p.addSymbol("arr", 256);
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    Reg base = b.mova(sym);
    std::vector<Reg> vals;
    for (int i = 0; i < 6; ++i) {
        Reg a = b.addi(base, i * 8);
        vals.push_back(b.ld(a, 8, MemHint{sym, -1}));
    }
    Reg s = vals[0];
    for (int i = 1; i < 6; ++i)
        s = b.add(s, vals[i]);
    b.ret(s);
    p.entry_func = f->id;
    compileLowLevel(p);

    // No issue group may contain more than two loads.
    for (const auto &bp : f->blocks) {
        if (!bp)
            continue;
        std::map<int, int> loads_per_cycle;
        for (const Instruction &inst : bp->instrs)
            if (inst.isLoad() && !(inst.attr & kAttrSpill))
                loads_per_cycle[inst.sched_cycle]++;
        for (auto &[cyc, cnt] : loads_per_cycle)
            EXPECT_LE(cnt, 2) << "cycle " << cyc;
    }
}

TEST(SchedTest, GccStyleSingleBundleGroups)
{
    Program p1 = wideProgram();
    Program *p2p;
    auto clone = p1.clone();
    p2p = clone.get();

    SchedStats wide = compileLowLevel(p1, MachineConfig{});
    SchedStats narrow = compileLowLevel(*p2p, MachineConfig::gccStyle());
    // One-bundle groups need at least as many groups (usually more).
    EXPECT_GT(narrow.groups, wide.groups);
}

TEST(SchedTest, NopsAccounted)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    Reg x = b.movi(1);
    b.ret(b.addi(x, 1));
    p.entry_func = f->id;
    SchedStats s = compileLowLevel(p);
    EXPECT_GT(s.nops, 0); // tiny serial block cannot fill its slots
    EXPECT_EQ(s.ops + s.nops, s.bundles * 3);
}

/**
 * The packer's specification, searched without a cache: every one-bundle
 * template, then (two bundles allowed, two or more ops) every pair, each
 * filled by the greedy in-order slot matcher; the fewest bundles win,
 * then the fewest NOPs, then the first found.
 */
std::optional<std::vector<Bundle>>
referencePack(const BasicBlock &b, const std::vector<int> &ops,
              int max_bundles)
{
    auto fill = [&](const std::vector<int> &tmpls)
        -> std::optional<std::vector<Bundle>> {
        std::vector<Bundle> out;
        size_t next = 0;
        for (int t : tmpls) {
            Bundle bun;
            bun.tmpl = static_cast<uint8_t>(t);
            for (int s = 0; s < 3; ++s)
                if (next < ops.size() &&
                    fuFitsSlot(b.instrs[ops[next]].info().fu,
                               kTemplates[t].slots[s]))
                    bun.slots[s] = static_cast<int16_t>(ops[next++]);
            out.push_back(bun);
        }
        if (next != ops.size())
            return std::nullopt;
        out.back().stop_after = true;
        return out;
    };
    auto nops = [](const std::vector<Bundle> &bs) {
        int n = 0;
        for (const Bundle &bun : bs)
            for (int16_t s : bun.slots)
                n += s == kSlotNop;
        return n;
    };
    std::optional<std::vector<Bundle>> best;
    auto consider = [&](const std::vector<int> &tmpls) {
        auto r = fill(tmpls);
        if (r && (!best || r->size() < best->size() ||
                  (r->size() == best->size() && nops(*r) < nops(*best))))
            best = std::move(r);
    };
    for (int t1 = 0; t1 < kNumTemplates; ++t1)
        consider({t1});
    if (max_bundles >= 2 && ops.size() > 1)
        for (int t1 = 0; t1 < kNumTemplates; ++t1)
            for (int t2 = 0; t2 < kNumTemplates; ++t2)
                consider({t1, t2});
    return best;
}

std::string
packingStr(const std::optional<std::vector<Bundle>> &p)
{
    if (!p)
        return "infeasible";
    std::string s;
    for (const Bundle &bun : *p) {
        s += kTemplates[bun.tmpl].name;
        for (int16_t slot : bun.slots) {
            s += ' ';
            s += std::to_string(slot);
        }
        s += bun.stop_after ? " ;; " : " | ";
    }
    return s;
}

TEST(SchedTest, CachedPackerMatchesTemplateSearchExhaustively)
{
    // Instruction 5k + c has FU class c, so any class sequence of up to
    // six ops is a list of distinct, ascending indices.
    const Opcode by_class[] = {Opcode::ADD, Opcode::SHL, Opcode::LD,
                               Opcode::MUL, Opcode::BR};
    Program p;
    IRBuilder ib(p);
    Function *f = ib.beginFunction("main", 0);
    BasicBlock &b = *f->block(f->entry);
    for (int k = 0; k < 6; ++k)
        for (int c = 0; c < 5; ++c) {
            Instruction inst;
            inst.op = by_class[c];
            ASSERT_EQ(static_cast<int>(inst.info().fu), c);
            b.append(inst);
        }

    int feasible = 0, total = 0;
    for (int max_bundles : {1, 2}) {
        for (int n = 1; n <= 6; ++n) {
            int combos = 1;
            for (int k = 0; k < n; ++k)
                combos *= 5;
            std::vector<int> ops(n);
            for (int code = 0; code < combos; ++code) {
                for (int k = 0, rest = code; k < n; ++k, rest /= 5)
                    ops[k] = 5 * k + rest % 5;
                const std::string want =
                    packingStr(referencePack(b, ops, max_bundles));
                // First call fills the cache, the second reads it.
                ASSERT_EQ(packingStr(packGroup(b, ops, max_bundles)), want)
                    << "n=" << n << " code=" << code
                    << " max_bundles=" << max_bundles;
                ASSERT_EQ(packingStr(packGroup(b, ops, max_bundles)), want);
                feasible += want != "infeasible";
                ++total;
            }
        }
    }
    EXPECT_EQ(total, 2 * (5 + 25 + 125 + 625 + 3125 + 15625));
    EXPECT_GT(feasible, 0);
    EXPECT_LT(feasible, total);
}

TEST(SchedTest, ScheduledOrderSemanticsForBranchyLoop)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    BasicBlock *loop = b.newBlock();
    BasicBlock *odd = b.newBlock();
    BasicBlock *next = b.newBlock();
    BasicBlock *done = b.newBlock();
    Reg i = b.gr(), acc = b.gr();
    b.moviTo(i, 0);
    b.moviTo(acc, 0);
    b.fallthrough(loop);

    b.setBlock(loop);
    Reg bit = b.andi(i, 1);
    auto [podd, peven] = b.cmpi(CmpCond::NE, bit, 0);
    (void)peven;
    b.br(podd, odd);
    b.fallthrough(next);

    b.setBlock(odd);
    b.addTo(acc, acc, i);
    b.fallthrough(next);

    b.setBlock(next);
    b.addiTo(i, i, 1);
    auto [plt, pge] = b.cmpi(CmpCond::LT, i, 20);
    (void)pge;
    b.br(plt, loop);
    b.fallthrough(done);

    b.setBlock(done);
    b.ret(acc);
    p.entry_func = f->id;

    int64_t before = runOrder(p, false);
    compileLowLevel(p);
    EXPECT_EQ(runOrder(p, true), before);
    EXPECT_EQ(before, 1 + 3 + 5 + 7 + 9 + 11 + 13 + 15 + 17 + 19);
}

TEST(RegAllocTest, MapsVirtualsAndCountsStacked)
{
    Program p = wideProgram();
    Function *f = p.func(0);
    AnalysisManager am(*f);
    RegAllocStats s = allocateRegisters(*f, am);
    EXPECT_TRUE(f->reg_allocated);
    // A call-free function keeps everything in scratch registers.
    EXPECT_EQ(s.gr_used, 0);
    EXPECT_EQ(f->stacked_regs, s.gr_used);
    EXPECT_EQ(s.spilled, 0);
    // First instruction is the alloc.
    EXPECT_EQ(f->block(f->entry)->instrs[0].op, Opcode::ALLOC);
    auto errs = verifyProgram(p);
    EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs[0]);
    EXPECT_EQ(runOrder(p, false), 36);
}

TEST(RegAllocTest, HighPressureSpills)
{
    // 140 simultaneously-live values exceed scratch (25) + stacked (96).
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    std::vector<Reg> vals;
    const int kN = 140;
    for (int i = 0; i < kN; ++i)
        vals.push_back(b.movi(i));
    Reg s = vals[0];
    for (int i = 1; i < kN; ++i)
        s = b.add(s, vals[i]);
    b.ret(s);
    p.entry_func = f->id;

    int64_t expect = 0;
    for (int i = 0; i < kN; ++i)
        expect += i;

    AnalysisManager am(*f);
    RegAllocStats st = allocateRegisters(*f, am);
    EXPECT_GT(st.spilled, 0);
    EXPECT_GT(f->spill_slots, 0);
    auto errs = verifyProgram(p);
    EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs[0]);
    EXPECT_EQ(runOrder(p, false), expect);
}

TEST(RegAllocTest, SpilledCodeStillSchedulesAndRuns)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    std::vector<Reg> vals;
    const int kN = 110;
    for (int i = 0; i < kN; ++i)
        vals.push_back(b.movi(i * 3));
    Reg s = vals[0];
    for (int i = 1; i < kN; ++i)
        s = b.add(s, vals[i]);
    b.ret(s);
    p.entry_func = f->id;
    int64_t before = runOrder(p, false);
    compileLowLevel(p);
    EXPECT_EQ(runOrder(p, true), before);
    (void)f;
}

TEST(RegAllocTest, GuardedDefSpillPreservesOldValue)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    // Create pressure so that some register spills.
    std::vector<Reg> vals;
    const int kN = 100;
    for (int i = 0; i < kN; ++i)
        vals.push_back(b.movi(i));
    // x = 7; if (false) x = 9; use all vals + x.
    Reg x = b.movi(7);
    auto [pt, pf] = b.cmpi(CmpCond::GT, vals[0], 100); // false
    (void)pf;
    b.moviTo(x, 9, pt); // squashed guarded def
    Reg s = x;
    for (int i = 0; i < kN; ++i)
        s = b.add(s, vals[i]);
    b.ret(s);
    p.entry_func = f->id;
    int64_t before = runOrder(p, false);
    EXPECT_EQ(before % 10000, (7 + 99 * 100 / 2) % 10000);
    AnalysisManager am(*f);
    allocateRegisters(*f, am);
    EXPECT_EQ(runOrder(p, false), before);
}

TEST(RegAllocTest, CallsPreserveFramePrivacy)
{
    Program p;
    IRBuilder b(p);
    Function *callee = b.beginFunction("callee", 1);
    // Touch many registers in the callee.
    Reg acc = b.param(0);
    for (int i = 0; i < 40; ++i)
        acc = b.addi(acc, 1);
    b.ret(acc);
    Function *mainf = b.beginFunction("main", 0);
    Reg a = b.movi(100);
    Reg c = b.call(callee, {a});
    Reg d = b.add(a, c); // `a` must survive the call
    b.ret(d);
    p.entry_func = mainf->id;
    int64_t before = runOrder(p, false);
    EXPECT_EQ(before, 100 + 140);
    compileLowLevel(p);
    EXPECT_EQ(runOrder(p, true), before);
}

TEST(SchedTest, DagAdjacencyMatchesEdgeList)
{
    // DepDag keeps each instruction's predecessors as one edge-id range
    // and its successors as a CSR row. Both must list exactly the edges
    // of edges() that enter or leave the instruction, in edge-id order.
    const Config rungs[] = {Config::Gcc, Config::ONS, Config::IlpNs,
                            Config::IlpCs, Config::IlpCsDs};
    const MachineConfig mach;
    int blocks = 0;
    for (const Workload &w : allWorkloads()) {
        const ProfiledSource src = prepareWorkload(w, RunOptions{});
        ASSERT_TRUE(src.prog) << w.name << ": " << src.error;
        for (Config c : rungs) {
            const Compiled out = compileProgram(*src.prog, c);
            AliasAnalysis aa(*out.prog, AliasLevel::Inter);
            for (const auto &fp : out.prog->funcs) {
                if (!fp)
                    continue;
                AnalysisManager am(*fp, &aa);
                for (const BasicBlock *b : fp->blocks) {
                    if (!b || b->bundles.empty())
                        continue;
                    DepDag dag(*fp, *b, aa, mach, am.predRelations(b->id));
                    std::vector<std::vector<int>> preds(dag.size()),
                        succs(dag.size());
                    for (int e = 0; e < static_cast<int>(dag.edges().size());
                         ++e) {
                        preds[dag.edges()[e].to].push_back(e);
                        succs[dag.edges()[e].from].push_back(e);
                    }
                    for (int i = 0; i < dag.size(); ++i) {
                        std::vector<int> p, s;
                        const EdgeIdRange r = dag.predEdges(i);
                        for (int e = r.first; e < r.last; ++e)
                            p.push_back(e);
                        for (int e : dag.succEdges(i))
                            s.push_back(e);
                        ASSERT_EQ(p, preds[i])
                            << w.name << " " << configName(c) << " "
                            << fp->name << " bb" << b->id << " op " << i;
                        ASSERT_EQ(s, succs[i])
                            << w.name << " " << configName(c) << " "
                            << fp->name << " bb" << b->id << " op " << i;
                    }
                    ++blocks;
                }
            }
        }
    }
    EXPECT_GT(blocks, 0);
}

} // namespace
} // namespace epic
