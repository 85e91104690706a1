/**
 * @file
 * Scheduler and register-allocator tests. The load-bearing invariants:
 * scheduled (bundle-order) execution must produce the same architected
 * result as source-order execution, the verifier's bundle checks must
 * pass, and dispersal limits must be respected.
 */
#include <gtest/gtest.h>

#include <algorithm>
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

/**
 * Calls visit(where, f, b, aa, prel) for every scheduled block of the
 * 12 workloads compiled at each of the 5 rungs.
 */
template <typename Visit>
void
forEachScheduledBlock(Visit visit)
{
    const Config rungs[] = {Config::Gcc, Config::ONS, Config::IlpNs,
                            Config::IlpCs, Config::IlpCsDs};
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
                    const std::string where = w.name + " " +
                                              configName(c) + " " +
                                              fp->name + " bb" +
                                              std::to_string(b->id);
                    visit(where, *fp, *b, aa, am.predRelations(b->id));
                }
            }
        }
    }
}

TEST(SchedTest, DagAdjacencyMatchesEdgeList)
{
    // DepDag keeps each instruction's predecessors as one edge-id range
    // and its successors as a CSR row. Both must list exactly the edges
    // of edges() that enter or leave the instruction, in edge-id order.
    const MachineConfig mach;
    int blocks = 0;
    forEachScheduledBlock([&](const std::string &where, const Function &f,
                              const BasicBlock &b, const AliasAnalysis &aa,
                              const PredRelations &prel) {
        DepDag dag(f, b, aa, mach, prel);
        std::vector<std::vector<int>> preds(dag.size()), succs(dag.size());
        for (int e = 0; e < static_cast<int>(dag.edges().size()); ++e) {
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
            ASSERT_EQ(p, preds[i]) << where << " op " << i;
            ASSERT_EQ(s, succs[i]) << where << " op " << i;
        }
        ++blocks;
    });
    EXPECT_GT(blocks, 0);
}

/**
 * Reference dependence DAG: the all-pairs scan, which checks every
 * earlier op of the block against each op for register (RAW, WAR,
 * WAW), memory and control dependences and keeps the strongest edge
 * per pair. It is the unreduced DAG DepDag's register chain walk once
 * reproduced edge for edge; DepDag now leaves out the register edges
 * that a path through a nearer unguarded def implies.
 */
std::vector<DagEdge>
referenceDagEdges(const Function &f, const BasicBlock &b,
                  const AliasAnalysis &aa, const MachineConfig &mach,
                  const PredRelations &prel)
{
    const int n = static_cast<int>(b.instrs.size());
    std::vector<int> lat(static_cast<size_t>(n) * n, -1); // [from * n + to]
    auto add = [&](int j, int i, int l) {
        int &e = lat[static_cast<size_t>(j) * n + i];
        e = std::max(e, l);
    };
    auto guard = [&](int k) {
        const Instruction &x = b.instrs[k];
        const bool unc = (x.op == Opcode::CMP || x.op == Opcode::CMPI) &&
                         x.ctype == CmpType::Unc;
        return unc ? kPrTrue : x.guard;
    };
    auto disjoint = [&](int i, int j) {
        const Reg gi = guard(i), gj = guard(j);
        return gi != kPrTrue && gj != kPrTrue && prel.disjointAt(i, gi, gj) &&
               prel.disjointAt(j, gi, gj);
    };
    std::vector<std::vector<Reg>> defs(n), uses(n);
    for (int k = 0; k < n; ++k) {
        instrDefs(b.instrs[k], defs[k]);
        instrUses(b.instrs[k], uses[k]);
    }
    int last_branch = -1;
    for (int i = 0; i < n; ++i) {
        const Instruction &ii = b.instrs[i];
        for (int j = i - 1; j >= 0; --j) {
            const Instruction &ij = b.instrs[j];
            const bool dj = disjoint(i, j);
            for (const Reg &d : defs[j]) {
                bool reads = false, guard_read = false;
                for (const Reg &u : uses[i])
                    if (u == d) {
                        reads = true;
                        guard_read = guard_read ||
                                     (u == ii.guard && u.cls == RegClass::Pr);
                    }
                if (!reads || (dj && guard(j) != kPrTrue))
                    continue;
                int l = ij.op == Opcode::CHK_A ? 0 : opLatency(mach, ij.op);
                bool guard_only = guard_read;
                for (const Operand &o : ii.srcs)
                    if (o.isReg() && o.reg == d)
                        guard_only = false;
                if ((ij.op == Opcode::CMP || ij.op == Opcode::CMPI) &&
                    ii.isBranch() && guard_only)
                    l = 0;
                add(j, i, l);
            }
            for (const Reg &d : defs[i]) {
                for (const Reg &u : uses[j])
                    if (u == d && !dj)
                        add(j, i, 0);
                for (const Reg &d2 : defs[j])
                    if (d == d2 && !dj)
                        add(j, i, 1);
            }
            if ((ii.isMem() || ii.isCall()) && (ij.isMem() || ij.isCall())) {
                bool conflict;
                if (ii.isCall() && ij.isCall())
                    conflict = true;
                else if (ii.isCall() || ij.isCall())
                    conflict = aa.callMayTouch(ii.isCall() ? ii : ij,
                                               ii.isCall() ? ij : ii);
                else if (ii.isLoad() && ij.isLoad())
                    conflict = false;
                else if (ii.op == Opcode::LD_A && ij.isStore())
                    conflict = false;
                else
                    conflict = aa.mayAlias(f, ii, ij);
                if (conflict && !dj)
                    add(j, i, 1);
            }
        }
        if (ii.op == Opcode::ALLOC)
            for (int j = 0; j < i; ++j)
                add(j, i, 1);
        if (ii.isBranch()) {
            for (int j = std::max(last_branch, 0); j < i; ++j)
                add(j, i, j == last_branch ? 1 : 0);
            last_branch = i;
        } else if (last_branch >= 0) {
            add(last_branch, i, 1);
        }
    }
    std::vector<DagEdge> edges;
    for (int j = 0; j < n; ++j)
        for (int i = j + 1; i < n; ++i)
            if (lat[static_cast<size_t>(j) * n + i] >= 0)
                edges.push_back({j, i, lat[static_cast<size_t>(j) * n + i]});
    return edges;
}

/** Longest-path latency from every op to every op of an n-op DAG whose
 *  edges go forward: [from * n + to], -1 where `to` is unreachable. */
std::vector<int>
longestPaths(int n, const std::vector<DagEdge> &edges)
{
    std::vector<std::vector<const DagEdge *>> out(n);
    for (const DagEdge &e : edges)
        out[e.from].push_back(&e);
    std::vector<int> dist(static_cast<size_t>(n) * n, -1);
    for (int s = n - 1; s >= 0; --s) {
        int *row = &dist[static_cast<size_t>(s) * n];
        row[s] = 0;
        for (const DagEdge *e : out[s]) {
            const int *via = &dist[static_cast<size_t>(e->to) * n];
            for (int t = e->to; t < n; ++t)
                if (via[t] >= 0)
                    row[t] = std::max(row[t], e->latency + via[t]);
        }
    }
    return dist;
}

/**
 * DepDag and the reference DAG of one block agree on every longest
 * path (unreachable pairs included) and on every height, which is all
 * the list scheduler reads of a DAG besides each op's predecessor
 * count.
 */
void
expectSameLongestPaths(const std::string &where, const Function &f,
                       const BasicBlock &b, const AliasAnalysis &aa,
                       const PredRelations &prel, int *edges = nullptr)
{
    const MachineConfig mach;
    const DepDag dag(f, b, aa, mach, prel);
    const int n = dag.size();
    const std::vector<int> got = longestPaths(n, dag.edges());
    const std::vector<int> want =
        longestPaths(n, referenceDagEdges(f, b, aa, mach, prel));
    for (int s = 0; s < n; ++s) {
        int height = 0;
        for (int t = s; t < n; ++t) {
            const size_t k = static_cast<size_t>(s) * n + t;
            ASSERT_EQ(got[k], want[k])
                << where << ": longest path op " << s << " -> op " << t;
            height = std::max(height, want[k]);
        }
        ASSERT_EQ(dag.height(s), height) << where << ": height of op " << s;
    }
    if (edges)
        *edges += static_cast<int>(dag.edges().size());
}

TEST(SchedTest, DagKeepsEveryLongestPathOfTheAllPairsScan)
{
    int blocks = 0, instrs = 0, edges = 0;
    forEachScheduledBlock([&](const std::string &where, const Function &f,
                              const BasicBlock &b, const AliasAnalysis &aa,
                              const PredRelations &prel) {
        expectSameLongestPaths(where, f, b, aa, prel, &edges);
        instrs += static_cast<int>(b.instrs.size());
        ++blocks;
    });
    EXPECT_GT(blocks, 2000);
    // The all-pairs scan holds about 30 edges per instruction on this
    // fleet (1.6M for 55k), the chain-cut DAG about 3.3: a register
    // walk gone quadratic again trips this.
    EXPECT_LT(edges, 5 * instrs) << edges << " edges for " << instrs
                                 << " instructions";
}

/** DepDag of the one-block function of one parameter that `body`
 *  builds, once it has kept every longest path of the reference. */
template <typename Body>
DepDag
handBuiltDag(Body body)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("g", 1);
    body(b, f->block(f->entry));
    p.entry_func = f->id;
    const BasicBlock &bb = *f->block(f->entry);
    AliasAnalysis aa(p, AliasLevel::Inter);
    AnalysisManager am(*f, &aa);
    const PredRelations &prel = am.predRelations(bb.id);
    expectSameLongestPaths("hand-built", *f, bb, aa, prel);
    return DepDag(*f, bb, aa, MachineConfig{}, prel);
}

/** Latency of the edge from -> to, or -1 when there is none. */
int
edgeLatency(const DepDag &dag, int from, int to)
{
    const EdgeIdRange r = dag.predEdges(to);
    for (int e = r.first; e < r.last; ++e)
        if (dag.edges()[e].from == from)
            return dag.edges()[e].latency;
    return -1;
}

int
nextIndex(const BasicBlock *bb)
{
    return static_cast<int>(bb->instrs.size());
}

TEST(SchedTest, DagKeepsASlowDefsEdgePastAnUnguardedRedefinition)
{
    // mul r5; mov r5 = x; add = r5 + 1: the path through the mov is
    // 1 + 1 cycles, the mul's result 6, so the mul -> add edge stays.
    int mul = 0, mov = 0, use = 0;
    const DepDag dag = handBuiltDag([&](IRBuilder &b, BasicBlock *bb) {
        const Reg x = b.param(0);
        mul = nextIndex(bb);
        const Reg r5 = b.mul(x, x);
        mov = nextIndex(bb);
        b.movTo(r5, x);
        use = nextIndex(bb);
        b.ret(b.addi(r5, 1));
    });
    EXPECT_EQ(edgeLatency(dag, mul, mov), 1);
    EXPECT_EQ(edgeLatency(dag, mov, use), 1);
    EXPECT_EQ(edgeLatency(dag, mul, use), 6);
}

TEST(SchedTest, DagGuardedRedefinitionDoesNotCutTheChain)
{
    // (pt) r5 = 1; (pf) r5 = 2; (pt) add = r5 + 1. pt and pf are
    // disjoint, so no edge joins the second def to either neighbour:
    // only the direct edge orders the first def before the add.
    int def = 0, redef = 0, use = 0;
    const DepDag dag = handBuiltDag([&](IRBuilder &b, BasicBlock *bb) {
        const Reg x = b.param(0);
        const auto [pt, pf] = b.cmpi(CmpCond::GT, x, 0);
        const Reg r5 = b.gr();
        def = nextIndex(bb);
        b.moviTo(r5, 1, pt);
        redef = nextIndex(bb);
        b.moviTo(r5, 2, pf);
        use = nextIndex(bb);
        b.ret(b.addi(r5, 1, pt));
    });
    EXPECT_EQ(edgeLatency(dag, def, redef), -1);
    EXPECT_EQ(edgeLatency(dag, redef, use), -1);
    EXPECT_EQ(edgeLatency(dag, def, use), 1);
}

TEST(SchedTest, DagUncCompareCutsTheChain)
{
    // p1 = (x > 0); (g) p1 = (x < 5); (p1) r = 7. An unc compare writes
    // p1 even when g is false, so it cuts p1's chain: the first compare
    // reaches the use only through it (1 + 1), the reference directly.
    // A normal compare under g writes p1 only when g holds, so the
    // chain runs on to the first compare.
    for (CmpType ctype : {CmpType::Unc, CmpType::Norm}) {
        int first = 0, redef = 0, use = 0;
        const DepDag dag = handBuiltDag([&](IRBuilder &b, BasicBlock *bb) {
            const Reg x = b.param(0);
            first = nextIndex(bb);
            const auto [p1, p2] = b.cmpi(CmpCond::GT, x, 0);
            const Reg g = b.cmpi(CmpCond::LT, x, 10).first;
            Instruction cmp;
            cmp.op = Opcode::CMPI;
            cmp.cond = CmpCond::LT;
            cmp.ctype = ctype;
            cmp.guard = g;
            cmp.dests = {p1, p2};
            cmp.srcs = {Operand::makeReg(x), Operand::makeImm(5)};
            redef = nextIndex(bb);
            b.emit(cmp);
            use = nextIndex(bb);
            b.ret(b.movi(7, p1));
        });
        EXPECT_EQ(edgeLatency(dag, first, redef), 1) << cmpTypeName(ctype);
        EXPECT_EQ(edgeLatency(dag, redef, use), 1) << cmpTypeName(ctype);
        EXPECT_EQ(edgeLatency(dag, first, use), ctype == CmpType::Unc ? -1 : 1)
            << cmpTypeName(ctype);
    }
}

} // namespace
} // namespace epic
