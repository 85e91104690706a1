/**
 * @file
 * End-to-end compiler-driver tests: the central invariant is that all
 * four configurations produce the same architected result, and that the
 * performance ordering is sane on ILP-friendly code.
 */
#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "ir/builder.h"
#include "sim/interp.h"
#include "sim/timing.h"

namespace epic {
namespace {

/**
 * A moderately complex program: a hot loop with a biased branch, a
 * helper call, predictable loads, and a low-trip inner loop. Exercises
 * inlining, superblock, hyperblock, peeling and speculation.
 */
Program
complexProgram()
{
    Program p;
    int arr = p.addSymbol("arr", 8 * 2048);
    IRBuilder b(p);

    Function *helper = b.beginFunction("helper", 2);
    Reg h = b.add(b.param(0), b.param(1));
    b.ret(b.xori(h, 0x55));

    Function *f = b.beginFunction("main", 0);
    BasicBlock *fill = b.newBlock();
    BasicBlock *loop = b.newBlock();
    BasicBlock *odd = b.newBlock();
    BasicBlock *merge = b.newBlock();
    BasicBlock *inner = b.newBlock();
    BasicBlock *after = b.newBlock();
    BasicBlock *done = b.newBlock();

    Reg i = b.gr(), acc = b.gr(), k = b.gr();
    b.moviTo(i, 0);
    b.moviTo(acc, 0);
    Reg base = b.mova(arr);
    b.fallthrough(fill);

    b.setBlock(fill);
    Reg fa = b.add(base, b.shli(i, 3));
    Reg fv = b.xori(b.mul(i, b.movi(13)), 7);
    b.st(fa, fv, 8, MemHint{arr, -1});
    b.addiTo(i, i, 1);
    auto [pfl, pfge] = b.cmpi(CmpCond::LT, i, 2048);
    (void)pfge;
    b.br(pfl, fill);
    BasicBlock *reset = b.newBlock();
    b.fallthrough(reset);
    b.setBlock(reset);
    b.moviTo(i, 0);
    b.fallthrough(loop);

    b.setBlock(loop);
    Reg ea = b.add(base, b.shli(i, 3));
    Reg v = b.ld(ea, 8, MemHint{arr, -1});
    Reg bit = b.andi(v, 7);
    auto [podd, peven] = b.cmpi(CmpCond::EQ, bit, 3);
    (void)peven;
    b.br(podd, odd);
    b.fallthrough(merge);

    b.setBlock(odd);
    Reg hv = b.call(helper, {v, i});
    b.addTo(acc, acc, hv);
    b.fallthrough(merge);

    b.setBlock(merge);
    b.moviTo(k, 0);
    b.fallthrough(inner);

    // Low-trip inner loop: executes once, rarely twice.
    b.setBlock(inner);
    b.addiTo(acc, acc, 1);
    b.addiTo(k, k, 1);
    Reg lim = b.andi(v, 16);
    Reg lim1 = b.shri(lim, 4); // 0 or 1
    auto [pmore, pstop] = b.cmp(CmpCond::LE, k, lim1);
    (void)pstop;
    b.br(pmore, inner);
    b.fallthrough(after);

    b.setBlock(after);
    b.addiTo(i, i, 1);
    auto [pl, pge] = b.cmpi(CmpCond::LT, i, 2048);
    (void)pge;
    b.br(pl, loop);
    b.fallthrough(done);

    b.setBlock(done);
    b.ret(acc);
    p.entry_func = f->id;
    return p;
}

struct AllConfigs
{
    int64_t source_result = 0;
    std::map<Config, TimingResult> timing;
    std::map<Config, Compiled> compiled;
};

AllConfigs
runAllConfigs(Program &src)
{
    AllConfigs out;
    src.layoutData();
    {
        Memory mem;
        mem.initFromProgram(src);
        auto prof = profileRun(src, mem);
        EXPECT_TRUE(prof.ok) << prof.error;
        out.source_result = prof.ret_value;
    }
    for (Config cfg :
         {Config::Gcc, Config::ONS, Config::IlpNs, Config::IlpCs}) {
        Compiled c = compileProgram(src, cfg);
        Memory mem;
        mem.initFromProgram(*c.prog);
        auto r = simulate(*c.prog, mem);
        EXPECT_TRUE(r.ok) << configName(cfg) << ": " << r.error;
        out.timing[cfg] = std::move(r);
        out.compiled[cfg] = std::move(c);
    }
    return out;
}

TEST(DriverTest, AllConfigsPreserveSemantics)
{
    Program p = complexProgram();
    AllConfigs r = runAllConfigs(p);
    for (auto &[cfg, tr] : r.timing)
        EXPECT_EQ(tr.ret_value, r.source_result)
            << configName(cfg) << " diverged";
}

TEST(DriverTest, PerformanceOrderingOnIlpFriendlyCode)
{
    Program p = complexProgram();
    AllConfigs r = runAllConfigs(p);
    uint64_t gcc = r.timing[Config::Gcc].pm.total();
    uint64_t ons = r.timing[Config::ONS].pm.total();
    uint64_t ilpcs = r.timing[Config::IlpCs].pm.total();
    EXPECT_LT(ons, gcc);     // IMPACT classical beats GCC
    EXPECT_LT(ilpcs, ons);   // structural ILP beats classical
}

TEST(DriverTest, IlpConfigsRemoveBranches)
{
    Program p = complexProgram();
    AllConfigs r = runAllConfigs(p);
    uint64_t ons_br = r.timing[Config::ONS].pm.branches;
    uint64_t ilp_br = r.timing[Config::IlpNs].pm.branches;
    EXPECT_LT(ilp_br, ons_br);
}

TEST(DriverTest, IlpConfigsImprovePlannedIpc)
{
    Program p = complexProgram();
    AllConfigs r = runAllConfigs(p);
    EXPECT_GT(r.timing[Config::IlpCs].pm.plannedIpc(),
              r.timing[Config::ONS].pm.plannedIpc());
}

TEST(DriverTest, StructuralTransformsGrowCode)
{
    Program p = complexProgram();
    p.layoutData();
    Memory mem;
    mem.initFromProgram(p);
    auto prof = profileRun(p, mem);
    ASSERT_TRUE(prof.ok);

    Compiled ons = compileProgram(p, Config::ONS);
    Compiled ilp = compileProgram(p, Config::IlpNs);
    EXPECT_GT(ilp.stats.sb.tail_dup_instrs + ilp.stats.peel.peel_instrs, 0);
    EXPECT_GE(ilp.stats.instrs_after_regions, ons.stats.instrs_after_classical);
}

TEST(DriverTest, SpeculationOnlyInIlpCs)
{
    Program p = complexProgram();
    p.layoutData();
    Memory mem;
    mem.initFromProgram(p);
    ASSERT_TRUE(profileRun(p, mem).ok);

    Compiled ns = compileProgram(p, Config::IlpNs);
    Compiled cs = compileProgram(p, Config::IlpCs);
    EXPECT_EQ(ns.stats.spec.promoted + ns.stats.spec.moved, 0);
    EXPECT_GT(cs.stats.spec.promoted + cs.stats.spec.moved, 0);

    auto count_spec = [](const Program &prog) {
        int n = 0;
        for (const auto &f : prog.funcs) {
            if (!f)
                continue;
            for (const auto &b : f->blocks) {
                if (!b)
                    continue;
                for (const Instruction &inst : b->instrs)
                    if (inst.spec)
                        ++n;
            }
        }
        return n;
    };
    EXPECT_EQ(count_spec(*ns.prog), 0);
}

TEST(DriverTest, GccConfigUsesNarrowGroupsAndNoInline)
{
    Program p = complexProgram();
    p.layoutData();
    Memory mem;
    mem.initFromProgram(p);
    ASSERT_TRUE(profileRun(p, mem).ok);

    Compiled gcc = compileProgram(p, Config::Gcc);
    Compiled ons = compileProgram(p, Config::ONS);
    EXPECT_EQ(gcc.stats.inl.inlined, 0);
    EXPECT_GT(ons.stats.inl.inlined, 0);
    EXPECT_LT(gcc.stats.sched.plannedIpc(), ons.stats.sched.plannedIpc());
}

TEST(DriverTest, LibraryFunctionsStayWeak)
{
    Program p;
    int sym = p.addSymbol("buf", 8 * 512);
    IRBuilder b(p);
    Function *lib = b.beginFunction("memcpyish", 2, kFuncLibrary);
    {
        BasicBlock *loop = b.newBlock();
        BasicBlock *done = b.newBlock();
        Reg i = b.gr();
        b.moviTo(i, 0);
        b.fallthrough(loop);
        b.setBlock(loop);
        Reg ea = b.add(b.param(0), b.shli(i, 3));
        Reg v = b.ld(ea, 8);
        Reg eb = b.add(b.param(1), b.shli(i, 3));
        b.st(eb, v, 8);
        b.addiTo(i, i, 1);
        auto [pl, pge] = b.cmpi(CmpCond::LT, i, 128);
        (void)pge;
        b.br(pl, loop);
        b.fallthrough(done);
        b.setBlock(done);
        b.ret(i);
    }
    Function *mainf = b.beginFunction("main", 0);
    Reg a = b.mova(sym);
    Reg c = b.mova(sym, 2048);
    Reg n = b.call(lib, {a, c});
    b.ret(n);
    p.entry_func = mainf->id;

    p.layoutData();
    Memory mem;
    mem.initFromProgram(p);
    ASSERT_TRUE(profileRun(p, mem).ok);

    Compiled cs = compileProgram(p, Config::IlpCs);
    // The library function kept basic blocks (no regions) and narrow
    // scheduling: its planned IPC must stay low.
    const Function *libc = nullptr;
    for (const auto &fn : cs.prog->funcs)
        if (fn && fn->name == "memcpyish")
            libc = fn.get();
    ASSERT_NE(libc, nullptr);
    for (const auto &bb : libc->blocks) {
        if (!bb)
            continue;
        for (const Instruction &inst : bb->instrs) {
            EXPECT_FALSE(inst.attr & kAttrTailDup);
            EXPECT_FALSE(inst.spec);
        }
    }
}

} // namespace
} // namespace epic
