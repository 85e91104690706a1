/**
 * @file
 * Timing-simulator tests: cycle-accounting consistency, cache and
 * predictor behaviour, wild-load deferral policies, micropipe, RSE,
 * budget/deadline trip points and sampled mode.
 */
#include <gtest/gtest.h>

#include <string>

#include "driver/compiler.h"
#include "ir/builder.h"
#include "sim/checkpoint.h"
#include "sim/interp.h"
#include "sim/timing.h"
#include "support/supervision/supervise.h"
#include "workloads/workload.h"

namespace epic {
namespace {

/** Profile on its own memory image, compile, simulate. */
TimingResult
compileAndSim(Program &src, Config cfg,
              DeferralPolicy deferral = DeferralPolicy::General)
{
    src.layoutData();
    Memory pmem;
    pmem.initFromProgram(src);
    auto prof = profileRun(src, pmem);
    EXPECT_TRUE(prof.ok) << prof.error;

    Compiled c = compileProgram(src, cfg);
    Memory mem;
    mem.initFromProgram(*c.prog);
    TimingOptions topts;
    topts.deferral = deferral;
    auto r = simulate(*c.prog, mem, topts);
    EXPECT_TRUE(r.ok) << r.error;
    return r;
}

/**
 * Counted loop summing an array of `n` 8-byte elements, repeated
 * `passes` times (so cache-resident working sets run warm).
 */
Program
arrayLoop(int n, int stride = 1, int passes = 1)
{
    Program p;
    int sym = p.addSymbol("arr", static_cast<uint64_t>(n) * 8);
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    BasicBlock *pass = b.newBlock();
    BasicBlock *loop = b.newBlock();
    BasicBlock *next = b.newBlock();
    BasicBlock *done = b.newBlock();
    Reg i = b.gr(), acc = b.gr(), rep = b.gr();
    b.moviTo(rep, 0);
    b.moviTo(acc, 0);
    Reg base = b.mova(sym);
    b.fallthrough(pass);
    b.setBlock(pass);
    b.moviTo(i, 0);
    b.fallthrough(loop);
    b.setBlock(loop);
    Reg ea = b.add(base, b.shli(i, 3));
    Reg v = b.ld(ea, 8, MemHint{sym, -1});
    b.addTo(acc, acc, v);
    b.addiTo(i, i, stride);
    auto [pl, pge] = b.cmpi(CmpCond::LT, i, n);
    (void)pge;
    b.br(pl, loop);
    b.fallthrough(next);
    b.setBlock(next);
    b.addiTo(rep, rep, 1);
    auto [pr, prge] = b.cmpi(CmpCond::LT, rep, passes);
    (void)prge;
    b.br(pr, pass);
    b.fallthrough(done);
    b.setBlock(done);
    b.ret(acc);
    p.entry_func = f->id;
    return p;
}

TEST(TimingTest, BasicRunMatchesFunctionalResult)
{
    Program p = arrayLoop(1000);
    p.layoutData();
    Memory m0;
    m0.initFromProgram(p);
    auto fr = interpret(p, m0);
    ASSERT_TRUE(fr.ok) << fr.error;

    auto r = compileAndSim(p, Config::ONS);
    EXPECT_EQ(r.ret_value, fr.ret_value);
    EXPECT_GT(r.pm.total(), 0u);
    EXPECT_GT(r.pm.get(CycleCat::Unstalled), 0u);
    EXPECT_GT(r.pm.useful_ops, 0u);
}

TEST(TimingTest, PlannedCyclesAreSubsetOfTotal)
{
    Program p = arrayLoop(2000);
    auto r = compileAndSim(p, Config::IlpCs);
    EXPECT_LE(r.pm.planned(), r.pm.total());
    EXPECT_GE(r.pm.plannedIpc(), r.pm.usefulIpc());
}

TEST(TimingTest, LargeWorkingSetCausesLoadBubbles)
{
    Program small = arrayLoop(512, 1, 10);    // 4 KB: L1-resident
    Program big = arrayLoop(1 << 19, 8, 2);   // 4 MB, striding: misses
    auto rs = compileAndSim(small, Config::ONS);
    auto rb = compileAndSim(big, Config::ONS);
    double small_frac =
        static_cast<double>(rs.pm.get(CycleCat::IntLoadBubble)) /
        rs.pm.total();
    double big_frac =
        static_cast<double>(rb.pm.get(CycleCat::IntLoadBubble)) /
        rb.pm.total();
    EXPECT_GT(big_frac, small_frac + 0.1);
    EXPECT_GT(rb.pm.l1d_misses, rs.pm.l1d_misses * 10);
}

TEST(TimingTest, CycleCategoriesArePopulatedSanely)
{
    Program p = arrayLoop(512, 1, 20); // 4 KB x 20 passes: runs warm
    auto r = compileAndSim(p, Config::ONS);
    uint64_t sum = 0;
    for (int c = 0; c < Perfmon::kNumCats; ++c)
        sum += r.pm.cycles[c];
    EXPECT_EQ(sum, r.pm.total());
    // A tight hitting loop: most cycles unstalled.
    EXPECT_GT(r.pm.get(CycleCat::Unstalled), r.pm.total() / 3);
}

TEST(TimingTest, BiasedBranchesPredictWell)
{
    // i % 64 == 0 pattern: strongly biased.
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    BasicBlock *loop = b.newBlock();
    BasicBlock *rare = b.newBlock();
    BasicBlock *latch = b.newBlock();
    BasicBlock *done = b.newBlock();
    Reg i = b.gr(), acc = b.gr();
    b.moviTo(i, 0);
    b.moviTo(acc, 0);
    b.fallthrough(loop);
    b.setBlock(loop);
    Reg m = b.andi(i, 63);
    auto [pz, pnz] = b.cmpi(CmpCond::EQ, m, 0);
    (void)pnz;
    b.br(pz, rare);
    b.fallthrough(latch);
    b.setBlock(rare);
    b.addiTo(acc, acc, 100);
    b.fallthrough(latch);
    b.setBlock(latch);
    b.addiTo(i, i, 1);
    auto [pl, pge] = b.cmpi(CmpCond::LT, i, 20000);
    (void)pge;
    b.br(pl, loop);
    b.fallthrough(done);
    b.setBlock(done);
    b.ret(acc);
    p.entry_func = f->id;

    auto r = compileAndSim(p, Config::ONS);
    EXPECT_GT(r.pm.predictionRate(), 0.95);
}

TEST(TimingTest, WildLoadsGeneralVsSentinel)
{
    // A pointer/int union dereference promoted under ILP-CS: in the
    // general model every wild execution walks the kernel page tables;
    // sentinel defers cheaply.
    Program p;
    int sym = p.addSymbol("nodes", 16 * 256);
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    BasicBlock *loop = b.newBlock();
    BasicBlock *done = b.newBlock();
    Reg i = b.gr(), acc = b.gr();
    b.moviTo(i, 0);
    b.moviTo(acc, 0);
    Reg base = b.mova(sym);
    // nodes[i] = {tag=0, val=junk} for all i (tag 0 => integer union).
    BasicBlock *fill = b.newBlock();
    b.jump(fill);
    b.setBlock(fill);
    Reg fa = b.add(base, b.shli(i, 4));
    b.st(fa, b.movi(0), 8, MemHint{sym, -1});
    Reg fa2 = b.addi(fa, 8);
    Reg junk = b.ori(b.shli(i, 20), 0x600000001ll);
    b.st(fa2, junk, 8, MemHint{sym, -1});
    b.addiTo(i, i, 1);
    auto [pfl, pfge] = b.cmpi(CmpCond::LT, i, 256);
    (void)pfge;
    b.br(pfl, fill);
    BasicBlock *reset = b.newBlock();
    b.fallthrough(reset);
    b.setBlock(reset);
    b.moviTo(i, 0);
    b.fallthrough(loop);

    b.setBlock(loop);
    Reg ea = b.add(base, b.shli(i, 4));
    Reg tag = b.ld(ea, 8, MemHint{sym, -1});
    Reg ea2 = b.addi(ea, 8);
    Reg pv = b.ld(ea2, 8, MemHint{sym, -1});
    auto [pp, pint] = b.cmpi(CmpCond::NE, tag, 0);
    (void)pint;
    Reg v = b.gr();
    b.ldTo(v, pv, 8, MemHint{-1, -1}, pp); // deref only when pointer
    Instruction add;
    add.op = Opcode::ADD;
    add.guard = pp;
    add.dests = {acc};
    add.srcs = {Operand::makeReg(acc), Operand::makeReg(v)};
    b.emit(add);
    b.addiTo(i, i, 1);
    auto [pl, pge] = b.cmpi(CmpCond::LT, i, 256);
    (void)pge;
    b.br(pl, loop);
    b.fallthrough(done);
    b.setBlock(done);
    b.ret(acc);
    p.entry_func = f->id;

    auto rg = compileAndSim(p, Config::IlpCs, DeferralPolicy::General);
    auto rst = compileAndSim(p, Config::IlpCs, DeferralPolicy::Sentinel);
    EXPECT_EQ(rg.ret_value, rst.ret_value);
    if (rg.pm.wild_loads > 0) {
        EXPECT_GT(rg.pm.get(CycleCat::Kernel),
                  rst.pm.get(CycleCat::Kernel));
        EXPECT_GT(rg.pm.get(CycleCat::Kernel), 0u);
    }
    // The ILP-NS compilation must not produce wild loads at all.
    auto rns = compileAndSim(p, Config::IlpNs);
    EXPECT_EQ(rns.pm.wild_loads, 0u);
    EXPECT_EQ(rns.ret_value, rg.ret_value);
}

TEST(TimingTest, StoreToLoadForwardingConflicts)
{
    // Alternating store/load to addresses that share the micropipe
    // index (multiples of 1024 collide in ((addr>>3)&0x7f)).
    Program p;
    int s1 = p.addSymbol("a", 16);
    p.addSymbol("pad", 1008); // keep b exactly 1 KB after a
    int s2 = p.addSymbol("b", 16);
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    BasicBlock *loop = b.newBlock();
    BasicBlock *done = b.newBlock();
    Reg i = b.gr(), acc = b.gr();
    b.moviTo(i, 0);
    b.moviTo(acc, 0);
    Reg a1 = b.mova(s1);
    Reg a2 = b.mova(s2);
    b.fallthrough(loop);
    b.setBlock(loop);
    // Both addresses swing with i so no pass can hoist the load; the
    // store/load pair stays exactly 1 KB apart (micropipe index match).
    Reg off = b.shli(b.andi(i, 1), 3);
    Reg sa = b.add(a1, off);
    Reg la = b.add(a2, off);
    b.st(sa, i, 8, MemHint{s1, -1});
    Reg v = b.ld(la, 8, MemHint{s2, -1}); // collides with the store
    b.addTo(acc, acc, v);
    b.addiTo(i, i, 1);
    auto [pl, pge] = b.cmpi(CmpCond::LT, i, 2000);
    (void)pge;
    b.br(pl, loop);
    b.fallthrough(done);
    b.setBlock(done);
    b.ret(acc);
    p.entry_func = f->id;

    auto r = compileAndSim(p, Config::ONS);
    EXPECT_GT(r.pm.stlf_conflicts, 100u);
    EXPECT_GT(r.pm.get(CycleCat::Micropipe), 0u);
}

TEST(TimingTest, DeepCallChainDrivesRse)
{
    // A recursive function with a fat register frame.
    Program p;
    IRBuilder b(p);
    Function *rec = b.beginFunction("rec", 1);
    BasicBlock *base_bb = b.newBlock();
    Reg n = b.param(0);
    // Consume ~30 registers of frame.
    std::vector<Reg> keep;
    for (int i = 0; i < 30; ++i)
        keep.push_back(b.addi(n, i));
    auto [pz, pnz] = b.cmpi(CmpCond::LE, n, 0);
    (void)pnz;
    b.br(pz, base_bb);
    Reg n1 = b.subi(n, 1);
    Reg sub = b.call(rec, {n1});
    Reg s = sub;
    for (Reg k : keep)
        s = b.add(s, k);
    b.ret(s);
    b.setBlock(base_bb);
    b.ret(b.movi(0));

    Function *mainf = b.beginFunction("main", 0);
    Reg depth = b.movi(40);
    b.ret(b.call(rec, {depth}));
    p.entry_func = mainf->id;

    auto r = compileAndSim(p, Config::ONS);
    EXPECT_GT(r.pm.rse_spill_regs, 0u);
    EXPECT_GT(r.pm.rse_fill_regs, 0u);
    EXPECT_GT(r.pm.get(CycleCat::Rse), 0u);
}

TEST(TimingTest, FunctionCycleAttribution)
{
    Program p;
    IRBuilder b(p);
    Function *worker = b.beginFunction("worker", 1);
    BasicBlock *loop = b.newBlock();
    BasicBlock *done = b.newBlock();
    Reg i = b.gr(), acc = b.gr();
    b.moviTo(i, 0);
    b.moviTo(acc, 0);
    b.fallthrough(loop);
    b.setBlock(loop);
    b.addTo(acc, acc, i);
    b.addiTo(i, i, 1);
    auto [pl, pge] = b.cmp(CmpCond::LT, i, worker->params[0]);
    (void)pge;
    b.br(pl, loop);
    b.fallthrough(done);
    b.setBlock(done);
    b.ret(acc);

    Function *mainf = b.beginFunction("main", 0);
    Reg k = b.movi(5000);
    b.ret(b.call(worker, {k}));
    p.entry_func = mainf->id;

    auto r = compileAndSim(p, Config::ONS);
    uint64_t worker_cycles = r.pm.func_cycles[worker->id];
    uint64_t main_cycles = r.pm.func_cycles[mainf->id];
    EXPECT_GT(worker_cycles, main_cycles * 10);
}

TEST(TimingTest, NopsAreRetiredAndCounted)
{
    Program p = arrayLoop(100);
    auto r = compileAndSim(p, Config::Gcc);
    EXPECT_GT(r.pm.nop_ops, 0u);
    // GCC-style single-bundle groups waste most slots.
    EXPECT_GT(r.pm.nop_ops, r.pm.useful_ops / 3);
}

// ---------------------------------------------------------------------
// Budget/deadline trip points and sampled mode on a real workload.

/** Serialize a Perfmon: blob equality is full-counter equality. */
std::string
pmBlob(const Perfmon &pm)
{
    CkptWriter w;
    saveState(w, pm);
    return w.take();
}

/** Profile + compile one workload (tests run several sims per build). */
Compiled
buildCompiled(const Workload &w, Config cfg)
{
    auto prog = w.build();
    prog->layoutData();
    {
        Memory mem;
        mem.initFromProgram(*prog);
        w.write_input(*prog, mem, InputKind::Train);
        EXPECT_TRUE(profileRun(*prog, mem).ok);
    }
    return compileProgram(*prog, cfg);
}

TimingResult
runSim(const Workload &w, Compiled &c, const TimingOptions &topts)
{
    Memory mem;
    mem.initFromProgram(*c.prog);
    w.write_input(*c.prog, mem, InputKind::Train);
    return simulate(*c.prog, mem, topts);
}

// The cycle budget is checked once per issue group, so a run trips at
// the first group boundary past the budget: deterministically, with a
// byte-identical Perfmon every time.
TEST(TimingTest, CycleBudgetTripsAtGroupBoundary)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    Compiled c = buildCompiled(*w, Config::IlpCs);

    uint64_t full_cycles = 0;
    {
        TimingResult r = runSim(*w, c, {});
        ASSERT_TRUE(r.ok) << r.error;
        full_cycles = r.pm.total();
        ASSERT_GT(full_cycles, 1000u);
    }

    TimingOptions topts;
    topts.max_cycles = full_cycles / 2;
    TimingResult a = runSim(*w, c, topts);
    TimingResult b = runSim(*w, c, topts);
    ASSERT_FALSE(a.ok);
    ASSERT_FALSE(b.ok);
    EXPECT_EQ(a.status, RunStatus::BudgetExceeded);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(pmBlob(a.pm), pmBlob(b.pm));
    // Past the budget, by less than one group's worth of cycles.
    EXPECT_GT(a.pm.total(), topts.max_cycles);
    EXPECT_LT(a.pm.total(), topts.max_cycles + 1000);
}

TEST(TimingTest, ExpiredDeadlineTripsAtFirstPoll)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    Compiled c = buildCompiled(*w, Config::IlpCs);

    // A deadline already in the past fires at the first armed watchdog
    // poll — before the first group — so nothing has retired. The poll
    // only runs while process-level supervision is armed (the fleet
    // engine's normal state; supervise.h).
    TimingOptions topts;
    topts.deadline_ns = 1;
    armSupervision();
    TimingResult r = runSim(*w, c, topts);
    disarmSupervision();
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.status, RunStatus::Deadline);
    EXPECT_EQ(r.pm.total(), 0u);
    EXPECT_EQ(r.pm.useful_ops + r.pm.squashed_ops, 0u);
}

// Sampled mode: the architected result must be exact (only cycle
// attribution is extrapolated), and the estimate must cross-foot.
TEST(TimingTest, SampledModePreservesArchitectedResult)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    Compiled c = buildCompiled(*w, Config::IlpCs);

    TimingResult det = runSim(*w, c, {});
    ASSERT_TRUE(det.ok) << det.error;

    TimingOptions sopts;
    sopts.sim_mode = SimMode::Sampled;
    sopts.ff_functional = 100'000;
    sopts.detail_window = 50'000;
    TimingResult smp = runSim(*w, c, sopts);
    ASSERT_TRUE(smp.ok) << smp.error;

    EXPECT_EQ(smp.ret_value, det.ret_value);
    ASSERT_TRUE(smp.sampled.enabled);
    EXPECT_GE(smp.sampled.windows, 1u);
    EXPECT_GT(smp.sampled.detail_ops, 0u);
    EXPECT_LE(smp.sampled.detail_ops, smp.sampled.total_ops);
    EXPECT_LE(smp.sampled.head_ops, smp.sampled.detail_ops);
    uint64_t sum = 0;
    for (uint64_t v : smp.sampled.est_cycles)
        sum += v;
    EXPECT_EQ(sum, smp.sampled.est_total);
    // Sampling skipped detailed work: window-only cycles are a strict
    // subset of the detailed run's.
    EXPECT_LT(smp.pm.total(), det.pm.total());
    // Detailed runs carry no sampled stats.
    EXPECT_FALSE(det.sampled.enabled);
}

} // namespace
} // namespace epic
