/**
 * @file
 * AnalysisManager tests: lazy hit/miss accounting, dependency-cascading
 * invalidation, the preserves-set contract for registered passes, and
 * the stale-analysis checker turning "pass forgot to invalidate" into a
 * hard error. The end-to-end acceptance properties ride along: run
 * artifacts are byte-identical whether analyses are cached or checked
 * against a fresh recompute at every query, and whether functions are
 * compiled serially or in parallel — and spuriously invalidating every
 * cache at every pass boundary changes nothing but compile time.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/alias.h"
#include "analysis/manager.h"
#include "driver/experiment.h"
#include "driver/pipeline.h"
#include "ir/builder.h"
#include "mach/machine.h"
#include "sched/listsched.h"
#include "sched/regalloc.h"
#include "support/faultinject.h"
#include "support/telemetry/artifact.h"
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

    /** Mutate the block graph without telling anyone: retarget the
     *  conditional branch from `then` to `join`. */
    void
    retargetBranch()
    {
        for (Instruction &inst : entry->instrs)
            if (inst.op == Opcode::BR)
                inst.target = join->id;
    }
};

int64_t
ctr(const std::array<int64_t, kNumAnalysisKinds> &a, AnalysisKind k)
{
    return a[static_cast<int>(k)];
}

TEST(AnalysisManagerTest, LazyQueriesHitMissAndDependencyAccounting)
{
    Diamond d;
    AnalysisManager am(*d.f, nullptr, AnalysisMode::Cached);
    EXPECT_FALSE(am.isCached(AnalysisKind::Cfg));
    EXPECT_EQ(am.counters().totalHits() + am.counters().totalMisses() +
                  am.counters().totalInvalidations(),
              0);

    const Cfg &c1 = am.cfg(); // miss
    const Cfg &c2 = am.cfg(); // hit
    EXPECT_EQ(&c1, &c2);
    EXPECT_TRUE(am.isCached(AnalysisKind::Cfg));

    am.domTree();    // dom miss + counted cfg dependency hit
    am.domTree();    // dom hit (scratch dependencies are uncounted)
    am.liveness();   // liveness miss + cfg hit
    am.loopForest(); // loops miss + cfg hit + dom hit
    am.predRelations(d.entry->id); // miss
    am.predRelations(d.entry->id); // hit
    am.predRelations(d.join->id);  // per-block cache: another miss

    const AnalysisCounters &c = am.counters();
    EXPECT_EQ(ctr(c.misses, AnalysisKind::Cfg), 1);
    EXPECT_EQ(ctr(c.hits, AnalysisKind::Cfg), 4);
    EXPECT_EQ(ctr(c.misses, AnalysisKind::Dom), 1);
    EXPECT_EQ(ctr(c.hits, AnalysisKind::Dom), 2);
    EXPECT_EQ(ctr(c.misses, AnalysisKind::Liveness), 1);
    EXPECT_EQ(ctr(c.hits, AnalysisKind::Liveness), 0);
    EXPECT_EQ(ctr(c.misses, AnalysisKind::Loops), 1);
    EXPECT_EQ(ctr(c.misses, AnalysisKind::PredRel), 2);
    EXPECT_EQ(ctr(c.hits, AnalysisKind::PredRel), 1);
    EXPECT_EQ(c.totalMisses(), 6);
    EXPECT_EQ(c.totalHits(), 7);
    EXPECT_EQ(c.totalInvalidations(), 0);
}

TEST(AnalysisManagerTest, InvalidateAllExceptDemotesLiveness)
{
    Diamond d;
    AnalysisManager am(*d.f, nullptr, AnalysisMode::Cached);
    am.cfg();
    am.domTree();
    am.liveness();
    am.loopForest();

    // Liveness "preserved" without the Cfg it was computed over would
    // go stale, so the manager demotes it out of the preserved set.
    am.invalidateAllExcept(analysisBit(AnalysisKind::Dom) |
                           analysisBit(AnalysisKind::Liveness));
    EXPECT_FALSE(am.isCached(AnalysisKind::Cfg));
    EXPECT_FALSE(am.isCached(AnalysisKind::Liveness));
    EXPECT_FALSE(am.isCached(AnalysisKind::Loops));
    EXPECT_TRUE(am.isCached(AnalysisKind::Dom));
    EXPECT_EQ(ctr(am.counters().invalidations, AnalysisKind::Cfg), 1);
    EXPECT_EQ(ctr(am.counters().invalidations, AnalysisKind::Liveness),
              1);
    EXPECT_EQ(ctr(am.counters().invalidations, AnalysisKind::Loops), 1);
    EXPECT_EQ(am.counters().totalInvalidations(), 3);

    // An already-absent kind is not counted twice.
    am.invalidateAllExcept(analysisBit(AnalysisKind::Dom));
    EXPECT_EQ(am.counters().totalInvalidations(), 3);

    // Preserving Cfg keeps Liveness eligible. Queries after the
    // invalidation recompute (a second miss).
    am.cfg();
    am.liveness();
    EXPECT_EQ(ctr(am.counters().misses, AnalysisKind::Cfg), 2);
    EXPECT_EQ(ctr(am.counters().misses, AnalysisKind::Liveness), 2);
    am.invalidateAllExcept(analysisBit(AnalysisKind::Cfg) |
                           analysisBit(AnalysisKind::Liveness));
    EXPECT_TRUE(am.isCached(AnalysisKind::Cfg));
    EXPECT_TRUE(am.isCached(AnalysisKind::Liveness));

    // kPreserveAll is a no-op: no invalidation counter moves.
    const AnalysisCounters before = am.counters();
    am.invalidateAllExcept(kPreserveAll);
    EXPECT_EQ(before.invalidations, am.counters().invalidations);
    EXPECT_TRUE(am.isCached(AnalysisKind::Cfg));
}

TEST(AnalysisManagerTest, StaleCheckIsCounterIdentical)
{
    // Counter parity: the same query sequence accounts identically in
    // Cached and StaleCheck mode — this is what keeps the JSONL
    // artifact byte-comparable across modes.
    Diamond d1, d2;
    AnalysisManager cached(*d1.f, nullptr, AnalysisMode::Cached);
    AnalysisManager checked(*d2.f, nullptr, AnalysisMode::StaleCheck);
    auto drive = [](AnalysisManager &am, const Diamond &d) {
        am.cfg();
        am.domTree();
        am.liveness();
        am.loopForest();
        am.predRelations(d.entry->id);
        am.cfg();
        am.domTree();
        am.liveness();
        am.loopForest();
        am.predRelations(d.entry->id);
        am.invalidateAllExcept(kPreserveBlockGraph);
        am.cfg();
    };
    drive(cached, d1);
    drive(checked, d2);
    EXPECT_EQ(cached.counters().hits, checked.counters().hits);
    EXPECT_EQ(cached.counters().misses, checked.counters().misses);
    EXPECT_EQ(cached.counters().invalidations,
              checked.counters().invalidations);
}

TEST(AnalysisManagerDeathTest, StaleCheckCatchesForgottenInvalidate)
{
    Diamond d;
    AnalysisManager am(*d.f, nullptr, AnalysisMode::StaleCheck);
    am.cfg();
    am.liveness();
    am.beginPass("rogue-pass");
    d.retargetBranch(); // mutate without invalidating
    EXPECT_DEATH(am.cfg(), "stale-analysis checker");
    // The diagnostic names the offending pass and the function.
    EXPECT_DEATH(am.cfg(), "rogue-pass");
    // A stale dependency is caught even through a dependent query.
    EXPECT_DEATH(am.liveness(), "stale-analysis checker");
}

TEST(AnalysisManagerTest, StaleCheckAcceptsProperInvalidation)
{
    Diamond d;
    AnalysisManager am(*d.f, nullptr, AnalysisMode::StaleCheck);
    am.cfg();
    d.retargetBranch();
    am.invalidateAll(); // the mutator honored the contract
    const Cfg &c = am.cfg();
    const auto succs = c.succs(d.entry->id);
    EXPECT_NE(std::find(succs.begin(), succs.end(), d.join->id),
              succs.end());
    // Re-queries of unchanged IR pass the checker.
    am.cfg();
    am.domTree();
    am.liveness();
    am.loopForest();
    am.predRelations(d.entry->id);
    am.predRelations(d.entry->id);
}

TEST(AnalysisManagerTest, RegistryDeclaresPreservesSets)
{
    // Speculate, dataspec and regalloc insert straight-line code
    // (checks, spills): the Cfg object dies with the shifted branch
    // indices but
    // the edge shape — dominance and loop nesting — survives. Peel
    // mutates behind the manager's back and so preserves nothing;
    // every other pass routes its mid-pass mutations through the
    // manager, making its exit caches valid by construction
    // (kPreserveAll).
    EXPECT_EQ(kPreserveBlockGraph,
              analysisBit(AnalysisKind::Cfg) |
                  analysisBit(AnalysisKind::Dom) |
                  analysisBit(AnalysisKind::Loops));
    EXPECT_EQ(kPreserveGraphShape, analysisBit(AnalysisKind::Dom) |
                                       analysisBit(AnalysisKind::Loops));
    for (const PassDesc &p : passRegistry()) {
        if (p.name == "peel") {
            EXPECT_EQ(p.preserves, kPreserveNone) << p.name;
        } else if (p.name == "speculate" || p.name == "dataspec" ||
                   p.name == "regalloc") {
            EXPECT_EQ(p.preserves, kPreserveGraphShape) << p.name;
        } else {
            EXPECT_EQ(p.preserves, kPreserveAll) << p.name;
        }
    }
}

TEST(AnalysisManagerTest, DeclaredPreservesSurviveStaleCheck)
{
    // Run the two non-trivial preserves declarations the way the
    // pipeline does — pass, then invalidateAllExcept(preserves) — with
    // every analysis warm and the stale checker armed. Any preserved
    // analysis the pass actually clobbered panics on the next query.
    Diamond d;
    AliasAnalysis aa(d.p, AliasLevel::Intra);
    AnalysisManager am(*d.f, &aa, AnalysisMode::StaleCheck);
    auto warm_and_check = [&] {
        am.cfg();
        am.domTree();
        am.liveness();
        am.loopForest();
        for (const auto &bp : d.f->blocks)
            if (bp)
                am.predRelations(bp->id);
    };
    warm_and_check();

    am.beginPass("regalloc");
    allocateRegisters(*d.f, am);
    am.invalidateAllExcept(kPreserveGraphShape);
    warm_and_check(); // Dom + Loops survived regalloc: checked here

    am.beginPass("schedule");
    scheduleFunction(*d.f, am, MachineConfig{});
    am.invalidateAllExcept(kPreserveAll);
    warm_and_check(); // schedule preserved all five
}

RunOptions
trainOpts(AnalysisMode mode, int jobs = 1)
{
    RunOptions opts;
    opts.run_input = InputKind::Train;
    opts.jobs = jobs;
    opts.tweak = [mode](CompileOptions &o) { o.analysis_mode = mode; };
    return opts;
}

TEST(AnalysisManagerTest, EndToEndCompileUnderStaleChecker)
{
    // The whole pipeline honors the invalidation contract: compile and
    // run a real workload under all four configurations with every
    // hit-path query diffed against a fresh recompute.
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    WorkloadRuns runs = runWorkload(
        *w, standardConfigs(), trainOpts(AnalysisMode::StaleCheck));
    EXPECT_TRUE(runs.error.empty()) << runs.error;
    EXPECT_TRUE(runs.all_match);
    EXPECT_TRUE(runs.fallback.clean()) << runs.fallback.str();
}

TEST(AnalysisManagerTest, ArtifactByteIdenticalAcrossModesAndJobs)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    auto artifact = [&](AnalysisMode mode, int jobs) {
        std::vector<WorkloadRuns> runs = {
            runWorkload(*w, standardConfigs(), trainOpts(mode, jobs))};
        std::vector<std::string> violations;
        const std::string a =
            suiteArtifact(runs, standardConfigs(), &violations);
        EXPECT_TRUE(violations.empty()) << violations.front();
        return a;
    };
    const std::string cached = artifact(AnalysisMode::Cached, 1);
    // Hit/miss accounting is mode-invariant by design and the checker's
    // scratch recomputes use private, uncounted arenas, so checking
    // every query against a fresh recompute must not change a byte.
    EXPECT_EQ(cached, artifact(AnalysisMode::StaleCheck, 1));
    // And per-function managers make the counters schedule-independent:
    // byte-exact across --jobs, arena keys included.
    EXPECT_EQ(cached, artifact(AnalysisMode::Cached, 4));
}

TEST(AnalysisManagerTest, SuperblockFormationReusesCachedAnalyses)
{
    // The satellite perf claim at superblock.cc: the per-iteration CFG
    // rebuild during tail duplication is now a cache hit whenever the
    // previous iteration didn't mutate.
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    ConfigRun r =
        runConfig(*w, Config::IlpNs, trainOpts(AnalysisMode::Cached));
    ASSERT_TRUE(r.ok) << r.error;
    bool found = false;
    for (const PassStat &ps : r.pipeline.passes) {
        if (ps.pass != "superblock")
            continue;
        found = true;
        EXPECT_GT(ps.analysis.totalHits(), 0) << "superblock never hit "
                                                 "the analysis cache";
    }
    EXPECT_TRUE(found);
}

TEST(AnalysisManagerTest, SpuriousInvalidationChangesNothingButTime)
{
    // Satellite: inject a spurious invalidate-everything at every pass
    // boundary. The invalidation contract says a dropped cache can only
    // cost recomputation, so the compiled program — checksum, final
    // code, cycle count — must be identical to an uninjected run.
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);

    FaultInjector inj(/*seed=*/0xa11a, /*rate=*/1.0);
    inj.restrictKind(FaultKind::SpuriousInvalidate);
    RunOptions iopts = trainOpts(AnalysisMode::Cached);
    iopts.tweak = [&inj](CompileOptions &o) {
        o.analysis_mode = AnalysisMode::Cached;
        o.firewall.inject = &inj;
    };
    WorkloadRuns injected = runWorkload(*w, standardConfigs(), iopts);
    WorkloadRuns clean =
        runWorkload(*w, standardConfigs(), trainOpts(AnalysisMode::Cached));

    EXPECT_TRUE(injected.error.empty()) << injected.error;
    EXPECT_TRUE(injected.all_match);
    EXPECT_GT(inj.fired(), 0);
    EXPECT_EQ(inj.escaped(), 0);
    for (const FaultRecord &fr : inj.records()) {
        EXPECT_EQ(fr.kind, FaultKind::SpuriousInvalidate);
        EXPECT_TRUE(fr.caught);
        EXPECT_NE(fr.detail.find("spurious"), std::string::npos);
    }
    // No gate trips, no function degrades: the fault is benign.
    EXPECT_EQ(injected.fallback.functions_degraded, 0);

    for (Config cfg : standardConfigs()) {
        const ConfigRun &a = injected.by_config.at(cfg);
        const ConfigRun &b = clean.by_config.at(cfg);
        ASSERT_TRUE(a.ok) << configName(cfg) << ": " << a.error;
        EXPECT_EQ(a.checksum, b.checksum) << configName(cfg);
        EXPECT_EQ(a.instrs_final, b.instrs_final) << configName(cfg);
        EXPECT_EQ(a.pm.total(), b.pm.total()) << configName(cfg);
        EXPECT_EQ(a.stats.sched.bundles, b.stats.sched.bundles)
            << configName(cfg);
    }
}

} // namespace
} // namespace epic
