/**
 * @file
 * Compilation-firewall tests: transactional per-function compilation,
 * the IlpCs -> IlpNs -> ONS -> Gcc degradation ladder, and the
 * deterministic fault-injection engine. The acceptance invariant is the
 * robustness claim itself: IR corrupted at *any* pass boundary of a
 * real workload is either rejected at a per-pass verifier gate or
 * absorbed by falling the function back — every configuration still
 * completes with the source program's architected checksum, and the
 * FallbackReport names each fault's site and where the function landed.
 */
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "driver/experiment.h"
#include "driver/pipeline.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "sim/interp.h"
#include "sim/timing.h"
#include "support/faultinject.h"
#include "workloads/workload.h"

namespace epic {
namespace {

/** Build + train-profile a workload's source program. */
std::unique_ptr<Program>
profiledSource(const Workload &w)
{
    auto prog = w.build();
    prog->layoutData();
    Memory mem;
    mem.initFromProgram(*prog);
    w.write_input(*prog, mem, InputKind::Train);
    auto prof = profileRun(*prog, mem);
    EXPECT_TRUE(prof.ok) << prof.error;
    return prog;
}

RunOptions
injectedOpts(FaultInjector *inj)
{
    RunOptions opts;
    opts.run_input = InputKind::Train; // keep the 44 sim runs fast
    opts.tweak = [inj](CompileOptions &o) { o.firewall.inject = inj; };
    return opts;
}

TEST(FirewallTest, CleanCompilationHasNoFallbacks)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    WorkloadRuns runs = runWorkload(*w, standardConfigs());
    EXPECT_TRUE(runs.all_match);
    EXPECT_TRUE(runs.error.empty());
    EXPECT_TRUE(runs.fallback.clean()) << runs.fallback.str();
    EXPECT_EQ(runs.fallback.functions_degraded, 0);
}

/**
 * The acceptance test: inject a fault at every pass boundary of one
 * SPEC workload, one boundary at a time, under all four configurations.
 * Every run must complete with the source checksum; every fired fault
 * must be caught; every fallback event must name its site and the
 * configuration the function landed on.
 */
TEST(FirewallTest, EveryPassBoundarySurvivesInjection)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);

    // The site axis is the program-level inline transaction plus the
    // pass registry itself, so a pass added or renamed there is
    // automatically covered here. The config axis includes the opt-in
    // ILP-CS-DS rung so the dataspec boundary (which only runs there)
    // fires too.
    std::vector<Config> cfgs = standardConfigs();
    cfgs.push_back(Config::IlpCsDs);
    std::vector<std::string> boundaries = {"inline"};
    for (const PassDesc &p : passRegistry())
        boundaries.push_back(p.name);
    for (const std::string &pass : boundaries) {
        FaultInjector inj(/*seed=*/0xf1e1d + pass.size(),
                          /*rate=*/1.0);
        inj.restrictTo(/*function=*/"", pass);

        WorkloadRuns runs = runWorkload(*w, cfgs, injectedOpts(&inj));

        // Zero crashes, zero silent corruptions: every configuration
        // completed and reproduced the source checksum.
        EXPECT_TRUE(runs.error.empty()) << pass << ": " << runs.error;
        EXPECT_TRUE(runs.all_match) << "corruption escaped at " << pass;
        for (Config cfg : cfgs) {
            const ConfigRun &r = runs.by_config.at(cfg);
            ASSERT_TRUE(r.ok) << pass << " [" << configName(cfg)
                              << "]: " << r.error;
            EXPECT_EQ(r.checksum, runs.source_checksum)
                << pass << " [" << configName(cfg) << "]";
        }

        // The boundary exists in at least one configuration's pipeline,
        // so the site must actually have fired — and every fired fault
        // must have been caught at a gate or absorbed by fallback.
        EXPECT_GT(inj.fired(), 0) << pass << ": site never fired";
        EXPECT_EQ(inj.escaped(), 0) << pass;
        for (const FaultRecord &fr : inj.records()) {
            EXPECT_TRUE(fr.caught) << pass << " in " << fr.function;
            EXPECT_EQ(fr.pass, pass);
            EXPECT_FALSE(fr.function.empty());
            EXPECT_FALSE(fr.detail.empty());
        }

        // The aggregated report accounts for every fault and names each
        // event's site and landed configuration.
        EXPECT_EQ(runs.fallback.faults_injected, inj.fired()) << pass;
        EXPECT_EQ(runs.fallback.faults_caught, inj.fired()) << pass;
        EXPECT_FALSE(runs.fallback.clean()) << pass;
        for (const FallbackEvent &ev : runs.fallback.events) {
            EXPECT_FALSE(ev.function.empty());
            EXPECT_EQ(ev.failing_pass, pass);
            EXPECT_TRUE(ev.fault_injected);
            EXPECT_FALSE(ev.error.empty());
            // str() renders the full site for the bench reports.
            EXPECT_NE(ev.str().find(ev.function), std::string::npos);
            EXPECT_NE(ev.str().find(pass), std::string::npos);
            EXPECT_NE(ev.str().find(configName(ev.final_config)),
                      std::string::npos);
        }
    }
}

/** A fault only the IlpCs pipeline can hit degrades exactly one rung. */
TEST(FirewallTest, SpeculationFaultLandsOneRungDown)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);

    FaultInjector inj(7, 1.0);
    inj.restrictTo("", "speculate");
    WorkloadRuns runs =
        runWorkload(*w, {Config::IlpCs}, injectedOpts(&inj));

    EXPECT_TRUE(runs.all_match);
    EXPECT_GT(inj.fired(), 0);
    EXPECT_EQ(inj.escaped(), 0);
    EXPECT_GT(runs.fallback.functions_degraded, 0);
    for (const FallbackEvent &ev : runs.fallback.events) {
        EXPECT_EQ(ev.attempted, Config::IlpCs) << ev.str();
        EXPECT_EQ(ev.failing_pass, "speculate") << ev.str();
        EXPECT_EQ(ev.final_config, Config::IlpNs) << ev.str();
    }
}

/** Same seed, same program -> bit-identical fault sequence. */
TEST(FirewallTest, InjectionIsDeterministic)
{
    const Workload *w = findWorkload("181.mcf");
    ASSERT_NE(w, nullptr);

    auto run = [&](FaultInjector *inj) {
        WorkloadRuns runs =
            runWorkload(*w, standardConfigs(), injectedOpts(inj));
        EXPECT_TRUE(runs.all_match);
        return runs.source_checksum;
    };
    FaultInjector a(12345, 0.5), b(12345, 0.5);
    int64_t ca = run(&a), cb = run(&b);
    EXPECT_EQ(ca, cb);
    ASSERT_EQ(a.records().size(), b.records().size());
    for (size_t i = 0; i < a.records().size(); ++i) {
        EXPECT_EQ(a.records()[i].function, b.records()[i].function);
        EXPECT_EQ(a.records()[i].pass, b.records()[i].pass);
        EXPECT_EQ(a.records()[i].rung, b.records()[i].rung);
        EXPECT_EQ(a.records()[i].kind, b.records()[i].kind);
        EXPECT_EQ(a.records()[i].detail, b.records()[i].detail);
    }
    EXPECT_EQ(a.escaped(), 0);

    // A different seed picks different sites/kinds somewhere.
    FaultInjector c(54321, 0.5);
    run(&c);
    bool differs = a.records().size() != c.records().size();
    for (size_t i = 0; !differs && i < a.records().size(); ++i)
        differs = a.records()[i].detail != c.records()[i].detail ||
                  a.records()[i].pass != c.records()[i].pass;
    EXPECT_TRUE(differs);
}

/** verifyProgram collects the complete error list without aborting. */
TEST(FirewallTest, VerifyAllCollectsEveryError)
{
    const Workload *w = findWorkload("181.mcf");
    ASSERT_NE(w, nullptr);
    auto prog = w->build();

    EXPECT_TRUE(verifyProgram(*prog).empty());

    // Corrupt several instructions; every corruption must be reported.
    int corrupted = 0;
    for (auto &fp : prog->funcs) {
        if (!fp || corrupted >= 3)
            continue;
        for (auto &bp : fp->blocks) {
            if (!bp || corrupted >= 3)
                continue;
            for (Instruction &inst : bp->instrs) {
                if (inst.op == Opcode::NOP || corrupted >= 3)
                    continue;
                inst.guard = Reg(RegClass::Gr, 1);
                ++corrupted;
            }
        }
    }
    ASSERT_EQ(corrupted, 3);
    EXPECT_GE(static_cast<int>(verifyProgram(*prog).size()), corrupted);
}

/**
 * The watermark snapshot strategy (arena rollback + work-clone
 * recycling) must commit bit-identical IR and an identical fallback
 * history to the legacy deep-clone strategy — under fault injection,
 * where the recycling path actually exercises multi-attempt rollback.
 */
TEST(FirewallTest, WatermarkAndDeepCloneSnapshotsAreEquivalent)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    auto src = profiledSource(*w);

    auto compile_with = [&](SnapshotStrategy snap, FaultInjector *inj) {
        CompileOptions o = CompileOptions::forConfig(Config::IlpCs);
        o.firewall.snapshot = snap;
        o.firewall.inject = inj;
        return compileProgram(*src, o);
    };

    for (uint64_t seed : {uint64_t{0}, uint64_t{42}}) {
        // seed 0: clean compile; seed 42: faults force rollbacks.
        FaultInjector ia(seed, seed ? 1.0 : 0.0);
        FaultInjector ib(seed, seed ? 1.0 : 0.0);
        Compiled deep =
            compile_with(SnapshotStrategy::kDeepClone, &ia);
        Compiled mark =
            compile_with(SnapshotStrategy::kWatermark, &ib);

        std::ostringstream pa, pb;
        printProgram(pa, *deep.prog);
        printProgram(pb, *mark.prog);
        EXPECT_EQ(pa.str(), pb.str()) << "seed " << seed;

        ASSERT_EQ(deep.fallback.events.size(),
                  mark.fallback.events.size())
            << "seed " << seed;
        for (size_t i = 0; i < deep.fallback.events.size(); ++i)
            EXPECT_EQ(deep.fallback.events[i].str(),
                      mark.fallback.events[i].str());
        if (seed) {
            EXPECT_FALSE(mark.fallback.clean());
        }
    }
}

/**
 * The recycling path's cost model: abandoning a failed attempt is an
 * O(1) arena watermark rollback, and the retained chunks make retry
 * allocation malloc-free. Verified by counting arena operations across
 * an injected-fault rollback — rollbacks appear, while the chunk count
 * stays within a constant of the clean compile's (the degraded rung
 * may legitimately allocate a little differently; what must NOT happen
 * is per-attempt chunk growth).
 */
TEST(FirewallTest, InjectedRollbackIsWatermarkBased)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    auto src = profiledSource(*w);

    CompileOptions clean_opts = CompileOptions::forConfig(Config::IlpCs);
    Compiled clean = compileProgram(*src, clean_opts);
    EXPECT_TRUE(clean.fallback.clean());
    EXPECT_GT(clean.stats.arena.bytes_allocated, 0u);
    EXPECT_GT(clean.stats.arena.chunks, 0u);
    // No attempt was abandoned: nothing was rolled back in the work
    // arenas beyond the analysis manager's cache-drop recycling.
    const uint64_t clean_chunks = clean.stats.arena.chunks;

    // Restrict faults to the speculation boundary: every function's
    // IlpCs attempt fails there and lands on IlpNs after exactly one
    // rollback — a tightly predictable rollback/chunk profile.
    FaultInjector inj(7, 1.0);
    inj.restrictTo("", "speculate");
    CompileOptions fault_opts = clean_opts;
    fault_opts.firewall.inject = &inj;
    Compiled faulted = compileProgram(*src, fault_opts);
    ASSERT_FALSE(faulted.fallback.clean());

    // Every abandoned attempt shows up as watermark activity...
    EXPECT_GT(faulted.stats.arena.rollbacks,
              clean.stats.arena.rollbacks);
    EXPECT_GT(faulted.stats.arena.bytes_reclaimed,
              clean.stats.arena.bytes_reclaimed);
    // ...but not as chunk mallocs: retries run inside retained chunks.
    // Degraded rungs compile smaller pipelines, so the faulted compile
    // must not need materially more chunks than the clean one.
    EXPECT_LE(faulted.stats.arena.chunks,
              clean_chunks + faulted.fallback.events.size());
}

/** Budget overruns are experiment outcomes, not process aborts. */
TEST(FirewallTest, ResourceOverrunsAreRecoverable)
{
    const Workload *w = findWorkload("181.mcf");
    ASSERT_NE(w, nullptr);
    auto prog = w->build();
    prog->layoutData();

    {
        Memory mem;
        mem.initFromProgram(*prog);
        w->write_input(*prog, mem, InputKind::Train);
        InterpOptions iopts;
        iopts.max_instrs = 100;
        auto r = interpret(*prog, mem, iopts);
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("instruction budget"), std::string::npos)
            << r.error;
    }
    {
        Memory mem;
        mem.initFromProgram(*prog);
        w->write_input(*prog, mem, InputKind::Train);
        Compiled c = compileProgram(*prog, Config::Gcc);
        Memory cmem;
        cmem.initFromProgram(*c.prog);
        w->write_input(*c.prog, cmem, InputKind::Train);
        TimingOptions topts;
        topts.max_cycles = 100;
        auto r = simulate(*c.prog, cmem, topts);
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("cycle budget"), std::string::npos)
            << r.error;
    }
}

} // namespace
} // namespace epic
