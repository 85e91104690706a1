/**
 * @file
 * Chaos suite for the run-supervision layer (DESIGN.md §15): inject
 * sim-layer faults — decode-record corruption, memory bit flips,
 * mid-run hangs — and assert the supervisor *contains* every one:
 * detected by validation or the watchdog, recovered by the bounded
 * retry, degraded down the ladder, or quarantined with a structured
 * record. The one unacceptable outcome is an accepted wrong result
 * (an escape).
 *
 * Also covers the crash-safe fleet machinery end to end in-process:
 * a resumed suite run replays manifest records verbatim and assembles
 * an artifact byte-identical to the uninterrupted run.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

#include "driver/experiment.h"
#include "support/faultinject.h"
#include "support/supervision/manifest.h"
#include "support/supervision/supervise.h"
#include "support/telemetry/artifact.h"
#include "support/telemetry/trace.h"
#include "workloads/workload.h"

namespace epic {
namespace {

std::string
tempDir()
{
    char tmpl[] = "/tmp/epiclab_chaos_test.XXXXXX";
    const char *d = ::mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    return d ? d : "/tmp";
}

const Workload &
gzipWorkload()
{
    const Workload *w = findWorkload("164.gzip");
    EXPECT_NE(w, nullptr);
    return *w;
}

RunOptions
supervisedOpts()
{
    RunOptions opts;
    opts.supervision = SupervisionOptions::supervised();
    return opts;
}

// ---------------------------------------------------------------------
// Plan determinism.
// ---------------------------------------------------------------------

TEST(ChaosTest, SimFaultPlanIsPureFunctionOfSeedSiteRung)
{
    FaultInjector a(42), b(42), c(43);
    a.enableSimFaults();
    b.enableSimFaults();
    c.enableSimFaults();
    bool differs = false;
    for (const char *rung : {"GCC", "O-NS", "ILP-NS", "ILP-CS"}) {
        SimFaultPlan pa = a.simPlan("164.gzip", rung);
        SimFaultPlan pb = b.simPlan("164.gzip", rung);
        EXPECT_EQ(pa.fire, pb.fire);
        EXPECT_EQ(pa.kind, pb.kind);
        EXPECT_EQ(pa.mem_bit_sel, pb.mem_bit_sel);
        EXPECT_EQ(pa.hang_at_instr, pb.hang_at_instr);
        EXPECT_EQ(pa.hang_ms, pb.hang_ms);
        SimFaultPlan pc = c.simPlan("164.gzip", rung);
        if (pc.kind != pa.kind || pc.mem_bit_sel != pa.mem_bit_sel)
            differs = true;
    }
    EXPECT_TRUE(differs) << "seed does not influence the plan";
}

TEST(ChaosTest, SimSitesQuietUntilEnabled)
{
    FaultInjector fi(42, 1.0);
    // Not enabled: the sim site must stay silent even at rate 1.0, so
    // compile-side experiments are unchanged by this layer's existence.
    SimFaultPlan p = fi.simPlan("164.gzip", "GCC");
    EXPECT_FALSE(p.fire);
    EXPECT_EQ(fi.fired(), 0);
}

// ---------------------------------------------------------------------
// Containment, one fault kind at a time.
// ---------------------------------------------------------------------

TEST(ChaosTest, DecodeCorruptionCaughtByChecksumValidationAndRetried)
{
    FaultInjector fi(7, 1.0);
    fi.enableSimFaults();
    fi.restrictKind(FaultKind::SimDecodeCorrupt);
    RunOptions opts = supervisedOpts();
    opts.sim_inject = &fi;

    WorkloadRuns r = runWorkload(gzipWorkload(), {Config::Gcc}, opts);
    ASSERT_TRUE(r.error.empty()) << r.error;
    const ConfigRun &cr = r.by_config.at(Config::Gcc);
    // Silent corruption: the first attempt *completes* with a wrong
    // checksum; validation-aware retry detects it and the second,
    // clean attempt is accepted.
    EXPECT_TRUE(cr.ok) << cr.error;
    EXPECT_EQ(cr.sim_attempts, 2);
    EXPECT_STREQ(cr.sim_rung, "detailed");
    EXPECT_EQ(cr.checksum, r.source_checksum);
    EXPECT_TRUE(r.all_match);
    EXPECT_EQ(fi.fired(), 1);
    EXPECT_EQ(fi.escaped(), 0);
    EXPECT_TRUE(fi.records()[0].caught);
    EXPECT_EQ(fi.records()[0].pass, "sim");
}

TEST(ChaosTest, MemoryBitFlipContained)
{
    FaultInjector fi(11, 1.0);
    fi.enableSimFaults();
    fi.restrictKind(FaultKind::SimMemBitFlip);
    RunOptions opts = supervisedOpts();
    opts.sim_inject = &fi;

    WorkloadRuns r = runWorkload(gzipWorkload(), {Config::Gcc}, opts);
    ASSERT_TRUE(r.error.empty()) << r.error;
    const ConfigRun &cr = r.by_config.at(Config::Gcc);
    // A flipped input bit either perturbs the checksum (detected,
    // retried clean) or lands in dead data (the result is *proven*
    // correct by validation). Both are containment; an accepted wrong
    // result is not.
    EXPECT_TRUE(cr.ok) << cr.error;
    EXPECT_EQ(cr.checksum, r.source_checksum);
    EXPECT_EQ(fi.fired(), 1);
    EXPECT_EQ(fi.escaped(), 0);
}

TEST(ChaosTest, InjectedHangReclaimedByWatchdogAndRetried)
{
    FaultInjector fi(3, 1.0);
    fi.enableSimFaults();
    fi.restrictKind(FaultKind::SimHang);
    RunOptions opts = supervisedOpts();
    opts.sim_inject = &fi;
    opts.supervision.deadline_ms = 500; // the watchdog

    WorkloadRuns r = runWorkload(gzipWorkload(), {Config::Gcc}, opts);
    ASSERT_TRUE(r.error.empty()) << r.error;
    const ConfigRun &cr = r.by_config.at(Config::Gcc);
    // The hang would stall for a minute; the per-attempt deadline
    // reclaims the thread and the retry runs clean well inside it.
    EXPECT_TRUE(cr.ok) << cr.error;
    EXPECT_EQ(cr.sim_attempts, 2);
    EXPECT_EQ(cr.checksum, r.source_checksum);
    EXPECT_EQ(fi.fired(), 1);
    EXPECT_EQ(fi.escaped(), 0);
}

TEST(ChaosTest, RotatingFaultsAcrossAllConfigsNeverEscape)
{
    FaultInjector fi(1234, 1.0);
    fi.enableSimFaults();
    RunOptions opts = supervisedOpts();
    opts.sim_inject = &fi;
    opts.supervision.deadline_ms = 500; // hangs in the rotation

    WorkloadRuns r =
        runWorkload(gzipWorkload(), standardConfigs(), opts);
    ASSERT_TRUE(r.error.empty()) << r.error;
    EXPECT_TRUE(r.all_match);
    for (const auto &[cfg, cr] : r.by_config) {
        EXPECT_TRUE(cr.ok) << configName(cfg) << ": " << cr.error;
        EXPECT_EQ(cr.checksum, r.source_checksum) << configName(cfg);
    }
    EXPECT_EQ(fi.fired(), 4); // one site per config, rate 1.0
    EXPECT_EQ(fi.escaped(), 0);
}

// ---------------------------------------------------------------------
// Degradation ladder.
// ---------------------------------------------------------------------

TEST(ChaosTest, BudgetExhaustionNeverRetriesWithLadderOff)
{
    RunOptions opts = supervisedOpts();
    opts.supervision.max_cycles = 1000;
    opts.supervision.ladder = false;

    WorkloadRuns r = runWorkload(gzipWorkload(), {Config::Gcc}, opts);
    const ConfigRun &cr = r.by_config.at(Config::Gcc);
    EXPECT_FALSE(cr.ok);
    EXPECT_EQ(cr.sim_status, RunStatus::BudgetExceeded);
    // Deterministic exhaustion: a retry cannot help, so exactly one
    // attempt is spent before the structured failure is reported.
    EXPECT_EQ(cr.sim_attempts, 1);
    EXPECT_NE(cr.error.find("simulation failed"), std::string::npos)
        << cr.error;
}

TEST(ChaosTest, LadderDegradesToFunctionalOnlyResult)
{
    RunOptions opts = supervisedOpts();
    opts.supervision.max_cycles = 1000; // detailed sim cannot finish

    WorkloadRuns r = runWorkload(gzipWorkload(), {Config::Gcc}, opts);
    const ConfigRun &cr = r.by_config.at(Config::Gcc);
    // Rung 2: the architected result survives without the timing model.
    EXPECT_TRUE(cr.ok) << cr.error;
    EXPECT_STREQ(cr.sim_rung, "functional");
    EXPECT_EQ(cr.sim_status, RunStatus::Ok);
    EXPECT_EQ(cr.checksum, r.source_checksum);
    EXPECT_EQ(cr.pm.total(), 0u); // no timing counters on this rung
    EXPECT_NE(cr.error.find("quarantined"), std::string::npos)
        << cr.error;
}

TEST(ChaosTest, LadderSkipsWithStructuredRecordWhenAllRungsFail)
{
    RunOptions opts = supervisedOpts();
    opts.supervision.max_cycles = 1000;
    opts.supervision.max_instrs = 1000; // functional rung fails too

    WorkloadRuns r = runWorkload(gzipWorkload(), {Config::Gcc}, opts);
    const ConfigRun &cr = r.by_config.at(Config::Gcc);
    EXPECT_FALSE(cr.ok);
    EXPECT_STREQ(cr.sim_rung, "skipped");
    EXPECT_EQ(cr.sim_status, RunStatus::BudgetExceeded);
    EXPECT_NE(cr.error.find("quarantined"), std::string::npos)
        << cr.error;
    // The structured record names both failed rungs.
    EXPECT_NE(cr.error.find("detailed"), std::string::npos) << cr.error;
    EXPECT_NE(cr.error.find("functional"), std::string::npos)
        << cr.error;
}

// ---------------------------------------------------------------------
// Crash-safe resumable fleet runs.
// ---------------------------------------------------------------------

TEST(ChaosTest, ResumedSuiteArtifactIsByteIdentical)
{
    const std::string dir = tempDir();
    const std::string mpath = dir + "/fleet.manifest";
    const std::vector<Config> &configs = standardConfigs();

    RunOptions opts = supervisedOpts();
    opts.only = {"gzip"};

    // Uninterrupted reference run, recording into the manifest.
    RunManifest m1;
    EXPECT_EQ(m1.open(mpath, /*resume=*/false), 0u);
    opts.manifest = &m1;
    auto suite1 = runSuite(configs, opts);
    ASSERT_EQ(suite1.size(), 1u);
    EXPECT_EQ(m1.size(), configs.size());
    const std::string art1 = suiteArtifact(suite1, configs, nullptr);

    // Resume against the same manifest: every task is replayed from
    // its durable record — nothing re-runs, bytes are identical.
    RunManifest m2;
    EXPECT_EQ(m2.open(mpath, /*resume=*/true), configs.size());
    opts.manifest = &m2;
    opts.resume = true;
    auto suite2 = runSuite(configs, opts);
    ASSERT_EQ(suite2.size(), 1u);
    for (const auto &[cfg, cr] : suite2[0].by_config)
        EXPECT_TRUE(cr.resumed) << configName(cfg);
    const std::string art2 = suiteArtifact(suite2, configs, nullptr);
    EXPECT_EQ(art1, art2);
}

TEST(ChaosTest, ResumeProfilesOnlyWorkloadsWithTasksLeft)
{
    const std::string dir = tempDir();
    const std::string mpath = dir + "/fleet.manifest";
    RunOptions opts = supervisedOpts();
    opts.only = {"gzip"};
    RunManifest m1;
    m1.open(mpath, /*resume=*/false);
    opts.manifest = &m1;
    runSuite({Config::Gcc, Config::ONS}, opts);
    ASSERT_EQ(m1.size(), 2u);

    // Resume under `configs`: how many profile runs did it pay?
    auto profileRuns = [&](const std::vector<Config> &configs) {
        RunManifest m;
        EXPECT_GE(m.open(mpath, /*resume=*/true), 2u);
        RunOptions ropts = opts;
        ropts.manifest = &m;
        ropts.resume = true;
        TraceRecorder &rec = TraceRecorder::global();
        rec.enable();
        auto suite = runSuite(configs, ropts);
        rec.disable();
        EXPECT_EQ(suite.size(), 1u);
        for (const auto &[cfg, cr] : suite.at(0).by_config) {
            EXPECT_TRUE(cr.ok) << configName(cfg) << ": " << cr.error;
            EXPECT_EQ(cr.resumed,
                      cfg == Config::Gcc || cfg == Config::ONS)
                << configName(cfg);
        }
        int n = 0;
        for (const TraceRecorder::Event &e : rec.events())
            n += e.cat == "sim" && e.name == "profile-run";
        return n;
    };
    // Every task replays: the workload is not profiled at all.
    EXPECT_EQ(profileRuns({Config::Gcc, Config::ONS}), 0);
    // Two tasks left share one profile run; the others replay.
    EXPECT_EQ(profileRuns(standardConfigs()), 1);
}

TEST(ChaosTest, ResumeIgnoresRecordsFromDifferentRunConfiguration)
{
    const std::string dir = tempDir();
    const std::string mpath = dir + "/fleet.manifest";

    RunOptions opts = supervisedOpts();
    opts.only = {"gzip"};
    RunManifest m1;
    m1.open(mpath, /*resume=*/false);
    opts.manifest = &m1;
    runSuite({Config::Gcc}, opts);
    EXPECT_EQ(m1.size(), 1u);

    // Same manifest, different run options (spec model changes the
    // pipeline fingerprint): the stored record must NOT satisfy the
    // lookup — the task reruns instead of replaying stale bytes.
    RunOptions opts2 = supervisedOpts();
    opts2.only = {"gzip"};
    opts2.deferral = DeferralPolicy::Sentinel;
    RunManifest m2;
    EXPECT_EQ(m2.open(mpath, /*resume=*/true), 1u);
    opts2.manifest = &m2;
    opts2.resume = true;
    auto suite = runSuite({Config::Gcc}, opts2);
    ASSERT_EQ(suite.size(), 1u);
    const ConfigRun &cr = suite[0].by_config.at(Config::Gcc);
    EXPECT_FALSE(cr.resumed);
    EXPECT_TRUE(cr.ok) << cr.error;
    EXPECT_EQ(m2.size(), 2u); // the rerun appended under its own key
}

TEST(ChaosTest, ResumeRerunsTasksOfAnotherCompileVariant)
{
    CompileVariant no_peel, no_pa, cons, budget;
    no_peel.no_peel = true;
    no_pa.no_pointer_analysis = true;
    cons.conservative_hb = true;
    budget.inline_budget = 1.0;
    for (const CompileVariant &v : {no_peel, no_pa, cons, budget}) {
        const std::string mpath = tempDir() + "/fleet.manifest";
        RunOptions opts = supervisedOpts();
        opts.only = {"gzip"};
        opts.variant = v;
        RunManifest m1;
        m1.open(mpath, /*resume=*/false);
        opts.manifest = &m1;
        runSuite({Config::Gcc}, opts);
        EXPECT_EQ(m1.size(), 1u);

        // The default variant resumes from that manifest: the variant's
        // record must not stand in for the default run's.
        RunOptions opts2 = supervisedOpts();
        opts2.only = {"gzip"};
        RunManifest m2;
        EXPECT_EQ(m2.open(mpath, /*resume=*/true), 1u);
        opts2.manifest = &m2;
        opts2.resume = true;
        auto suite = runSuite({Config::Gcc}, opts2);
        ASSERT_EQ(suite.size(), 1u);
        const ConfigRun &cr = suite[0].by_config.at(Config::Gcc);
        EXPECT_FALSE(cr.resumed);
        EXPECT_TRUE(cr.ok) << cr.error;
        EXPECT_EQ(m2.size(), 2u);
    }
}

TEST(ChaosTest, StopRequestSkipsRemainingTasksWithStructuredError)
{
    RunOptions opts = supervisedOpts();
    opts.only = {"gzip"};
    armSupervision(); // fleet mode arms via installStopSignalHandlers()
    requestStop();
    auto suite = runSuite(standardConfigs(), opts);
    clearStopRequest();
    disarmSupervision();
    ASSERT_EQ(suite.size(), 1u);
    // Nothing hung, nothing crashed: the skipped work is recorded.
    EXPECT_NE(suite[0].error.find("interrupted"), std::string::npos)
        << suite[0].error;
}

} // namespace
} // namespace epic
