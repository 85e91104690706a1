/**
 * @file
 * PMU sampling-layer tests (DESIGN.md §17): interval sample streams
 * telescope to the exact end-of-run Perfmon totals (including across
 * ring compactions); the sampler is invisible when off (no pmu.* keys
 * in run artifacts, byte-identical golden counters); sample artifacts
 * are --jobs-invariant; EAR/branch-profile/sample streams survive
 * checkpoint restore byte-identically; reconciliation reports drift;
 * and the new CLI flags reject malformed values.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "driver/experiment.h"
#include "sim/checkpoint.h"
#include "sim/pmu/pmu.h"
#include "sim/timing.h"
#include "support/cli.h"
#include "support/telemetry/artifact.h"
#include "support/telemetry/registry.h"
#include "workloads/workload.h"

namespace epic {
namespace {

/** Full-featured PMU options used by the integration tests. */
PmuOptions
fullPmu()
{
    PmuOptions p;
    p.sample_every = 50'000;
    p.ear_latency_min = 10;
    p.branch_profile = true;
    p.regions = true;
    return p;
}

/** Serialize all PMU state: blob equality is stream equality. */
std::string
pmuBlob(const PmuData &pmu)
{
    CkptWriter w;
    pmu.saveState(w);
    return w.take();
}

/** Serialize a Perfmon for golden-counter comparison. */
std::string
pmBlob(const Perfmon &pm)
{
    CkptWriter w;
    saveState(w, pm);
    return w.take();
}

// ---------------------------------------------------------------------
// Unit: telescoping deltas and ring compaction.

TEST(PmuTest, IntervalSamplerTelescopesAcrossCompaction)
{
    PmuOptions opt;
    opt.sample_every = 100;
    PmuData d(opt);
    EXPECT_EQ(d.nextSampleAt(), 100u);

    // Drive > kMaxSamples boundaries so the ring must compact; rotate
    // cycles through the categories so per-category sums are nontrivial.
    Perfmon pm;
    uint64_t cycles_total = 0;
    const uint64_t boundaries = PmuData::kMaxSamples + 1000;
    for (uint64_t i = 0; i < boundaries; ++i) {
        pm.addCycles(static_cast<CycleCat>(i % Perfmon::kNumCats), 100);
        pm.useful_ops += 3;
        cycles_total += 100;
        if (cycles_total >= d.nextSampleAt())
            d.sampleBoundary(pm, cycles_total);
    }
    // A final partial interval past the last boundary.
    pm.addCycles(CycleCat::Kernel, 37);
    cycles_total += 37;
    d.finish(pm, cycles_total);

    EXPECT_GT(d.compactions(), 0u);
    EXPECT_EQ(d.stride(), 100u << d.compactions());
    EXPECT_LE(d.samples().size(), PmuData::kMaxSamples);

    // Compaction merged intervals but never dropped a cycle: sums still
    // reconcile exactly, per category and per counter.
    for (int c = 0; c < Perfmon::kNumCats; ++c) {
        EXPECT_EQ(d.sampledCycles(static_cast<CycleCat>(c)),
                  pm.get(static_cast<CycleCat>(c)))
            << cycleCatKey(static_cast<CycleCat>(c));
    }
    EXPECT_EQ(d.sampledCounter(kPmuUsefulOps), pm.useful_ops);
    std::vector<std::string> bad = d.checkReconciliation(pm);
    EXPECT_TRUE(bad.empty()) << bad.front();

    // finish() is idempotent.
    const size_t n = d.samples().size();
    d.finish(pm, cycles_total);
    EXPECT_EQ(d.samples().size(), n);
}

// ---------------------------------------------------------------------
// Integration: every PMU stream reconciles on a real timing run.

TEST(PmuTest, StreamsReconcileWithPerfmonOnRealRun)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    RunOptions opts;
    opts.run_input = InputKind::Train;
    opts.pmu = fullPmu();
    ConfigRun r = runConfig(*w, Config::IlpCs, opts);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_NE(r.pmu, nullptr);

    // The declared invariants all hold: per-category sample sums,
    // sampled counter sums, branch-profile sums, region sums.
    std::vector<std::string> bad = r.pmu->checkReconciliation(r.pm);
    EXPECT_TRUE(bad.empty()) << bad.front();

    EXPECT_FALSE(r.pmu->samples().empty());
    for (int c = 0; c < Perfmon::kNumCats; ++c) {
        EXPECT_EQ(r.pmu->sampledCycles(static_cast<CycleCat>(c)),
                  r.pm.get(static_cast<CycleCat>(c)))
            << cycleCatKey(static_cast<CycleCat>(c));
    }
    EXPECT_EQ(r.pmu->sampledCounter(kPmuUsefulOps), r.pm.useful_ops);
    EXPECT_EQ(r.pmu->sampledCounter(kPmuL1dMisses), r.pm.l1d_misses);
    EXPECT_EQ(r.pmu->sampledCounter(kPmuMispredictions),
              r.pm.mispredictions);

    uint64_t preds = 0, mispreds = 0;
    for (const auto &[paddr, site] : r.pmu->branchProfile()) {
        (void)paddr;
        preds += site.predictions;
        mispreds += site.mispredictions;
    }
    EXPECT_EQ(preds, r.pm.branch_predictions);
    EXPECT_EQ(mispreds, r.pm.mispredictions);

    // EARs fired and were attributed to real (function, block) sites.
    EXPECT_GT(r.pmu->dearEvents(), 0u);
    EXPECT_FALSE(r.pmu->dearSites().empty());

    // Region attribution covers every cycle of every category.
    std::array<uint64_t, Perfmon::kNumCats> region_sum{};
    for (const auto &[key, rc] : r.pmu->regions()) {
        (void)key;
        for (int c = 0; c < Perfmon::kNumCats; ++c)
            region_sum[c] += rc[c];
    }
    for (int c = 0; c < Perfmon::kNumCats; ++c)
        EXPECT_EQ(region_sum[c], r.pm.cycles[c]);
}

// ---------------------------------------------------------------------
// Off-path invisibility: no artifact keys, no observer effect.

TEST(PmuTest, SamplerOffIsInvisible)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    RunOptions off;
    off.run_input = InputKind::Train;
    ConfigRun r_off = runConfig(*w, Config::IlpCs, off);
    ASSERT_TRUE(r_off.ok) << r_off.error;
    EXPECT_EQ(r_off.pmu, nullptr);

    // No pmu.* keys leak into the run record when sampling is off —
    // this is what keeps the eight golden JSONL artifacts byte-stable.
    StatsRegistry reg = buildRunRegistry(r_off);
    EXPECT_EQ(reg.jsonObject().find("pmu."), std::string::npos);

    // Arming the full PMU perturbs no modeled counter: golden Perfmon
    // state is byte-identical with and without observation.
    RunOptions on = off;
    on.pmu = fullPmu();
    ConfigRun r_on = runConfig(*w, Config::IlpCs, on);
    ASSERT_TRUE(r_on.ok) << r_on.error;
    ASSERT_NE(r_on.pmu, nullptr);
    EXPECT_EQ(pmBlob(r_off.pm), pmBlob(r_on.pm));
}

// ---------------------------------------------------------------------
// Samples artifact: --jobs invariance.

RunOptions
sampledOpts(int jobs)
{
    RunOptions opts;
    opts.run_input = InputKind::Train;
    opts.jobs = jobs;
    opts.pmu.sample_every = 65'536;
    return opts;
}

TEST(PmuTest, SamplesArtifactByteIdenticalAcrossJobs)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    std::vector<WorkloadRuns> serial = {
        runWorkload(*w, standardConfigs(), sampledOpts(1))};
    std::vector<WorkloadRuns> parallel = {
        runWorkload(*w, standardConfigs(), sampledOpts(4))};

    std::vector<std::string> v1, v4;
    const std::string a1 =
        samplesArtifact(serial, standardConfigs(), &v1);
    const std::string a4 =
        samplesArtifact(parallel, standardConfigs(), &v4);
    EXPECT_FALSE(a1.empty());
    EXPECT_EQ(a1, a4); // sample boundaries are cycle counts, and the
                       // artifact serializes post-join in index order
    EXPECT_TRUE(v1.empty()) << v1.front();
    EXPECT_TRUE(v4.empty());
    EXPECT_NE(a1.find(kSamplesSchemaVersion), std::string::npos);

    // The run artifact's pmu.* keys ride the same invariance.
    std::vector<std::string> rv1, rv4;
    EXPECT_EQ(suiteArtifact(serial, standardConfigs(), &rv1),
              suiteArtifact(parallel, standardConfigs(), &rv4));
    EXPECT_TRUE(rv1.empty()) << rv1.front();
}

// ---------------------------------------------------------------------
// Sampled fidelity mode (DESIGN.md §18): the PMU streams only observe
// detailed windows, and Perfmon totals in sampled mode are window-only
// counts — so reconciliation must still be *exact*, and the samples
// artifact must declare its mode and scaling.

TEST(PmuTest, SampledModeStreamsReconcileAndDeclareScaling)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    RunOptions opts = sampledOpts(1);
    opts.sim_mode = SimMode::Sampled;
    opts.ff_functional = 100'000;
    opts.detail_window = 50'000;
    std::vector<WorkloadRuns> suite = {
        runWorkload(*w, standardConfigs(), opts)};
    for (const auto &[cfg, r] : suite[0].by_config) {
        (void)cfg;
        ASSERT_TRUE(r.ok) << r.error;
        ASSERT_TRUE(r.sampled.enabled);

        // Interval samples telescope to the (window-only) Perfmon
        // totals exactly, as in detailed mode.
        ASSERT_NE(r.pmu, nullptr);
        std::vector<std::string> bad =
            r.pmu->checkReconciliation(r.pm);
        EXPECT_TRUE(bad.empty()) << bad.front();

        // The run record carries the extrapolation, cross-footed.
        StatsRegistry reg = buildRunRegistry(r);
        const std::string json = reg.jsonObject();
        EXPECT_NE(json.find("sim.sampled.est_total"),
                  std::string::npos);
        uint64_t sum = 0;
        for (uint64_t v : r.sampled.est_cycles)
            sum += v;
        EXPECT_EQ(sum, r.sampled.est_total);
    }

    // Every samples line is tagged with the mode and its retired-op
    // coverage (scale_num/scale_den), so a consumer can never mistake
    // a window-only time series for full-run coverage.
    std::vector<std::string> v;
    const std::string art =
        samplesArtifact(suite, standardConfigs(), &v);
    EXPECT_TRUE(v.empty()) << v.front();
    ASSERT_FALSE(art.empty());
    size_t lines = 0, pos = 0;
    while ((pos = art.find('\n', pos)) != std::string::npos) {
        ++pos;
        ++lines;
    }
    size_t tagged = 0;
    pos = 0;
    while ((pos = art.find("\"mode\":\"sampled\"", pos)) !=
           std::string::npos) {
        ++tagged;
        ++pos;
    }
    EXPECT_EQ(tagged, lines);
    EXPECT_NE(art.find("\"scale_num\":"), std::string::npos);
    EXPECT_NE(art.find("\"scale_den\":"), std::string::npos);
}

// ---------------------------------------------------------------------
// Checkpoint restore: PMU streams resume byte-identically.

TEST(PmuTest, CheckpointRestorePmuStreamsByteIdentical)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    auto prog = w->build();
    prog->layoutData();
    {
        Memory mem;
        mem.initFromProgram(*prog);
        w->write_input(*prog, mem, InputKind::Train);
        ASSERT_TRUE(profileRun(*prog, mem).ok);
    }
    Compiled c = compileProgram(*prog, Config::IlpCs);

    // Uninterrupted reference run with the full PMU armed.
    SimCheckpoint ck;
    TimingResult full;
    {
        Memory mem;
        mem.initFromProgram(*c.prog);
        w->write_input(*c.prog, mem, InputKind::Ref);
        TimingOptions topts;
        topts.pmu = fullPmu();
        topts.checkpoint_every = 200'000;
        topts.checkpoint_out = &ck;
        full = simulate(*c.prog, mem, topts);
        ASSERT_TRUE(full.ok) << full.error;
        ASSERT_TRUE(ck.valid());
        ASSERT_NE(full.pmu, nullptr);
    }

    // Restore mid-run: the finished sample/EAR/branch/region streams must
    // be byte-identical to the uninterrupted run's.
    Memory mem;
    mem.initFromProgram(*c.prog);
    w->write_input(*c.prog, mem, InputKind::Ref);
    TimingOptions topts;
    topts.pmu = fullPmu();
    topts.resume_from = &ck;
    TimingResult resumed = simulate(*c.prog, mem, topts);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    ASSERT_NE(resumed.pmu, nullptr);
    EXPECT_EQ(pmBlob(resumed.pm), pmBlob(full.pm));
    EXPECT_EQ(pmuBlob(*resumed.pmu), pmuBlob(*full.pmu));
    std::vector<std::string> bad =
        resumed.pmu->checkReconciliation(resumed.pm);
    EXPECT_TRUE(bad.empty()) << bad.front();
}

// ---------------------------------------------------------------------
// Failure discipline.

TEST(PmuTest, ReconciliationReportsDrift)
{
    PmuOptions opt;
    opt.sample_every = 100;
    PmuData d(opt);
    Perfmon pm;
    pm.addCycles(CycleCat::Unstalled, 100);
    d.sampleBoundary(pm, 100);
    d.finish(pm, 100);
    ASSERT_TRUE(d.checkReconciliation(pm).empty());

    // A counter drifting after finish() (a lost-update bug) is
    // reported; the samples artifact writer turns any report into a
    // failed run, never a silently-wrong artifact.
    pm.addCycles(CycleCat::Unstalled, 1);
    const std::vector<std::string> bad = d.checkReconciliation(pm);
    ASSERT_EQ(bad.size(), 1u);
    EXPECT_EQ(bad[0],
              "pmu interval cycles.unstalled: sampled 100 != total 101");
}

TEST(PmuCliDeathTest, RejectsMalformedSamplingFlags)
{
    // The exact (flag, range) pairs epiclab_run passes to support/cli.
    EXPECT_EXIT(parseIntFlag("--sample-every", "banana", 1, INT64_MAX),
                testing::ExitedWithCode(1), "not a number");
    EXPECT_EXIT(parseIntFlag("--sample-every", "0", 1, INT64_MAX),
                testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(parseIntFlag("--ear-latency-min", "10x", 1, 1 << 20),
                testing::ExitedWithCode(1), "not a number");
    EXPECT_EXIT(parseIntFlag("--ear-latency-min", "-4", 1, 1 << 20),
                testing::ExitedWithCode(1), "out of range");
}

} // namespace
} // namespace epic
