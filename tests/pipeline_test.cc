/**
 * @file
 * Pass-pipeline layer tests: the registry is the single source of truth
 * for per-rung pass composition, and the parallel compile/run engine is
 * bit-identical to serial execution — checksums, compile statistics,
 * per-pass counters and FallbackEvent sequences all match for any jobs
 * value, including under deterministic fault injection whose sites are
 * keyed by (seed, function, pass, rung) and so must stay
 * schedule-independent.
 */
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <sstream>

#include "driver/experiment.h"
#include "driver/pipeline.h"
#include "ir/printer.h"
#include "sim/interp.h"
#include "support/faultinject.h"
#include "support/supervision/manifest.h"
#include "support/telemetry/artifact.h"
#include "support/telemetry/registry.h"
#include "support/telemetry/trace.h"
#include "support/threadpool.h"
#include "workloads/workload.h"

namespace epic {
namespace {

std::vector<std::string>
pipelineNames(Config rung, const CompileOptions &opts)
{
    std::vector<std::string> names;
    for (const PassDesc *p : buildPipeline(rung, opts))
        names.push_back(p->name);
    return names;
}

TEST(PipelineTest, RegistryComposesEveryRung)
{
    using V = std::vector<std::string>;
    const V gcc_like = {"classical", "regalloc", "schedule"};
    EXPECT_EQ(pipelineNames(Config::Gcc,
                            CompileOptions::forConfig(Config::Gcc)),
              gcc_like);
    EXPECT_EQ(pipelineNames(Config::ONS,
                            CompileOptions::forConfig(Config::ONS)),
              gcc_like);

    const V ilp_ns = {"classical",    "hyperblock",
                      "superblock",   "peel",
                      "hyperblock-2", "superblock-2",
                      "post-region classical", "regalloc",
                      "schedule"};
    EXPECT_EQ(pipelineNames(Config::IlpNs,
                            CompileOptions::forConfig(Config::IlpNs)),
              ilp_ns);

    V ilp_cs = ilp_ns;
    ilp_cs.insert(ilp_cs.end() - 2, "speculate");
    EXPECT_EQ(pipelineNames(Config::IlpCs,
                            CompileOptions::forConfig(Config::IlpCs)),
              ilp_cs);

    // Ablation knobs flow through the same registry predicates.
    CompileOptions nopeel = CompileOptions::forConfig(Config::IlpCs);
    nopeel.enable_peel = false;
    for (const std::string &n : pipelineNames(Config::IlpCs, nopeel))
        EXPECT_NE(n, "peel");

    // A degraded rung composes from the target rung, not the starting
    // one: the Gcc floor of an IlpCs compilation is the Gcc pipeline.
    EXPECT_EQ(pipelineNames(Config::Gcc,
                            CompileOptions::forConfig(Config::IlpCs)),
              gcc_like);
}

TEST(PipelineTest, BoundaryAxisCoversInlinePlusRegistry)
{
    // Canonical PipelineStats order: the program-level inline
    // transaction first, then the registry in pipeline order, then
    // unknown names.
    ASSERT_FALSE(passRegistry().empty());
    EXPECT_EQ(passOrderIndex("inline"), 0);
    int prev = 0;
    for (const PassDesc &p : passRegistry()) {
        EXPECT_LT(prev, passOrderIndex(p.name)) << p.name;
        prev = passOrderIndex(p.name);
    }
    EXPECT_LT(prev, passOrderIndex("no-such-pass"));
}

TEST(PipelineTest, ParallelForCoversAllAndNests)
{
    std::vector<int> hits(64, 0);
    parallelFor(4, 64, [&](int i) {
        // Nested tier degrades to serial inline — no deadlock, no
        // thread explosion, every inner index still runs.
        int inner = 0;
        parallelFor(4, 3, [&](int) { ++inner; });
        hits[i] = 1 + inner;
    });
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(hits[i], 4) << "index " << i;
}

TEST(PipelineTest, ParallelForPropagatesExceptions)
{
    EXPECT_THROW(
        parallelFor(4, 16,
                    [](int i) {
                        if (i == 7)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
}

/** The pipeline's deterministic counters (runs, instruction deltas,
 *  analysis-cache activity per pass and rung) as the run artifact
 *  records them: wall times are volatile and left out. */
std::string
pipelineCounters(const PipelineStats &pipe)
{
    StatsRegistry reg;
    recordCompile(reg, CompileStats{}, pipe, 0, 0, /*clean=*/false);
    return reg.jsonObject();
}

/** Build + profile one workload program. */
std::unique_ptr<Program>
profiled(const Workload &w)
{
    auto prog = w.build();
    prog->layoutData();
    Memory mem;
    mem.initFromProgram(*prog);
    w.write_input(*prog, mem, InputKind::Train);
    EXPECT_TRUE(profileRun(*prog, mem).ok);
    return prog;
}

TEST(PipelineTest, ParallelCompileIsBitIdentical)
{
    const Workload *w = findWorkload("176.gcc");
    ASSERT_NE(w, nullptr);
    auto src = profiled(*w);

    CompileOptions serial = CompileOptions::forConfig(Config::IlpCs);
    serial.jobs = 1;
    CompileOptions parallel = serial;
    parallel.jobs = 4;

    Compiled a = compileProgram(*src, serial);
    Compiled b = compileProgram(*src, parallel);

    EXPECT_EQ(a.instrs_final, b.instrs_final);
    EXPECT_EQ(a.instrs_after_inline, b.instrs_after_inline);
    EXPECT_EQ(a.stats.instrs_after_classical,
              b.stats.instrs_after_classical);
    EXPECT_EQ(a.stats.inl.inlined, b.stats.inl.inlined);
    EXPECT_EQ(a.stats.sb.traces, b.stats.sb.traces);
    EXPECT_EQ(a.stats.spec.moved, b.stats.spec.moved);
    EXPECT_EQ(a.stats.ra.spilled, b.stats.ra.spilled);
    EXPECT_EQ(pipelineCounters(a.pipeline), pipelineCounters(b.pipeline));

    // The strongest form: the emitted programs are identical down to
    // the schedule annotations.
    std::ostringstream pa, pb;
    printProgram(pa, *a.prog);
    printProgram(pb, *b.prog);
    EXPECT_EQ(pa.str(), pb.str());
}

/** FNV-1a of the printed program chained with every bundle's template
 *  (the printer shows slot contents, not templates). */
std::string
codeDigest(const Program &p)
{
    std::ostringstream os;
    printProgram(os, p);
    std::string tmpls;
    for (const auto &f : p.funcs)
        if (f)
            for (const auto &b : f->blocks)
                if (b)
                    for (const Bundle &bun : b->bundles)
                        tmpls += static_cast<char>(bun.tmpl);
    return hashHex(fnv1a(tmpls, fnv1a(os.str())));
}

TEST(PipelineTest, CompiledCodeMatchesGoldenDigests)
{
    // One digest per rung, GCC .. ILP-CS-DS. Compile-speed work must
    // leave every one unchanged; a deliberate code change re-pins them.
    const std::map<std::string, std::array<const char *, 5>> golden = {
        {"164.gzip",
         {"399781f7bb3b8d81", "d8006f83f58c04f2", "50663c028aa17556",
          "068efb090ed29ff7", "fcbcd30222b5db7b"}},
        {"175.vpr",
         {"9006a4e8eec7ca02", "b57b7fb90ddb7749", "66db484b1955bb0a",
          "66db484b1955bb0a", "66db484b1955bb0a"}},
        {"176.gcc",
         {"3d6f176ffda3d854", "720845ab29466c5b", "68225a0c26e7f472",
          "e4fcd0d1a6f01dc6", "e4fcd0d1a6f01dc6"}},
        {"181.mcf",
         {"067d5e7aa7f8125d", "b626603f32d717a8", "1a26c23458f89508",
          "42074b01bc16857e", "42074b01bc16857e"}},
        {"186.crafty",
         {"f955fd952cbe96c3", "f7afcdf50d3564b3", "2d5eee53a88cd806",
          "b72d407c007d201d", "b72d407c007d201d"}},
        {"197.parser",
         {"c0387a16f3dc48cb", "5b62f5e75b9fe2ca", "97f49c65ad9b5745",
          "9099b6710d66698a", "9099b6710d66698a"}},
        {"252.eon",
         {"9d60948a661cd8f6", "6aaf46a50ebbfc57", "86c5e730fd5ef3b9",
          "0bf4124b50865092", "0bf4124b50865092"}},
        {"253.perlbmk",
         {"9be11f8ad3bad56e", "4d27e730eee1adc9", "e9316c1d5ad0ec1d",
          "c2a751ff48fdb4a9", "c2a751ff48fdb4a9"}},
        {"254.gap",
         {"2ac6b982014d2733", "527830e165517c90", "df25f83cede59eaf",
          "e79684fcbe26c31a", "e5d00daf30bf53c2"}},
        {"255.vortex",
         {"fc234a1a71bdb9f0", "e8695a1f31044c04", "b9870ab751f82b48",
          "2020f61858ea66f3", "2020f61858ea66f3"}},
        {"256.bzip2",
         {"37a456ab9fabdf76", "752cb4c8c7d8b9a0", "8b22441cb73bbd82",
          "5c806b87e9e95130", "dc4506207077cef7"}},
        {"300.twolf",
         {"5843c5eeda1b3e94", "78326de0ce376c0d", "a1caa9940b193f54",
          "ec9150bf4e447779", "ec9150bf4e447779"}},
    };
    const Config rungs[] = {Config::Gcc, Config::ONS, Config::IlpNs,
                            Config::IlpCs, Config::IlpCsDs};
    for (const Workload &w : allWorkloads()) {
        auto src = profiled(w);
        std::string got;
        for (Config c : rungs) {
            Compiled out = compileProgram(*src, c);
            EXPECT_TRUE(out.fallback.clean()) << w.name;
            got += " " + codeDigest(*out.prog);
        }
        std::string want;
        if (auto it = golden.find(w.name); it != golden.end())
            for (const char *d : it->second)
                want += std::string(" ") + d;
        EXPECT_EQ(got, want) << w.name;
    }
}

TEST(PipelineTest, PassCountersAccountForEveryInstruction)
{
    const Workload *w = findWorkload("176.gcc");
    ASSERT_NE(w, nullptr);
    auto src = profiled(*w);
    Compiled c = compileProgram(*src, Config::IlpCs);

    // In a clean compilation (no abandoned rungs) the per-pass
    // instruction deltas, inline included, sum to exactly the
    // source -> final size change: nothing is lost or double-counted.
    int64_t delta = 0;
    int runs = 0;
    for (const PassStat &s : c.pipeline.passes) {
        delta += s.instr_delta;
        runs += s.runs;
        EXPECT_GE(s.runs, 1) << s.pass;
    }
    ASSERT_TRUE(c.fallback.clean());
    EXPECT_EQ(delta, c.instrs_final - c.instrs_source);
    EXPECT_GT(runs, 0);
    EXPECT_GT(c.pipeline.totalMs(), 0.0);
}

RunOptions
trainOpts(int jobs, FaultInjector *inj = nullptr)
{
    RunOptions opts;
    opts.run_input = InputKind::Train; // keep simulation cheap
    opts.jobs = jobs;
    if (inj)
        opts.tweak = [inj](CompileOptions &o) { o.firewall.inject = inj; };
    return opts;
}

/** Deterministic digest of a WorkloadRuns (everything but wall times). */
std::string
digest(const WorkloadRuns &runs)
{
    std::ostringstream os;
    os << runs.name << " src=" << runs.source_checksum
       << " match=" << runs.all_match << "\n";
    for (const auto &[cfg, r] : runs.by_config) {
        os << configName(cfg) << " ok=" << r.ok << " ck=" << r.checksum
           << " cyc=" << r.pm.total() << " instrs=" << r.instrs_final
           << " sb=" << r.stats.sb.traces << " ra=" << r.stats.ra.spilled
           << "\n";
        os << pipelineCounters(r.pipeline) << "\n";
    }
    for (const FallbackEvent &e : runs.fallback.events)
        os << e.str() << "\n";
    os << runs.fallback.functions_total << "/"
       << runs.fallback.functions_degraded << "/"
       << runs.fallback.faults_injected << "/"
       << runs.fallback.faults_caught << "\n";
    os << pipelineCounters(runs.pipeline) << "\n";
    return os.str();
}

TEST(PipelineTest, ParallelWorkloadRunIsBitIdentical)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    WorkloadRuns serial = runWorkload(*w, standardConfigs(), trainOpts(1));
    WorkloadRuns parallel =
        runWorkload(*w, standardConfigs(), trainOpts(4));
    EXPECT_TRUE(serial.all_match);
    EXPECT_EQ(digest(serial), digest(parallel));
}

/** Profile runs (`sim`/`profile-run` trace spans) made by `body`. */
int
profileRunsIn(const std::function<void()> &body)
{
    TraceRecorder &rec = TraceRecorder::global();
    rec.enable();
    body();
    rec.disable();
    int n = 0;
    for (const TraceRecorder::Event &e : rec.events())
        n += e.cat == "sim" && e.name == "profile-run";
    return n;
}

TEST(PipelineTest, EachWorkloadIsProfiledOnce)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    // At jobs 4 the four configurations read the one shared profiled
    // source concurrently.
    for (int jobs : {1, 4}) {
        WorkloadRuns runs;
        EXPECT_EQ(profileRunsIn([&] {
                      runs = runWorkload(*w, standardConfigs(),
                                         trainOpts(jobs));
                  }),
                  1)
            << "jobs " << jobs;
        EXPECT_TRUE(runs.all_match) << "jobs " << jobs;
    }

    RunOptions opts = trainOpts(4);
    opts.only = {"gzip", "mcf"};
    std::vector<WorkloadRuns> suite;
    EXPECT_EQ(profileRunsIn(
                  [&] { suite = runSuite(standardConfigs(), opts); }),
              2);
    ASSERT_EQ(suite.size(), 2u);
    for (const WorkloadRuns &r : suite)
        EXPECT_TRUE(r.all_match) << r.name;
}

TEST(PipelineTest, SerialSuiteReportsEachWorkloadBeforeTheNextStarts)
{
    // At jobs 1 a workload's runs end and it is reported before the
    // next workload's source run starts, so only one source is alive
    // at a time and a caller can time the suite workload by workload.
    RunOptions opts = trainOpts(1);
    opts.only = {"gzip", "eon", "vortex"};
    TraceRecorder &rec = TraceRecorder::global();
    rec.enable();
    std::vector<std::pair<std::string, double>> reports;
    const std::vector<WorkloadRuns> suite =
        runSuite(standardConfigs(), opts, [&](const WorkloadRuns &r) {
            reports.emplace_back(r.name, rec.nowUs());
        });
    rec.disable();
    ASSERT_EQ(suite.size(), 3u);
    ASSERT_EQ(reports.size(), 3u);

    // Per workload: its runs, when the last one ended, and when its
    // source run started.
    std::map<std::string, int> runs;
    std::map<std::string, double> last_run_end, source_start;
    for (const TraceRecorder::Event &e : rec.events()) {
        if (e.cat == "experiment" && e.name.rfind("run ", 0) == 0) {
            const std::string w = e.name.substr(4, e.name.find(" [") - 4);
            ++runs[w];
            last_run_end[w] = std::max(last_run_end[w], e.ts_us + e.dur_us);
        } else if (e.cat == "experiment.phase" &&
                   e.name.rfind("source-run ", 0) == 0) {
            source_start[e.name.substr(11)] = e.ts_us;
        }
    }
    for (size_t i = 0; i < reports.size(); ++i) {
        const auto &[name, at] = reports[i];
        EXPECT_EQ(name, suite[i].name);
        EXPECT_EQ(runs[name], 4) << name;
        EXPECT_LE(last_run_end[name], at)
            << name << " was reported before its runs ended";
        if (i + 1 < reports.size()) {
            const std::string &next = reports[i + 1].first;
            ASSERT_TRUE(source_start.count(next)) << next;
            EXPECT_LE(at, source_start[next])
                << next << " started before " << name << " was reported";
        }
    }
}

TEST(PipelineTest, SharedSourceProfiledOnAnotherInputDies)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    const ProfiledSource src = prepareWorkload(*w, RunOptions{});
    ASSERT_NE(src.prog, nullptr) << src.error;
    RunOptions opts;
    opts.profile_input = InputKind::Ref;
    EXPECT_DEATH(runConfig(*w, src, Config::Gcc, opts),
                 "profiled on another input");
}

TEST(PipelineTest, ParallelInjectionStaysScheduleIndependent)
{
    const Workload *w = findWorkload("181.mcf");
    ASSERT_NE(w, nullptr);

    FaultInjector inj_serial(/*seed=*/90125, /*rate=*/0.5);
    FaultInjector inj_parallel(/*seed=*/90125, /*rate=*/0.5);
    WorkloadRuns serial = runWorkload(*w, standardConfigs(),
                                      trainOpts(1, &inj_serial));
    WorkloadRuns parallel = runWorkload(*w, standardConfigs(),
                                        trainOpts(4, &inj_parallel));

    // Same checksums, same degradations, same FallbackEvent sequence.
    EXPECT_TRUE(serial.all_match);
    EXPECT_EQ(digest(serial), digest(parallel));

    // The injector's own canonical record streams agree exactly:
    // (seed, function, pass, rung) addressing is schedule-independent.
    EXPECT_GT(inj_serial.fired(), 0);
    EXPECT_EQ(inj_serial.escaped(), 0);
    EXPECT_EQ(inj_parallel.escaped(), 0);
    const auto &ra = inj_serial.records();
    const auto &rb = inj_parallel.records();
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].function, rb[i].function);
        EXPECT_EQ(ra[i].pass, rb[i].pass);
        EXPECT_EQ(ra[i].rung, rb[i].rung);
        EXPECT_EQ(ra[i].kind, rb[i].kind);
        EXPECT_EQ(ra[i].detail, rb[i].detail);
        EXPECT_EQ(ra[i].caught, rb[i].caught);
    }
}

TEST(PipelineTest, ParanoidVerifyIsOptionalAndHarmless)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    auto src = profiled(*w);

    CompileOptions opts = CompileOptions::forConfig(Config::IlpCs);
    ASSERT_FALSE(opts.firewall.paranoid); // default: gate is off
    Compiled fast = compileProgram(*src, opts);
    opts.firewall.paranoid = true;
    Compiled checked = compileProgram(*src, opts); // must not die
    EXPECT_EQ(fast.instrs_final, checked.instrs_final);
    EXPECT_EQ(pipelineCounters(fast.pipeline),
              pipelineCounters(checked.pipeline));
}

} // namespace
} // namespace epic
