/**
 * @file
 * google-benchmark micro-benchmarks of the simulation infrastructure:
 * functional-interpretation rate and timing-simulation rate.
 */
#include <benchmark/benchmark.h>

#include "driver/compiler.h"
#include "sim/interp.h"
#include "sim/timing.h"
#include "workloads/workload.h"

using namespace epic;

namespace {

void
BM_FunctionalInterp(benchmark::State &state)
{
    const Workload *w = findWorkload("164.gzip");
    auto prog = w->build();
    prog->layoutData();
    uint64_t instrs = 0;
    for (auto _ : state) {
        Memory mem;
        mem.initFromProgram(*prog);
        w->write_input(*prog, mem, InputKind::Ref);
        auto r = interpret(*prog, mem);
        instrs = r.dyn_instrs;
        benchmark::DoNotOptimize(r.ret_value);
    }
    state.SetItemsProcessed(state.iterations() * instrs);
}
BENCHMARK(BM_FunctionalInterp)->Unit(benchmark::kMillisecond);

void
BM_TimingSim(benchmark::State &state)
{
    const Workload *w = findWorkload("164.gzip");
    auto prog = w->build();
    prog->layoutData();
    {
        Memory mem;
        mem.initFromProgram(*prog);
        w->write_input(*prog, mem, InputKind::Train);
        profileRun(*prog, mem);
    }
    Compiled c = compileProgram(*prog, Config::IlpCs);
    uint64_t ops = 0;
    for (auto _ : state) {
        Memory mem;
        mem.initFromProgram(*c.prog);
        w->write_input(*c.prog, mem, InputKind::Ref);
        auto r = simulate(*c.prog, mem, {});
        ops = r.pm.useful_ops;
        benchmark::DoNotOptimize(r.ret_value);
    }
    state.SetItemsProcessed(state.iterations() * ops);
}
BENCHMARK(BM_TimingSim)->Unit(benchmark::kMillisecond);

/**
 * BM_TimingSim with the PMU interval sampler armed at a 64k-cycle
 * stride — the overhead guard CI compares against BM_TimingSim via
 * bench_compare.py (sampling must cost < 2%).
 */
void
BM_TimingSimSampled(benchmark::State &state)
{
    const Workload *w = findWorkload("164.gzip");
    auto prog = w->build();
    prog->layoutData();
    {
        Memory mem;
        mem.initFromProgram(*prog);
        w->write_input(*prog, mem, InputKind::Train);
        profileRun(*prog, mem);
    }
    Compiled c = compileProgram(*prog, Config::IlpCs);
    TimingOptions topts;
    topts.pmu.sample_every = 65536;
    uint64_t ops = 0;
    for (auto _ : state) {
        Memory mem;
        mem.initFromProgram(*c.prog);
        w->write_input(*c.prog, mem, InputKind::Ref);
        auto r = simulate(*c.prog, mem, topts);
        ops = r.pm.useful_ops;
        benchmark::DoNotOptimize(r.ret_value);
    }
    state.SetItemsProcessed(state.iterations() * ops);
}
BENCHMARK(BM_TimingSimSampled)->Unit(benchmark::kMillisecond);

/**
 * Fast-forward sampled mode at the CI cross-validation parameters
 * (DESIGN.md §18). Items processed counts *all* retired ops — the
 * fast-forwarded ones included — so the ops/s rate is directly
 * comparable with BM_TimingSim's and shows the end-to-end sim-phase
 * speedup sampling buys at 33% detail coverage.
 */
void
BM_TimingSimSampledMode(benchmark::State &state)
{
    const Workload *w = findWorkload("164.gzip");
    auto prog = w->build();
    prog->layoutData();
    {
        Memory mem;
        mem.initFromProgram(*prog);
        w->write_input(*prog, mem, InputKind::Train);
        profileRun(*prog, mem);
    }
    Compiled c = compileProgram(*prog, Config::IlpCs);
    TimingOptions topts;
    topts.sim_mode = SimMode::Sampled;
    topts.ff_functional = 400000;
    topts.detail_window = 200000;
    uint64_t ops = 0;
    for (auto _ : state) {
        Memory mem;
        mem.initFromProgram(*c.prog);
        w->write_input(*c.prog, mem, InputKind::Ref);
        auto r = simulate(*c.prog, mem, topts);
        ops = r.sampled.total_ops;
        benchmark::DoNotOptimize(r.ret_value);
    }
    state.SetItemsProcessed(state.iterations() * ops);
}
BENCHMARK(BM_TimingSimSampledMode)->Unit(benchmark::kMillisecond);

} // namespace

// Explicit main (instead of BENCHMARK_MAIN()) so the JSON context
// carries the build type of *this* tree: the system libbenchmark is a
// debug build, making the library_build_type context key useless for
// deciding whether the numbers are trustworthy. bench_compare.py
// refuses baselines/candidates whose epiclab_build_type is "debug".
int
main(int argc, char **argv)
{
    benchmark::AddCustomContext("epiclab_build_type",
                                EPICLAB_BUILD_TYPE);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
