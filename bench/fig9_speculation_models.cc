/**
 * @file
 * Reproduces paper Figure 9 / §4.3 as an experiment: the cost structure
 * of the two IA-64 control-speculation OS models on the wild-load
 * benchmarks (gcc prominently; parser, perlbmk, gap less so).
 *
 *  - General speculation: a wild speculative load walks the page
 *    hierarchy in the kernel and does not cache the result — expensive
 *    every time (the paper's gcc spends ~20% of its time this way).
 *  - Sentinel (early deferral): the load defers cheaply at the DTLB;
 *    recovery costs are paid only when a deferred value is actually
 *    needed (chk.s fires).
 *
 * NULL-page accesses cost ~2 cycles under both models (architected NaT
 * page). Reported per benchmark: wild loads, kernel cycles, total
 * cycles, and the general/sentinel ratio.
 */
#include <cstdio>

#include "driver/experiment.h"
#include "support/stats.h"

using namespace epic;

int
main()
{
    printf("Figure 9 / section 4.3: general vs sentinel speculation\n\n");

    Table t({"Benchmark", "wild loads", "gen kernel%", "sent kernel%",
             "gen cycles", "sent cycles", "gen/sent"});

    for (const Workload &w : allWorkloads()) {
        RunOptions gen_opts;
        gen_opts.deferral = DeferralPolicy::General;
        ConfigRun gen = runConfig(w, Config::IlpCs, gen_opts);

        RunOptions sent_opts;
        sent_opts.deferral = DeferralPolicy::Sentinel;
        ConfigRun sent = runConfig(w, Config::IlpCs, sent_opts);

        if (!gen.ok || !sent.ok) {
            printf("%s: run failed\n", w.name.c_str());
            continue;
        }
        double gen_k = 100.0 * gen.pm.get(CycleCat::Kernel) /
                       std::max<uint64_t>(gen.pm.total(), 1);
        double sent_k = 100.0 * sent.pm.get(CycleCat::Kernel) /
                        std::max<uint64_t>(sent.pm.total(), 1);
        t.row().cell(w.name);
        t.cell(static_cast<long long>(gen.pm.wild_loads));
        t.cell(gen_k, 1);
        t.cell(sent_k, 1);
        t.cell(static_cast<long long>(gen.pm.total()));
        t.cell(static_cast<long long>(sent.pm.total()));
        t.cell(static_cast<double>(gen.pm.total()) / sent.pm.total(), 3);
    }
    t.print();

    printf("\nExpected shape (paper): gcc pays heavily under the general "
           "model (~20%% kernel\ntime chasing spurious page walks); "
           "parser/perlbmk/gap show smaller effects;\nbenchmarks without "
           "pointer/int unions are indifferent to the model.\n");

    // ---- Data speculation (the ILP-CS-DS rung) ------------------------
    // Loads pinned only by a may-aliasing store advance past it as
    // ld.a/chk.a pairs through the ALAT. Benchmarks with precise alias
    // hints have nothing to advance and reproduce ILP-CS exactly;
    // hint-less kernels (gap) convert the dropped store->load edge
    // into issue-group wins. chk.a misses would surface in the "recov
    // cyc" column as misses x alat_recovery_cycles.
    printf("\nData speculation: ILP-CS vs ILP-CS-DS (general OS model)\n\n");

    Table d({"Benchmark", "ld.a (dyn)", "alat hit", "alat miss",
             "recov cyc", "CS cycles", "CS-DS cycles", "CS/CS-DS"});
    for (const Workload &w : allWorkloads()) {
        ConfigRun cs = runConfig(w, Config::IlpCs);
        ConfigRun ds = runConfig(w, Config::IlpCsDs);
        if (!cs.ok || !ds.ok) {
            printf("%s: run failed\n", w.name.c_str());
            continue;
        }
        d.row().cell(w.name);
        d.cell(static_cast<long long>(ds.pm.advanced_loads));
        d.cell(static_cast<long long>(ds.pm.alat_hits));
        d.cell(static_cast<long long>(ds.pm.alat_misses));
        d.cell(static_cast<long long>(
            ds.pm.get(CycleCat::AlatRecovery)));
        d.cell(static_cast<long long>(cs.pm.total()));
        d.cell(static_cast<long long>(ds.pm.total()));
        d.cell(static_cast<double>(cs.pm.total()) / ds.pm.total(), 3);
    }
    d.print();
    return 0;
}
