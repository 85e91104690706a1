/**
 * @file
 * Ablation of loop peeling (paper Figure 3): the crafty-style
 * peel-and-merge of serial low-trip loops is one of the paper's
 * signature transforms. Compares ILP-CS with and without peeling on
 * the low-trip-loop benchmarks and the whole suite.
 */
#include <cstdio>

#include "driver/experiment.h"
#include "support/stats.h"

using namespace epic;

int
main()
{
    printf("Ablation: loop peeling on/off (ILP-CS)\n\n");

    RunOptions nopeel;
    nopeel.tweak = [](CompileOptions &o) { o.enable_peel = false; };

    Table t({"Benchmark", "with peel", "without", "peel speedup",
             "loops peeled"});
    std::vector<double> speedups;
    for (const Workload &w : allWorkloads()) {
        const ProfiledSource src = profileSource(w);
        ConfigRun with = runConfig(w, src, Config::IlpCs);
        ConfigRun without = runConfig(w, src, Config::IlpCs, nopeel);
        if (!with.ok || !without.ok)
            continue;
        double sp =
            static_cast<double>(without.pm.total()) / with.pm.total();
        t.row().cell(w.name);
        t.cell(static_cast<long long>(with.pm.total()));
        t.cell(static_cast<long long>(without.pm.total()));
        t.cell(sp, 3);
        t.cell(static_cast<long long>(with.stats.peel.peeled));
        speedups.push_back(sp);
    }
    t.print();
    printf("\nGeomean peeling contribution: %.3fx. Expected: largest on "
           "crafty/twolf (the\npaper's Figure 3 pattern), near-neutral "
           "elsewhere.\n",
           geomean(speedups));
    return 0;
}
