/**
 * @file
 * Reproduces the paper's §3.5 comparison with Choi et al. [9]: a
 * production-style, *conservative* predication policy (no
 * code-replicating enablers, strict path-inclusion ratios) removes far
 * fewer branches and gains far less than IMPACT's inclusive region
 * formation — the paper contrasts [9]'s 7% branch reduction / 2% cycle
 * gain with its own 27% / 10% (ILP-NS).
 */
#include <cstdio>

#include "driver/experiment.h"
#include "support/stats.h"

using namespace epic;

int
main()
{
    printf("Section 3.5: conservative vs inclusive predication\n\n");

    RunOptions cons_opts;
    cons_opts.tweak = [](CompileOptions &o) {
        o.hb_opts.conservative = true;
        o.sb_opts.allow_tail_dup = false;
        o.enable_peel = false;
    };

    Table t({"Benchmark", "cons br red %", "incl br red %",
             "cons speedup", "incl speedup"});
    std::vector<double> cons_br, incl_br, cons_sp, incl_sp;

    for (const Workload &w : allWorkloads()) {
        WorkloadRuns base_runs = runWorkload(w, {Config::ONS});
        const ConfigRun &ons = base_runs.by_config.at(Config::ONS);

        const ProfiledSource src = profileSource(w);
        ConfigRun cons = runConfig(w, src, Config::IlpNs, cons_opts);
        ConfigRun incl = runConfig(w, src, Config::IlpNs);
        if (!ons.ok || !cons.ok || !incl.ok)
            continue;

        auto br_red = [&](const ConfigRun &r) {
            return ons.pm.branches > 0
                       ? 100.0 * (1.0 - static_cast<double>(
                                            r.pm.branches) /
                                            ons.pm.branches)
                       : 0.0;
        };
        auto speedup = [&](const ConfigRun &r) {
            return r.pm.total() > 0 ? static_cast<double>(
                                          ons.pm.total()) /
                                          r.pm.total()
                                    : 0.0;
        };
        double cb = br_red(cons), ib = br_red(incl);
        double csp = speedup(cons), isp = speedup(incl);
        t.row().cell(w.name).cell(cb, 1).cell(ib, 1).cell(csp, 3)
            .cell(isp, 3);
        cons_br.push_back(cb);
        incl_br.push_back(ib);
        cons_sp.push_back(csp);
        incl_sp.push_back(isp);
    }
    t.print();

    printf("\nSuite averages: conservative removes %.1f%% of branches "
           "for %.3fx\n(paper [9]: ~7%% and 1.02x); inclusive removes "
           "%.1f%% for %.3fx\n(paper ILP-NS: 27%% and 1.10x).\n",
           mean(cons_br), geomean(cons_sp), mean(incl_br),
           geomean(incl_sp));
    return 0;
}
