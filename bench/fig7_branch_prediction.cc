/**
 * @file
 * Reproduces paper Figure 7: dynamic branch counts, mispredictions and
 * correct-prediction rate per configuration, plus the §3.2/§3.5
 * aggregates — the paper reports a 27% reduction in dynamic branches
 * from region formation and a 22% reduction in misprediction stall
 * cycles, and contrasts with [9]'s 7% branch reduction under
 * conservative predication.
 *
 * The predictions/mispredicts columns are computed from the PMU
 * per-branch profile (sim/pmu/pmu.h) — summed over branch sites, which
 * the declared reconciliation invariant guarantees equals the aggregate
 * Perfmon counters — and the per-site attribution feeds the
 * hot-mispredicted-branches section below the table.
 */
#include <algorithm>
#include <cstdio>

#include "driver/experiment.h"
#include "support/stats.h"
#include "support/telemetry/artifact.h"

using namespace epic;

namespace {

/** One hot branch site of a workload's ILP-CS run. */
struct HotBranch
{
    uint64_t mispreds;
    uint64_t paddr;
    const PmuData::BranchSite *site;
    const WorkloadRuns *runs;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--json" && i + 1 < argc)
            json_path = argv[++i];

    printf("Figure 7: effects on branches and prediction\n\n");

    const std::vector<Config> configs = {Config::ONS, Config::IlpNs,
                                         Config::IlpCs};
    RunOptions opts;
    // The per-branch profile is the data source for the prediction
    // columns and the hot-site report.
    opts.pmu.branch_profile = true;
    Table t({"Benchmark", "config", "branches", "predictions",
             "mispredicts", "rate"});
    std::vector<double> branch_reduction, flush_reduction;
    std::vector<WorkloadRuns> suite;
    suite.reserve(allWorkloads().size());

    for (const Workload &w : allWorkloads()) {
        suite.push_back(runWorkload(w, configs, opts));
        const WorkloadRuns &runs = suite.back();
        const Perfmon &base = runs.by_config.at(Config::ONS).pm;
        for (Config cfg : configs) {
            const ConfigRun &cr = runs.by_config.at(cfg);
            const Perfmon &pm = cr.pm;
            // Predictions/mispredictions from the per-branch profile;
            // fall back to the aggregate counters when the run carries
            // no PMU data (e.g. degraded to the functional rung). The
            // sums equal the aggregates (declared invariant), so the
            // printed columns are byte-identical either way.
            uint64_t preds = pm.branch_predictions;
            uint64_t mispreds = pm.mispredictions;
            if (cr.pmu) {
                preds = 0;
                mispreds = 0;
                for (const auto &[paddr, site] : cr.pmu->branchProfile()) {
                    (void)paddr;
                    preds += site.predictions;
                    mispreds += site.mispredictions;
                }
            }
            t.row().cell(cfg == Config::ONS ? w.name : "");
            t.cell(configName(cfg));
            t.cell(static_cast<long long>(pm.branches));
            t.cell(static_cast<long long>(preds));
            t.cell(static_cast<long long>(mispreds));
            t.cell(preds ? 1.0 -
                               static_cast<double>(mispreds) /
                                   static_cast<double>(preds)
                         : 0.0, // matches Perfmon::predictionRate()
                   4);
        }
        const Perfmon &cs = runs.by_config.at(Config::IlpCs).pm;
        if (base.branches > 0 && cs.branches > 0) {
            branch_reduction.push_back(
                static_cast<double>(base.branches) / cs.branches);
        }
        uint64_t bf = base.get(CycleCat::BrMispredFlush);
        uint64_t cf = cs.get(CycleCat::BrMispredFlush);
        if (bf > 0 && cf > 0)
            flush_reduction.push_back(static_cast<double>(bf) / cf);
    }
    t.print();

    double br_red = 1.0 - 1.0 / geomean(branch_reduction);
    double fl_red = 1.0 - 1.0 / geomean(flush_reduction);
    printf("\nDynamic branch reduction, ILP-CS vs O-NS: %.0f%% "
           "(paper: 27%%)\n",
           br_red * 100);
    printf("Misprediction-flush cycle reduction:       %.0f%% "
           "(paper: 22%%)\n",
           fl_red * 100);

    // Hot mispredicted branches under ILP-CS, across the suite:
    // deterministic order (mispredictions desc, code address asc).
    std::vector<HotBranch> hot;
    for (const WorkloadRuns &runs : suite) {
        auto it = runs.by_config.find(Config::IlpCs);
        if (it == runs.by_config.end() || !it->second.pmu)
            continue;
        for (const auto &[paddr, site] : it->second.pmu->branchProfile())
            if (site.mispredictions)
                hot.push_back(
                    {site.mispredictions, paddr, &site, &runs});
    }
    std::sort(hot.begin(), hot.end(),
              [](const HotBranch &a, const HotBranch &b) {
                  if (a.mispreds != b.mispreds)
                      return a.mispreds > b.mispreds;
                  return a.paddr < b.paddr;
              });
    if (!hot.empty()) {
        printf("\nHot mispredicted branches (ILP-CS):\n");
        for (size_t i = 0; i < hot.size() && i < 10; ++i) {
            const HotBranch &hb = hot[i];
            const ConfigRun &cr =
                hb.runs->by_config.at(Config::IlpCs);
            const Function *f =
                cr.prog ? cr.prog->func(hb.site->fid) : nullptr;
            printf("  %-12s %-20s bb%-4d @%#llx  %8llu/%8llu mispred "
                   "(taken %llu)\n",
                   hb.runs->name.c_str(), f ? f->name.c_str() : "?",
                   hb.site->bid, (unsigned long long)hb.paddr,
                   (unsigned long long)hb.mispreds,
                   (unsigned long long)hb.site->predictions,
                   (unsigned long long)hb.site->taken);
        }
    }

    if (!json_path.empty() &&
        !writeSuiteArtifact(json_path, suite, configs))
        return 1;
    return 0;
}
