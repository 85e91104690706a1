/**
 * @file
 * List scheduler and bundle packer.
 *
 * Schedules each block's instructions into issue groups under the
 * machine's dispersal constraints (port counts, load/store limits, issue
 * width), then packs each group into IA-64 bundle templates, inserting
 * explicit NOPs for unfilled slots — the mechanism behind the paper's
 * Figure 6 observation that better-scheduled code retires *fewer* NOPs
 * and therefore fetches more efficiently.
 */
#ifndef EPIC_SCHED_LISTSCHED_H
#define EPIC_SCHED_LISTSCHED_H

#include <optional>
#include <vector>

#include "ir/program.h"
#include "mach/machine.h"

namespace epic {

class AnalysisManager;

/** Scheduling statistics (per function or aggregated). */
struct SchedStats
{
    int blocks = 0;
    int groups = 0;      ///< issue groups emitted (planned cycles/pass)
    int bundles = 0;
    int nops = 0;        ///< explicit NOP slots
    int ops = 0;         ///< real (non-NOP) operations
    long long weighted_groups = 0;  ///< groups x block profile weight
    long long weighted_ops = 0;

    SchedStats &
    operator+=(const SchedStats &o)
    {
        blocks += o.blocks;
        groups += o.groups;
        bundles += o.bundles;
        nops += o.nops;
        ops += o.ops;
        weighted_groups += o.weighted_groups;
        weighted_ops += o.weighted_ops;
        return *this;
    }

    /** Average planned IPC over profiled execution. */
    double
    plannedIpc() const
    {
        return weighted_groups > 0
                   ? static_cast<double>(weighted_ops) /
                         static_cast<double>(weighted_groups)
                   : 0.0;
    }
};

/**
 * Pack `ops` (instruction indices of one issue group of `b`, non-branches
 * first, branches last, each in source order) into at most `max_bundles`
 * bundles (one or two): the packing with the fewest bundles, then the
 * fewest NOPs, its last bundle carrying the stop bit; nullopt when
 * infeasible. The choice depends only on the ops' FU classes and is
 * cached per class sequence for the life of the process.
 */
std::optional<std::vector<Bundle>> packGroup(const BasicBlock &b,
                                             const std::vector<int> &ops,
                                             int max_bundles);

/**
 * Schedule every block of a function into bundles, with per-block
 * predicate relations (and alias info) served by the manager.
 * Scheduling only stamps sched_cycle and rebuilds bundles, so it
 * preserves every cached analysis.
 */
SchedStats scheduleFunction(Function &f, AnalysisManager &am,
                            const MachineConfig &mach);

} // namespace epic

#endif // EPIC_SCHED_LISTSCHED_H
