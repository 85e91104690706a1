/**
 * @file
 * Linear-scan register allocation with IA-64 register-stack semantics.
 *
 * Virtual Gr registers map onto the stacked partition (r32-r127);
 * predicates map onto p16-p63. A function's stacked-register demand is
 * recorded via an alloc instruction at entry and in
 * Function::stacked_regs — this is what the timing model's register
 * stack engine (RSE) charges for on deep call chains (paper §4.4).
 * When the stacked partition is exhausted, intervals spill to a
 * stack-frame slot addressed off gr12, using reserved temporaries
 * gr28-gr31 for fills.
 */
#ifndef EPIC_SCHED_REGALLOC_H
#define EPIC_SCHED_REGALLOC_H

#include "ir/program.h"

namespace epic {

class AnalysisManager;

/** Allocation results (per function). */
struct RegAllocStats
{
    int gr_used = 0;     ///< stacked general registers consumed
    int pr_used = 0;
    int spilled = 0;     ///< virtual registers spilled
    int fills = 0;       ///< fill (reload) instructions inserted
    int stores = 0;      ///< spill-store instructions inserted

    RegAllocStats &
    operator+=(const RegAllocStats &o)
    {
        gr_used = std::max(gr_used, o.gr_used);
        pr_used = std::max(pr_used, o.pr_used);
        spilled += o.spilled;
        fills += o.fills;
        stores += o.stores;
        return *this;
    }
};

/** Allocate one function (idempotent: skips if already allocated),
 *  reading CFG/liveness through the manager. */
RegAllocStats allocateRegisters(Function &f, AnalysisManager &am);

} // namespace epic

#endif // EPIC_SCHED_REGALLOC_H
