/**
 * @file
 * Data speculation (the ILP-CS-DS rung): ld.a/chk.a splitting.
 *
 * IA-64 data speculation advances a load above a may-aliasing store as
 * ld.a; the ALAT watches the loaded address, and a chk.a at the original
 * site re-executes the access if any intervening store overlapped it.
 * chk.a's architected semantics here are an idempotent reload of the
 * same address into the same destination, so the ALAT affects timing
 * and statistics only, never architected state (DESIGN.md §19).
 */
#include "analysis/alias.h"
#include "analysis/manager.h"
#include "ilp/speculate.h"

namespace epic {

SpecStats
dataSpeculateFunction(Function &f, AnalysisManager &am,
                      const SpecOptions &opts)
{
    SpecStats stats;
    const Cfg &cfg = am.cfg();
    const AliasAnalysis &aa = am.alias();

    for (auto &bp : f.blocks) {
        if (!bp || !cfg.reachable(bp->id))
            continue;
        BasicBlock &b = *bp;
        int budget = opts.max_advanced_per_block;
        for (int i = 0; i < static_cast<int>(b.instrs.size()) && budget > 0;
             ++i) {
            const Instruction &inst = b.instrs[i];
            // Unguarded integer loads, plain or control-speculated: a
            // ld.s the speculate model already hoisted above a branch
            // may advance across stores too (the combined ld.sa of the
            // ILP-CS-DS rung) — the spec flag travels to both halves,
            // so deferral semantics are unchanged. A guarded load may
            // not execute at all on some predicate outcomes, so it
            // stays put.
            if (inst.op != Opcode::LD || inst.hasGuard())
                continue;
            if ((inst.attr & kAttrAdvanced) || inst.dests.size() != 1)
                continue;

            // Worth advancing only when an earlier store in this block
            // may alias: that store -> load DAG edge is the dependence
            // ld.a exists to break. The conversion itself moves nothing
            // — the scheduler hoists the ld.a once the edge is gone, so
            // the load's address chain never constrains the transform.
            bool pinned = false;
            for (int j = i - 1; j >= 0 && !pinned; --j) {
                const Instruction &other = b.instrs[j];
                if (other.isStore() && aa.mayAlias(f, inst, other))
                    pinned = true;
            }
            if (!pinned)
                continue;

            // Split in place: ld.a keeps the load's slot, chk.a follows
            // immediately. Same destination / address / size, so the
            // check is an idempotent reload; consumers below RAW-order
            // against the chk.a (the nearest def), which stays fenced
            // behind may-aliasing stores, while the ld.a floats free.
            Instruction chk = inst;
            chk.op = Opcode::CHK_A;
            chk.attr |= kAttrAdvanced;
            b.instrs[i].op = Opcode::LD_A;
            b.instrs[i].attr |= kAttrAdvanced;
            b.instrs.insert(b.instrs.begin() + i + 1, chk);
            ++i; // resume past the inserted chk.a
            ++stats.advanced;
            ++stats.checks;
            --budget;
        }
    }
    return stats;
}

} // namespace epic
