/**
 * @file
 * Classical (non-ILP) scalar optimizations, the paper's "classical
 * optimization" phase (Fig. 4): local constant/copy propagation with
 * folding, local common-subexpression elimination (including redundant
 * loads, memory-dependence checked), global dead-code elimination,
 * loop-invariant code motion, branch simplification, and peephole
 * strength reduction. These run in every configuration, including the
 * GCC-like baseline.
 */
#ifndef EPIC_OPT_CLASSICAL_H
#define EPIC_OPT_CLASSICAL_H

#include "analysis/alias.h"
#include "ir/program.h"

namespace epic {

class AnalysisManager;

/** Counts of changes made, for diagnostics and tests. */
struct OptStats
{
    int folded = 0;       ///< constant-folded instructions
    int propagated = 0;   ///< operands rewritten by copy/const prop
    int cse_removed = 0;  ///< redundant computations removed
    int dce_removed = 0;  ///< dead instructions removed
    int licm_moved = 0;   ///< instructions hoisted out of loops
    int peephole = 0;     ///< strength reductions / simplifications
    int branches_folded = 0;

    OptStats &
    operator+=(const OptStats &o)
    {
        folded += o.folded;
        propagated += o.propagated;
        cse_removed += o.cse_removed;
        dce_removed += o.dce_removed;
        licm_moved += o.licm_moved;
        peephole += o.peephole;
        branches_folded += o.branches_folded;
        return *this;
    }

    int
    total() const
    {
        return folded + propagated + cse_removed + dce_removed +
               licm_moved + peephole + branches_folded;
    }
};

/**
 * What localValueProp actually did to the IR, for invalidation gating.
 * Canonicalizations (ADD->ADDI, CMP->CMPI, MOV->MOVI) rewrite
 * instructions without bumping any OptStats counter, so the counters
 * alone cannot tell "clean round" from "mutated round".
 */
struct LocalPropEffect
{
    /// Any instruction rewritten, added or removed.
    bool mutated = false;
    /// The instruction *stream* changed shape (instructions added or
    /// removed, a control transfer touched, or a fallthrough cleared) —
    /// Cfg edge structure / branch indices may differ. When `mutated`
    /// is set but this is not, every change was an in-place rewrite of
    /// a non-transfer instruction and the block graph is intact.
    bool shape_changed = false;
};

/** Local constant/copy propagation, folding, branch simplification. */
OptStats localValueProp(Function &f, LocalPropEffect *effect = nullptr);

/** Local CSE including redundant-load elimination. */
OptStats localCse(Function &f, const AliasAnalysis &aa);

/** Global DCE (liveness based; predication aware), querying
 *  CFG/liveness through the manager. */
OptStats deadCodeElim(Function &f, AnalysisManager &am);

/** Loop-invariant code motion (creates preheaders as needed), querying
 *  the loop forest (and alias info) via the manager. */
OptStats licm(Function &f, AnalysisManager &am);

/** Strength reduction and algebraic simplification. */
OptStats peephole(Function &f);

/**
 * Run the full classical pipeline to a (bounded) fixpoint on one
 * function (the unit the compilation firewall retries on fallback),
 * with analyses cached across rounds via the manager.
 */
OptStats classicalOptimizeFunction(Function &f, AnalysisManager &am,
                                   int max_iters = 4);

} // namespace epic

#endif // EPIC_OPT_CLASSICAL_H
