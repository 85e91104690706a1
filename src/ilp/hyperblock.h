/**
 * @file
 * Hyperblock formation by if-conversion (paper §2.3, §3.2; Mahlke et
 * al., "Effective compiler support for predicated execution using the
 * hyperblock").
 *
 * Converts triangle and diamond control-flow patterns into straight-line
 * predicated code, iterating so that nested patterns convert inside-out.
 * Instructions that were already guarded receive a combined guard
 * computed with the IA-64 unc/and compare idiom. The `conservative`
 * mode reproduces the production-compiler behaviour the paper contrasts
 * with in §3.5 (no code-replicating enablers, strict inclusion ratios).
 */
#ifndef EPIC_ILP_HYPERBLOCK_H
#define EPIC_ILP_HYPERBLOCK_H

#include "ir/program.h"

namespace epic {

class AnalysisManager;

/** If-conversion tuning. */
struct HyperblockOptions
{
    /// Include a path only if its execution ratio is at least this.
    double min_path_ratio = 0.02;
    /// Largest side block (instructions) that may be predicated in.
    int max_side_instrs = 28;
    /// Largest resulting hyperblock.
    int max_instrs = 240;
    /// Conservative (production-style, §3.5) inclusion heuristics.
    bool conservative = false;
};

/** Formation statistics. */
struct HyperblockStats
{
    int regions = 0;            ///< patterns converted
    int branches_removed = 0;   ///< conditional branches eliminated
    int instrs_predicated = 0;  ///< instructions that gained a guard

    HyperblockStats &
    operator+=(const HyperblockStats &o)
    {
        regions += o.regions;
        branches_removed += o.branches_removed;
        instrs_predicated += o.instrs_predicated;
        return *this;
    }
};

/**
 * If-convert one function to a fixpoint, with CFG/loop-forest queries
 * served by the manager: the final (fixpoint-confirming) round and a
 * clean prune run entirely from cache.
 */
HyperblockStats formHyperblocks(Function &f, AnalysisManager &am,
                                const HyperblockOptions &opts = {});

} // namespace epic

#endif // EPIC_ILP_HYPERBLOCK_H
