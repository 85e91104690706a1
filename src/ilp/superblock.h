/**
 * @file
 * Trace selection and superblock formation (paper §2.3, §3.2; Hwu et
 * al., "The superblock: an effective technique for VLIW and superscalar
 * compilation").
 *
 * Profile-guided traces are grown along dominant edges, side entrances
 * are removed by tail duplication (the paper's +21 % static-code cost),
 * and the resulting single-entry multiple-exit trace is merged into one
 * scheduling block whose side exits are the retained conditional
 * branches.
 */
#ifndef EPIC_ILP_SUPERBLOCK_H
#define EPIC_ILP_SUPERBLOCK_H

#include "ir/program.h"

namespace epic {

class AnalysisManager;

/** Superblock-formation tuning knobs. */
struct SuperblockOptions
{
    /// Minimum probability of the successor edge to extend a trace.
    double min_edge_prob = 0.60;
    /// Minimum execution weight for a block to seed or join a trace.
    double min_weight = 24.0;
    /// Maximum instructions in a merged superblock.
    int max_instrs = 220;
    /// Maximum instructions duplicated per side-entrance removal.
    int max_dup_instrs = 60;
    /// Permit tail duplication (off = only side-entrance-free traces).
    bool allow_tail_dup = true;
};

/** Formation statistics. */
struct SuperblockStats
{
    int traces = 0;         ///< merged superblocks
    int blocks_merged = 0;  ///< source blocks absorbed into traces
    int tail_dup_instrs = 0;///< instructions created by tail duplication
    int branches_removed = 0; ///< unconditional transfers eliminated

    SuperblockStats &
    operator+=(const SuperblockStats &o)
    {
        traces += o.traces;
        blocks_merged += o.blocks_merged;
        tail_dup_instrs += o.tail_dup_instrs;
        branches_removed += o.branches_removed;
        return *this;
    }
};

/**
 * Form superblocks in one function, with CFG/loop queries served by the
 * manager: rounds that end with an empty prune hand the next round a
 * warm cache, and the side-entrance scan reuses the cached CFG between
 * tail duplications.
 */
SuperblockStats formSuperblocks(Function &f, AnalysisManager &am,
                                const SuperblockOptions &opts = {});

} // namespace epic

#endif // EPIC_ILP_SUPERBLOCK_H
