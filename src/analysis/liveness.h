/**
 * @file
 * Predicate-aware backward liveness analysis.
 *
 * A guarded definition may not execute, so it does not kill its
 * destination (the classic conservative treatment for predicated code,
 * cf. predicate-aware dataflow in the paper's references [27][28]).
 * Liveness drives dead-code elimination and register allocation.
 */
#ifndef EPIC_ANALYSIS_LIVENESS_H
#define EPIC_ANALYSIS_LIVENESS_H

#include <unordered_set>
#include <vector>

#include "analysis/cfg.h"

namespace epic {

using RegSet = std::unordered_set<Reg>;

/**
 * Per-instruction uses: all register sources plus the guard. And/or-type
 * parallel compares conditionally *merge* into their destinations (they
 * write only when the condition fires), so their destinations count as
 * uses as well.
 */
void instrUses(const Instruction &inst, std::vector<Reg> &out);
/** Per-instruction defs: the destinations. */
void instrDefs(const Instruction &inst, std::vector<Reg> &out);

/**
 * True when the instruction's destinations are written on every
 * execution of the instruction: an always-true guard (or an unc-type
 * compare, which clears its destinations even when squashed), and not
 * an and/or-type compare (which writes only when its condition fires).
 * Only such defs kill a live range.
 */
bool defsAreUnconditional(const Instruction &inst);

/** Block-level live-in/live-out sets. */
class Liveness
{
  public:
    explicit Liveness(const Cfg &cfg);

    const RegSet &liveIn(int bid) const { return live_in_[bid]; }
    const RegSet &liveOut(int bid) const { return live_out_[bid]; }

  private:
    std::vector<RegSet> live_in_;
    std::vector<RegSet> live_out_;
};

} // namespace epic

#endif // EPIC_ANALYSIS_LIVENESS_H
