/**
 * @file
 * Memory disambiguation ("pointer analysis") layer.
 *
 * The real IMPACT compiler runs a modular interprocedural points-to
 * analysis (Cheng & Hwu, PLDI'00) plus the Omega test. We reproduce the
 * *effect* of that machinery on scheduling/optimization through symbol
 * and alias-group hints placed on memory operations by the program
 * builder, resolved at three fidelity levels:
 *
 *  - None:  every pair of memory accesses conflicts, and every call
 *           conflicts with every access (GCC-like behaviour: "no
 *           interprocedural pointer analysis").
 *  - Intra: hints disambiguate access pairs inside a function, but all
 *           calls remain barriers.
 *  - Inter: additionally computes transitive mod/ref symbol sets per
 *           function, so calls only conflict with accesses whose symbols
 *           they may touch (IMPACT-like behaviour).
 *
 * Functions carrying kFuncNoPointerAnalysis are analyzed as if all their
 * accesses were hint-less, reproducing the paper's disabled analysis for
 * eon and perlbmk.
 */
#ifndef EPIC_ANALYSIS_ALIAS_H
#define EPIC_ANALYSIS_ALIAS_H

#include <memory>
#include <set>
#include <vector>

#include "ir/program.h"

namespace epic {

/** Disambiguation fidelity. */
enum class AliasLevel { None, Intra, Inter };

/** Whole-program alias information. */
class AliasAnalysis
{
  public:
    AliasAnalysis(const Program &prog, AliasLevel level);

    /**
     * May two memory operations of the same function touch overlapping
     * locations? Both must be loads/stores.
     */
    bool mayAlias(const Function &f, const Instruction &a,
                  const Instruction &b) const;

    /** May a call conflict with a memory access in the caller? */
    bool callMayTouch(const Instruction &call,
                      const Instruction &mem) const;

  private:
    struct ModRef
    {
        bool touches_all = true;
        std::set<int32_t> syms;
    };

    bool hintsUsable(const Function &f) const;

    AliasLevel level_;
    std::vector<ModRef> modref_; ///< per function id
};

} // namespace epic

#endif // EPIC_ANALYSIS_ALIAS_H
