/**
 * @file
 * Dominator tree (Cooper-Harvey-Kennedy iterative algorithm) over a Cfg.
 *
 * Like the Cfg, the tables are flat arena arrays (the manager's arena
 * or a private one) and the object itself is a relocatable POD bundle
 * (DESIGN.md §16).
 */
#ifndef EPIC_ANALYSIS_DOM_H
#define EPIC_ANALYSIS_DOM_H

#include <cstdint>
#include <memory>

#include "analysis/cfg.h"
#include "support/arena.h"

namespace epic {

/** Dominator information for a function. */
class DomTree
{
  public:
    /** Standalone construction: arrays live in a private arena. */
    explicit DomTree(const Cfg &cfg) : DomTree(cfg, nullptr) {}

    /** Manager construction: arrays live in `arena` (null: private). */
    DomTree(const Cfg &cfg, Arena *arena);

    /// Not copyable: a member-wise copy would share the arena arrays.
    DomTree(const DomTree &) = delete;
    DomTree &operator=(const DomTree &) = delete;
    DomTree(DomTree &&) noexcept = default;
    DomTree &operator=(DomTree &&) noexcept = default;

    /** Immediate dominator of a block (-1 for entry / unreachable). */
    int
    idom(int bid) const
    {
        return bid >= 0 && bid < n_ ? idom_[bid] : -1;
    }

    /** True if a dominates b (reflexive). */
    bool dominates(int a, int b) const;

  private:
    std::unique_ptr<Arena> own_; ///< null when borrowing the manager's
    int32_t n_ = 0;
    int32_t *idom_ = nullptr;
    int32_t *rpo_index_ = nullptr;
};

} // namespace epic

#endif // EPIC_ANALYSIS_DOM_H
