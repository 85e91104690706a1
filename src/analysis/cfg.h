/**
 * @file
 * Control-flow graph view of a function.
 *
 * The CFG is computed on demand from the block structure (branch targets
 * plus fall-through edges) and carries profile-derived edge weights: a
 * block's side-exit branches carry their recorded taken counts, and the
 * fall-through edge receives the residue of the block weight. Because a
 * taken side exit skips the rest of the block, the residue is computed
 * sequentially.
 *
 * Storage (DESIGN.md §16): all tables are flat CSR arrays in an arena —
 * either the AnalysisManager's (so repeated rebuilds within one
 * compilation attempt reuse the same chunks) or a private one for
 * standalone construction. Accessors hand out trivially copyable
 * Span views; the Cfg object itself is a relocatable bundle of raw
 * pointers, so moving it never invalidates outstanding spans. Copying
 * deep-copies into a fresh private arena, preserving the value
 * semantics passes rely on when they snapshot a Cfg across mutations.
 */
#ifndef EPIC_ANALYSIS_CFG_H
#define EPIC_ANALYSIS_CFG_H

#include <cstdint>
#include <memory>

#include "ir/function.h"
#include "support/arena.h"

namespace epic {

/** One CFG edge. */
struct CfgEdge
{
    int from = -1;
    int to = -1;
    double weight = 0.0;
    bool is_fallthrough = false;
    int branch_idx = -1; ///< instruction index of the branch (-1 for FT)
};

/** Immutable CFG snapshot of a function. */
class Cfg
{
  public:
    /** Standalone construction: tables live in a private arena. */
    explicit Cfg(const Function &f) : Cfg(f, nullptr) {}

    /**
     * Manager construction: tables live in `arena` (rolled back by the
     * AnalysisManager once every arena-resident analysis is dropped).
     * Passing null falls back to a private arena.
     */
    Cfg(const Function &f, Arena *arena);

    /** Deep copy into a fresh private arena (snapshot semantics). */
    Cfg(const Cfg &o) : Cfg(*o.f_) {}
    Cfg &
    operator=(const Cfg &o)
    {
        if (this != &o) {
            Cfg tmp(o);
            *this = std::move(tmp);
        }
        return *this;
    }

    Cfg(Cfg &&) noexcept = default;
    Cfg &operator=(Cfg &&) noexcept = default;

    const Function &function() const { return *f_; }

    /** Successor block ids, deduped, in first-encounter order. */
    Span<const int32_t>
    succs(int bid) const
    {
        return {succ_dat_ + succ_off_[bid],
                static_cast<uint32_t>(succ_off_[bid + 1] -
                                      succ_off_[bid])};
    }
    /** Predecessor block ids in ascending order. */
    Span<const int32_t>
    preds(int bid) const
    {
        return {pred_dat_ + pred_off_[bid],
                static_cast<uint32_t>(pred_off_[bid + 1] -
                                      pred_off_[bid])};
    }
    /** Out-edges in program order (side exits first, then fallthrough). */
    Span<const CfgEdge>
    outEdges(int bid) const
    {
        return {edge_dat_ + edge_off_[bid],
                static_cast<uint32_t>(edge_off_[bid + 1] -
                                      edge_off_[bid])};
    }

    /** Reverse post-order over reachable blocks (entry first). */
    Span<const int32_t> rpo() const { return {rpo_, rpo_len_}; }

    /** True if the block id is live and reachable from entry. */
    bool
    reachable(int bid) const
    {
        return bid >= 0 && bid < n_ && reach_[bid];
    }

    int maxBlockId() const { return n_; }

  private:
    const Function *f_;
    std::unique_ptr<Arena> own_; ///< null when borrowing the manager's

    int32_t n_ = 0;
    int32_t *succ_off_ = nullptr; ///< n_+1 CSR offsets into succ_dat_
    int32_t *succ_dat_ = nullptr;
    int32_t *pred_off_ = nullptr;
    int32_t *pred_dat_ = nullptr;
    int32_t *edge_off_ = nullptr;
    CfgEdge *edge_dat_ = nullptr;
    int32_t *rpo_ = nullptr;
    uint32_t rpo_len_ = 0;
    uint8_t *reach_ = nullptr;
};

} // namespace epic

#endif // EPIC_ANALYSIS_CFG_H
