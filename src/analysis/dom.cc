#include "analysis/dom.h"

#include <algorithm>

namespace epic {

DomTree::DomTree(const Cfg &cfg, Arena *arena)
{
    if (!arena) {
        own_ = std::make_unique<Arena>(size_t{4} << 10);
        arena = own_.get();
    }
    Arena &a = *arena;

    const auto rpo = cfg.rpo();
    n_ = cfg.maxBlockId();
    idom_ = a.allocArray<int32_t>(n_);
    rpo_index_ = a.allocArray<int32_t>(n_);
    std::fill(idom_, idom_ + n_, -1);
    std::fill(rpo_index_, rpo_index_ + n_, -1);
    for (size_t i = 0; i < rpo.size(); ++i)
        rpo_index_[rpo[i]] = static_cast<int32_t>(i);

    if (rpo.empty())
        return;
    int entry = rpo[0];
    idom_[entry] = entry;

    auto intersect = [&](int a2, int b2) {
        while (a2 != b2) {
            while (rpo_index_[a2] > rpo_index_[b2])
                a2 = idom_[a2];
            while (rpo_index_[b2] > rpo_index_[a2])
                b2 = idom_[b2];
        }
        return a2;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t i = 1; i < rpo.size(); ++i) {
            int b = rpo[i];
            int new_idom = -1;
            for (int p : cfg.preds(b)) {
                if (!cfg.reachable(p) || idom_[p] < 0)
                    continue;
                new_idom = new_idom < 0 ? p : intersect(p, new_idom);
            }
            if (new_idom >= 0 && idom_[b] != new_idom) {
                idom_[b] = new_idom;
                changed = true;
            }
        }
    }
    // Normalize: entry's idom reported as -1.
    idom_[entry] = -1;
}

bool
DomTree::dominates(int a, int b) const
{
    if (a == b)
        return true;
    if (b < 0 || b >= n_)
        return false;
    int x = idom_[b];
    while (x >= 0) {
        if (x == a)
            return true;
        x = idom_[x];
    }
    return false;
}

} // namespace epic
