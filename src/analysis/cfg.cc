#include "analysis/cfg.h"

#include <algorithm>

#include "support/logging.h"

namespace epic {

Cfg::Cfg(const Function &f, Arena *arena) : f_(&f)
{
    if (!arena) {
        // Standalone: size the first chunk for a mid-sized function so
        // typical CFGs allocate exactly one chunk.
        own_ = std::make_unique<Arena>(size_t{16} << 10);
        arena = own_.get();
    }
    Arena &a = *arena;

    n_ = static_cast<int32_t>(f.blocks.size());
    const int n = n_;
    succ_off_ = a.allocArray<int32_t>(n + 1);
    pred_off_ = a.allocArray<int32_t>(n + 1);
    edge_off_ = a.allocArray<int32_t>(n + 1);
    reach_ = a.allocArray<uint8_t>(n);
    std::fill(reach_, reach_ + n, uint8_t{0});

    // Accumulate edges and deduped successors per block, in block
    // order, so each block's slice is contiguous (CSR).
    ArenaVec<CfgEdge> edges(&a);
    ArenaVec<int32_t> succs(&a);
    edges.reserve(static_cast<uint32_t>(2 * n + 4));
    succs.reserve(static_cast<uint32_t>(2 * n + 4));

    for (int bid = 0; bid < n; ++bid) {
        edge_off_[bid] = static_cast<int32_t>(edges.size());
        succ_off_[bid] = static_cast<int32_t>(succs.size());
        const BasicBlock *b = f.block(bid);
        if (!b)
            continue;

        // Walk instructions; accumulate side-exit weights so the
        // fall-through residue is correct.
        double remaining = b->weight;
        bool ended = false;
        for (size_t i = 0; i < b->instrs.size(); ++i) {
            const Instruction &inst = b->instrs[i];
            bool is_transfer = (inst.op == Opcode::BR ||
                                inst.op == Opcode::CHK_S) &&
                               inst.target >= 0;
            if (!is_transfer)
                continue;
            CfgEdge e;
            e.from = bid;
            e.to = inst.target;
            e.branch_idx = static_cast<int>(i);
            e.weight = std::min(inst.prof_taken, remaining);
            remaining -= e.weight;
            edges.push_back(e);
            if (inst.op == Opcode::BR && !inst.hasGuard()) {
                ended = true;
                break; // unconditional: nothing after executes
            }
        }
        if (!ended && b->fallthrough >= 0) {
            CfgEdge e;
            e.from = bid;
            e.to = b->fallthrough;
            e.is_fallthrough = true;
            e.weight = std::max(remaining, 0.0);
            edges.push_back(e);
        }

        for (uint32_t k = edge_off_[bid]; k < edges.size(); ++k) {
            const int32_t to = edges[k].to;
            bool dup = false;
            for (uint32_t s = succ_off_[bid]; s < succs.size(); ++s)
                if (succs[s] == to) {
                    dup = true;
                    break;
                }
            if (!dup)
                succs.push_back(to);
        }
    }
    edge_off_[n] = static_cast<int32_t>(edges.size());
    succ_off_[n] = static_cast<int32_t>(succs.size());
    edge_dat_ = edges.data();
    succ_dat_ = succs.data();

    // Predecessors: degree count, prefix sums, then fill (this yields
    // ascending pred order per block, matching the historical build).
    pred_dat_ = a.allocArray<int32_t>(succs.size());
    std::fill(pred_off_, pred_off_ + n + 1, 0);
    for (uint32_t k = 0; k < succs.size(); ++k) {
        const int32_t s = succs[k];
        if (s >= 0 && s < n)
            ++pred_off_[s + 1];
    }
    for (int bid = 0; bid < n; ++bid)
        pred_off_[bid + 1] += pred_off_[bid];
    int32_t *cursor = a.allocArray<int32_t>(n);
    std::copy(pred_off_, pred_off_ + n, cursor);
    for (int bid = 0; bid < n; ++bid)
        for (int32_t s : this->succs(bid))
            if (s >= 0 && s < n)
                pred_dat_[cursor[s]++] = bid;

    // Reverse post-order via iterative DFS (arena scratch).
    struct DfsFrame
    {
        int32_t bid;
        int32_t idx;
    };
    int32_t *post = a.allocArray<int32_t>(n);
    int post_len = 0;
    uint8_t *state = a.allocArray<uint8_t>(n); // 0 unvisited 1 open 2 done
    std::fill(state, state + n, uint8_t{0});
    DfsFrame *stack = a.allocArray<DfsFrame>(n);
    int depth = 0;
    if (f.block(f.entry)) {
        stack[depth++] = {f.entry, 0};
        state[f.entry] = 1;
        reach_[f.entry] = 1;
        while (depth > 0) {
            DfsFrame &fr = stack[depth - 1];
            auto ss = this->succs(fr.bid);
            if (fr.idx < static_cast<int32_t>(ss.size())) {
                int32_t s = ss[fr.idx++];
                if (s >= 0 && s < n && f.block(s) && state[s] == 0) {
                    state[s] = 1;
                    reach_[s] = 1;
                    stack[depth++] = {s, 0};
                }
            } else {
                state[fr.bid] = 2;
                post[post_len++] = fr.bid;
                --depth;
            }
        }
    }
    rpo_ = a.allocArray<int32_t>(post_len);
    rpo_len_ = static_cast<uint32_t>(post_len);
    for (int i = 0; i < post_len; ++i)
        rpo_[i] = post[post_len - 1 - i];
}

} // namespace epic
