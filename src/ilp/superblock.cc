#include "ilp/superblock.h"

#include <algorithm>

#include "analysis/manager.h"
#include "support/logging.h"

namespace epic {

namespace {

/** Is `bid` the header of any natural loop? */
bool
isLoopHeader(const LoopForest &forest, int bid)
{
    for (const Loop &l : forest.loops())
        if (l.header == bid)
            return true;
    return false;
}

/**
 * Make the edge cur->succ a fall-through (or trailing unconditional
 * branch) edge so the trace can be linearized. Returns false when the
 * edge cannot be restructured. `*flipped` is set when the block was
 * actually mutated (branch-flip path) — the no-op paths leave it alone.
 */
bool
linearizeEdge(BasicBlock &cur, int succ, bool *flipped)
{
    if (cur.fallthrough == succ)
        return true;
    if (cur.instrs.empty())
        return false;
    Instruction &last = cur.instrs.back();
    if (last.op == Opcode::BR && last.target == succ && !last.hasGuard())
        return true; // trailing unconditional branch: removable at merge

    // Taken edge of a trailing conditional branch: flip it using the
    // complement predicate from the defining compare.
    if (last.op == Opcode::BR && last.target == succ && last.hasGuard() &&
        cur.fallthrough >= 0) {
        // Find the compare that defines the guard, unguarded and with
        // both destinations intact afterwards.
        int cmp_idx = -1;
        for (int i = static_cast<int>(cur.instrs.size()) - 2; i >= 0;
             --i) {
            const Instruction &inst = cur.instrs[i];
            bool defines_guard = false;
            for (const Reg &d : inst.dests)
                if (d == last.guard)
                    defines_guard = true;
            if (defines_guard) {
                if ((inst.op == Opcode::CMP || inst.op == Opcode::CMPI) &&
                    inst.ctype == CmpType::Norm && !inst.hasGuard() &&
                    inst.dests.size() == 2) {
                    cmp_idx = i;
                }
                break;
            }
        }
        if (cmp_idx < 0)
            return false;
        const Instruction &cmp = cur.instrs[cmp_idx];
        Reg comp = cmp.dests[0] == last.guard ? cmp.dests[1]
                                              : cmp.dests[0];
        // The complement must not be redefined between cmp and branch.
        for (size_t i = cmp_idx + 1; i + 1 < cur.instrs.size(); ++i)
            for (const Reg &d : cur.instrs[i].dests)
                if (d == comp || d == last.guard)
                    return false;
        double total = cur.weight;
        last.guard = comp;
        last.target = cur.fallthrough;
        last.prof_taken = std::max(0.0, total - last.prof_taken);
        cur.fallthrough = succ;
        *flipped = true;
        return true;
    }
    return false;
}

/**
 * Duplicate trace suffix [from..end) as off-trace copies and redirect
 * every predecessor of trace[from] other than trace[from-1] to the copy.
 * `cfg` must reflect the current IR (the caller's side-entrance scan
 * already needed it). Returns instructions duplicated, or -1 when
 * duplication was refused.
 */
int
tailDuplicate(Function &f, const Cfg &cfg, std::vector<int> &trace,
              size_t from, const SuperblockOptions &opts)
{
    int dup_cost = 0;
    for (size_t i = from; i < trace.size(); ++i)
        dup_cost += static_cast<int>(f.block(trace[i])->instrs.size());
    if (dup_cost > opts.max_dup_instrs)
        return -1;

    // Fraction of trace[from]'s weight arriving via side entrances.
    // (Read before any mutation; the copies created below are empty and
    // edge-free, so the pre-copy CFG gives the same answer the old
    // mid-duplication rebuild did.)
    BasicBlock *head = f.block(trace[from]);
    double internal_w = 0.0;
    for (const CfgEdge &e : cfg.outEdges(trace[from - 1]))
        if (e.to == trace[from])
            internal_w += e.weight;
    double ratio =
        head->weight > 0
            ? std::clamp(1.0 - internal_w / head->weight, 0.0, 1.0)
            : 0.0;

    // Create copies.
    std::vector<int> copy_of(trace.size(), -1);
    for (size_t i = from; i < trace.size(); ++i) {
        BasicBlock *copy = f.newBlock();
        copy_of[i] = copy->id;
    }
    auto remap_target = [&](int tgt) {
        for (size_t i = from; i < trace.size(); ++i)
            if (trace[i] == tgt)
                return copy_of[i];
        return tgt;
    };

    for (size_t i = from; i < trace.size(); ++i) {
        const BasicBlock *orig = f.block(trace[i]);
        BasicBlock *copy = f.block(copy_of[i]);
        copy->instrs = orig->instrs;
        for (Instruction &inst : copy->instrs) {
            inst.attr |= kAttrTailDup;
            if (inst.target >= 0)
                inst.target = remap_target(inst.target);
            inst.prof_taken *= ratio;
        }
        copy->fallthrough = orig->fallthrough >= 0
                                ? remap_target(orig->fallthrough)
                                : -1;
        copy->weight = orig->weight * ratio;
    }
    // Scale the originals down.
    for (size_t i = from; i < trace.size(); ++i) {
        BasicBlock *orig = f.block(trace[i]);
        orig->weight *= (1.0 - ratio);
        for (Instruction &inst : orig->instrs)
            inst.prof_taken *= (1.0 - ratio);
    }

    // Redirect the external predecessors.
    for (auto &bp : f.blocks) {
        if (!bp || bp->id == trace[from - 1])
            continue;
        bool in_suffix = false;
        for (size_t i = from; i < trace.size(); ++i)
            if (bp->id == trace[i] || bp->id == copy_of[i])
                in_suffix = true;
        if (in_suffix)
            continue; // internal edges were remapped during the copy
        for (Instruction &inst : bp->instrs)
            if (inst.isBranch() && inst.target == trace[from])
                inst.target = copy_of[from];
        if (bp->fallthrough == trace[from])
            bp->fallthrough = copy_of[from];
    }
    return dup_cost;
}

} // namespace

SuperblockStats
formSuperblocks(Function &f, AnalysisManager &am,
                const SuperblockOptions &opts)
{
    SuperblockStats stats;

    // Trace growth deliberately works from round-start analyses even as
    // branch flips mutate the IR underneath (snapshot semantics,
    // unchanged from the pre-manager code) — hence the *value* copies
    // below. `dirty` records mutations since the cache last matched the
    // IR; freshen() settles the debt right before any manager query.
    bool dirty = false;
    auto freshen = [&] {
        if (dirty) {
            am.invalidateAll();
            dirty = false;
        }
    };

    bool formed_any = true;
    int rounds = 0;
    while (formed_any && rounds++ < 256) {
        formed_any = false;
        freshen();
        const Cfg cfg = am.cfg();
        const LoopForest forest = am.loopForest();

        // Seed order: heaviest blocks first.
        std::vector<int> seeds;
        for (int bid : cfg.rpo())
            if (f.block(bid)->weight >= opts.min_weight)
                seeds.push_back(bid);
        std::sort(seeds.begin(), seeds.end(), [&](int a, int b) {
            return f.block(a)->weight > f.block(b)->weight;
        });

        std::vector<bool> taken(f.blocks.size(), false);
        for (int seed : seeds) {
            if (taken[seed] || !f.block(seed))
                continue;

            // Grow the trace.
            std::vector<int> trace{seed};
            taken[seed] = true;
            int cur = seed;
            int trace_size =
                static_cast<int>(f.block(seed)->instrs.size());
            while (true) {
                const BasicBlock *cb = f.block(cur);
                // Best successor edge.
                const CfgEdge *best = nullptr;
                for (const CfgEdge &e : cfg.outEdges(cur))
                    if (!best || e.weight > best->weight)
                        best = &e;
                if (!best || best->weight <= 0)
                    break;
                int succ = best->to;
                if (cb->weight <= 0 ||
                    best->weight / cb->weight < opts.min_edge_prob)
                    break;
                BasicBlock *sb = f.block(succ);
                if (!sb || taken[succ] || sb->weight < opts.min_weight)
                    break;
                if (succ == f.entry)
                    break;
                if (isLoopHeader(forest, succ))
                    break;
                if (forest.innermostLoopOf(succ) !=
                    forest.innermostLoopOf(cur)) {
                    break;
                }
                int succ_size = static_cast<int>(sb->instrs.size());
                if (trace_size + succ_size > opts.max_instrs)
                    break;
                bool flipped = false;
                if (!linearizeEdge(*f.block(cur), succ, &flipped))
                    break;
                if (flipped)
                    dirty = true;
                // If any branch other than a trailing unconditional jump
                // still targets succ (superblocks can carry several
                // exits to one target), merging would dangle — stop.
                {
                    const BasicBlock *cb2 = f.block(cur);
                    int to_succ = 0;
                    bool trailing_uncond =
                        !cb2->instrs.empty() &&
                        cb2->instrs.back().op == Opcode::BR &&
                        !cb2->instrs.back().hasGuard() &&
                        cb2->instrs.back().target == succ;
                    for (const Instruction &inst : cb2->instrs)
                        if (inst.isBranch() && inst.target == succ)
                            ++to_succ;
                    if (to_succ > (trailing_uncond ? 1 : 0))
                        break;
                }
                trace.push_back(succ);
                taken[succ] = true;
                trace_size += succ_size;
                cur = succ;
            }
            if (trace.size() < 2)
                continue;

            // Remove side entrances by tail duplication. Each step needs
            // a CFG matching the current IR; when the previous step
            // didn't duplicate (and trace growth didn't flip a branch),
            // the manager serves the scan from cache instead of the
            // per-iteration rebuild this loop used to do.
            size_t limit = trace.size();
            for (size_t i = 1; i < limit; ++i) {
                freshen();
                const Cfg &fresh = am.cfg();
                bool side_entrance = false;
                for (int p : fresh.preds(trace[i]))
                    if (p != trace[i - 1])
                        side_entrance = true;
                if (!side_entrance)
                    continue;
                if (!opts.allow_tail_dup) {
                    limit = i;
                    break;
                }
                int cost = tailDuplicate(f, fresh, trace, i, opts);
                if (cost >= 0)
                    dirty = true;
                if (cost < 0) {
                    limit = i;
                    break;
                }
                stats.tail_dup_instrs += cost;
            }
            trace.resize(limit);
            if (trace.size() < 2)
                continue;

            // Merge the (now single-entry) trace into its head block.
            // Even an aborted merge may have dropped a trailing jump,
            // so the cache is conservatively considered stale from here.
            dirty = true;
            int merged_here = 0;
            BasicBlock *head = f.block(trace[0]);
            for (size_t i = 1; i < trace.size(); ++i) {
                BasicBlock *next = f.block(trace[i]);
                // Drop a trailing unconditional jump to `next`.
                if (!head->instrs.empty()) {
                    Instruction &last = head->instrs.back();
                    if (last.op == Opcode::BR && !last.hasGuard() &&
                        last.target == next->id) {
                        head->instrs.pop_back();
                        ++stats.branches_removed;
                    }
                }
                // A superblock may carry several exits to one target;
                // if any remaining branch still targets `next`, erasing
                // it would dangle — stop merging here.
                bool still_targeted = false;
                for (const Instruction &inst : head->instrs)
                    if (inst.isBranch() && inst.target == next->id)
                        still_targeted = true;
                if (still_targeted) {
                    // Restore the fall-through edge we were about to
                    // consume and keep `next` as a separate block.
                    head->fallthrough = next->id;
                    break;
                }
                for (Instruction &inst : next->instrs)
                    head->instrs.push_back(std::move(inst));
                head->fallthrough = next->fallthrough;
                f.eraseBlock(next->id);
                ++stats.blocks_merged;
                ++merged_here;
            }
            if (merged_here == 0)
                continue; // nothing to do for this trace; try others
            ++stats.traces;
            formed_any = true;

            // The CFG changed; restart with a fresh pass.
            break;
        }
        freshen();
        pruneUnreachableBlocks(f, am);
    }
    return stats;
}

} // namespace epic
