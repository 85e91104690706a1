#include "ilp/peel.h"

#include <algorithm>

#include "analysis/cfg.h"
#include "analysis/dom.h"
#include "analysis/loops.h"
#include "support/logging.h"

namespace epic {

namespace {

/** Total profile weight of branches in `b` that target `b` itself. */
double
backedgeWeight(const BasicBlock &b)
{
    double w = 0;
    for (const Instruction &inst : b.instrs)
        if (inst.op == Opcode::BR && inst.target == b.id)
            w += inst.prof_taken;
    return w;
}

bool
isSelfLoop(const BasicBlock &b)
{
    for (const Instruction &inst : b.instrs)
        if (inst.op == Opcode::BR && inst.target == b.id)
            return true;
    return false;
}

/** Redirect all control-flow edges into `from` (except from the blocks
 *  listed in `skip`) to `to`. */
void
redirectPreds(Function &f, int from, int to,
              std::initializer_list<int> skip)
{
    for (auto &bp : f.blocks) {
        if (!bp)
            continue;
        bool skipped = false;
        for (int s : skip)
            if (bp->id == s)
                skipped = true;
        if (skipped)
            continue;
        for (Instruction &inst : bp->instrs)
            if (inst.isBranch() && inst.target == from)
                inst.target = to;
        if (bp->fallthrough == from)
            bp->fallthrough = to;
    }
    if (f.entry == from)
        f.entry = to;
}

} // namespace

PeelStats
peelLoops(Function &f, const PeelOptions &opts)
{
    PeelStats stats;

    // Snapshot candidate ids first; the transforms add blocks.
    std::vector<int> candidates;
    for (const auto &bp : f.blocks)
        if (bp && isSelfLoop(*bp))
            candidates.push_back(bp->id);

    for (int lid : candidates) {
        BasicBlock *loop = f.block(lid);
        if (!loop)
            continue;
        double back = backedgeWeight(*loop);
        double entries = loop->weight - back;
        if (loop->weight < opts.min_weight || entries <= 0.5)
            continue;
        double avg_trip = loop->weight / entries;
        int body = static_cast<int>(loop->instrs.size());

        if (avg_trip <= opts.max_avg_trip &&
            body <= opts.max_body_instrs) {
            // ---- Peel one iteration ----
            BasicBlock *peel = f.newBlock();
            peel->instrs = loop->instrs;
            for (Instruction &inst : peel->instrs)
                inst.attr |= kAttrPeelCopy;
            peel->fallthrough = loop->fallthrough;
            peel->weight = entries;

            // Profile split: the peel takes the first iteration; its
            // backedge fires when a second iteration is needed.
            double p_more = std::clamp(back / entries, 0.0, 1.0);
            for (Instruction &inst : peel->instrs) {
                if (inst.op == Opcode::BR && inst.target == lid)
                    inst.prof_taken = entries * p_more;
                else
                    inst.prof_taken =
                        std::min(inst.prof_taken, entries);
            }
            double rem_weight = std::max(0.0, back);
            loop->weight = rem_weight;
            for (Instruction &inst : loop->instrs) {
                inst.attr |= kAttrRemainder;
                if (inst.op == Opcode::BR && inst.target == lid) {
                    inst.prof_taken = std::max(
                        0.0, back - entries * p_more);
                } else {
                    inst.prof_taken =
                        std::min(inst.prof_taken, rem_weight);
                }
            }

            redirectPreds(f, lid, peel->id, {lid, peel->id});
            ++stats.peeled;
            stats.peel_instrs += body;
            continue;
        }

        if (opts.enable_unroll && avg_trip >= opts.unroll_min_trip &&
            body <= opts.unroll_max_body_instrs &&
            !loop->instrs.empty()) {
            // ---- Unroll by the configured factor ----
            // Requires the backedge to be the trailing instruction.
            Instruction &last = loop->instrs.back();
            if (!(last.op == Opcode::BR && last.target == lid &&
                  last.hasGuard())) {
                continue;
            }
            int prev = lid;
            int copies = opts.unroll_factor - 1;
            for (int c = 0; c < copies; ++c) {
                BasicBlock *u = f.newBlock();
                u->instrs = loop->instrs;
                for (Instruction &inst : u->instrs) {
                    inst.attr |= kAttrUnrolled;
                    inst.prof_taken /= opts.unroll_factor;
                    if (inst.op == Opcode::BR && inst.target == lid &&
                        c + 1 < copies) {
                        // middle copies chain forward (retargeted below)
                    }
                }
                u->fallthrough = loop->fallthrough;
                u->weight = loop->weight / opts.unroll_factor;
                // Chain: previous copy's backedge targets this copy.
                BasicBlock *pb = f.block(prev);
                for (Instruction &inst : pb->instrs)
                    if (inst.op == Opcode::BR && inst.target == lid &&
                        &inst == &pb->instrs.back())
                        inst.target = u->id;
                // This copy's backedge closes the loop.
                for (Instruction &inst : u->instrs)
                    if (inst.op == Opcode::BR && inst.target == lid &&
                        &inst == &u->instrs.back())
                        inst.target = lid;
                prev = u->id;
                stats.unroll_instrs += body;
            }
            loop->weight /= opts.unroll_factor;
            for (Instruction &inst : loop->instrs)
                inst.prof_taken /= opts.unroll_factor;
            ++stats.unrolled;
        }
    }
    return stats;
}

} // namespace epic
