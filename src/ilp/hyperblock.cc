#include "ilp/hyperblock.h"

#include <algorithm>
#include <map>
#include <optional>

#include "analysis/manager.h"
#include "support/logging.h"

namespace epic {

namespace {

bool
isHeader(const LoopForest &forest, int bid)
{
    for (const Loop &l : forest.loops())
        if (l.header == bid)
            return true;
    return false;
}

CmpCond
negateCond(CmpCond c)
{
    switch (c) {
      case CmpCond::EQ: return CmpCond::NE;
      case CmpCond::NE: return CmpCond::EQ;
      case CmpCond::LT: return CmpCond::GE;
      case CmpCond::GE: return CmpCond::LT;
      case CmpCond::LE: return CmpCond::GT;
      case CmpCond::GT: return CmpCond::LE;
      case CmpCond::LTU: return CmpCond::GEU;
      case CmpCond::GEU: return CmpCond::LTU;
    }
    return c;
}

/** The compare in `b` that defines the guard of the trailing branch,
 *  with both predicate destinations and sources intact through the end
 *  of the block. */
struct RegionCmp
{
    int idx;         ///< index of the compare in b
    Reg p_true;      ///< predicate the branch tests
    Reg p_false;     ///< its complement
    Instruction cmp; ///< copy of the compare
};

std::optional<RegionCmp>
findRegionCompare(const BasicBlock &b)
{
    if (b.instrs.empty())
        return std::nullopt;
    const Instruction &br = b.instrs.back();
    if (br.op != Opcode::BR || !br.hasGuard())
        return std::nullopt;
    for (int i = static_cast<int>(b.instrs.size()) - 2; i >= 0; --i) {
        const Instruction &inst = b.instrs[i];
        bool defines = false;
        for (const Reg &d : inst.dests)
            if (d == br.guard)
                defines = true;
        if (!defines)
            continue;
        if ((inst.op != Opcode::CMP && inst.op != Opcode::CMPI) ||
            inst.ctype != CmpType::Norm || inst.hasGuard() ||
            inst.dests.size() != 2) {
            return std::nullopt;
        }
        RegionCmp rc;
        rc.idx = i;
        rc.p_true = br.guard;
        rc.p_false =
            inst.dests[0] == br.guard ? inst.dests[1] : inst.dests[0];
        rc.cmp = inst;
        // Destinations and sources must survive to the end of the block.
        for (size_t j = i + 1; j + 1 < b.instrs.size(); ++j) {
            for (const Reg &d : b.instrs[j].dests) {
                if (d == rc.p_true || d == rc.p_false)
                    return std::nullopt;
                for (const Operand &o : inst.srcs)
                    if (o.isReg() && o.reg == d)
                        return std::nullopt;
            }
        }
        return rc;
    }
    return std::nullopt;
}

/** Can block X be absorbed under a predicate? */
bool
convertible(const BasicBlock &x, const HyperblockOptions &opts,
            const RegionCmp &rc)
{
    if (static_cast<int>(x.instrs.size()) > opts.max_side_instrs)
        return false;
    for (size_t i = 0; i < x.instrs.size(); ++i) {
        const Instruction &inst = x.instrs[i];
        if (inst.isCall() || inst.isRet() || inst.op == Opcode::ALLOC)
            return false;
        // A trailing unconditional branch is the removable terminator;
        // everything else that branches would need a combined guard and
        // retargeting — exclude for predictability.
        if (inst.isBranch() && i + 1 != x.instrs.size())
            return false;
        if (inst.hasGuard() && opts.conservative)
            return false;
        for (const Reg &d : inst.dests) {
            // The region predicates must not be redefined inside X.
            if (d == rc.p_true || d == rc.p_false)
                return false;
            // Nor the compare's sources: the guard-combination idiom
            // re-evaluates the region compare after X's instructions
            // (relevant for diamonds, where the second side follows the
            // first side's code).
            for (const Operand &o : rc.cmp.srcs)
                if (o.isReg() && o.reg == d)
                    return false;
        }
    }
    return true;
}

/**
 * Append X's instructions to `out`, guarded by `cond` (one of the
 * region compare's predicates). Already-guarded instructions get a
 * combined guard via the unc/and compare idiom.
 */
void
appendPredicated(Function &f, ArenaVec<Instruction> &out,
                 const BasicBlock &x, Reg cond, const RegionCmp &rc,
                 bool cond_is_true_side, HyperblockStats &stats)
{
    std::map<int32_t, Reg> combined; // original guard id -> combined pred
    for (size_t i = 0; i < x.instrs.size(); ++i) {
        Instruction inst = x.instrs[i];
        // Drop the terminator transfer (the caller rewires successors).
        if (inst.isBranch() && i + 1 == x.instrs.size())
            break;
        // A redefined predicate invalidates its cached combined guard.
        for (const Reg &d : inst.dests)
            if (d.cls == RegClass::Pr)
                combined.erase(d.id);
        if (!inst.hasGuard()) {
            inst.guard = cond;
        } else {
            auto it = combined.find(inst.guard.id);
            Reg pc;
            if (it != combined.end()) {
                pc = it->second;
            } else {
                // pc = old_guard (unc idiom), then pc &= region cond by
                // re-evaluating the region compare in and-type form.
                pc = f.makeReg(RegClass::Pr);
                Reg pdead = f.makeReg(RegClass::Pr);
                Instruction copy_g;
                copy_g.op = Opcode::CMP;
                copy_g.cond = CmpCond::EQ;
                copy_g.ctype = CmpType::Unc;
                copy_g.guard = inst.guard;
                copy_g.dests = {pc, pdead};
                copy_g.srcs = {Operand::makeReg(kGrZero),
                               Operand::makeReg(kGrZero)};
                out.push_back(copy_g);
                Instruction and_c = rc.cmp;
                and_c.ctype = CmpType::And;
                and_c.guard = kPrTrue;
                and_c.cond = cond_is_true_side ? rc.cmp.cond
                                               : negateCond(rc.cmp.cond);
                Reg pdead2 = f.makeReg(RegClass::Pr);
                and_c.dests = {pc, pdead2};
                and_c.prof_taken = 0;
                out.push_back(and_c);
                combined[inst.guard.id] = pc;
            }
            inst.guard = pc;
        }
        ++stats.instrs_predicated;
        out.push_back(std::move(inst));
    }
}

} // namespace

HyperblockStats
formHyperblocks(Function &f, AnalysisManager &am,
                const HyperblockOptions &opts)
{
    HyperblockStats stats;
    double min_ratio = opts.conservative ? 0.25 : opts.min_path_ratio;

    bool changed = true;
    int rounds = 0;
    while (changed && rounds++ < 256) {
        changed = false;
        const Cfg &cfg = am.cfg();
        const LoopForest &forest = am.loopForest();

        for (int bid : cfg.rpo()) {
            BasicBlock *b = f.block(bid);
            if (!b || b->instrs.empty())
                continue;
            Instruction &br = b->instrs.back();
            if (br.op != Opcode::BR || !br.hasGuard() ||
                b->fallthrough < 0) {
                continue;
            }
            int taken_id = br.target;
            int fall_id = b->fallthrough;
            if (taken_id == fall_id || taken_id == bid || fall_id == bid)
                continue;
            BasicBlock *t = f.block(taken_id);
            BasicBlock *fb = f.block(fall_id);
            if (!t || !fb)
                continue;

            auto rc = findRegionCompare(*b);
            if (!rc)
                continue;

            // The trailing branch must be the *only* edge from B to the
            // taken block, and no mid-block exit may target the
            // fall-through block either (superblocks can carry several
            // side exits to one target; erasing the target would leave
            // the others dangling).
            int branches_to_taken = 0, branches_to_fall = 0;
            for (const Instruction &inst : b->instrs) {
                if (inst.isBranch() && inst.target == taken_id)
                    ++branches_to_taken;
                if (inst.isBranch() && inst.target == fall_id)
                    ++branches_to_fall;
            }
            if (branches_to_taken != 1 || branches_to_fall != 0)
                continue;

            double taken_prob =
                b->weight > 0
                    ? std::clamp(br.prof_taken / b->weight, 0.0, 1.0)
                    : 0.5;

            auto single_pred = [&](int x) {
                return cfg.preds(x).size() == 1 && x != f.entry &&
                       !isHeader(forest, x);
            };
            auto single_succ_to = [&](const BasicBlock &x, int target) {
                auto s = x.successorIds();
                return s.size() == 1 && s[0] == target;
            };

            int new_size = static_cast<int>(b->instrs.size());

            // Diamond: B -> {T, F} -> J.
            if (single_pred(taken_id) && single_pred(fall_id) &&
                !t->successorIds().empty() &&
                single_succ_to(*t, t->successorIds()[0]) &&
                single_succ_to(*fb, t->successorIds()[0]) &&
                convertible(*t, opts, *rc) &&
                convertible(*fb, opts, *rc) &&
                taken_prob >= min_ratio && 1.0 - taken_prob >= min_ratio &&
                new_size + static_cast<int>(t->instrs.size() +
                                            fb->instrs.size()) <=
                    opts.max_instrs) {
                int join = t->successorIds()[0];
                b->instrs.pop_back(); // the conditional branch
                ++stats.branches_removed;
                appendPredicated(f, b->instrs, *t, rc->p_true, *rc, true,
                                 stats);
                appendPredicated(f, b->instrs, *fb, rc->p_false, *rc,
                                 false, stats);
                b->fallthrough = join;
                f.eraseBlock(taken_id);
                f.eraseBlock(fall_id);
                ++stats.regions;
                am.invalidateAll();
                changed = true;
                break;
            }

            // Triangle (taken side): B -> T -> F, plus B -> F.
            if (single_pred(taken_id) && single_succ_to(*t, fall_id) &&
                convertible(*t, opts, *rc) &&
                taken_prob >= min_ratio &&
                new_size + static_cast<int>(t->instrs.size()) <=
                    opts.max_instrs) {
                b->instrs.pop_back();
                ++stats.branches_removed;
                appendPredicated(f, b->instrs, *t, rc->p_true, *rc, true,
                                 stats);
                f.eraseBlock(taken_id);
                ++stats.regions;
                am.invalidateAll();
                changed = true;
                break;
            }

            // Triangle (fall side): B -> F -> T, plus B -> T.
            if (single_pred(fall_id) && single_succ_to(*fb, taken_id) &&
                convertible(*fb, opts, *rc) &&
                1.0 - taken_prob >= min_ratio &&
                new_size + static_cast<int>(fb->instrs.size()) <=
                    opts.max_instrs) {
                b->instrs.pop_back();
                ++stats.branches_removed;
                appendPredicated(f, b->instrs, *fb, rc->p_false, *rc,
                                 false, stats);
                b->fallthrough = taken_id;
                f.eraseBlock(fall_id);
                ++stats.regions;
                am.invalidateAll();
                changed = true;
                break;
            }
        }
        if (changed)
            pruneUnreachableBlocks(f, am);
    }
    return stats;
}

} // namespace epic
