#include "analysis/liveness.h"

#include <utility>

namespace epic {

namespace {

bool
isParallelMergeCmp(const Instruction &inst)
{
    return (inst.op == Opcode::CMP || inst.op == Opcode::CMPI) &&
           (inst.ctype == CmpType::And || inst.ctype == CmpType::Or);
}

} // namespace

void
instrUses(const Instruction &inst, std::vector<Reg> &out)
{
    out.clear();
    if (inst.guard != kPrTrue)
        out.push_back(inst.guard);
    for (const Operand &o : inst.srcs)
        if (o.isReg() && o.reg != kGrZero)
            out.push_back(o.reg);
    // And/or compares write their destinations only when the condition
    // fires: the incoming values flow through, so they are uses too.
    if (isParallelMergeCmp(inst))
        for (const Reg &d : inst.dests)
            if (d != kPrTrue)
                out.push_back(d);
}

bool
defsAreUnconditional(const Instruction &inst)
{
    if (isParallelMergeCmp(inst))
        return false;
    if (inst.guard == kPrTrue)
        return true;
    // unc compares clear their destinations even when squashed.
    return (inst.op == Opcode::CMP || inst.op == Opcode::CMPI) &&
           inst.ctype == CmpType::Unc;
}

void
instrDefs(const Instruction &inst, std::vector<Reg> &out)
{
    out.clear();
    for (const Reg &d : inst.dests)
        if (d != kGrZero && d != kPrTrue)
            out.push_back(d);
}

Liveness::Liveness(const Cfg &cfg)
{
    const Function &f = cfg.function();
    int n = cfg.maxBlockId();
    live_in_.assign(n, {});
    live_out_.assign(n, {});

    // Superblocks carry side exits, so a block is NOT straight-line: a
    // use at a side exit's target is exposed through everything that
    // precedes the exit, even if the register is redefined later in the
    // block. The transfer function is therefore a per-instruction
    // backward walk that merges each side-exit target's live-in at the
    // exit point, rather than classic gen/kill sets.
    //
    // Each instruction becomes one step of that walk: the side-exit
    // target whose live-in merges at it (-1: none), then its kills and
    // its effective uses as the ranges [kills, uses) and [uses, end) of
    // `regs`. The steps of rpo[ri] are [first_step[ri],
    // first_step[ri + 1]).
    struct Step
    {
        int target;
        uint32_t kills, uses, end;
    };
    const auto &rpo = cfg.rpo();
    std::vector<Step> steps;
    std::vector<Reg> regs;
    std::vector<uint32_t> first_step(rpo.size() + 1, 0);

    // Predicate-aware refinement (cf. the paper's references [27][28]):
    // a use guarded by p that follows a def of the same register also
    // guarded by p is *not* upward-exposed — whenever the use executes,
    // the def executed too. The fact is invalidated if the predicate
    // register is redefined in between. Precomputed forward, consumed by
    // the backward walk as "effective uses".
    //
    // Facts are dense by register: the guard of the register's latest
    // guarded def and the step (1-based) that made it. A fact holds
    // while it is newer than the block's first step and than the
    // latest redefinition of its guard; an unconditional def retracts
    // it. A fact never made has `at` 0 and names no guard, so the
    // block test comes first. A side exit invalidates nothing (facts
    // are per-path prefixes, which the exit shares).
    struct Fact
    {
        Reg guard;
        uint32_t at = 0;
    };
    std::array<std::vector<Fact>, kNumRegClasses> facts;
    // Pr id -> step of its latest def; covers the guard of every fact.
    std::vector<uint32_t> pred_def_at;
    auto grow = [](auto &v, int32_t id) -> auto & {
        if (static_cast<size_t>(id) >= v.size())
            v.resize(id + 1);
        return v[id];
    };
    std::vector<Reg> uses, defs;
    for (size_t ri = 0; ri < rpo.size(); ++ri) {
        const BasicBlock *b = f.block(rpo[ri]);
        const uint32_t begin = static_cast<uint32_t>(steps.size());
        for (const Instruction &inst : b->instrs) {
            const uint32_t at = static_cast<uint32_t>(steps.size()) + 1;
            Step st;
            st.target = inst.isBranch() && inst.target >= 0 &&
                                cfg.reachable(inst.target)
                            ? inst.target
                            : -1;
            instrDefs(inst, defs);
            const bool kills = defsAreUnconditional(inst);
            st.kills = static_cast<uint32_t>(regs.size());
            if (kills)
                regs.insert(regs.end(), defs.begin(), defs.end());
            st.uses = static_cast<uint32_t>(regs.size());
            instrUses(inst, uses);
            for (Reg r : uses) {
                const std::vector<Fact> &v = facts[static_cast<int>(r.cls)];
                if (static_cast<size_t>(r.id) < v.size()) {
                    const Fact &fa = v[r.id];
                    if (fa.at > begin && fa.at > pred_def_at[fa.guard.id] &&
                        fa.guard == inst.guard)
                        continue; // covered by a same-predicate def
                }
                regs.push_back(r);
            }
            st.end = static_cast<uint32_t>(regs.size());
            steps.push_back(st);

            if (kills) {
                for (Reg r : defs)
                    grow(facts[static_cast<int>(r.cls)], r.id).at = 0;
            } else if (inst.guard != kPrTrue) {
                grow(pred_def_at, inst.guard.id);
                for (Reg r : defs)
                    grow(facts[static_cast<int>(r.cls)], r.id) =
                        Fact{inst.guard, at};
            }
            // Redefining a predicate invalidates facts guarded by it.
            for (Reg r : defs)
                if (r.cls == RegClass::Pr)
                    grow(pred_def_at, r.id) = at;
        }
        first_step[ri + 1] = static_cast<uint32_t>(steps.size());
    }

    // Iterate to fixpoint, visiting in reverse RPO for fast convergence.
    RegSet out, in;
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t ri = rpo.size(); ri-- > 0;) {
            int bid = rpo[ri];
            // live-out stays the conservative union over all successors
            // (its consumers — allocation extension, promotion's
            // dies-in-block test — want the superset); the backward
            // walk re-adds each side-exit contribution at the exit
            // point anyway, so live-in is computed precisely.
            out.clear();
            for (int s : cfg.succs(bid))
                if (cfg.reachable(s))
                    out |= live_in_[s];
            in = out;
            for (uint32_t k = first_step[ri + 1]; k-- > first_step[ri];) {
                const Step &st = steps[k];
                if (st.target >= 0)
                    in |= live_in_[st.target];
                for (uint32_t j = st.kills; j < st.uses; ++j)
                    in.erase(regs[j]);
                for (uint32_t j = st.uses; j < st.end; ++j)
                    in.insert(regs[j]);
            }
            if (out != live_out_[bid] || in != live_in_[bid]) {
                std::swap(out, live_out_[bid]);
                std::swap(in, live_in_[bid]);
                changed = true;
            }
        }
    }
}

} // namespace epic
