#include "analysis/liveness.h"

#include <unordered_map>

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
    // Predicate-aware refinement (cf. the paper's references [27][28]):
    // a use guarded by p that follows a def of the same register also
    // guarded by p is *not* upward-exposed — whenever the use executes,
    // the def executed too. The fact is invalidated if the predicate
    // register is redefined in between. Precomputed forward, consumed by
    // the backward walk as "effective uses".
    std::vector<std::vector<std::vector<Reg>>> eff_uses(n);
    std::vector<Reg> uses, defs;
    for (int bid : cfg.rpo()) {
        const BasicBlock *b = f.block(bid);
        auto &block_uses = eff_uses[bid];
        block_uses.resize(b->instrs.size());
        std::unordered_map<Reg, Reg> kill_guard; // reg -> def's guard
        RegSet killed;
        for (size_t i = 0; i < b->instrs.size(); ++i) {
            const Instruction &inst = b->instrs[i];
            instrUses(inst, uses);
            for (Reg r : uses) {
                auto it = kill_guard.find(r);
                if (!killed.count(r) && it != kill_guard.end() &&
                    it->second == inst.guard) {
                    continue; // covered by a same-predicate def
                }
                block_uses[i].push_back(r);
            }
            instrDefs(inst, defs);
            if (defsAreUnconditional(inst)) {
                for (Reg r : defs) {
                    killed.insert(r);
                    kill_guard.erase(r);
                }
            } else if (inst.guard != kPrTrue) {
                for (Reg r : defs) {
                    kill_guard[r] = inst.guard;
                    killed.erase(r);
                }
            }
            // Redefining a predicate invalidates facts guarded by it,
            // and a side exit invalidates nothing (facts are per-path
            // prefixes, which the exit shares).
            for (Reg r : defs) {
                if (r.cls != RegClass::Pr)
                    continue;
                for (auto it = kill_guard.begin();
                     it != kill_guard.end();) {
                    if (it->second == r)
                        it = kill_guard.erase(it);
                    else
                        ++it;
                }
            }
        }
    }

    // Iterate to fixpoint, visiting in reverse RPO for fast convergence.
    const auto &rpo = cfg.rpo();
    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t ri = rpo.size(); ri-- > 0;) {
            int bid = rpo[ri];
            const BasicBlock *b = f.block(bid);
            // live-out stays the conservative union over all successors
            // (its consumers — allocation extension, promotion's
            // dies-in-block test — want the superset); the backward
            // walk re-adds each side-exit contribution at the exit
            // point anyway, so live-in is computed precisely.
            RegSet out;
            for (int s : cfg.succs(bid)) {
                if (!cfg.reachable(s))
                    continue;
                for (Reg r : live_in_[s])
                    out.insert(r);
            }
            RegSet in = out;
            for (int i = static_cast<int>(b->instrs.size()) - 1; i >= 0;
                 --i) {
                const Instruction &inst = b->instrs[i];
                if (inst.isBranch() && inst.target >= 0 &&
                    cfg.reachable(inst.target)) {
                    for (Reg r : live_in_[inst.target])
                        in.insert(r);
                }
                if (defsAreUnconditional(inst)) {
                    instrDefs(inst, defs);
                    for (Reg r : defs)
                        in.erase(r);
                }
                for (Reg r : eff_uses[bid][i])
                    in.insert(r);
            }
            if (out != live_out_[bid] || in != live_in_[bid]) {
                live_out_[bid] = std::move(out);
                live_in_[bid] = std::move(in);
                changed = true;
            }
        }
    }
}

} // namespace epic
