#include "analysis/alias.h"

namespace epic {

AliasAnalysis::AliasAnalysis(const Program &prog, AliasLevel level)
    : level_(level)
{
    modref_.resize(prog.funcs.size());
    if (level_ != AliasLevel::Inter)
        return;

    // Initialize per-function direct effects.
    for (size_t fid = 0; fid < prog.funcs.size(); ++fid) {
        const Function *f = prog.func(static_cast<int>(fid));
        ModRef &mr = modref_[fid];
        if (!f) {
            mr.touches_all = false;
            continue;
        }
        mr.touches_all = false;
        if (f->attr & kFuncNoPointerAnalysis) {
            mr.touches_all = true;
            continue;
        }
        for (const auto &b : f->blocks) {
            if (!b)
                continue;
            for (const Instruction &inst : b->instrs) {
                if (inst.isMem()) {
                    if (inst.sym_hint >= 0)
                        mr.syms.insert(inst.sym_hint);
                    else
                        mr.touches_all = true;
                } else if (inst.op == Opcode::BR_ICALL) {
                    // Unknown callee: conservative.
                    mr.touches_all = true;
                }
            }
        }
    }

    // Propagate over the direct-call graph to a fixpoint.
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t fid = 0; fid < prog.funcs.size(); ++fid) {
            const Function *f = prog.func(static_cast<int>(fid));
            if (!f || modref_[fid].touches_all)
                continue;
            ModRef &mr = modref_[fid];
            for (const auto &b : f->blocks) {
                if (!b)
                    continue;
                for (const Instruction &inst : b->instrs) {
                    if (inst.op != Opcode::BR_CALL || inst.callee < 0)
                        continue;
                    const ModRef &cmr = modref_[inst.callee];
                    if (cmr.touches_all) {
                        if (!mr.touches_all) {
                            mr.touches_all = true;
                            changed = true;
                        }
                    } else {
                        for (int32_t s : cmr.syms) {
                            if (mr.syms.insert(s).second)
                                changed = true;
                        }
                    }
                }
            }
        }
    }
}

bool
AliasAnalysis::hintsUsable(const Function &f) const
{
    if (level_ == AliasLevel::None)
        return false;
    // Library functions are "gcc-compiled": no pointer analysis either.
    if (f.attr & (kFuncNoPointerAnalysis | kFuncLibrary))
        return false;
    return true;
}

bool
AliasAnalysis::mayAlias(const Function &f, const Instruction &a,
                        const Instruction &b) const
{
    if (!hintsUsable(f))
        return true;

    // Different known symbols never overlap.
    if (a.sym_hint >= 0 && b.sym_hint >= 0 && a.sym_hint != b.sym_hint)
        return false;

    // Distinct alias groups were promised disjoint by the analysis.
    if (a.alias_group >= 0 && b.alias_group >= 0 &&
        a.alias_group != b.alias_group) {
        return false;
    }

    return true;
}

bool
AliasAnalysis::callMayTouch(const Instruction &call,
                            const Instruction &mem) const
{
    if (level_ != AliasLevel::Inter)
        return true;
    if (call.op == Opcode::BR_ICALL || call.callee < 0)
        return true;
    const ModRef &mr = modref_[call.callee];
    if (mr.touches_all)
        return true;
    if (mem.sym_hint < 0)
        return !mr.syms.empty();
    return mr.syms.count(mem.sym_hint) != 0;
}

} // namespace epic
