#include "opt/inline.h"

#include <cmath>

#include "analysis/cfg.h"
#include "support/logging.h"

namespace epic {

namespace {

/** Emit the right move opcode for an arbitrary operand. */
Instruction
makeMoveFromOperand(Reg dest, const Operand &src)
{
    Instruction mv;
    switch (src.kind) {
      case Operand::Kind::Reg: mv.op = Opcode::MOV; break;
      case Operand::Kind::Imm: mv.op = Opcode::MOVI; break;
      case Operand::Kind::Sym: mv.op = Opcode::MOVA; break;
      case Operand::Kind::Func: mv.op = Opcode::MOVFN; break;
      default:
        epic_panic("unexpected argument operand kind");
    }
    mv.dests = {dest};
    mv.srcs = {src};
    return mv;
}

/** Remap one register from callee space into caller space. */
Reg
remapReg(const Function &caller, Reg r,
         const std::array<int32_t, kNumRegClasses> &offs)
{
    if (!r.valid() || r.id < kFirstVirtual)
        return r;
    (void)caller;
    return Reg(r.cls,
               r.id - kFirstVirtual + offs[static_cast<int>(r.cls)]);
}

} // namespace

bool
inlineCallsite(Program &prog, Function &caller, int bid, int idx)
{
    BasicBlock *site = caller.block(bid);
    if (!site || idx < 0 || idx >= static_cast<int>(site->instrs.size()))
        return false;
    Instruction call = site->instrs[idx];
    if (call.op != Opcode::BR_CALL || call.hasGuard())
        return false;
    Function *callee = prog.func(call.callee);
    if (!callee || callee->id == caller.id)
        return false;
    if (callee->attr & (kFuncNoInline | kFuncLibrary))
        return false;

    // Refuse callees with guarded returns (keeps return lowering simple).
    for (const auto &b : callee->blocks) {
        if (!b)
            continue;
        for (const Instruction &inst : b->instrs)
            if (inst.isRet() && inst.hasGuard())
                return false;
    }

    // Register-space offsets for the copied body.
    std::array<int32_t, kNumRegClasses> offs;
    for (int c = 0; c < kNumRegClasses; ++c) {
        auto cls = static_cast<RegClass>(c);
        offs[c] = caller.virtLimit(cls);
        // Remapped ids run from offs[c] to offs[c] + needed - 1, and
        // reserveVirt is inclusive.
        const int needed = callee->virtLimit(cls) - kFirstVirtual;
        if (needed > 0)
            caller.reserveVirt(cls, offs[c] + needed - 1);
    }

    // Continuation block receives everything after the call.
    BasicBlock *cont = caller.newBlock();
    cont->instrs.assign(site->instrs.begin() + idx + 1,
                        site->instrs.end());
    cont->fallthrough = site->fallthrough;
    cont->weight = site->weight;
    site->instrs.erase(site->instrs.begin() + idx, site->instrs.end());

    // Copy callee blocks.
    double scale =
        callee->weight > 0 ? site->weight / callee->weight : 0.0;
    std::vector<int> block_map(callee->blocks.size(), -1);
    for (size_t cb = 0; cb < callee->blocks.size(); ++cb) {
        if (callee->blocks[cb])
            block_map[cb] = caller.newBlock()->id;
    }
    for (size_t cb = 0; cb < callee->blocks.size(); ++cb) {
        const BasicBlock *src = callee->blocks[cb];
        if (!src)
            continue;
        BasicBlock *dst = caller.block(block_map[cb]);
        dst->weight = src->weight * scale;
        dst->fallthrough =
            src->fallthrough >= 0 ? block_map[src->fallthrough] : -1;
        for (Instruction inst : src->instrs) {
            inst.attr |= kAttrInlined;
            inst.prof_taken *= scale;
            inst.guard = remapReg(caller, inst.guard, offs);
            for (Reg &d : inst.dests)
                d = remapReg(caller, d, offs);
            for (Operand &o : inst.srcs)
                if (o.isReg())
                    o.reg = remapReg(caller, o.reg, offs);
            if (inst.target >= 0)
                inst.target = block_map[inst.target];
            if (inst.isRet()) {
                // value move (if any) + jump to continuation.
                if (!call.dests.empty()) {
                    Instruction mv;
                    if (!inst.srcs.empty()) {
                        mv = makeMoveFromOperand(call.dests[0],
                                                 inst.srcs[0]);
                    } else {
                        mv.op = Opcode::MOVI;
                        mv.dests = {call.dests[0]};
                        mv.srcs = {Operand::makeImm(0)};
                    }
                    mv.attr |= kAttrInlined;
                    dst->instrs.push_back(mv);
                }
                Instruction jmp;
                jmp.op = Opcode::BR;
                jmp.target = cont->id;
                jmp.attr |= kAttrInlined;
                jmp.prof_taken = dst->weight;
                dst->instrs.push_back(jmp);
                continue;
            }
            dst->instrs.push_back(inst);
            // The copy's profile span still points into the callee's
            // arena; re-home it so the caller stays self-contained.
            dst->instrs.back().reattachProf(caller.arena());
        }
    }

    // Argument moves, then fall through into the copied entry.
    for (size_t i = 0; i < callee->params.size(); ++i) {
        Reg p = remapReg(caller, callee->params[i], offs);
        Instruction mv = makeMoveFromOperand(p, call.srcs[i]);
        mv.attr |= kAttrInlined;
        site->instrs.push_back(mv);
    }
    site->fallthrough = block_map[callee->entry];
    return true;
}

int
promoteIndirectCalls(Program &prog, double threshold, double min_weight)
{
    int promoted = 0;
    for (auto &fp : prog.funcs) {
        if (!fp)
            continue;
        Function &f = *fp;
        bool changed = true;
        while (changed) {
            changed = false;
            for (int bid = 0;
                 bid < static_cast<int>(f.blocks.size()) && !changed;
                 ++bid) {
                BasicBlock *b = f.block(bid);
                if (!b || b->weight < min_weight)
                    continue;
                for (int i = 0;
                     i < static_cast<int>(b->instrs.size()); ++i) {
                    Instruction &inst = b->instrs[i];
                    if (inst.op != Opcode::BR_ICALL || inst.hasGuard() ||
                        inst.profCallees().empty()) {
                        continue;
                    }
                    double total = 0, top_cnt = 0;
                    int top = -1;
                    for (const auto &[fid, cnt] : inst.profCallees()) {
                        total += cnt;
                        if (cnt > top_cnt) {
                            top_cnt = cnt;
                            top = fid;
                        }
                    }
                    if (total <= 0 || top_cnt / total < threshold)
                        continue;
                    Function *top_fn = prog.func(top);
                    if (!top_fn)
                        continue;

                    // Split: site | direct | indirect | cont.
                    Instruction icall = inst;
                    double frac = top_cnt / total;

                    BasicBlock *cont = f.newBlock();
                    cont->instrs.assign(b->instrs.begin() + i + 1,
                                        b->instrs.end());
                    cont->fallthrough = b->fallthrough;
                    cont->weight = b->weight;
                    b->instrs.erase(b->instrs.begin() + i,
                                    b->instrs.end());

                    BasicBlock *direct = f.newBlock();
                    BasicBlock *indirect = f.newBlock();
                    direct->weight = b->weight * frac;
                    indirect->weight = b->weight * (1 - frac);

                    // site: tok compare + branch to indirect.
                    Reg t_top = f.makeReg(RegClass::Gr);
                    Instruction mvf;
                    mvf.op = Opcode::MOVFN;
                    mvf.dests = {t_top};
                    mvf.srcs = {Operand::makeFunc(top)};
                    b->instrs.push_back(mvf);
                    Reg p_eq = f.makeReg(RegClass::Pr);
                    Reg p_ne = f.makeReg(RegClass::Pr);
                    Instruction cmp;
                    cmp.op = Opcode::CMP;
                    cmp.cond = CmpCond::EQ;
                    cmp.dests = {p_eq, p_ne};
                    cmp.srcs = {icall.srcs[0], Operand::makeReg(t_top)};
                    b->instrs.push_back(cmp);
                    Instruction br;
                    br.op = Opcode::BR;
                    br.guard = p_ne;
                    br.target = indirect->id;
                    br.prof_taken = b->weight * (1 - frac);
                    b->instrs.push_back(br);
                    b->fallthrough = direct->id;

                    // direct: guarded-free direct call + jump cont.
                    Instruction dcall;
                    dcall.op = Opcode::BR_CALL;
                    dcall.callee = top;
                    dcall.dests = icall.dests;
                    dcall.srcs.assign(icall.srcs.begin() + 1,
                                      icall.srcs.end());
                    direct->instrs.push_back(dcall);
                    Instruction jmp;
                    jmp.op = Opcode::BR;
                    jmp.target = cont->id;
                    jmp.prof_taken = direct->weight;
                    direct->instrs.push_back(jmp);

                    // indirect: residual icall falls through to cont.
                    Instruction rest = icall;
                    // rest shares icall's profile span after the copy;
                    // detach before refilling or the loop below would
                    // scribble over the entries it is reading.
                    rest.dropProfCallees();
                    for (const auto &[fid, cnt] : icall.profCallees())
                        if (fid != top)
                            rest.addProfCallee(f.arena(), fid, cnt);
                    indirect->instrs.push_back(rest);
                    indirect->fallthrough = cont->id;

                    ++promoted;
                    changed = true;
                    break;
                }
            }
        }
    }
    return promoted;
}

InlineStats
inlineProgram(Program &prog, const InlineOptions &opts)
{
    InlineStats stats;
    stats.before_instrs = prog.staticInstrCount();

    if (opts.promote_indirect) {
        stats.promoted = promoteIndirectCalls(
            prog, opts.promote_threshold, opts.min_weight);
    }

    const double budget =
        static_cast<double>(stats.before_instrs) * opts.growth_budget;

    struct Candidate
    {
        double priority;
        int func, block, idx;
    };

    bool progress = true;
    while (progress &&
           prog.staticInstrCount() < budget) {
        progress = false;
        // Collect the current best candidate (recomputed each round
        // because inlining restructures blocks).
        Candidate best{0, -1, -1, -1};
        for (auto &fp : prog.funcs) {
            if (!fp)
                continue;
            Function &f = *fp;
            for (const auto &bp : f.blocks) {
                if (!bp)
                    continue;
                for (int i = 0;
                     i < static_cast<int>(bp->instrs.size()); ++i) {
                    const Instruction &inst = bp->instrs[i];
                    if (inst.op != Opcode::BR_CALL || inst.hasGuard())
                        continue;
                    const Function *callee = prog.func(inst.callee);
                    if (!callee || callee->id == f.id)
                        continue;
                    if (callee->attr & (kFuncNoInline | kFuncLibrary))
                        continue;
                    int size = callee->staticInstrCount();
                    if (size == 0 || size > opts.max_callee_size)
                        continue;
                    double w = bp->weight;
                    if (w < opts.min_weight)
                        continue;
                    double prio = w / std::sqrt(static_cast<double>(size));
                    if (prio > best.priority) {
                        best = Candidate{prio, f.id, bp->id, i};
                    }
                }
            }
        }
        if (best.func < 0)
            break;
        if (inlineCallsite(prog, *prog.func(best.func), best.block,
                           best.idx)) {
            ++stats.inlined;
            progress = true;
        } else {
            break;
        }
    }

    stats.after_instrs = prog.staticInstrCount();
    return stats;
}

} // namespace epic
