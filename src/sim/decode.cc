#include "sim/decode.h"

#include <algorithm>

namespace epic {

namespace {

/** Flatten one IR instruction into its fixed-size decoded record. */
DecodedInstr
decodeInstr(const Program &prog, const Instruction &inst)
{
    DecodedInstr d;
    d.op = inst.op;
    d.size = inst.size;
    d.spec = inst.spec;
    d.cond = inst.cond;
    d.ctype = inst.ctype;
    d.guard = inst.guard;
    const OpcodeInfo &info = opcodeInfo(inst.op);
    d.fu = static_cast<uint8_t>(info.fu);
    d.latency = static_cast<int8_t>(info.latency);
    d.flags = static_cast<uint8_t>(
        (info.is_load ? kDecLoad : 0) | (info.is_store ? kDecStore : 0) |
        (info.is_call ? kDecCall : 0) | (info.is_ret ? kDecRet : 0) |
        (inst.hasGuard() ? kDecHasGuard : 0));
    d.dest0 = !inst.dests.empty() ? inst.dests[0] : Reg();
    d.dest1 = inst.dests.size() > 1 ? inst.dests[1] : Reg();
    d.target = inst.op == Opcode::BR_CALL ? inst.callee : inst.target;
    d.orig = &inst;

    // Calls keep their argument list on the original instruction; only
    // the indirect-call token is flattened.
    size_t nflat = info.is_call
                       ? (inst.op == Opcode::BR_ICALL ? 1u : 0u)
                       : std::min<size_t>(inst.srcs.size(), 3);
    d.nsrcs = static_cast<uint8_t>(nflat);
    for (size_t i = 0; i < nflat; ++i) {
        const Operand &o = inst.srcs[i];
        DecodedOp &s = d.src[i];
        switch (o.kind) {
          case Operand::Kind::Reg:
            s.kind = DecodedOp::K::Reg;
            s.reg = o.reg;
            break;
          case Operand::Kind::Imm:
            s.kind = DecodedOp::K::Imm;
            s.imm = o.imm;
            break;
          case Operand::Kind::Sym:
            // Resolve now when data layout has run; otherwise defer to
            // execution so an unlaid program fails exactly as before
            // (and only if the operand is actually evaluated).
            if (o.sym >= 0 &&
                o.sym < static_cast<int32_t>(prog.symbols.size()) &&
                prog.symbols[o.sym].addr != 0) {
                s.kind = DecodedOp::K::Val;
                s.imm = static_cast<int64_t>(prog.symbols[o.sym].addr +
                                             o.imm);
            } else {
                s.kind = DecodedOp::K::SymLazy;
                s.sym = o.sym;
                s.imm = o.imm;
            }
            break;
          case Operand::Kind::Func:
            s.kind = DecodedOp::K::Val;
            s.imm = o.func;
            break;
          default:
            s.kind = DecodedOp::K::SymLazy; // evaluates to a panic, as
            s.sym = -1;                     // Kind::None always did
            break;
        }
    }
    return d;
}

/** True when the op can transfer control (branch, call, ret or
 *  speculation check) — the fence for fused straight-line spans. */
bool
isCtlOp(const DecodedInstr &d)
{
    return d.op == Opcode::BR || d.op == Opcode::CHK_S ||
           (d.flags & (kDecCall | kDecRet)) != 0;
}

} // namespace

DecodedProgram
DecodedProgram::forInterp(const Program &prog, bool scheduled_order)
{
    return build(prog, true, scheduled_order, false);
}

DecodedProgram
DecodedProgram::forTiming(const Program &prog)
{
    return build(prog, false, false, true);
}

DecodedProgram
DecodedProgram::build(const Program &prog, bool want_order,
                      bool scheduled_order, bool want_groups)
{
    DecodedProgram d;
    d.arena_ = std::make_unique<Arena>();
    d.funcs_.resize(prog.funcs.size());
    for (size_t fid = 0; fid < prog.funcs.size(); ++fid) {
        const Function *f = prog.funcs[fid].get();
        if (!f)
            continue;
        DecodedFunction &df = d.funcs_[fid];
        df.bindArena(d.arena_.get());
        df.blocks_.resize(f->blocks.size());

        // First pass: fill lengths and pool offsets (spans are resolved
        // to pointers only once the pools stop growing).
        std::vector<uint32_t> order_off(f->blocks.size(), 0);
        std::vector<uint32_t> group_off(f->blocks.size(), 0);
        std::vector<uint32_t> dinstr_off(f->blocks.size(), 0);
        for (size_t bid = 0; bid < f->blocks.size(); ++bid) {
            const BasicBlock *b = f->blocks[bid];
            if (!b)
                continue;
            DecodedBlock &db = df.blocks_[bid];
            dinstr_off[bid] =
                static_cast<uint32_t>(df.dinstr_pool_.size());
            for (const Instruction &inst : b->instrs)
                df.dinstr_pool_.push_back(decodeInstr(prog, inst));
            if (want_order) {
                if (scheduled_order && b->scheduled()) {
                    order_off[bid] =
                        static_cast<uint32_t>(df.order_pool_.size());
                    for (const Bundle &bun : b->bundles)
                        for (int16_t s : bun.slots)
                            if (s != kSlotNop)
                                df.order_pool_.push_back(s);
                    db.order_len =
                        static_cast<uint32_t>(df.order_pool_.size()) -
                        order_off[bid];
                } else {
                    // Identity order: represented implicitly.
                    db.order_len =
                        static_cast<uint32_t>(b->instrs.size());
                }
                // Control-free prefix of the execution order; the
                // interpreter fuses ops [0, straight_len) into one
                // span (see DecodedBlock::straight_len).
                const DecodedInstr *bi =
                    df.dinstr_pool_.data() + dinstr_off[bid];
                const bool sched = scheduled_order && b->scheduled();
                uint32_t sl = 0;
                while (sl < db.order_len) {
                    uint32_t oi =
                        sched ? static_cast<uint32_t>(
                                    df.order_pool_[order_off[bid] + sl])
                              : sl;
                    if (isCtlOp(bi[oi]))
                        break;
                    ++sl;
                }
                db.straight_len = sl;
            }
            if (want_groups) {
                // Issue groups straight from the bundles: a stop bit
                // closes the group, and a trailing group without one
                // still counts. Members go to the pools in slot order.
                group_off[bid] =
                    static_cast<uint32_t>(df.group_pool_.size());
                DecodedGroup dg;
                auto open_group = [&] {
                    dg = DecodedGroup{};
                    dg.op_off = static_cast<uint32_t>(df.gop_pool_.size());
                    dg.line_off =
                        static_cast<uint32_t>(df.gline_pool_.size());
                };
                open_group();
                for (const Bundle &bun : b->bundles) {
                    const uint64_t line = bun.addr & ~63ull;
                    const uint64_t *lines =
                        df.gline_pool_.data() + dg.line_off;
                    if (std::find(lines, lines + dg.nlines, line) ==
                        lines + dg.nlines) {
                        df.gline_pool_.push_back(line);
                        ++dg.nlines;
                    }
                    for (int slot = 0; slot < 3; ++slot) {
                        const int16_t s = bun.slots[slot];
                        if (s == kSlotNop) {
                            ++dg.nnops;
                            continue;
                        }
                        df.gop_pool_.push_back(s);
                        df.gaddr_pool_.push_back(
                            bun.addr + static_cast<uint64_t>(slot));
                        // Dense group-ordered copy for the timing
                        // loop's linear member walk.
                        df.gdinstr_pool_.push_back(
                            df.dinstr_pool_[dinstr_off[bid] +
                                            static_cast<uint32_t>(s)]);
                        dg.attr_union |= b->instrs[s].attr;
                        ++dg.nops;
                    }
                    if (bun.stop_after) {
                        df.group_pool_.push_back(dg);
                        open_group();
                    }
                }
                if (dg.nops > 0 || dg.nnops > 0)
                    df.group_pool_.push_back(dg);
                db.ngroups = static_cast<uint32_t>(df.group_pool_.size()) -
                             group_off[bid];
            }
        }

        // Second pass: resolve spans into the now-stable pools.
        for (size_t bid = 0; bid < f->blocks.size(); ++bid) {
            const BasicBlock *b = f->blocks[bid];
            if (!b)
                continue;
            DecodedBlock &db = df.blocks_[bid];
            db.dinstrs = df.dinstr_pool_.data() + dinstr_off[bid];
            if (want_order && scheduled_order && b->scheduled())
                db.order = df.order_pool_.data() + order_off[bid];
            if (want_groups)
                db.groups = df.group_pool_.data() + group_off[bid];
        }
    }
    return d;
}

} // namespace epic
