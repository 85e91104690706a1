#include "sched/regalloc.h"

#include <algorithm>
#include <array>
#include <vector>

#include "analysis/manager.h"
#include "support/error.h"
#include "support/logging.h"

namespace epic {

namespace {

/// Reserved fill/spill temporaries (never allocated).
constexpr int kSpillTemps[] = {28, 29, 30, 31};

struct Interval
{
    Reg vreg;
    int start = INT32_MAX;
    int end = INT32_MIN;
    int phys = -1;
    bool spilled = false;
    int slot = -1;

    void
    extend(int pos)
    {
        start = std::min(start, pos);
        end = std::max(end, pos);
    }
};

/** Allocatable physical id range per class. */
std::pair<int, int>
physPool(RegClass cls)
{
    switch (cls) {
      case RegClass::Gr: return {32, 127};
      case RegClass::Pr: return {16, 63};
      case RegClass::Br: return {1, 7};
    }
    return {0, -1};
}

} // namespace

RegAllocStats
allocateRegisters(Function &f, AnalysisManager &am)
{
    RegAllocStats stats;
    if (f.reg_allocated)
        return stats;

    const Cfg &cfg = am.cfg();
    const Liveness &live = am.liveness();

    // Global position numbering over blocks in id order:
    // block_pos[bid] = [start, end].
    std::vector<std::pair<int, int>> block_pos(f.blocks.size());
    int pos = 0;
    for (const auto &bp : f.blocks) {
        if (!bp)
            continue;
        int start = pos;
        pos += static_cast<int>(bp->instrs.size()) + 1;
        block_pos[bp->id] = {start, pos - 1};
    }

    // Build intervals per class, indexed by register id; an interval
    // whose vreg is invalid was never touched.
    std::array<std::vector<Interval>, kNumRegClasses> intervals;
    auto touch = [&](Reg r, int p) {
        if (!r.valid() || !isVirtual(r))
            return;
        std::vector<Interval> &v = intervals[static_cast<int>(r.cls)];
        if (static_cast<size_t>(r.id) >= v.size())
            v.resize(r.id + 1);
        Interval &iv = v[r.id];
        iv.vreg = r;
        iv.extend(p);
    };
    auto interval = [&](Reg r) -> const Interval * {
        const std::vector<Interval> &v = intervals[static_cast<int>(r.cls)];
        return static_cast<size_t>(r.id) < v.size() && v[r.id].vreg.valid()
                   ? &v[r.id]
                   : nullptr;
    };

    // Params are defined "before" position 0.
    for (Reg p : f.params)
        touch(p, -1);

    std::vector<Reg> uses, defs;
    for (const auto &bp : f.blocks) {
        if (!bp)
            continue;
        auto [bs, be] = block_pos[bp->id];
        if (cfg.reachable(bp->id)) {
            for (Reg r : live.liveIn(bp->id))
                touch(r, bs);
            for (Reg r : live.liveOut(bp->id))
                touch(r, be);
        }
        int p = bs + 1;
        for (const Instruction &inst : bp->instrs) {
            instrUses(inst, uses);
            instrDefs(inst, defs);
            for (Reg r : uses)
                touch(r, p);
            for (Reg r : defs)
                touch(r, p);
            ++p;
        }
    }

    // Call positions: intervals that span a call must live in stacked
    // registers (frame-preserved); call-free intervals prefer the
    // static/scratch partition (gr2..gr27), which does not contribute
    // to the register-stack frame — exactly how production IA-64
    // allocators keep RSE traffic down.
    std::vector<int> call_positions;
    for (const auto &bp : f.blocks) {
        if (!bp)
            continue;
        int pos2 = block_pos[bp->id].first + 1;
        for (const Instruction &inst : bp->instrs) {
            if (inst.isCall())
                call_positions.push_back(pos2);
            ++pos2;
        }
    }
    std::sort(call_positions.begin(), call_positions.end());
    auto spans_call = [&](const Interval &iv) {
        auto it = std::lower_bound(call_positions.begin(),
                                   call_positions.end(), iv.start);
        return it != call_positions.end() && *it <= iv.end;
    };

    // Linear scan per register class, over its intervals in id order.
    int next_slot = 0;

    for (RegClass cls : {RegClass::Gr, RegClass::Pr, RegClass::Br}) {
        std::vector<Interval *> ivs;
        for (Interval &iv : intervals[static_cast<int>(cls)])
            if (iv.vreg.valid())
                ivs.push_back(&iv);
        std::sort(ivs.begin(), ivs.end(),
                  [](const Interval *a, const Interval *b) {
                      return a->start < b->start;
                  });
        auto [lo, hi] = physPool(cls);
        std::vector<int> free_regs;
        for (int r = hi; r >= lo; --r)
            free_regs.push_back(r); // pop_back yields lowest id first
        // Scratch partition (Gr only): gr2..gr27.
        std::vector<int> free_scratch;
        if (cls == RegClass::Gr)
            for (int r = 27; r >= 2; --r)
                if (r != kGrSp.id)
                    free_scratch.push_back(r);
        std::vector<Interval *> active;
        int max_used = 0;

        for (Interval *iv : ivs) {
            // Expire finished intervals.
            for (auto it = active.begin(); it != active.end();) {
                if ((*it)->end < iv->start) {
                    int ph = (*it)->phys;
                    if (cls == RegClass::Gr && ph < lo)
                        free_scratch.push_back(ph);
                    else
                        free_regs.push_back(ph);
                    it = active.erase(it);
                } else {
                    ++it;
                }
            }
            // Call-free Gr intervals take a scratch register first.
            if (cls == RegClass::Gr && !free_scratch.empty() &&
                !spans_call(*iv)) {
                iv->phys = free_scratch.back();
                free_scratch.pop_back();
                active.push_back(iv);
                continue;
            }
            if (!free_regs.empty()) {
                iv->phys = free_regs.back();
                free_regs.pop_back();
                active.push_back(iv);
                max_used = std::max(max_used, iv->phys - lo + 1);
                continue;
            }
            // Spill the interval with the furthest end. Only Gr spilling
            // is implemented; exhausting another class is a contained
            // per-function failure the firewall can absorb by degrading
            // the function to a less register-hungry configuration.
            if (cls != RegClass::Gr) {
                throw CompileError(
                    "regalloc",
                    std::string("out of ") + regClassName(cls) +
                        " registers in " + f.name +
                        " (only Gr spilling is implemented)");
            }
            Interval *victim = iv;
            for (Interval *a : active) {
                // Scratch-held intervals are not spill candidates for a
                // call-spanning interval (the register would be wrong).
                if (cls == RegClass::Gr && a->phys < lo)
                    continue;
                if (a->end > victim->end)
                    victim = a;
            }
            if (victim != iv) {
                iv->phys = victim->phys;
                active.erase(
                    std::find(active.begin(), active.end(), victim));
                active.push_back(iv);
            }
            victim->phys = -1;
            victim->spilled = true;
            victim->slot = next_slot++;
            ++stats.spilled;
        }

        if (cls == RegClass::Gr)
            stats.gr_used = max_used;
        else if (cls == RegClass::Pr)
            stats.pr_used = max_used;
    }

    // Rewrite instructions (with spill code where needed).
    auto remap = [&](Reg r) -> Reg {
        if (!isVirtual(r))
            return r;
        const Interval *iv = interval(r);
        epic_assert(iv && !iv->spilled, "unassigned vreg ", r.str(),
                    " in ", f.name);
        return Reg(r.cls, iv->phys);
    };
    auto spillSlot = [&](Reg r) {
        const Interval *iv = interval(r);
        return iv && iv->spilled ? iv->slot : -1;
    };

    for (auto &bp : f.blocks) {
        if (!bp)
            continue;
        std::vector<Instruction> out;
        out.reserve(bp->instrs.size());
        for (Instruction inst : bp->instrs) {
            int next_temp = 0;
            auto take_temp = [&]() {
                epic_assert(next_temp <
                                static_cast<int>(std::size(kSpillTemps)),
                            "spill temporaries exhausted in ", f.name);
                return Reg(RegClass::Gr, kSpillTemps[next_temp++]);
            };

            // Fills for spilled sources.
            for (Operand &o : inst.srcs) {
                if (!o.isReg() || !isVirtual(o.reg))
                    continue;
                const int slot = spillSlot(o.reg);
                if (slot < 0)
                    continue;
                Reg t = take_temp();
                Instruction addr;
                addr.op = Opcode::ADDI;
                addr.dests = {t};
                addr.srcs = {Operand::makeReg(kGrSp),
                             Operand::makeImm(slot * 8)};
                addr.attr |= kAttrSpill;
                out.push_back(addr);
                Instruction fill;
                fill.op = Opcode::LD;
                fill.size = 8;
                fill.dests = {t};
                fill.srcs = {Operand::makeReg(t)};
                fill.attr |= kAttrSpill;
                fill.alias_group = -1;
                out.push_back(fill);
                o.reg = t;
                ++stats.fills;
            }

            // Guards are predicates and never spill; just remap.
            inst.guard = remap(inst.guard);
            for (Operand &o : inst.srcs)
                if (o.isReg())
                    o.reg = remap(o.reg);

            // Spilled destinations: write a temp, store it after.
            std::vector<std::pair<Reg, int>> dest_stores;
            for (Reg &d : inst.dests) {
                if (!isVirtual(d)) {
                    continue;
                }
                if (const int slot = spillSlot(d); slot >= 0) {
                    Reg t = take_temp();
                    dest_stores.push_back({t, slot});
                    d = t;
                } else {
                    d = remap(d);
                }
            }
            Reg inst_guard = inst.guard;
            out.push_back(std::move(inst));
            for (auto &[t, slot] : dest_stores) {
                Reg at = take_temp();
                Instruction addr;
                addr.op = Opcode::ADDI;
                addr.dests = {at};
                addr.srcs = {Operand::makeReg(kGrSp),
                             Operand::makeImm(slot * 8)};
                addr.attr |= kAttrSpill;
                out.push_back(addr);
                Instruction st;
                st.op = Opcode::ST;
                st.size = 8;
                // The store must be squashed when the def was squashed.
                st.guard = inst_guard;
                st.srcs = {Operand::makeReg(at), Operand::makeReg(t)};
                st.attr |= kAttrSpill;
                out.push_back(st);
                ++stats.stores;
            }
        }
        bp->instrs = std::move(out);
    }

    // Remap parameters.
    for (Reg &p : f.params)
        p = remap(p);

    // Record the register-stack frame and emit the alloc.
    f.stacked_regs = stats.gr_used;
    f.spill_slots = next_slot;
    f.reg_allocated = true;
    BasicBlock *entry = f.block(f.entry);
    epic_assert(entry, "function without entry block");
    Instruction alloc;
    alloc.op = Opcode::ALLOC;
    alloc.srcs = {Operand::makeImm(f.stacked_regs)};
    entry->instrs.insert(entry->instrs.begin(), alloc);

    return stats;
}

} // namespace epic
