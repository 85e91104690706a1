#include "ir/printer.h"

namespace epic {

void
printFunction(std::ostream &os, const Function &f)
{
    os << "function " << f.name << " (fn" << f.id << ")";
    if (!f.params.empty()) {
        os << " params:";
        for (const Reg &p : f.params)
            os << " " << p.str();
    }
    if (f.reg_allocated)
        os << " [alloc " << f.stacked_regs << " stacked, "
           << f.spill_slots << " spill]";
    os << "\n";
    for (const auto &bp : f.blocks) {
        if (!bp)
            continue;
        const BasicBlock &b = *bp;
        os << "  bb" << b.id;
        if (b.id == f.entry)
            os << " (entry)";
        if (b.weight > 0)
            os << " weight=" << b.weight;
        if (b.cold)
            os << " cold";
        if (b.fallthrough >= 0)
            os << " ft=bb" << b.fallthrough;
        os << ":\n";
        if (!b.scheduled()) {
            for (const Instruction &inst : b.instrs)
                os << "    " << inst.str() << "\n";
        } else {
            for (const Bundle &bun : b.bundles) {
                os << "    {";
                for (int s = 0; s < 3; ++s) {
                    if (s)
                        os << "; ";
                    if (bun.slots[s] == kSlotNop)
                        os << "nop";
                    else
                        os << b.instrs[bun.slots[s]].str();
                }
                os << "}";
                if (bun.stop_after)
                    os << " ;;";
                if (bun.addr)
                    os << "  @0x" << std::hex << bun.addr << std::dec;
                os << "\n";
            }
        }
    }
}

void
printProgram(std::ostream &os, const Program &p)
{
    for (const DataSymbol &s : p.symbols) {
        os << "data @sym" << s.id << " " << s.name << " size=" << s.size;
        if (s.addr)
            os << " addr=0x" << std::hex << s.addr << std::dec;
        os << "\n";
    }
    for (const auto &f : p.funcs)
        if (f)
            printFunction(os, *f);
}

} // namespace epic
