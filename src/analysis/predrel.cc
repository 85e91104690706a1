#include "analysis/predrel.h"

namespace epic {

PredRelations::PredRelations(const BasicBlock &b)
{
    // Open facts: (pair, start position). Closed when either predicate
    // is rewritten.
    struct Open
    {
        Reg a, c;
        int from;
    };
    std::vector<Open> open;

    auto close_touching = [&](Reg r, int pos) {
        for (auto it = open.begin(); it != open.end();) {
            if (it->a == r || it->c == r) {
                if (pos - 1 >= it->from) {
                    facts_.push_back(
                        Fact{it->a, it->c, it->from, pos - 1});
                }
                it = open.erase(it);
            } else {
                ++it;
            }
        }
    };

    for (int i = 0; i < static_cast<int>(b.instrs.size()); ++i) {
        const Instruction &inst = b.instrs[i];
        bool makes_pair = false;
        if ((inst.op == Opcode::CMP || inst.op == Opcode::CMPI) &&
            inst.dests.size() == 2 &&
            (inst.ctype == CmpType::Norm || inst.ctype == CmpType::Unc)) {
            // Norm requires an always-true guard; Unc is safe regardless.
            if (inst.ctype == CmpType::Unc || !inst.hasGuard())
                makes_pair = true;
        }

        // Any write to a predicate kills open facts about it.
        for (const Reg &d : inst.dests)
            if (d.cls == RegClass::Pr)
                close_touching(d, i);

        if (makes_pair) {
            // The pair is disjoint starting right after the compare.
            open.push_back(Open{inst.dests[0], inst.dests[1], i + 1});
        }
    }
    int end = static_cast<int>(b.instrs.size()) - 1;
    for (const Open &o : open)
        if (end >= o.from)
            facts_.push_back(Fact{o.a, o.c, o.from, end});
}

bool
PredRelations::disjointAt(int pos, Reg p, Reg q) const
{
    if (p == q)
        return false;
    for (const Fact &f : facts_) {
        if (((f.a == p && f.b == q) || (f.a == q && f.b == p)) &&
            pos >= f.from && pos <= f.to) {
            return true;
        }
    }
    return false;
}

} // namespace epic
