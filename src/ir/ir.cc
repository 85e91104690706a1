/**
 * @file
 * Implementations for the core IR classes: operand/instruction printing,
 * block successor computation, function statistics, and program layout.
 */
#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/instruction.h"
#include "ir/program.h"

#include <algorithm>
#include <sstream>

#include "support/logging.h"

namespace epic {

std::string
Operand::str() const
{
    std::ostringstream os;
    switch (kind) {
      case Kind::None:
        os << "<none>";
        break;
      case Kind::Reg:
        os << reg.str();
        break;
      case Kind::Imm:
        os << imm;
        break;
      case Kind::Sym:
        os << "@sym" << sym;
        if (imm)
            os << "+" << imm;
        break;
      case Kind::Func:
        os << "@fn" << func;
        break;
    }
    return os.str();
}

std::string
Instruction::str() const
{
    std::ostringstream os;
    if (hasGuard())
        os << "(" << guard.str() << ") ";
    os << info().name;
    if (op == Opcode::CMP || op == Opcode::CMPI) {
        os << "." << cmpCondName(cond);
        if (ctype != CmpType::Norm)
            os << "." << cmpTypeName(ctype);
    }
    if (isMem())
        os << size * 8;
    if (spec)
        os << ".s";
    os << " ";
    bool first = true;
    for (const Reg &d : dests) {
        os << (first ? "" : ", ") << d.str();
        first = false;
    }
    if (!dests.empty() && !srcs.empty())
        os << " = ";
    first = true;
    for (const Operand &s : srcs) {
        os << (first ? "" : ", ") << s.str();
        first = false;
    }
    if (target >= 0)
        os << " -> bb" << target;
    if (callee >= 0)
        os << " [fn" << callee << "]";
    return os.str();
}

bool
BasicBlock::endsInUnconditionalTransfer() const
{
    if (instrs.empty())
        return false;
    const Instruction &last = instrs.back();
    if (last.isRet())
        return !last.hasGuard();
    if (last.op == Opcode::BR)
        return !last.hasGuard();
    return false;
}

std::vector<int>
BasicBlock::successorIds() const
{
    std::vector<int> out;
    for (const Instruction &inst : instrs) {
        if (inst.target >= 0 &&
            (inst.op == Opcode::BR || inst.op == Opcode::CHK_S)) {
            if (std::find(out.begin(), out.end(), inst.target) == out.end())
                out.push_back(inst.target);
        }
    }
    if (fallthrough >= 0 &&
        std::find(out.begin(), out.end(), fallthrough) == out.end()) {
        out.push_back(fallthrough);
    }
    return out;
}

int
Function::staticInstrCount() const
{
    int n = 0;
    for (const auto &b : blocks)
        if (b)
            n += static_cast<int>(b->instrs.size());
    return n;
}

int
Program::addSymbol(std::string name, uint64_t size, uint32_t attr)
{
    DataSymbol s;
    s.id = static_cast<int>(symbols.size());
    s.name = std::move(name);
    s.size = size;
    s.attr = attr;
    symbols.push_back(std::move(s));
    return symbols.back().id;
}

void
Program::layoutData()
{
    uint64_t addr = kDataBase;
    for (DataSymbol &s : symbols) {
        uint64_t align = std::max<uint64_t>(s.align, 1);
        addr = (addr + align - 1) & ~(align - 1);
        s.addr = addr;
        addr += std::max<uint64_t>(s.size, 1);
    }
}

uint64_t
Program::symbolAddr(int sym_id) const
{
    epic_assert(sym_id >= 0 && sym_id < static_cast<int>(symbols.size()),
                "bad symbol id ", sym_id);
    epic_assert(symbols[sym_id].addr != 0, "layoutData() has not run");
    return symbols[sym_id].addr;
}

int
Program::staticInstrCount() const
{
    int n = 0;
    for (const auto &f : funcs)
        if (f)
            n += f->staticInstrCount();
    return n;
}

std::unique_ptr<Function>
Function::clone(uint64_t arena_byte_budget) const
{
    auto nf = std::make_unique<Function>(id, name);
    if (arena_byte_budget)
        nf->arena().setByteBudget(arena_byte_budget);
    cloneInto(*nf);
    return nf;
}

void
Function::cloneInto(Function &dst) const
{
    epic_assert(&dst != this, "cloneInto self");
    // One watermark rollback reclaims everything the previous occupant
    // of dst allocated; retained chunks back the copy below.
    dst.arena_.reset();
    dst.blocks.rebind(&dst.arena_);

    dst.name = name;
    dst.attr = attr;
    dst.params = params;
    dst.entry = entry;
    dst.weight = weight;
    dst.reg_allocated = reg_allocated;
    dst.stacked_regs = stacked_regs;
    dst.spill_slots = spill_slots;
    dst.next_virt_ = next_virt_;

    dst.blocks.reserve(blocks.size());
    for (const BasicBlock *b : blocks) {
        if (!b) {
            dst.blocks.push_back(nullptr);
            continue;
        }
        BasicBlock *nb = dst.arena_.create<BasicBlock>(b->id, &dst.arena_);
        nb->fallthrough = b->fallthrough;
        nb->weight = b->weight;
        nb->cold = b->cold;
        // Bulk-copy the instruction and bundle arrays (memcpy of
        // trivially copyable elements)...
        nb->instrs.assign(b->instrs.begin(), b->instrs.end());
        nb->bundles.assign(b->bundles.begin(), b->bundles.end());
        // ...then re-home the only out-of-line instruction state, the
        // indirect-call profile spans, into the destination arena.
        for (Instruction &inst : nb->instrs)
            inst.reattachProf(dst.arena_);
        dst.blocks.push_back(nb);
    }
}

std::unique_ptr<Program>
Program::clone() const
{
    auto out = std::make_unique<Program>();
    out->symbols = symbols;
    out->entry_func = entry_func;
    for (const auto &f : funcs)
        out->funcs.push_back(f ? f->clone() : nullptr);
    return out;
}

} // namespace epic
