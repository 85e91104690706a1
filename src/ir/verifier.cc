#include "ir/verifier.h"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "analysis/predrel.h"
#include "support/logging.h"

namespace epic {

namespace {

struct Checker
{
    const Function &f;
    std::vector<std::string> errors;

    void
    fail(const BasicBlock *b, const std::string &msg)
    {
        std::ostringstream os;
        os << f.name;
        if (b)
            os << " bb" << b->id;
        os << ": " << msg;
        errors.push_back(os.str());
    }

    bool
    validTarget(int bid) const
    {
        return f.block(bid) != nullptr;
    }

    void
    checkReg(const BasicBlock *b, const Instruction &inst, Reg r,
             RegClass want, const char *role)
    {
        if (!r.valid()) {
            fail(b, std::string("invalid ") + role + " register in '" +
                     inst.str() + "'");
            return;
        }
        if (r.cls != want) {
            fail(b, std::string(role) + " register class mismatch in '" +
                     inst.str() + "'");
        }
        if (f.reg_allocated && r.id >= kFirstVirtual) {
            fail(b, std::string("virtual register after allocation in '") +
                     inst.str() + "'");
        }
        if (f.reg_allocated && r.id >= physRegCount(r.cls)) {
            fail(b, std::string("register id out of physical range in '") +
                     inst.str() + "'");
        }
    }

    void
    checkInstr(const BasicBlock *b, const Instruction &inst)
    {
        checkReg(b, inst, inst.guard, RegClass::Pr, "guard");

        auto expect_dests = [&](size_t n, RegClass cls) {
            if (inst.dests.size() != n) {
                fail(b, "wrong destination count in '" + inst.str() + "'");
                return;
            }
            for (const Reg &d : inst.dests)
                checkReg(b, inst, d, cls, "dest");
        };
        auto src_reg = [&](size_t i, RegClass cls) {
            if (i >= inst.srcs.size() || !inst.srcs[i].isReg()) {
                fail(b, "expected register source in '" + inst.str() + "'");
                return;
            }
            checkReg(b, inst, inst.srcs[i].reg, cls, "src");
        };

        switch (inst.op) {
          case Opcode::MOV:
            expect_dests(1, RegClass::Gr);
            src_reg(0, RegClass::Gr);
            break;
          case Opcode::MOVI:
          case Opcode::MOVA:
          case Opcode::MOVFN:
            expect_dests(1, RegClass::Gr);
            if (inst.srcs.size() != 1)
                fail(b, "wrong source count in '" + inst.str() + "'");
            break;
          case Opcode::MOVP:
            expect_dests(1, RegClass::Pr);
            break;
          case Opcode::ADD: case Opcode::SUB: case Opcode::AND:
          case Opcode::OR: case Opcode::XOR: case Opcode::MUL:
          case Opcode::DIV: case Opcode::REM: case Opcode::SHL:
          case Opcode::SHR: case Opcode::SAR:
            expect_dests(1, RegClass::Gr);
            src_reg(0, RegClass::Gr);
            src_reg(1, RegClass::Gr);
            break;
          case Opcode::ADDI: case Opcode::SUBI: case Opcode::ANDI:
          case Opcode::ORI: case Opcode::XORI: case Opcode::SHLI:
          case Opcode::SHRI: case Opcode::SARI:
          case Opcode::SXT: case Opcode::ZXT:
            expect_dests(1, RegClass::Gr);
            src_reg(0, RegClass::Gr);
            break;
          case Opcode::CMP:
            expect_dests(2, RegClass::Pr);
            src_reg(0, RegClass::Gr);
            src_reg(1, RegClass::Gr);
            break;
          case Opcode::CMPI:
            expect_dests(2, RegClass::Pr);
            src_reg(0, RegClass::Gr);
            break;
          case Opcode::LD:
          case Opcode::LD_A:
          case Opcode::CHK_A:
            expect_dests(1, RegClass::Gr);
            src_reg(0, RegClass::Gr);
            break;
          case Opcode::ST:
            src_reg(0, RegClass::Gr);
            src_reg(1, RegClass::Gr);
            break;
          case Opcode::BR:
            if (!validTarget(inst.target))
                fail(b, "branch to dead/invalid block in '" + inst.str() +
                         "'");
            break;
          case Opcode::CHK_S:
            src_reg(0, RegClass::Gr);
            if (!validTarget(inst.target))
                fail(b, "chk.s to dead/invalid block");
            break;
          case Opcode::BR_CALL:
            if (inst.callee < 0)
                fail(b, "call without callee");
            if (inst.srcs.size() > 8)
                fail(b, "more than 8 call arguments");
            break;
          case Opcode::BR_ICALL:
            if (inst.srcs.empty() || !inst.srcs[0].isReg())
                fail(b, "indirect call without token register");
            if (inst.srcs.size() > 9)
                fail(b, "more than 8 indirect-call arguments");
            break;
          case Opcode::BR_RET:
          case Opcode::ALLOC:
          case Opcode::NOP:
            break;
          default:
            break;
        }

        if (inst.spec && !inst.isLoad() && inst.op != Opcode::CHK_S) {
            // Only loads carry an explicit speculative form; other moved
            // code is marked via attr, not spec.
            if (!inst.info().has_side_effect) {
                // Non-load spec flags are tolerated but unusual.
            } else {
                fail(b, "side-effecting instruction marked speculative: '" +
                         inst.str() + "'");
            }
        }
    }

    void
    checkBlock(const BasicBlock &b)
    {
        for (const Instruction &inst : b.instrs)
            checkInstr(&b, inst);

        if (!b.endsInUnconditionalTransfer()) {
            if (b.fallthrough < 0) {
                fail(&b, "no fallthrough and no terminating transfer");
            } else if (!validTarget(b.fallthrough)) {
                fail(&b, "fallthrough to dead/invalid block");
            }
        }

        if (b.scheduled())
            checkSchedule(b);
    }

    void
    checkSchedule(const BasicBlock &b)
    {
        // Every instruction appears exactly once in the bundles.
        std::vector<int> seen(b.instrs.size(), 0);
        for (const Bundle &bun : b.bundles) {
            for (int16_t s : bun.slots) {
                if (s == kSlotNop)
                    continue;
                if (s < 0 || s >= static_cast<int>(b.instrs.size())) {
                    fail(&b, "bundle slot references bad instruction");
                    continue;
                }
                seen[s]++;
            }
        }
        for (size_t i = 0; i < seen.size(); ++i) {
            if (seen[i] != 1) {
                fail(&b, "instruction " + std::to_string(i) +
                         " appears " + std::to_string(seen[i]) +
                         " times in bundles");
            }
        }

        // Per issue group: branches last; no intra-group RAW/WAW except
        // (a) the compare-to-dependent-branch-guard special case,
        // (b) instructions guarded by provably disjoint predicates
        //     (IA-64 allows same-group writes under mutually exclusive
        //     qualifying predicates), and
        // (c) reads after a chk.a writing the same register — on a hit
        //     chk.a writes nothing (the paired ld.a already delivered
        //     the value), and on a miss the pipeline re-steers, so the
        //     consumer never observes a torn value.
        PredRelations prel(b);
        auto effective_guard = [](const Instruction &inst) {
            if ((inst.op == Opcode::CMP || inst.op == Opcode::CMPI) &&
                inst.ctype == CmpType::Unc) {
                return kPrTrue; // unc compares write unconditionally
            }
            return inst.guard;
        };
        auto disjoint = [&](const Instruction &x, int xpos,
                            const Instruction &y, int ypos) {
            Reg gx = effective_guard(x);
            Reg gy = effective_guard(y);
            if (gx == kPrTrue || gy == kPrTrue)
                return false;
            return prel.disjointAt(xpos, gx, gy) &&
                   prel.disjointAt(ypos, gx, gy);
        };

        size_t g_start = 0;
        while (g_start < b.bundles.size()) {
            size_t g_end = g_start;
            while (g_end < b.bundles.size() &&
                   !b.bundles[g_end].stop_after) {
                ++g_end;
            }
            // Group covers bundles [g_start, g_end] inclusive.
            // written: reg -> source position of the writing instr.
            std::unordered_map<Reg, int> written;
            std::vector<Reg> cmp_dests;
            bool branch_seen = false;
            for (size_t bi = g_start;
                 bi <= g_end && bi < b.bundles.size(); ++bi) {
                for (int16_t s : b.bundles[bi].slots) {
                    if (s == kSlotNop)
                        continue;
                    const Instruction &inst = b.instrs[s];
                    if (branch_seen && !inst.isBranch()) {
                        fail(&b,
                             "non-branch after branch in issue group: '" +
                                 inst.str() + "'");
                    }
                    // RAW check on register sources.
                    for (const Operand &o : inst.srcs) {
                        if (!o.isReg() || o.reg == kGrZero)
                            continue;
                        auto it = written.find(o.reg);
                        if (it != written.end() &&
                            b.instrs[it->second].op != Opcode::CHK_A &&
                            !disjoint(inst, s, b.instrs[it->second],
                                      it->second)) {
                            fail(&b, "intra-group RAW on " + o.reg.str() +
                                     " at '" + inst.str() + "'");
                        }
                    }
                    // Guard RAW: allowed only for branches whose guard
                    // was produced by a compare in this group (IA-64
                    // special rule).
                    if (inst.guard != kPrTrue &&
                        written.count(inst.guard)) {
                        bool from_cmp = false;
                        for (const Reg &cd : cmp_dests)
                            if (cd == inst.guard)
                                from_cmp = true;
                        if (!(inst.isBranch() && from_cmp)) {
                            fail(&b, "intra-group guard RAW at '" +
                                     inst.str() + "'");
                        }
                    }
                    for (const Reg &d : inst.dests) {
                        if (d == kGrZero)
                            continue;
                        auto it = written.find(d);
                        if (it != written.end() &&
                            !disjoint(inst, s, b.instrs[it->second],
                                      it->second)) {
                            fail(&b, "intra-group WAW on " + d.str() +
                                     " at '" + inst.str() + "'");
                        }
                        written[d] = s;
                        if (inst.op == Opcode::CMP ||
                            inst.op == Opcode::CMPI) {
                            cmp_dests.push_back(d);
                        }
                    }
                    if (inst.isBranch())
                        branch_seen = true;
                }
            }
            g_start = g_end + 1;
        }
    }
};

} // namespace

std::vector<std::string>
verifyFunction(const Function &f)
{
    Checker c{f, {}};
    if (!f.block(f.entry)) {
        c.fail(nullptr, "missing entry block");
        return c.errors;
    }
    for (const auto &b : f.blocks)
        if (b)
            c.checkBlock(*b);
    return c.errors;
}

std::vector<std::string>
verifyProgram(const Program &p)
{
    std::vector<std::string> all;
    for (const auto &f : p.funcs) {
        if (!f)
            continue;
        auto errs = verifyFunction(*f);
        all.insert(all.end(), errs.begin(), errs.end());
        // Check call targets against the program.
        for (const auto &b : f->blocks) {
            if (!b)
                continue;
            for (const Instruction &inst : b->instrs) {
                if (inst.op == Opcode::BR_CALL && !p.func(inst.callee)) {
                    all.push_back(f->name + ": call to invalid function " +
                                  std::to_string(inst.callee));
                }
            }
        }
    }
    if (p.entry_func >= 0 && !p.func(p.entry_func))
        all.push_back("invalid program entry function");
    return all;
}

std::string
VerifyReport::str() const
{
    std::ostringstream os;
    for (const std::string &e : errors)
        os << "verify[" << phase << "]: " << e << "\n";
    return os.str();
}

VerifyReport
verifyAll(const Program &p, const char *phase)
{
    VerifyReport rep;
    rep.phase = phase;
    rep.errors = verifyProgram(p);
    return rep;
}

void
verifyOrDie(const Program &p, const char *phase)
{
    auto errs = verifyProgram(p);
    if (!errs.empty()) {
        // Print the complete list (not just the first error): when a
        // transform breaks several functions at once, the full set is
        // what identifies the shared root cause.
        for (const std::string &e : errs)
            epic_warn("verify[", phase, "]: ", e);
        epic_panic("IR verification failed after ", phase, " (",
                   errs.size(), " errors)");
    }
}

} // namespace epic
