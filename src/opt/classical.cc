#include "opt/classical.h"

#include <array>
#include <map>
#include <optional>
#include <vector>

#include "analysis/manager.h"
#include "support/logging.h"

namespace epic {

namespace {

/** Lattice value for local propagation. */
struct LatVal
{
    enum class Kind { Unknown, Const, Copy, PredConst } kind =
        Kind::Unknown;
    int64_t cval = 0;
    Reg copy_of;
    bool pval = false;
};

/** Local propagation environment (one block at a time). */
class Env
{
  public:
    void
    clear()
    {
        map_.clear();
    }

    const LatVal *
    get(Reg r) const
    {
        auto it = map_.find(r);
        return it == map_.end() ? nullptr : &it->second;
    }

    void
    set(Reg r, LatVal v)
    {
        invalidate(r);
        // r0 and p0 are hardwired: a write to either is discarded, so
        // it leaves no value behind to propagate.
        if (r != kGrZero && r != kPrTrue)
            map_[r] = v;
    }

    /** A register was (re)defined with an unknown value. */
    void
    invalidate(Reg r)
    {
        map_.erase(r);
        for (auto it = map_.begin(); it != map_.end();) {
            if (it->second.kind == LatVal::Kind::Copy &&
                it->second.copy_of == r) {
                it = map_.erase(it);
            } else {
                ++it;
            }
        }
    }

  private:
    std::map<Reg, LatVal> map_;
};

bool
isCmp(const Instruction &inst)
{
    return inst.op == Opcode::CMP || inst.op == Opcode::CMPI;
}

std::optional<int64_t>
foldAlu(Opcode op, int64_t a, int64_t b)
{
    auto ua = static_cast<uint64_t>(a);
    auto ub = static_cast<uint64_t>(b);
    switch (op) {
      case Opcode::ADD: case Opcode::ADDI:
        return static_cast<int64_t>(ua + ub);
      case Opcode::SUB: case Opcode::SUBI:
        return static_cast<int64_t>(ua - ub);
      case Opcode::AND: case Opcode::ANDI: return a & b;
      case Opcode::OR: case Opcode::ORI: return a | b;
      case Opcode::XOR: case Opcode::XORI: return a ^ b;
      case Opcode::SHL: case Opcode::SHLI:
        return static_cast<int64_t>(ua << (ub & 63));
      case Opcode::SHR: case Opcode::SHRI:
        return static_cast<int64_t>(ua >> (ub & 63));
      case Opcode::SAR: case Opcode::SARI: return a >> (ub & 63);
      case Opcode::MUL: return static_cast<int64_t>(ua * ub);
      case Opcode::DIV:
        if (b == 0)
            return std::nullopt;
        return a / b;
      case Opcode::REM:
        if (b == 0)
            return std::nullopt;
        return a % b;
      default:
        return std::nullopt;
    }
}

std::optional<bool>
foldCmp(CmpCond cond, int64_t a, int64_t b)
{
    switch (cond) {
      case CmpCond::EQ: return a == b;
      case CmpCond::NE: return a != b;
      case CmpCond::LT: return a < b;
      case CmpCond::LE: return a <= b;
      case CmpCond::GT: return a > b;
      case CmpCond::GE: return a >= b;
      case CmpCond::LTU:
        return static_cast<uint64_t>(a) < static_cast<uint64_t>(b);
      case CmpCond::GEU:
        return static_cast<uint64_t>(a) >= static_cast<uint64_t>(b);
    }
    return std::nullopt;
}

bool
isPureAlu(const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::ADD: case Opcode::SUB: case Opcode::AND:
      case Opcode::OR: case Opcode::XOR: case Opcode::MUL:
      case Opcode::SHL: case Opcode::SHR: case Opcode::SAR:
      case Opcode::ADDI: case Opcode::SUBI: case Opcode::ANDI:
      case Opcode::ORI: case Opcode::XORI: case Opcode::SHLI:
      case Opcode::SHRI: case Opcode::SARI:
      case Opcode::DIV: case Opcode::REM:
        return true;
      default:
        return false;
    }
}

/**
 * What one source contributes to a CSE key: its kind and the payload
 * its printed form shows (register; immediate; symbol and offset;
 * function).
 */
struct KeyPart
{
    Operand::Kind kind;
    uint64_t a = 0, b = 0;

    bool operator==(const KeyPart &) const = default;
};

KeyPart
keyPart(const Operand &o)
{
    switch (o.kind) {
      case Operand::Kind::Reg:
        return {o.kind,
                static_cast<uint64_t>(o.reg.cls) << 32 |
                    static_cast<uint32_t>(o.reg.id)};
      case Operand::Kind::Imm:
        return {o.kind, static_cast<uint64_t>(o.imm)};
      case Operand::Kind::Sym:
        return {o.kind, static_cast<uint32_t>(o.sym),
                static_cast<uint64_t>(o.imm)};
      case Operand::Kind::Func:
        return {o.kind, static_cast<uint32_t>(o.func)};
      case Operand::Kind::None:
        break;
    }
    return {o.kind};
}

/**
 * Same CSE key: opcode, cond, access size and each source's KeyPart.
 * Opcode and cond names are unique, so this is equality of the printed
 * "name/cond,src...;size" key.
 */
bool
sameExpr(const Instruction &a, const Instruction &b)
{
    if (a.op != b.op || a.cond != b.cond || a.size != b.size ||
        a.srcs.size() != b.srcs.size())
        return false;
    for (size_t i = 0; i < a.srcs.size(); ++i)
        if (keyPart(a.srcs[i]) != keyPart(b.srcs[i]))
            return false;
    return true;
}

/** Hash of the sameExpr() key (FNV-1a over 64-bit words). */
uint64_t
exprHash(const Instruction &e)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
    mix(static_cast<uint64_t>(e.op) | static_cast<uint64_t>(e.cond) << 8 |
        static_cast<uint64_t>(e.size) << 16);
    for (const Operand &o : e.srcs) {
        const KeyPart k = keyPart(o);
        mix(static_cast<uint64_t>(k.kind));
        mix(k.a);
        mix(k.b);
    }
    return h;
}

/** Does `expr` read register `d`? Redefining d kills a CSE fact about
 *  such an expression. */
bool
readsReg(const Instruction &expr, Reg d)
{
    for (const Operand &o : expr.srcs)
        if (o.isReg() && o.reg == d)
            return true;
    return false;
}

/** One bit of a 64-bit filter for a register name (class + id). */
uint64_t
nameBit(RegClass cls, int32_t id)
{
    const uint64_t name = static_cast<uint64_t>(static_cast<uint32_t>(id))
                              << 2 |
                          static_cast<uint64_t>(cls);
    return 1ull << ((name * 0x9e3779b97f4a7c15ull) >> 58);
}

/** Filter for readsReg(): the nameBit() of every source register, so
 *  readsReg(expr, d) implies that d's bit is set. */
uint64_t
nameBits(const Instruction &expr)
{
    uint64_t bits = 0;
    for (const Operand &o : expr.srcs)
        if (o.isReg())
            bits |= nameBit(o.reg.cls, o.reg.id);
    return bits;
}

} // namespace

OptStats
localValueProp(Function &f, LocalPropEffect *effect)
{
    OptStats stats;
    LocalPropEffect eff;
    Env env;

    for (auto &bp : f.blocks) {
        if (!bp)
            continue;
        BasicBlock &b = *bp;
        env.clear();
        std::vector<Instruction> out;
        out.reserve(b.instrs.size());
        bool block_ended = false;

        for (Instruction inst : b.instrs) {
            if (block_ended)
                break; // code after an unconditional transfer is dead

            // 1. Guard with known value?
            if (inst.hasGuard()) {
                const LatVal *g = env.get(inst.guard);
                if (g && g->kind == LatVal::Kind::PredConst) {
                    if (!g->pval) {
                        // Squashed; unc compares still clear their dests.
                        if (isCmp(inst) && inst.ctype == CmpType::Unc) {
                            for (int d = 0; d < 2; ++d) {
                                Instruction mp;
                                mp.op = Opcode::MOVP;
                                mp.dests = {inst.dests[d]};
                                mp.srcs = {Operand::makeImm(0)};
                                LatVal lv;
                                lv.kind = LatVal::Kind::PredConst;
                                lv.pval = false;
                                env.set(inst.dests[d], lv);
                                out.push_back(mp);
                            }
                        }
                        ++stats.folded;
                        eff.shape_changed = true;
                        continue; // drop the squashed instruction
                    }
                    inst.guard = kPrTrue; // known-true guard
                    ++stats.propagated;
                    // Un-guarding a control transfer changes edge
                    // structure (an unconditional BR ends the block).
                    if (inst.target >= 0)
                        eff.shape_changed = true;
                }
            }

            // 2. Substitute constant/copy sources. Immediate forms
            // exist only for the add/logical/shift family (and cmp);
            // mul by a power of two becomes a shift.
            auto has_imm_form = [](Opcode op) {
                switch (op) {
                  case Opcode::ADD: case Opcode::SUB: case Opcode::AND:
                  case Opcode::OR: case Opcode::XOR: case Opcode::SHL:
                  case Opcode::SHR: case Opcode::SAR:
                  case Opcode::ADDI: case Opcode::SUBI:
                  case Opcode::ANDI: case Opcode::ORI:
                  case Opcode::XORI: case Opcode::SHLI:
                  case Opcode::SHRI: case Opcode::SARI:
                    return true;
                  default:
                    return false;
                }
            };
            for (size_t si = 0; si < inst.srcs.size(); ++si) {
                Operand &o = inst.srcs[si];
                if (!o.isReg() || o.reg.cls != RegClass::Gr)
                    continue;
                const LatVal *v = env.get(o.reg);
                if (!v)
                    continue;
                if (v->kind == LatVal::Kind::Copy) {
                    o.reg = v->copy_of;
                    ++stats.propagated;
                } else if (v->kind == LatVal::Kind::Const) {
                    bool pow2 = v->cval > 0 &&
                                (v->cval & (v->cval - 1)) == 0;
                    bool can_imm =
                        (has_imm_form(inst.op) && si == 1) ||
                        (inst.op == Opcode::MOV && si == 0) ||
                        ((inst.op == Opcode::CMP ||
                          inst.op == Opcode::CMPI) && si == 1) ||
                        (inst.op == Opcode::MUL && si == 1 && pow2);
                    if (can_imm) {
                        if (inst.op == Opcode::MUL) {
                            int sh = 0;
                            while ((1ll << sh) < v->cval)
                                ++sh;
                            inst.op = Opcode::SHLI;
                            o = Operand::makeImm(sh);
                        } else {
                            o = Operand::makeImm(v->cval);
                        }
                        ++stats.propagated;
                    }
                }
            }
            bool imm_form_ok = has_imm_form(inst.op);
            const Opcode op_before_canon = inst.op;

            // Canonicalize reg->imm forms (add -> addi etc.).
            if (imm_form_ok && inst.srcs.size() == 2 &&
                inst.srcs[1].kind == Operand::Kind::Imm) {
                switch (inst.op) {
                  case Opcode::ADD: inst.op = Opcode::ADDI; break;
                  case Opcode::SUB: inst.op = Opcode::SUBI; break;
                  case Opcode::AND: inst.op = Opcode::ANDI; break;
                  case Opcode::OR: inst.op = Opcode::ORI; break;
                  case Opcode::XOR: inst.op = Opcode::XORI; break;
                  case Opcode::SHL: inst.op = Opcode::SHLI; break;
                  case Opcode::SHR: inst.op = Opcode::SHRI; break;
                  case Opcode::SAR: inst.op = Opcode::SARI; break;
                  default: break;
                }
            }
            if (inst.op == Opcode::CMP &&
                inst.srcs[1].kind == Operand::Kind::Imm) {
                inst.op = Opcode::CMPI;
            }
            if (inst.op == Opcode::MOV &&
                inst.srcs[0].kind == Operand::Kind::Imm) {
                inst.op = Opcode::MOVI;
            }
            if (inst.op != op_before_canon)
                eff.mutated = true; // canonicalized: uncounted rewrite

            // 3. Fold fully-constant computations.
            bool folded = false;
            if (isPureAlu(inst) && !inst.hasGuard() &&
                inst.srcs[0].kind == Operand::Kind::Imm &&
                inst.srcs[1].kind == Operand::Kind::Imm) {
                if (auto v =
                        foldAlu(inst.op, inst.srcs[0].imm,
                                inst.srcs[1].imm)) {
                    Reg d = inst.dests[0];
                    inst = Instruction();
                    inst.op = Opcode::MOVI;
                    inst.dests = {d};
                    inst.srcs = {Operand::makeImm(*v)};
                    ++stats.folded;
                    folded = true;
                }
            }
            // ALU with a constant *first* operand that became imm-form
            // is impossible here (we only immediate-ize src1), but a
            // reg-form op whose both sources are known constants can
            // still fold.
            if (!folded && isPureAlu(inst) && !inst.hasGuard()) {
                auto cst = [&](const Operand &o) -> std::optional<int64_t> {
                    if (o.kind == Operand::Kind::Imm)
                        return o.imm;
                    if (o.isReg()) {
                        if (o.reg == kGrZero)
                            return 0;
                        const LatVal *v = env.get(o.reg);
                        if (v && v->kind == LatVal::Kind::Const)
                            return v->cval;
                    }
                    return std::nullopt;
                };
                auto a = cst(inst.srcs[0]);
                auto b2 = cst(inst.srcs[1]);
                if (a && b2) {
                    if (auto v = foldAlu(inst.op, *a, *b2)) {
                        Reg d = inst.dests[0];
                        inst = Instruction();
                        inst.op = Opcode::MOVI;
                        inst.dests = {d};
                        inst.srcs = {Operand::makeImm(*v)};
                        ++stats.folded;
                    }
                }
            }

            // Fold compares with constant inputs into predicate sets.
            if ((inst.op == Opcode::CMPI || inst.op == Opcode::CMP) &&
                !inst.hasGuard() && inst.ctype == CmpType::Norm) {
                auto cst = [&](const Operand &o) -> std::optional<int64_t> {
                    if (o.kind == Operand::Kind::Imm)
                        return o.imm;
                    if (o.isReg()) {
                        if (o.reg == kGrZero)
                            return 0;
                        const LatVal *v = env.get(o.reg);
                        if (v && v->kind == LatVal::Kind::Const)
                            return v->cval;
                    }
                    return std::nullopt;
                };
                auto a = cst(inst.srcs[0]);
                auto b2 = cst(inst.srcs[1]);
                if (a && b2) {
                    if (auto c = foldCmp(inst.cond, *a, *b2)) {
                        for (int d = 0; d < 2; ++d) {
                            Instruction mp;
                            mp.op = Opcode::MOVP;
                            mp.dests = {inst.dests[d]};
                            mp.srcs = {
                                Operand::makeImm((d == 0) == *c ? 1 : 0)};
                            LatVal lv;
                            lv.kind = LatVal::Kind::PredConst;
                            lv.pval = (d == 0) == *c;
                            env.set(inst.dests[d], lv);
                            out.push_back(mp);
                        }
                        ++stats.folded;
                        eff.shape_changed = true; // 1 cmp -> 2 movp
                        continue;
                    }
                }
            }

            // 4. Branch simplification: unconditional branch ends block.
            if (inst.op == Opcode::BR && !inst.hasGuard())
                block_ended = true;

            // 5. Record facts about destinations.
            for (const Reg &d : inst.dests)
                env.invalidate(d);
            if (!inst.hasGuard()) {
                if (inst.op == Opcode::MOVI) {
                    LatVal lv;
                    lv.kind = LatVal::Kind::Const;
                    lv.cval = inst.srcs[0].imm;
                    env.set(inst.dests[0], lv);
                } else if (inst.op == Opcode::MOV &&
                           inst.srcs[0].isReg()) {
                    LatVal lv;
                    lv.kind = LatVal::Kind::Copy;
                    lv.copy_of = inst.srcs[0].reg;
                    env.set(inst.dests[0], lv);
                } else if (inst.op == Opcode::MOVP) {
                    LatVal lv;
                    lv.kind = LatVal::Kind::PredConst;
                    lv.pval = inst.srcs[0].imm != 0;
                    env.set(inst.dests[0], lv);
                }
            }
            // A call invalidates nothing here: registers are
            // frame-private (IA-64 register-stack semantics).

            out.push_back(std::move(inst));
        }
        if (block_ended && out.size() < b.instrs.size())
            b.fallthrough = -1;
        if (out.size() != b.instrs.size())
            eff.shape_changed = true;
        b.instrs = std::move(out);
    }
    if (stats.total() > 0 || eff.shape_changed)
        eff.mutated = true;
    if (effect)
        *effect = eff;
    return stats;
}

OptStats
localCse(Function &f, const AliasAnalysis &aa)
{
    OptStats stats;
    // An available value: the register that holds it and the recorded
    // instruction (its index in the block; the instruction is its own
    // key), with the key's hash and register-name filter bits so that
    // scans touch the instruction only on a likely match. A hit becomes
    // a MOV in place and is never recorded, so a recorded instruction
    // stays as it was.
    struct Avail
    {
        Reg value;
        uint32_t at;
        uint64_t hash;
        uint64_t names;
    };
    std::vector<Avail> avail; ///< pure ALU expressions
    std::vector<Avail> loads; ///< loads, also killed by stores/calls

    for (auto &bp : f.blocks) {
        if (!bp)
            continue;
        ArenaVec<Instruction> &instrs = bp->instrs;
        avail.clear();
        loads.clear();

        auto find = [&](const std::vector<Avail> &table,
                        const Instruction &inst,
                        uint64_t hash) -> const Avail * {
            for (const Avail &a : table)
                if (a.hash == hash && sameExpr(instrs[a.at], inst))
                    return &a;
            return nullptr;
        };
        auto kill = [&](Reg d) {
            const uint64_t bit = nameBit(d.cls, d.id);
            auto stale = [&](const Avail &a) {
                return a.value == d ||
                       ((a.names & bit) && readsReg(instrs[a.at], d));
            };
            std::erase_if(avail, stale);
            std::erase_if(loads, stale);
        };

        for (uint32_t k = 0; k < instrs.size(); ++k) {
            Instruction &inst = instrs[k];
            // 1. Try to replace with an available value.
            const bool cse_alu = isPureAlu(inst) && !inst.hasGuard() &&
                                 inst.dests.size() == 1;
            const bool cse_ld = inst.op == Opcode::LD &&
                                !inst.hasGuard() && !inst.spec;
            std::vector<Avail> *table =
                cse_alu ? &avail : (cse_ld ? &loads : nullptr);
            uint64_t hash = 0;
            if (table) {
                hash = exprHash(inst);
                if (const Avail *hit = find(*table, inst, hash)) {
                    Instruction mv;
                    mv.op = Opcode::MOV;
                    mv.dests = inst.dests;
                    mv.srcs = {Operand::makeReg(hit->value)};
                    inst = mv;
                    ++stats.cse_removed;
                    // The replacement MOV redefines the dest: kill stale
                    // facts about it.
                    kill(inst.dests[0]);
                    continue;
                }
            }

            // 2. Kill facts invalidated by this instruction.
            for (const Reg &d : inst.dests)
                kill(d);
            if (inst.isStore()) {
                std::erase_if(loads, [&](const Avail &a) {
                    return aa.mayAlias(f, inst, instrs[a.at]);
                });
            } else if (inst.isCall()) {
                std::erase_if(loads, [&](const Avail &a) {
                    return aa.callMayTouch(inst, instrs[a.at]);
                });
            }

            // 3. Record the new availability — unless the expression
            // reads its own destination (e.g. add x = x, 1), whose key
            // now refers to a stale value, or the destination is r0,
            // which discards the write.
            if (table && inst.dests[0] != kGrZero) {
                bool self_ref = false;
                for (const Reg &d : inst.dests)
                    self_ref = self_ref || readsReg(inst, d);
                if (!self_ref)
                    table->push_back(
                        Avail{inst.dests[0], k, hash, nameBits(inst)});
            }
        }
    }
    return stats;
}

OptStats
deadCodeElim(Function &f, AnalysisManager &am)
{
    OptStats stats;
    RegSet live_now;
    std::vector<bool> keep;
    std::vector<Reg> uses, defs;
    bool changed = true;
    while (changed) {
        changed = false;
        const Cfg &cfg = am.cfg();
        const Liveness &live = am.liveness();
        for (int bid : cfg.rpo()) {
            BasicBlock &b = *f.block(bid);
            // Walk backwards tracking liveness precisely.
            live_now = live.liveOut(bid);
            keep.assign(b.instrs.size(), true);
            for (int i = static_cast<int>(b.instrs.size()) - 1; i >= 0;
                 --i) {
                const Instruction &inst = b.instrs[i];
                if (inst.isBranch() && inst.target >= 0 &&
                    cfg.reachable(inst.target)) {
                    live_now |= live.liveIn(inst.target);
                }
                instrDefs(inst, defs);
                bool any_live = defs.empty();
                for (Reg d : defs)
                    if (live_now.count(d))
                        any_live = true;
                bool removable = !inst.info().has_side_effect &&
                                 !inst.isBranch() && !defs.empty();
                if (removable && !any_live) {
                    keep[i] = false;
                    ++stats.dce_removed;
                    changed = true;
                    continue;
                }
                if (defsAreUnconditional(inst))
                    for (Reg d : defs)
                        live_now.erase(d);
                instrUses(inst, uses);
                for (Reg r : uses)
                    live_now.insert(r);
            }
            if (changed) {
                std::vector<Instruction> out;
                out.reserve(b.instrs.size());
                for (size_t i = 0; i < b.instrs.size(); ++i)
                    if (keep[i])
                        out.push_back(std::move(b.instrs[i]));
                b.instrs = std::move(out);
            }
        }
        if (!changed)
            break;
        am.invalidateAll();
    }
    return stats;
}

OptStats
licm(Function &f, AnalysisManager &am)
{
    OptStats stats;
    const AliasAnalysis &aa = am.alias();
    const LoopForest &forest = am.loopForest();
    // Defs of each register in the loop, dense per class by register
    // id (an id past the end has none yet).
    std::array<std::vector<int>, kNumRegClasses> def_count;
    auto defs_of = [&](Reg r) -> int & {
        std::vector<int> &v = def_count[static_cast<int>(r.cls)];
        if (static_cast<size_t>(r.id) >= v.size())
            v.resize(r.id + 1, 0);
        return v[r.id];
    };
    std::vector<char> hoist;

    for (const Loop &loop : forest.loops()) {
        // Collect loop-wide facts.
        bool loop_has_store = false, loop_has_call = false;
        for (std::vector<int> &v : def_count)
            std::fill(v.begin(), v.end(), 0);
        std::vector<const Instruction *> loop_stores;
        for (int bid : loop.blocks) {
            const BasicBlock *b = f.block(bid);
            if (!b)
                continue;
            for (const Instruction &inst : b->instrs) {
                for (const Reg &d : inst.dests)
                    ++defs_of(d);
                if (inst.isStore()) {
                    loop_has_store = true;
                    loop_stores.push_back(&inst);
                }
                if (inst.isCall())
                    loop_has_call = true;
            }
        }

        // Hoist only from the header (executes every iteration when the
        // loop runs; the header dominates the whole body).
        BasicBlock *header = f.block(loop.header);
        if (!header)
            continue;

        hoist.assign(header->instrs.size(), false);
        int moved = 0;
        bool past_branch = false;
        for (uint32_t k = 0; k < header->instrs.size(); ++k) {
            const Instruction &inst = header->instrs[k];
            bool can = !past_branch && !inst.hasGuard() &&
                       !inst.isBranch() && !inst.info().has_side_effect &&
                       !inst.dests.empty();
            if (inst.isBranch())
                past_branch = true;
            if (can) {
                // Sources must be loop-invariant.
                for (const Operand &o : inst.srcs) {
                    if (o.isReg() && o.reg != kGrZero && defs_of(o.reg) > 0)
                        can = false;
                }
                // Destination must have exactly one def in the loop.
                for (const Reg &d : inst.dests)
                    if (defs_of(d) != 1)
                        can = false;
                // Loads need no conflicting stores/calls in the loop.
                if (inst.isLoad()) {
                    if (loop_has_call) {
                        can = false;
                    } else if (loop_has_store) {
                        for (const Instruction *st : loop_stores)
                            if (aa.mayAlias(f, inst, *st))
                                can = false;
                    }
                }
            }
            if (can) {
                // Update def counts so dependent hoists chain.
                for (const Reg &d : inst.dests)
                    defs_of(d) = 0;
                hoist[k] = true;
                ++moved;
            }
        }
        if (moved == 0)
            continue;
        stats.licm_moved += moved;
        std::vector<Instruction> hoisted, rest;
        for (uint32_t k = 0; k < header->instrs.size(); ++k)
            (hoist[k] ? hoisted : rest).push_back(header->instrs[k]);
        header->instrs = rest;

        // Build (or reuse) a preheader: redirect all non-latch preds.
        BasicBlock *pre = f.newBlock();
        pre->instrs = std::move(hoisted);
        pre->fallthrough = header->id;
        pre->weight = std::max(0.0, loop.header_weight /
                                        std::max(1.0, loop.avg_trip));
        for (int pid = 0; pid < static_cast<int>(f.blocks.size()); ++pid) {
            BasicBlock *pb = f.block(pid);
            if (!pb || pb == pre)
                continue;
            bool is_latch = loop.blocks.count(pid) != 0;
            if (is_latch)
                continue;
            for (Instruction &inst : pb->instrs)
                if (inst.isBranch() && inst.target == header->id)
                    inst.target = pre->id;
            if (pb->fallthrough == header->id)
                pb->fallthrough = pre->id;
        }
        // Only handle one loop per invocation (the CFG changed).
        am.invalidateAll();
        break;
    }
    return stats;
}

OptStats
peephole(Function &f)
{
    OptStats stats;
    for (auto &bp : f.blocks) {
        if (!bp)
            continue;
        for (Instruction &inst : bp->instrs) {
            // x * 2^k  ->  x << k (mul runs on the slow FP unit).
            if (inst.op == Opcode::MUL &&
                inst.srcs[1].kind == Operand::Kind::Imm) {
                int64_t v = inst.srcs[1].imm;
                if (v > 0 && (v & (v - 1)) == 0) {
                    int sh = 0;
                    while ((1ll << sh) < v)
                        ++sh;
                    inst.op = Opcode::SHLI;
                    inst.srcs[1] = Operand::makeImm(sh);
                    ++stats.peephole;
                }
            }
            // x +/- 0, x * 1 -> mov.
            if ((inst.op == Opcode::ADDI || inst.op == Opcode::SUBI ||
                 inst.op == Opcode::ORI || inst.op == Opcode::XORI ||
                 inst.op == Opcode::SHLI || inst.op == Opcode::SHRI ||
                 inst.op == Opcode::SARI) &&
                inst.srcs[1].kind == Operand::Kind::Imm &&
                inst.srcs[1].imm == 0) {
                inst.op = Opcode::MOV;
                inst.srcs.pop_back();
                ++stats.peephole;
            }
        }
    }
    return stats;
}

OptStats
classicalOptimizeFunction(Function &f, AnalysisManager &am, int max_iters)
{
    OptStats total;
    for (int iter = 0; iter < max_iters; ++iter) {
        OptStats round;
        LocalPropEffect lvp;
        round += localValueProp(f, &lvp);
        // The effect report covers uncounted canonicalizations too, so
        // it (unlike the stats) can gate invalidation: a clean round
        // keeps every cache warm, and an in-place-only round keeps the
        // block graph (Cfg edges and branch indices are untouched).
        if (lvp.shape_changed)
            am.invalidateAll();
        else if (lvp.mutated)
            am.invalidateAllExcept(kPreserveBlockGraph);
        {
            const OptStats s = localCse(f, am.alias());
            if (s.total() > 0)
                am.invalidateAll();
            round += s;
        }
        {
            const OptStats s = peephole(f);
            if (s.total() > 0)
                am.invalidateAll();
            round += s;
        }
        round += deadCodeElim(f, am);
        round += licm(f, am);
        pruneUnreachableBlocks(f, am);
        total += round;
        if (round.total() == 0)
            break;
    }
    return total;
}

} // namespace epic
