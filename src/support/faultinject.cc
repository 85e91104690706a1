#include "support/faultinject.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "analysis/manager.h"
#include "support/rng.h"

namespace epic {

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::BranchTarget: return "branch-target";
      case FaultKind::OperandSwap: return "operand-swap";
      case FaultKind::GuardCorrupt: return "guard-corrupt";
      case FaultKind::RegOverflow: return "reg-overflow";
      case FaultKind::SpecWild: return "spec-wild";
      case FaultKind::PassThrow: return "pass-throw";
      case FaultKind::SpuriousInvalidate: return "spurious-invalidate";
      case FaultKind::SimDecodeCorrupt: return "sim-decode-corrupt";
      case FaultKind::SimMemBitFlip: return "sim-mem-bitflip";
      case FaultKind::SimHang: return "sim-hang";
      case FaultKind::SimAlatCorrupt: return "sim-alat-corrupt";
    }
    return "?";
}

/** Sim-layer kinds have no compile-site victim and vice versa. */
static bool
isSimKind(FaultKind k)
{
    return k == FaultKind::SimDecodeCorrupt ||
           k == FaultKind::SimMemBitFlip || k == FaultKind::SimHang ||
           k == FaultKind::SimAlatCorrupt;
}

namespace {

uint64_t
mix(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

uint64_t
mixStr(uint64_t h, const std::string &s)
{
    for (char c : s)
        h = mix(h, static_cast<uint8_t>(c));
    return mix(h, s.size());
}

/// An instruction position within a function.
struct Site
{
    BasicBlock *bb = nullptr;
    int idx = -1;
    Instruction &instr() const { return bb->instrs[idx]; }
};

/** Does the verifier check src 0 of this opcode as a Gr register? */
bool
checkedGrSrc(Opcode op)
{
    switch (op) {
      case Opcode::MOV:
      case Opcode::ADD: case Opcode::SUB: case Opcode::AND:
      case Opcode::OR: case Opcode::XOR: case Opcode::MUL:
      case Opcode::DIV: case Opcode::REM: case Opcode::SHL:
      case Opcode::SHR: case Opcode::SAR:
      case Opcode::ADDI: case Opcode::SUBI: case Opcode::ANDI:
      case Opcode::ORI: case Opcode::XORI: case Opcode::SHLI:
      case Opcode::SHRI: case Opcode::SARI:
      case Opcode::SXT: case Opcode::ZXT:
      case Opcode::CMP: case Opcode::CMPI:
      case Opcode::LD: case Opcode::ST:
        return true;
      default:
        return false;
    }
}

/** Does the verifier check dest 0 of this opcode as a Gr register? */
bool
checkedGrDest(Opcode op)
{
    switch (op) {
      case Opcode::MOV: case Opcode::MOVI: case Opcode::MOVA:
      case Opcode::MOVFN:
      case Opcode::ADD: case Opcode::SUB: case Opcode::AND:
      case Opcode::OR: case Opcode::XOR: case Opcode::MUL:
      case Opcode::DIV: case Opcode::REM: case Opcode::SHL:
      case Opcode::SHR: case Opcode::SAR:
      case Opcode::ADDI: case Opcode::SUBI: case Opcode::ANDI:
      case Opcode::ORI: case Opcode::XORI: case Opcode::SHLI:
      case Opcode::SHRI: case Opcode::SARI:
      case Opcode::SXT: case Opcode::ZXT:
      case Opcode::LD:
        return true;
      default:
        return false;
    }
}

/** Candidate instructions a fault kind can corrupt detectably. */
std::vector<Site>
candidates(Function &f, FaultKind kind)
{
    std::vector<Site> out;
    for (auto &bp : f.blocks) {
        if (!bp)
            continue;
        for (int i = 0; i < static_cast<int>(bp->instrs.size()); ++i) {
            const Instruction &inst = bp->instrs[i];
            bool ok = false;
            switch (kind) {
              case FaultKind::BranchTarget:
                ok = (inst.op == Opcode::BR || inst.op == Opcode::CHK_S) &&
                     inst.target >= 0;
                break;
              case FaultKind::OperandSwap:
                ok = checkedGrSrc(inst.op) && !inst.srcs.empty() &&
                     inst.srcs[0].isReg() &&
                     inst.srcs[0].reg.cls == RegClass::Gr;
                break;
              case FaultKind::GuardCorrupt:
                ok = inst.op != Opcode::NOP;
                break;
              case FaultKind::RegOverflow:
                ok = f.reg_allocated && checkedGrDest(inst.op) &&
                     !inst.dests.empty() &&
                     inst.dests[0].cls == RegClass::Gr;
                break;
              case FaultKind::SpecWild:
                ok = !inst.spec && inst.info().has_side_effect &&
                     !inst.isLoad() && inst.op != Opcode::CHK_S;
                break;
              case FaultKind::PassThrow:
                ok = true;
                break;
              case FaultKind::SpuriousInvalidate:
              case FaultKind::SimDecodeCorrupt:
              case FaultKind::SimMemBitFlip:
              case FaultKind::SimHang:
              case FaultKind::SimAlatCorrupt:
                ok = false; // no IR victim at a compile-site boundary
                break;
            }
            if (ok)
                out.push_back({bp, i});
        }
    }
    return out;
}

} // namespace

FaultInjector::FaultInjector(uint64_t seed, double rate)
    : seed_(seed), rate_(rate)
{
}

void
FaultInjector::restrictTo(std::string function, std::string pass)
{
    only_function_ = std::move(function);
    only_pass_ = std::move(pass);
}

void
FaultInjector::restrictKind(FaultKind k)
{
    has_restrict_kind_ = true;
    restrict_kind_ = k;
}

void
FaultInjector::enableSimFaults(bool on)
{
    sim_faults_ = on;
}

SimFaultPlan
FaultInjector::simPlan(const std::string &workload, const char *rung)
{
    SimFaultPlan plan;
    if (!sim_faults_)
        return plan;
    if (has_restrict_kind_ && !isSimKind(restrict_kind_))
        return plan;
    if (!only_function_.empty() && only_function_ != workload)
        return plan;
    if (!only_pass_.empty() && only_pass_ != "sim")
        return plan;

    // Same determinism discipline as inject(): everything about the
    // fault is a pure function of (seed, workload, rung).
    uint64_t h = mixStr(mixStr(mixStr(seed_, workload), "sim"),
                        std::string(rung));
    Rng rng(h);
    if (!(rng.nextDouble() < rate_))
        return plan;

    FaultKind kinds[4] = {FaultKind::SimDecodeCorrupt,
                          FaultKind::SimMemBitFlip, FaultKind::SimHang,
                          FaultKind::SimAlatCorrupt};
    int knum = 4;
    if (has_restrict_kind_) {
        kinds[0] = restrict_kind_;
        knum = 1;
    }
    plan.fire = true;
    plan.kind = kinds[rng.nextBelow(knum)];

    FaultRecord rec;
    rec.function = workload;
    rec.pass = "sim";
    rec.rung = rung;
    rec.kind = plan.kind;
    switch (plan.kind) {
      case FaultKind::SimDecodeCorrupt:
        rec.detail = "decoded return-value record poisoned";
        break;
      case FaultKind::SimMemBitFlip:
        plan.mem_bit_sel = rng.next();
        rec.detail = "one bit of the input image flipped (sel " +
                     std::to_string(plan.mem_bit_sel) + ")";
        break;
      case FaultKind::SimAlatCorrupt:
        plan.alat_corrupt = true;
        rec.detail = "one ALAT entry tag poisoned at op 1000";
        break;
      case FaultKind::SimHang:
      default:
        // Stall early (after ~1000 retired ops) for far longer than any
        // sane per-task deadline; the watchdog must reclaim the task.
        plan.hang_at_instr = 1000;
        plan.hang_ms = 60'000;
        rec.detail = "simulation thread stalled at op 1000";
        break;
    }
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(std::move(rec));
    plan.record = static_cast<int>(records_.size()) - 1;
    return plan;
}

int
FaultInjector::inject(Function &f, const std::string &pass,
                      const char *rung, AnalysisManager *am)
{
    if (has_restrict_kind_ && isSimKind(restrict_kind_))
        return -1; // pinned to a sim-layer kind: compile sites are quiet
    if (!only_function_.empty() && only_function_ != f.name)
        return -1;
    if (!only_pass_.empty() && only_pass_ != pass)
        return -1;

    // Fire decision, fault kind and victim instruction are all pure
    // functions of (seed, function, pass, rung): reruns reproduce the
    // exact same corruption.
    uint64_t h = mixStr(mixStr(mixStr(seed_, f.name), pass),
                        std::string(rung));
    Rng rng(h);
    if (!(rng.nextDouble() < rate_))
        return -1;

    // Build the kind rotation: the six IR corruptions, or the one
    // pinned kind.
    FaultKind kinds[6];
    int knum = 0;
    if (has_restrict_kind_) {
        kinds[knum++] = restrict_kind_;
    } else {
        kinds[knum++] = FaultKind::BranchTarget;
        kinds[knum++] = FaultKind::OperandSwap;
        kinds[knum++] = FaultKind::GuardCorrupt;
        kinds[knum++] = FaultKind::RegOverflow;
        kinds[knum++] = FaultKind::SpecWild;
        kinds[knum++] = FaultKind::PassThrow;
    }
    int first = static_cast<int>(rng.nextBelow(knum));

    // Rotate deterministically past kinds with no victim in this IR.
    for (int k = 0; k < knum; ++k) {
        FaultKind kind = kinds[(first + k) % knum];

        if (kind == FaultKind::SpuriousInvalidate) {
            if (!am)
                continue; // no manager at this boundary: not applicable
            FaultRecord rec;
            rec.function = f.name;
            rec.pass = pass;
            rec.rung = rung;
            rec.kind = kind;
            rec.detail = "analysis caches dropped (spurious invalidation)";
            rec.caught = true; // benign by construction: a cache drop
                               // can only cost recomputation
            am->invalidateAll();
            std::lock_guard<std::mutex> lock(mu_);
            records_.push_back(std::move(rec));
            return static_cast<int>(records_.size()) - 1;
        }

        auto sites = candidates(f, kind);
        if (sites.empty())
            continue;

        FaultRecord rec;
        rec.function = f.name;
        rec.pass = pass;
        rec.rung = rung;
        rec.kind = kind;

        if (kind == FaultKind::PassThrow) {
            rec.detail = "injected pass exception";
            rec.caught = true; // by construction: the throw unwinds into
                               // the firewall, which absorbs it
            {
                std::lock_guard<std::mutex> lock(mu_);
                records_.push_back(std::move(rec));
            }
            throw InjectedFault(pass, "injected fault: pass exception in " +
                                          f.name);
        }

        Site s = sites[rng.nextBelow(sites.size())];
        Instruction &inst = s.instr();
        std::ostringstream detail;
        detail << "bb" << s.bb->id << " '" << inst.str() << "': ";
        switch (kind) {
          case FaultKind::BranchTarget:
            inst.target = static_cast<int>(f.blocks.size()) + 13;
            detail << "retargeted to invalid bb" << inst.target;
            break;
          case FaultKind::OperandSwap:
            inst.srcs[0].reg.cls = RegClass::Br;
            detail << "src0 rewritten into the Br class";
            break;
          case FaultKind::GuardCorrupt:
            inst.guard = Reg(RegClass::Gr, 1);
            detail << "guard mis-set to a Gr register";
            break;
          case FaultKind::RegOverflow:
            inst.dests[0] = Reg(RegClass::Gr,
                                physRegCount(RegClass::Gr) + 5);
            detail << "dest past the physical Gr bound";
            break;
          case FaultKind::SpecWild:
            inst.spec = true;
            detail << "side-effecting op marked speculative";
            break;
          case FaultKind::PassThrow:
          default:
            break; // handled above / not a compile-site kind
        }
        rec.detail = detail.str();
        std::lock_guard<std::mutex> lock(mu_);
        records_.push_back(std::move(rec));
        return static_cast<int>(records_.size()) - 1;
    }
    return -1;
}

void
FaultInjector::markCaught(int idx)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (idx >= 0 && idx < static_cast<int>(records_.size()))
        records_[idx].caught = true;
}

const std::vector<FaultRecord> &
FaultInjector::records() const
{
    // Appends from parallel workers arrive in schedule order; the fault
    // *set* is deterministic (pure per-site function), so sorting by
    // site restores a canonical sequence. Identical sites produce
    // identical records, making ties harmless.
    std::lock_guard<std::mutex> lock(mu_);
    std::sort(records_.begin(), records_.end(),
              [](const FaultRecord &a, const FaultRecord &b) {
                  return std::tie(a.function, a.pass, a.rung, a.detail) <
                         std::tie(b.function, b.pass, b.rung, b.detail);
              });
    return records_;
}

int
FaultInjector::fired() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(records_.size());
}

int
FaultInjector::escaped() const
{
    std::lock_guard<std::mutex> lock(mu_);
    int n = 0;
    for (const FaultRecord &r : records_)
        if (!r.caught)
            ++n;
    return n;
}

} // namespace epic
