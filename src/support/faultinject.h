/**
 * @file
 * Deterministic fault-injection engine for the compilation firewall.
 *
 * The firewall's claim is that *any* structurally broken IR produced by
 * a transform is either rejected at a per-pass verifier gate or
 * contained by falling the function back to a more conservative
 * configuration rung — never a crash, never a silently wrong result.
 * That claim is only testable if we can break the IR on demand, so this
 * engine corrupts a function's IR at pass boundaries in the ways the
 * paper's aggressive transforms could plausibly get wrong:
 *
 *  - BranchTarget: retarget a branch to a dead/invalid block (a botched
 *    tail-duplication or layout edge update),
 *  - OperandSwap:  rewrite a register operand into the wrong register
 *    class (a mangled operand rewrite),
 *  - GuardCorrupt: mis-set a qualifying predicate (broken
 *    if-conversion),
 *  - RegOverflow:  assign a destination past the physical register
 *    bound (an allocator that "spilled past the end"),
 *  - SpecWild:     mark a side-effecting operation control-speculative
 *    (a mis-speculated store — wild speculation),
 *  - PassThrow:    raise an InjectedFault from inside the pass boundary
 *    (a pass that crashes instead of producing bad code),
 *  - SpuriousInvalidate: drop every cached analysis in the pass's
 *    AnalysisManager (only when pinned with restrictKind()). This one
 *    is benign by construction — the invalidation contract says a cache
 *    drop can only cost recomputation, never change results — and
 *    injecting it proves the compiler's output is independent of the
 *    invalidation schedule.
 *
 * Injection is fully deterministic: whether a site fires, which fault
 * kind it applies and which instruction it hits are all pure functions
 * of (seed, function name, pass name, rung). A site is the boundary
 * after one pass of one function's pipeline on one configuration rung,
 * and sites can be addressed individually with restrictTo().
 */
#ifndef EPIC_SUPPORT_FAULTINJECT_H
#define EPIC_SUPPORT_FAULTINJECT_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "ir/function.h"
#include "support/error.h"

namespace epic {

class AnalysisManager;

/** Kinds of IR corruption the engine can apply. */
enum class FaultKind {
    BranchTarget,
    OperandSwap,
    GuardCorrupt,
    RegOverflow,
    SpecWild,
    PassThrow,
    /// Not an IR corruption: spuriously drops the analysis caches.
    /// Excluded from the default rotation (pin it with restrictKind()).
    SpuriousInvalidate,

    // ---- Sim-layer sites (enableSimFaults(); simPlan()) ----
    /// Poison a decoded instruction record: the run completes with a
    /// wrong checksum (silent corruption; caught by validation).
    SimDecodeCorrupt,
    /// Flip one bit of the initialized memory image (transient fault;
    /// caught by a trap or by checksum validation, cleared on retry).
    SimMemBitFlip,
    /// Stall the simulation thread mid-run (caught by the watchdog
    /// deadline, never by a verifier gate).
    SimHang,
    /// Poison one ALAT entry's address tag mid-run. Timing-only state:
    /// the checksum stays correct (containment = the supervised run
    /// still proves against the source checksum); at worst one extra
    /// chk.a recovery is charged.
    SimAlatCorrupt,
};

/** Printable fault-kind name. */
const char *faultKindName(FaultKind k);

/** Thrown by PassThrow faults; the firewall absorbs it like any other
 *  contained pass failure. */
class InjectedFault : public CompileError
{
  public:
    using CompileError::CompileError;
};

/** One injected fault, for the experiment report. */
struct FaultRecord
{
    std::string function;
    std::string pass;  ///< pass boundary the fault was injected at
    std::string rung;  ///< configuration rung (configName) when injected
    FaultKind kind = FaultKind::BranchTarget;
    std::string detail; ///< what was corrupted, human-readable
    bool caught = false; ///< rejected by a gate / absorbed by fallback
};

/**
 * Deterministic plan for one sim-layer site (a workload x config task's
 * detailed simulation). Applied to the *first* attempt only — all four
 * kinds model transient faults, so the supervised retry runs clean.
 */
struct SimFaultPlan
{
    bool fire = false;
    FaultKind kind = FaultKind::SimDecodeCorrupt;
    uint64_t mem_bit_sel = 0;   ///< Memory::flipBit selector
    uint64_t hang_at_instr = 0; ///< TimingOptions::hang_at_instr
    int64_t hang_ms = 0;        ///< TimingOptions::hang_ms
    bool alat_corrupt = false;  ///< TimingOptions::corrupt_alat
    int record = -1;            ///< index for markCaught()
};

/**
 * Seeded, site-addressable IR corruptor.
 *
 * Thread-safe: parallel compilation tiers share one injector, and
 * whether a site fires — plus the fault kind and victim instruction —
 * stays a pure function of (seed, function, pass, rung), so the set of
 * faults is schedule-independent. Only the *arrival order* of records
 * depends on the schedule, which is why records() canonicalizes the
 * order (and so invalidates indices previously returned by inject();
 * call it only after compilation has finished).
 */
class FaultInjector
{
  public:
    /**
     * @param seed Determinism seed.
     * @param rate Probability in [0,1] that an eligible site fires
     *             (1.0 = every pass boundary).
     */
    explicit FaultInjector(uint64_t seed, double rate = 1.0);

    /**
     * Address a single site: only boundaries whose function and pass
     * names match (empty string = wildcard) are eligible.
     */
    void restrictTo(std::string function, std::string pass);

    /** Restrict the rotation to exactly one fault kind. */
    void restrictKind(FaultKind k);

    /**
     * Admit the sim-layer sites: simPlan() stays quiet until this is
     * called, so compile-side experiments are unchanged.
     */
    void enableSimFaults(bool on = true);

    /**
     * Sim-layer site: the detailed simulation of one workload under one
     * configuration rung. Whether it fires, the fault kind and its
     * parameters are pure functions of (seed, workload, rung) — the
     * same determinism contract as inject(). Fired plans get a
     * FaultRecord (pass "sim", initially uncaught); the supervisor
     * calls markCaught(plan.record) once the fault was contained.
     */
    SimFaultPlan simPlan(const std::string &workload, const char *rung);

    /**
     * Called by the firewall after a pass has run. When the site fires,
     * corrupts `f` in place and returns the index of the new
     * FaultRecord; returns -1 when the site stays quiet or no
     * applicable corruption point exists. PassThrow faults record
     * themselves (pre-marked caught) and then throw InjectedFault.
     * SpuriousInvalidate faults need `am` (skipped when null) and drop
     * its caches instead of touching the IR; they record pre-marked
     * caught, being benign by construction.
     */
    int inject(Function &f, const std::string &pass, const char *rung,
               AnalysisManager *am = nullptr);

    /** Mark a fired fault as caught by a gate / absorbed by fallback. */
    void markCaught(int idx);

    /**
     * All fired faults in canonical (function, pass, rung) order —
     * schedule-independent. Call after compilation has completed.
     */
    const std::vector<FaultRecord> &records() const;

    /** Number of faults fired so far. */
    int fired() const;

    /** Number of fired faults that no gate ever caught. */
    int escaped() const;

  private:
    uint64_t seed_;
    double rate_;
    std::string only_function_;
    std::string only_pass_;
    bool sim_faults_ = false;
    bool has_restrict_kind_ = false;
    FaultKind restrict_kind_ = FaultKind::BranchTarget;
    mutable std::mutex mu_;
    mutable std::vector<FaultRecord> records_;
};

} // namespace epic

#endif // EPIC_SUPPORT_FAULTINJECT_H
