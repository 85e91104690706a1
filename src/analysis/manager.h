/**
 * @file
 * Per-function analysis manager: lazily computed, cached, explicitly
 * invalidated function analyses.
 *
 * Every region transform in the paper's pipeline (superblock formation,
 * hyperblock if-conversion, speculation, allocation, scheduling) is
 * driven by the same handful of analyses — Cfg, DomTree, Liveness,
 * LoopForest, per-block PredRelations — and historically each consumer
 * rebuilt them ad hoc at point of use. The AnalysisManager is the single
 * construction point: passes *query* (`am.cfg()`, `am.liveness()`, ...)
 * and *invalidate* (`am.invalidateAll()`, or let the pipeline apply the
 * pass's declared preserves set), and repeated queries between
 * mutations are cache hits instead of recomputation.
 *
 * The contract, in one line: a cached analysis is valid until the IR it
 * was computed from is mutated, and whoever mutates must invalidate.
 * Two execution modes police that contract:
 *
 *  - Cached (default): queries return the cached object.
 *  - StaleCheck: every hit-path query recomputes fresh, structurally
 *    diffs it against the cache (every field), and panics on divergence
 *    naming the offending pass — "forgot to invalidate" becomes a hard
 *    error instead of a silent miscompilation. The fresh copy is
 *    scratch and uncounted, so counters and run artifacts match Cached
 *    mode. Env-gated like the firewall's paranoid re-verify:
 *    EPICLAB_ANALYSIS_MODE=stale-check.
 *
 * One rule cascades: Liveness is computed over the Cfg's edges, so
 * dropping Cfg drops Liveness too.
 */
#ifndef EPIC_ANALYSIS_MANAGER_H
#define EPIC_ANALYSIS_MANAGER_H

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "analysis/cfg.h"
#include "analysis/dom.h"
#include "analysis/liveness.h"
#include "analysis/loops.h"
#include "analysis/predrel.h"

namespace epic {

class AliasAnalysis;

/** The analyses the manager caches, one bit / counter slot each. */
enum class AnalysisKind : int {
    Cfg = 0,
    Dom,
    Liveness,
    Loops,
    PredRel,
};

inline constexpr int kNumAnalysisKinds = 5;

/** Stable snake_case name (telemetry keys, diagnostics). */
const char *analysisKindName(AnalysisKind k);

/** Bitmask over AnalysisKind, the PassDesc `preserves` type. */
using AnalysisSet = unsigned;

constexpr AnalysisSet
analysisBit(AnalysisKind k)
{
    return 1u << static_cast<int>(k);
}

inline constexpr AnalysisSet kPreserveNone = 0;
/// Sound for passes that are internally invalidation-correct: every
/// mid-pass mutation went through the manager, so whatever is still
/// cached at pass exit matches the final IR by construction. The
/// stale-check mode and the cached-vs-stale-check artifact parity test
/// police the claim.
inline constexpr AnalysisSet kPreserveAll =
    (1u << kNumAnalysisKinds) - 1;
/// Valid for passes that rewrite instructions strictly *in place* —
/// nothing added, removed or reordered, no transfer touched. The Cfg
/// object itself survives (edge structure, weights and branch indices
/// are all byte-identical), and DomTree / LoopForest with it. Liveness
/// and PredRelations die with the register/guard rewrite.
inline constexpr AnalysisSet kPreserveBlockGraph =
    analysisBit(AnalysisKind::Cfg) | analysisBit(AnalysisKind::Dom) |
    analysisBit(AnalysisKind::Loops);
/// Valid for passes that may *insert* straight-line code (spills,
/// speculation checks) but never change edge structure: the Cfg object
/// dies — its per-edge branch indices shift with every insertion — but
/// dominance and loop nesting are pure edge-shape facts and survive.
inline constexpr AnalysisSet kPreserveGraphShape =
    analysisBit(AnalysisKind::Dom) | analysisBit(AnalysisKind::Loops);

/** Execution mode (see file comment). */
enum class AnalysisMode {
    Cached,
    StaleCheck,
};

/**
 * Process-wide default mode from EPICLAB_ANALYSIS_MODE (read once):
 * "cached" or "stale-check"; Cached when unset, fatal on any other
 * value.
 */
AnalysisMode envAnalysisMode();

/**
 * Hit/miss/invalidation counters per analysis kind. Deterministic in
 * every mode (hit/miss accounting is identical across modes by design;
 * invalidations count only actually-destroyed cached objects), so they
 * ride the JSONL artifact and counterStr().
 */
struct AnalysisCounters
{
    std::array<int64_t, kNumAnalysisKinds> hits{};
    std::array<int64_t, kNumAnalysisKinds> misses{};
    std::array<int64_t, kNumAnalysisKinds> invalidations{};

    AnalysisCounters &operator+=(const AnalysisCounters &o);

    int64_t totalHits() const;
    int64_t totalMisses() const;
    int64_t totalInvalidations() const;
};

/** a - b, element-wise (for per-pass attribution via snapshots). */
AnalysisCounters operator-(AnalysisCounters a, const AnalysisCounters &b);

/**
 * The per-function cache. One instance per compilation attempt (the
 * firewall constructs a fresh manager per clone, so rollback and
 * fallback-ladder re-entry start cold by construction). Not
 * thread-safe; a function compiles on one worker.
 */
class AnalysisManager
{
  public:
    explicit AnalysisManager(const Function &f,
                             const AliasAnalysis *aa = nullptr,
                             AnalysisMode mode = envAnalysisMode());

    AnalysisManager(const AnalysisManager &) = delete;
    AnalysisManager &operator=(const AnalysisManager &) = delete;

    const Function &function() const { return *f_; }
    AnalysisMode mode() const { return mode_; }

    /// The alias analysis is immutable over a compilation (hint- and
    /// attribute-driven), so the manager just carries the pointer.
    /// Fatal when queried on a manager constructed without one.
    const AliasAnalysis &alias() const;

    // ---- Queries (compute on miss, return cached on hit) ----
    const Cfg &cfg();
    const DomTree &domTree();     ///< implies cfg()
    const Liveness &liveness();   ///< implies cfg()
    const LoopForest &loopForest(); ///< implies cfg() + domTree()
    /** Predicate relations of one block (cached per block id). */
    const PredRelations &predRelations(int bid);

    // ---- Invalidation ----
    /** Drop everything (the conservative "I mutated the IR" call). */
    void invalidateAll();
    /**
     * Drop every kind not in `preserved` (the pipeline's post-pass
     * call). Liveness is auto-demoted out of `preserved` when Cfg is
     * not preserved: it is computed over the Cfg's edges and cannot
     * outlive it.
     */
    void invalidateAllExcept(AnalysisSet preserved);

    /** Is a cached (valid) object present for this kind? */
    bool isCached(AnalysisKind k) const;

    /** Name the running pass for stale-checker diagnostics. */
    void beginPass(const std::string &pass) { pass_ = pass; }
    const std::string &currentPass() const { return pass_; }

    const AnalysisCounters &counters() const { return counters_; }

    /// Allocation activity of the manager's analysis arena (for the
    /// driver's compile.arena.* accounting).
    const ArenaCounters &arenaCounters() const
    {
        return arena_.counters();
    }

  private:
    void dropKind(AnalysisKind k);
    [[noreturn]] void stalePanic(AnalysisKind k) const;

    const Function *f_;
    const AliasAnalysis *aa_;
    AnalysisMode mode_;
    std::string pass_;
    AnalysisCounters counters_;

    /**
     * Backing store for the arena-resident analyses (Cfg, DomTree).
     * When the last of them is dropped the arena is rolled back to
     * `base_` in one watermark operation, so repeated
     * invalidate/recompute cycles within a compilation attempt reuse
     * the same chunks instead of re-mallocing table storage
     * (DESIGN.md §16). Scratch recomputes in StaleCheck mode
     * deliberately use private arenas and never touch this one.
     */
    Arena arena_;
    Arena::Mark base_;
    /// Roll the arena back if no cached analysis references it anymore.
    void maybeRollbackArena();

    std::unique_ptr<Cfg> cfg_;
    std::unique_ptr<DomTree> dom_;
    std::unique_ptr<Liveness> live_;
    std::unique_ptr<LoopForest> loops_;
    std::map<int, PredRelations> predrel_;
};

/**
 * Remove blocks unreachable from the entry (they arise naturally from
 * region formation); returns the number removed. Queries the cached Cfg
 * and invalidates only when blocks were actually removed, so a clean
 * prune leaves the cache warm for the next round.
 */
int pruneUnreachableBlocks(Function &f, AnalysisManager &am);

} // namespace epic

#endif // EPIC_ANALYSIS_MANAGER_H
