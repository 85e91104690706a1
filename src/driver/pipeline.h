/**
 * @file
 * The pass-pipeline layer: the compiler's pass sequence as a
 * first-class, instrumented object.
 *
 * Every per-function pass exists exactly once, as a named PassDesc in
 * passRegistry(). The compilation firewall composes its gated pipeline
 * for a configuration rung with buildPipeline(); the fault-injection
 * site model enumerates the same registry through allPassBoundaries();
 * and compile variants flip the same CompileOptions knobs the registry's
 * `enabled` predicates consult — so adding, removing or reordering a
 * pass is a one-place change that firewall, injector and benchmarks all
 * observe.
 *
 * Two shared statistics blocks live here as well:
 *
 *  - CompileStats: the per-transform counters (inline, classical,
 *    region formation, speculation, regalloc, scheduling) embedded by
 *    FunctionOutcome, Compiled and ConfigRun alike, so stat plumbing is
 *    a single `+=`/assignment instead of a hand-copied field list.
 *  - PipelineStats: per-(pass, rung) instrumentation — executions,
 *    net static-instruction delta, pass wall time and verifier-gate
 *    wall time — aggregated over functions and attempts. Counters are
 *    deterministic (bit-identical between serial and parallel runs);
 *    wall times are measured and therefore vary run to run, so
 *    bit-identity checks use counterStr() and humans read str().
 */
#ifndef EPIC_DRIVER_PIPELINE_H
#define EPIC_DRIVER_PIPELINE_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/manager.h"
#include "driver/config.h"
#include "support/arena.h"
#include "ilp/hyperblock.h"
#include "ilp/peel.h"
#include "ilp/speculate.h"
#include "ilp/superblock.h"
#include "opt/classical.h"
#include "opt/inline.h"
#include "sched/listsched.h"
#include "sched/regalloc.h"

namespace epic {

class AliasAnalysis;
struct CompileOptions;
struct Function;

/**
 * Per-transform statistics of one compilation unit (a function, a
 * program, or a configuration run — all three embed this block).
 */
struct CompileStats
{
    InlineStats inl; ///< program-level; zero in per-function outcomes
    OptStats classical;
    SuperblockStats sb;
    HyperblockStats hb;
    PeelStats peel;
    SpecStats spec;
    RegAllocStats ra;
    SchedStats sched;
    int instrs_after_classical = 0;
    int instrs_after_regions = 0;
    /// Arena activity of the committed compilation (function arena of
    /// the landed attempt, all rung attempts included when the firewall
    /// recycles the work clone, plus the analysis-manager arena).
    /// Per-arena and merged in function-id order, hence --jobs
    /// invariant like every other counter here.
    ArenaCounters arena;

    CompileStats &operator+=(const CompileStats &o);
};

/** Instrumentation for one pass at one rung, summed over functions. */
struct PassStat
{
    std::string pass;
    Config rung = Config::Gcc;
    int runs = 0;            ///< pass executions (attempts included)
    int64_t instr_delta = 0; ///< net static-instruction change
    double run_ms = 0;       ///< wall time inside the pass
    double verify_ms = 0;    ///< wall time in the verifier gate
    /// Analysis-cache activity attributed to this pass (queries made
    /// while it ran plus the post-pass preserves-set invalidation).
    /// Deterministic, like runs/instr_delta.
    AnalysisCounters analysis;
};

/** Aggregated per-pass instrumentation, in canonical order. */
struct PipelineStats
{
    /// Sorted by (registry order, rung descending): stable and
    /// schedule-independent no matter what order entries arrived in.
    std::vector<PassStat> passes;

    /** Find-or-insert the entry for (pass, rung). */
    PassStat &at(const std::string &pass, Config rung);

    void merge(const PipelineStats &o);

    /** Total wall time across passes and verifier gates, ms. */
    double totalMs() const;

    /**
     * Deterministic rendering: counters only, no wall times. Serial and
     * parallel runs of the same compilation produce identical strings.
     */
    std::string counterStr() const;

    /** Human-readable table with times (for --pass-stats). */
    std::string str() const;
};

/** One registered compiler pass. */
struct PassDesc
{
    std::string name;
    /// Does the pass run at `rung` under `opts`?
    std::function<bool(Config rung, const CompileOptions &opts)> enabled;
    /// The function-local transform; counters go into `stats`, analyses
    /// are queried (and invalidated mid-pass, when the pass mutates and
    /// re-queries) through the manager.
    std::function<void(Function &, Config rung, const CompileOptions &,
                       AnalysisManager &, CompileStats &stats)>
        run;
    bool verify_gate = true; ///< re-verify the IR after this pass
    bool growth_gate = true; ///< enforce the code-growth budget after it
    /// Analyses still valid after the pass ran. The pipeline invalidates
    /// exactly the complement at the pass boundary (and everything when
    /// a fault was injected there — corrupted IR invalidates all bets).
    AnalysisSet preserves = kPreserveNone;
};

/**
 * The single per-function pass registry, in pipeline order (paper
 * Figure 4). The firewall, the fault injector's site axis and the
 * per-pass benchmarks all consume this list.
 */
const std::vector<PassDesc> &passRegistry();

/** Registry passes enabled for one rung, pipeline order preserved. */
std::vector<const PassDesc *> buildPipeline(Config rung,
                                            const CompileOptions &opts);

/**
 * Every gated pass-boundary name, the program-level "inline"
 * transaction included: the fault injector's site axis.
 */
const std::vector<std::string> &allPassBoundaries();

/**
 * Stable ordering index of a pass name for canonical PipelineStats
 * order ("inline" first, then registry order; unknown names last).
 */
int passOrderIndex(const std::string &pass);

} // namespace epic

#endif // EPIC_DRIVER_PIPELINE_H
