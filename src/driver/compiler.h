/**
 * @file
 * Compilation driver: the paper's four code-generation configurations.
 *
 *  - Gcc:    classical optimization only, no inlining, no interprocedural
 *            pointer analysis, one-bundle issue groups (GCC 3.2 -O3
 *            behaviour on IA-64 as characterized in §2.1).
 *  - ONS:    "O-NS" — IMPACT classical optimization + profile-guided
 *            inlining + interprocedural analysis; no predication, no
 *            speculation (the paper's baseline).
 *  - IlpNs:  adds the structural ILP transforms: superblock formation
 *            with tail duplication, hyperblock if-conversion, loop
 *            peeling/unrolling — but no control speculation.
 *  - IlpCs:  adds control speculation and predicate promotion.
 *
 * Functions marked kFuncLibrary always get the Gcc treatment (the
 * paper's gcc-compiled system libraries in Figure 10).
 *
 * Every function is compiled through the compilation firewall
 * (driver/firewall.h): passes run on a clone behind per-pass verifier
 * gates, and a function whose compilation fails at some configuration
 * degrades down the IlpCs -> IlpNs -> ONS -> Gcc ladder by itself
 * instead of killing the experiment. Compiled::fallback records what
 * (if anything) degraded.
 */
#ifndef EPIC_DRIVER_COMPILER_H
#define EPIC_DRIVER_COMPILER_H

#include <memory>

#include "analysis/manager.h"
#include "driver/config.h"
#include "driver/firewall.h"
#include "ilp/hyperblock.h"
#include "ilp/layout.h"
#include "ilp/peel.h"
#include "ilp/speculate.h"
#include "ilp/superblock.h"
#include "mach/machine.h"
#include "opt/classical.h"
#include "opt/inline.h"
#include "sched/listsched.h"
#include "sched/regalloc.h"

namespace epic {

/** All knobs, pre-populated per Config but overridable for ablations. */
struct CompileOptions
{
    Config config = Config::IlpCs;
    MachineConfig mach;

    InlineOptions inline_opts;
    SuperblockOptions sb_opts;
    HyperblockOptions hb_opts;
    PeelOptions peel_opts;
    SpecOptions spec_opts;
    LayoutOptions layout_opts;

    bool enable_inline = true;     ///< per-config default applied
    bool enable_pointer_analysis = true;
    bool enable_peel = true;
    bool enable_unroll = true;

    /// Worker threads for the per-function firewalled pipeline.
    /// Functions are independent after inlining + alias analysis;
    /// results commit indexed by function id, so any jobs value
    /// produces bit-identical output to jobs = 1.
    int jobs = 1;

    /// Analysis-cache policy (Cached / StaleCheck); defaults to
    /// EPICLAB_ANALYSIS_MODE.
    AnalysisMode analysis_mode = envAnalysisMode();

    /// Hard budget on each function's IR arena, in the supervision
    /// layer's 16K pages (0 = unlimited). Wired from --max-mem-pages so
    /// the flag covers compile-side memory exactly like sim heap pages:
    /// exhaustion surfaces as RunStatus::BudgetExceeded, never a
    /// bad_alloc abort.
    uint64_t max_arena_pages = 0;

    FirewallOptions firewall;

    /** Defaults for a configuration. */
    static CompileOptions forConfig(Config c);
};

/** Everything produced by a compilation. */
struct Compiled
{
    std::unique_ptr<Program> prog;
    Config config;

    /// Phase statistics (for the §3.2 code-growth experiments etc.).
    CompileStats stats;
    /// Per-(pass, rung) instrumentation across every function.
    PipelineStats pipeline;
    LayoutStats layout;

    /// What the compilation firewall had to degrade (clean() if nothing).
    FallbackReport fallback;

    int instrs_source = 0;      ///< before anything
    int instrs_after_inline = 0;
    int instrs_final = 0;
};

/**
 * Compile a profiled source program under a configuration. The source
 * is cloned; profile annotations travel with the clone.
 */
Compiled compileProgram(const Program &source, const CompileOptions &opts);

/** Convenience: compile with per-config defaults. */
Compiled compileProgram(const Program &source, Config config);

} // namespace epic

#endif // EPIC_DRIVER_COMPILER_H
