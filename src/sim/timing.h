/**
 * @file
 * Execution-driven timing simulator of the Itanium-2-class machine.
 *
 * Walks scheduled code bundle-by-bundle (issue groups delimited by stop
 * bits), executing architected semantics through the shared exec core
 * while modelling: in-order issue with scoreboard stall-at-use, the
 * decoupled front end (L1I + 48-op instruction buffer), the gshare
 * branch predictor with misprediction flushes, the L1D/L2/L3 data
 * hierarchy, DTLB with hardware (VHPT) walker and OS-level walks for
 * wild speculative loads, spurious store-to-load-forwarding (micropipe)
 * stalls, and the register stack engine. Every cycle is attributed to
 * one of the paper's Figure 5 categories in the Perfmon structure.
 *
 * OS deferral policies for wild control-speculative loads (paper §4.3
 * / Figure 9), selected by TimingOptions::deferral:
 *  - General: a wild speculative load walks the page hierarchy in the
 *    kernel without caching the result — expensive, charged to Kernel.
 *  - Sentinel (early deferral): the load defers as NaT at the DTLB and
 *    pays only a small deferral cost; the chk.s/recovery overhead is
 *    charged when deferred values require recovery.
 */
#ifndef EPIC_SIM_TIMING_H
#define EPIC_SIM_TIMING_H

#include <array>
#include <memory>
#include <string>

#include "ir/program.h"
#include "mach/machine.h"
#include "sim/memory.h"
#include "sim/perfmon.h"
#include "sim/pmu/pmu.h"
#include "sim/run_result.h"

namespace epic {

struct SimCheckpoint;

/**
 * How the OS resolves a control-speculative load that misses the DTLB
 * on an unmapped page (file comment). The compiler side of speculation
 * is the "speculate"/"dataspec" passes; this is purely the simulated
 * machine's deferral policy.
 */
enum class DeferralPolicy { General, Sentinel };

/**
 * Simulation fidelity mode.
 *  - Detailed: every group passes through the full timing model
 *    (fetch, scoreboard, hierarchy, predictor, cycle attribution).
 *  - Sampled: alternates functional fast-forward phases (architected
 *    semantics only, no cycle accounting) with detailed windows, and
 *    extrapolates per-category cycle estimates from the windows
 *    (DESIGN.md §18). Micro-architectural state (caches, predictor,
 *    DTLB, store ring) is frozen — not warmed — across fast-forward,
 *    so each window's first half re-warms that stale state and is
 *    discarded; only the second half feeds the extrapolation basis.
 *    The very first window is the exception: it measures the genuine
 *    run-start cold transient from op 0 and contributes its cycles
 *    unscaled (stratified estimate, SampledStats doc).
 */
enum class SimMode { Detailed, Sampled };

/**
 * Sampled-mode accounting attached to a TimingResult. The estimates
 * are *extrapolations* carried separately from Perfmon, which keeps
 * raw window-only cycle counts (so nothing cross-foots silently).
 *
 * The estimate is stratified: the first window measures the run-start
 * cold transient from op 0 and its cycles count exactly once,
 * unscaled; every later window discards its warm-up half and its
 * measured (second-half) cycles are scaled over the remaining
 * (non-head) ops by retired-op coverage:
 *
 *   est[c] = head_cycles[c]
 *          + steady_cycles[c] * (total_ops - head_ops) / steady_ops
 */
struct SampledStats
{
    bool enabled = false;
    uint64_t windows = 0;       ///< detailed windows entered (>= 1)
    uint64_t head_ops = 0;      ///< ops measured in the cold first window
    /// Ops / cycles in the extrapolation basis: the cold head plus
    /// every steady window's measured half (warm-up halves excluded).
    uint64_t detail_ops = 0;
    uint64_t detail_cycles = 0;
    uint64_t total_ops = 0;     ///< ops retired overall
    /// Per-category stratified estimate (formula above).
    std::array<uint64_t, Perfmon::kNumCats> est_cycles{};
    uint64_t est_total = 0;     ///< sum of est_cycles (exact by constr.)
};

/** Timing-simulation options. */
struct TimingOptions
{
    MachineConfig mach;
    DeferralPolicy deferral = DeferralPolicy::General;
    uint64_t max_cycles = 20'000'000'000ull;
    int max_depth = 16384;
    /// Extra cost charged per recovered (NaT-deferred) load under the
    /// sentinel model (recovery block execution).
    int sentinel_recovery_cycles = 40;

    // ---- Supervision (see support/supervision/supervise.h) ----
    /// Heap high-water budget in mapped 16 KB pages (0 = unlimited).
    uint64_t max_mem_pages = 0;
    /// Absolute steady-clock deadline, ns (0 = none). Polled at group
    /// boundaries only while supervision is armed; the disarmed cost is
    /// one relaxed load per group.
    int64_t deadline_ns = 0;

    // ---- Checkpoint/restore (sim/checkpoint.h) ----
    /// Snapshot the full machine + loop state into *checkpoint_out each
    /// time the retired-op count crosses a multiple of this (0 = never).
    /// The boundary is deterministic: restore-then-run finishes with
    /// counters byte-identical to the uninterrupted run.
    uint64_t checkpoint_every = 0;
    SimCheckpoint *checkpoint_out = nullptr;
    /// Start from this checkpoint instead of program entry. The same
    /// compiled program must be passed; `mem` contents are replaced by
    /// the checkpointed image.
    const SimCheckpoint *resume_from = nullptr;

    // ---- Chaos injection (support/faultinject.h drives these) ----
    /// Injected hang: once retired ops reach `hang_at_instr` (> 0),
    /// stall the host thread for `hang_ms`, leaving early only when a
    /// stop request or the deadline fires — exercises the watchdog.
    uint64_t hang_at_instr = 0;
    int64_t hang_ms = 0;
    /// Injected decode-record corruption: poison the entry function's
    /// return-value operand in the predecoded tables (the IR is left
    /// intact), so the run completes with a detectably wrong checksum —
    /// the silent-corruption case validation-aware retry must catch.
    bool corrupt_decode = false;
    /// Injected ALAT corruption: poison one ALAT entry's tag mid-run.
    /// Timing-only state, so the checksum must stay correct (containment
    /// = the supervised run still proves against the source checksum);
    /// at worst one extra chk.a recovery is charged.
    bool corrupt_alat = false;

    // ---- Fidelity mode (DESIGN.md §18) ----
    SimMode sim_mode = SimMode::Detailed;
    /// Sampled mode: ops fast-forwarded per phase / ops simulated in
    /// detail per window. Both must be > 0 when sim_mode == Sampled.
    uint64_t ff_functional = 0;
    uint64_t detail_window = 0;

    // ---- PMU sampling (sim/pmu/pmu.h) ----
    /// Off by default; when any feature is enabled the run carries a
    /// PmuData in its result. Sampling is deterministic in (workload,
    /// config, machine) and costs one predictable branch per hook site
    /// when off.
    PmuOptions pmu;
};

/** Result of a timing run. */
struct TimingResult : RunResult
{
    Perfmon pm;
    /// PMU streams (null unless opts.pmu.enabled()).
    std::shared_ptr<PmuData> pmu;
    /// Sampled-mode extrapolation (enabled only when sim_mode==Sampled).
    SampledStats sampled;
};

/**
 * Simulate a fully compiled (scheduled + allocated) program.
 * @param prog Compiled program (bundles + layout addresses required).
 * @param mem  Initialized memory image.
 */
TimingResult simulate(Program &prog, Memory &mem,
                      const TimingOptions &opts = {});

} // namespace epic

#endif // EPIC_SIM_TIMING_H
