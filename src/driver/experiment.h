/**
 * @file
 * Experiment harness shared by every table/figure reproduction binary:
 * build a workload, profile it on the train input, compile it under one
 * or more configurations, simulate on the ref input, and validate that
 * every configuration computes the same architected checksum as the
 * source program. A workload is built and profiled once; every
 * configuration compiles from that one profiled source (DESIGN §10).
 */
#ifndef EPIC_DRIVER_EXPERIMENT_H
#define EPIC_DRIVER_EXPERIMENT_H

#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "driver/compiler.h"
#include "sim/interp.h"
#include "sim/timing.h"
#include "support/supervision/supervise.h"
#include "workloads/workload.h"

namespace epic {

class FaultInjector;
class RunManifest;

/** Options for a workload run. */
struct RunOptions
{
    /// OS deferral policy for wild speculative loads (sim/timing.h).
    DeferralPolicy deferral = DeferralPolicy::General;
    InputKind profile_input = InputKind::Train;
    InputKind run_input = InputKind::Ref;
    /// Worker threads for the workload x config fan-out (and, via
    /// CompileOptions::jobs, the per-function compile tier). Results
    /// merge in workload/config order, so any jobs value produces
    /// bit-identical reports to jobs = 1.
    int jobs = 1;
    /// Hook to tweak compile options per configuration (ablations).
    std::function<void(CompileOptions &)> tweak;

    // ---- Run supervision (support/supervision/supervise.h) ----
    /// Budgets/deadline, bounded retry and the sim degradation ladder.
    /// Every run goes through the one supervised sim path; the default
    /// policy is a single unvalidated attempt with no ladder, and
    /// SupervisionOptions::supervised() arms the fleet supervisor.
    SupervisionOptions supervision;
    /// Known-good architected checksum for this workload (set by
    /// runWorkload from the source-truth run when supervision.validate
    /// is on): a detailed sim whose result disagrees is treated as
    /// Faulted and retried.
    std::optional<int64_t> expected_checksum;
    /// Sim-layer chaos injection (FaultInjector::simPlan); null = off.
    /// Faults are applied to the first attempt only (transient model).
    FaultInjector *sim_inject = nullptr;

    // ---- Crash-safe resumable fleet runs ----
    /// Durable per-run manifest; completed (workload x config) records
    /// are appended as they finish (fsync'd — they survive kill -9).
    RunManifest *manifest = nullptr;
    /// With a manifest: tasks whose key already has a record are not
    /// re-run; the stored record is emitted verbatim in the artifact,
    /// keeping the resumed artifact byte-identical to an uninterrupted
    /// run.
    bool resume = false;
    /// Workload-name substring filters; empty = the whole suite.
    std::vector<std::string> only;

    // ---- Fidelity mode (sim/timing.h SimMode, DESIGN.md §18) ----
    /// Forwarded to every detailed timing sim. Sampled mode attaches a
    /// SampledStats to the ConfigRun, tags the run's sample stream with
    /// mode=sampled + its scale factors, and folds a fingerprint into
    /// the manifest key, so a resumed fleet never mixes sampled and
    /// detailed records.
    SimMode sim_mode = SimMode::Detailed;
    uint64_t ff_functional = 0; ///< ops fast-forwarded per phase
    uint64_t detail_window = 0; ///< ops simulated in detail per window

    // ---- PMU sampling (sim/pmu/pmu.h) ----
    /// Forwarded to every detailed timing sim; off by default (legacy
    /// artifact bytes unchanged). Enabled features put a PmuData on the
    /// ConfigRun and fold a fingerprint into the manifest key, so a
    /// resumed fleet never mixes sampled and unsampled records.
    PmuOptions pmu;

    // ---- ALAT geometry (sim/alat.h; ILP-CS-DS data speculation) ----
    /// Overrides for MachineConfig::alat_entries / alat_assoc (assoc
    /// <= 0 selects fully-associative). Unset = machine defaults; a set
    /// value folds a fingerprint into the manifest key since it changes
    /// record bytes (recovery cycles).
    std::optional<int> alat_entries;
    std::optional<int> alat_assoc;
};

/** One configuration's full outcome. */
struct ConfigRun
{
    Config config = Config::ONS;
    bool ok = false;
    std::string error;
    int64_t checksum = 0;
    Perfmon pm;

    /// What the compilation firewall degraded (clean() if nothing).
    FallbackReport fallback;

    /// Compilation statistics (one shared block, see driver/pipeline.h).
    CompileStats stats;
    /// Per-(pass, rung) compile-time attribution.
    PipelineStats pipeline;
    int instrs_source = 0;
    int instrs_final = 0;

    /// The compiled program (kept for function-level attribution).
    std::shared_ptr<Program> prog;

    /// PMU streams of the accepted detailed sim (null when PMU off,
    /// the run degraded to functional, or it was manifest-resumed).
    std::shared_ptr<PmuData> pmu;

    /// Sampled-mode extrapolation (enabled only under SimMode::Sampled;
    /// default-disabled state keeps legacy artifact bytes unchanged).
    SampledStats sampled;

    // ---- Supervision outcome (defaults reproduce legacy behaviour) ----
    /// Structured status of the accepted result (or last failure).
    RunStatus sim_status = RunStatus::Ok;
    /// Which ladder rung produced it: "detailed" (full timing sim),
    /// "functional" (architected result only, pm is zero), "skipped"
    /// (quarantined, ok = false).
    const char *sim_rung = "detailed";
    /// Detailed-sim attempts consumed (>= 1 once a sim ran).
    int sim_attempts = 0;
    /// Checkpoints taken / last blob size (supervision.checkpoint_*).
    uint64_t ckpt_instrs = 0;
    uint64_t ckpt_bytes = 0;
    /// Restored from the fleet manifest instead of re-run; record_json
    /// then holds the stored JSONL record verbatim.
    bool resumed = false;
    std::string record_json;
};

/** Outcome across configurations, plus the source-truth checksum. */
struct WorkloadRuns
{
    std::string name;
    int64_t source_checksum = 0;
    bool all_match = false; ///< every config reproduced the checksum
    std::string error;      ///< non-empty: the source run itself failed
    std::map<Config, ConfigRun> by_config;
    /// Firewall fallbacks aggregated across all configurations.
    FallbackReport fallback;
    /// Per-pass instrumentation aggregated across all configurations.
    PipelineStats pipeline;
};

/**
 * A workload's source program, built once and profiled on one input.
 * Every configuration compiles from `prog` (compileProgram clones it),
 * so one instance is shared read-only by all the configurations of a
 * workload — runWorkload's fan-out, or a harness that compiles one
 * workload several ways.
 */
struct ProfiledSource
{
    /// The input the profile was collected on; runConfig asserts that
    /// it matches RunOptions::profile_input.
    InputKind profile_input = InputKind::Train;
    /// The profiled program; null when a step failed (see `error`) or
    /// the prepare step was asked not to profile.
    std::unique_ptr<const Program> prog;
    /// Source-truth checksum on RunOptions::run_input (prepareWorkload
    /// only).
    std::optional<int64_t> source_checksum;
    /// Non-empty: the step that failed ("source program failed: ..." or
    /// "profile run failed: ...").
    std::string error;
};

/** Build `w` and profile it on `input` (no source-truth run). */
ProfiledSource profileSource(const Workload &w,
                             InputKind input = InputKind::Train);

/**
 * The per-workload prepare step: one build of `w` serves the
 * source-truth run (functional, on opts.run_input) and then, when
 * `profile` is set, the profile run (on opts.profile_input). A failed
 * source run ends the step.
 */
ProfiledSource prepareWorkload(const Workload &w, const RunOptions &opts,
                               bool profile = true);

/**
 * Run one workload under one configuration, compiled from a shared
 * profiled source. Dies unless src.profile_input == opts.profile_input.
 */
ConfigRun runConfig(const Workload &w, const ProfiledSource &src,
                    Config cfg, const RunOptions &opts = {});

/** Run one workload under one configuration, profiling it first. */
ConfigRun runConfig(const Workload &w, Config cfg,
                    const RunOptions &opts = {});

/**
 * Run one workload under a set of configurations (with validation):
 * prepare once, then fan the configurations out over the shared
 * profiled source. A workload whose every configuration replays from
 * the manifest is not profiled.
 */
WorkloadRuns runWorkload(const Workload &w,
                         const std::vector<Config> &configs,
                         const RunOptions &opts = {});

/** The standard four configurations in Table 1 order. */
const std::vector<Config> &standardConfigs();

/**
 * Run the whole suite under the given configurations; `progress`
 * (optional) is invoked per workload for console feedback.
 */
std::vector<WorkloadRuns>
runSuite(const std::vector<Config> &configs, const RunOptions &opts = {},
         const std::function<void(const WorkloadRuns &)> &progress = {});

} // namespace epic

#endif // EPIC_DRIVER_EXPERIMENT_H
