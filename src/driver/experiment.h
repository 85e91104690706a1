/**
 * @file
 * Experiment layer shared by the fleet and every table/figure view:
 * build a workload, profile it on the train input, compile it under one
 * or more configurations, simulate on the ref input, and validate that
 * every configuration computes the same architected checksum as the
 * source program. A workload is built and profiled once; every
 * configuration compiles from that one profiled source (DESIGN §10).
 */
#ifndef EPIC_DRIVER_EXPERIMENT_H
#define EPIC_DRIVER_EXPERIMENT_H

#include <atomic>
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

/**
 * A compile variant: the paper's ablation axes on top of a
 * configuration's CompileOptions, as plain data that the figure views,
 * the CLI's variant flags and the manifest key share.
 */
struct CompileVariant
{
    bool no_peel = false;             ///< Figure 3 ablation
    bool no_pointer_analysis = false; ///< §2.2/§3.1 ablation
    /// §3.5's predication after Choi et al. [9]: conservative
    /// hyperblock inclusion, no tail duplication and no peeling.
    bool conservative_hb = false;
    /// Inlining growth budget (§3.1's empirically chosen 1.6x).
    double inline_budget = InlineOptions{}.growth_budget;

    auto operator<=>(const CompileVariant &) const = default;

    /** Set this variant's knobs in a configuration's options. */
    void apply(CompileOptions &o) const;
};

/** Options for a workload run. */
struct RunOptions
{
    /// OS deferral policy for wild speculative loads (sim/timing.h).
    DeferralPolicy deferral = DeferralPolicy::General;
    InputKind profile_input = InputKind::Train;
    InputKind run_input = InputKind::Ref;
    /// Worker threads for RunSet's prepare and run tasks (and, via
    /// CompileOptions::jobs, the per-function compile tier). Results
    /// are stored by key and merged in workload/config order, so any
    /// jobs value produces bit-identical reports to jobs = 1.
    int jobs = 1;
    /// Compile variant applied to every configuration.
    CompileVariant variant;
    /// Hook to adjust compile options beyond the variant, after it is
    /// applied: --inject's fault injector and test-only overrides.
    std::function<void(CompileOptions &)> tweak;

    // ---- Run supervision (support/supervision/supervise.h) ----
    /// Budgets/deadline, bounded retry and the sim degradation ladder.
    /// Every run goes through the one supervised sim path; the default
    /// policy is a single unvalidated attempt with no ladder, and
    /// SupervisionOptions::supervised() arms the fleet supervisor.
    SupervisionOptions supervision;
    /// Known-good architected checksum for this workload (set by
    /// RunSet from the source-truth run when supervision.validate is
    /// on): a detailed sim whose result disagrees is treated as
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
 * Every run compiles from `prog` (compileProgram clones it), so one
 * instance is shared read-only by all of them.
 */
struct ProfiledSource
{
    /// The input the profile was collected on; runConfig asserts that
    /// it matches RunOptions::profile_input.
    InputKind profile_input = InputKind::Train;
    /// The profiled program; null when a step failed (see `error`).
    std::unique_ptr<const Program> prog;
    /// Source-truth checksum on RunOptions::run_input (prepareWorkload
    /// only).
    std::optional<int64_t> source_checksum;
    /// Non-empty: the step that failed ("source program failed: ..." or
    /// "profile run failed: ...").
    std::string error;
};

/**
 * A single run's prepare step: one build of `w` serves the source-truth
 * run (functional, on opts.run_input) and then the profile run (on
 * opts.profile_input). A failed source run ends the step.
 */
ProfiledSource prepareWorkload(const Workload &w, const RunOptions &opts);

/**
 * Run one workload under one configuration, compiled from a shared
 * profiled source. Dies unless src.profile_input == opts.profile_input.
 */
ConfigRun runConfig(const Workload &w, const ProfiledSource &src,
                    Config cfg, const RunOptions &opts = {});

/** Run one workload under one configuration, profiling it first. */
ConfigRun runConfig(const Workload &w, Config cfg,
                    const RunOptions &opts = {});

/** A compile+sim run; its other options are its RunSet's. */
struct RunKey
{
    const Workload *workload = nullptr;
    Config config = Config::IlpCs;
    DeferralPolicy deferral = DeferralPolicy::General;
    InputKind profile_input = InputKind::Train;
    CompileVariant variant;

    auto operator<=>(const RunKey &) const = default;
};

/**
 * The one run engine, under the fleet (runSuite, runWorkload) and the
 * figure views (DESIGN §10). need() declares runs; run() computes each
 * distinct key once, under the set's RunOptions with the key's fields
 * set, and alone makes the manifest lookups and records, the prepare
 * steps, the stop checks and each run's checksum check and warning.
 * Results are stored by key, so nothing read depends on the schedule.
 */
class RunSet
{
  public:
    explicit RunSet(RunOptions opts = {}) : opts_(std::move(opts)) {}

    /** Declare a run; `branch_profile` arms its PMU branch profile,
     *  which perturbs no counter that its key's other readers see. */
    void
    need(const RunKey &k, bool branch_profile = false)
    {
        runs_[k].branch_profile |= branch_profile;
    }

    /**
     * Compute every declared run, workload by workload in key order. At
     * jobs 1 each workload is prepared, run, freed and reported (`done`)
     * before the next starts. At jobs N each prepare and each run is a
     * pool task, and `done` reports every workload after the last run.
     */
    void run(const std::function<void(const Workload &)> &done = {});

    const ConfigRun &at(const RunKey &k) const { return runs_.at(k).result; }

    /** Did run `k` succeed with its workload's source checksum? */
    bool matches(const RunKey &k) const { return runs_.at(k).matches; }

    /** Move `w`'s runs out into one report, in key order. */
    WorkloadRuns collect(const Workload &w);

    size_t size() const { return runs_.size(); }
    /** Sources run() prepared: one per (workload, profile input). */
    size_t sources() const { return profiled_; }

  private:
    struct Run
    {
        bool branch_profile = false;
        ConfigRun result;
        bool matches = false;
    };
    using Entry = std::map<RunKey, Run>::value_type;
    /** A workload's runs, in key order, and its source truth. */
    struct Work
    {
        std::vector<Entry *> runs, pending; ///< pending: no record replays
        std::optional<int64_t> checksum;
        std::string error; ///< why the prepare step ended early
    };
    using Sources = std::map<InputKind, ProfiledSource>;

    RunOptions options(const Entry &e) const;
    std::shared_ptr<const Sources> prepare(const Workload &w, Work &wk);
    void execute(const Workload &w, const Work &wk, Entry &e,
                 const Sources &src);

    RunOptions opts_;
    std::map<RunKey, Run> runs_;
    std::map<const Workload *, Work> work_;
    std::atomic<size_t> profiled_{0};
};

/** Run one workload under a set of configurations: a RunSet of one
 *  workload, each run validated against its source truth. */
WorkloadRuns runWorkload(const Workload &w,
                         const std::vector<Config> &configs,
                         const RunOptions &opts = {});

/** The standard four configurations in Table 1 order. */
const std::vector<Config> &standardConfigs();

/**
 * Run the workloads opts.only selects under the given configurations
 * as one RunSet; `progress` (optional) gets each workload's report.
 */
std::vector<WorkloadRuns>
runSuite(const std::vector<Config> &configs, const RunOptions &opts = {},
         const std::function<void(const WorkloadRuns &)> &progress = {});

} // namespace epic

#endif // EPIC_DRIVER_EXPERIMENT_H
