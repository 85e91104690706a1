/**
 * @file
 * Command-line driver: run any workload under any configuration and
 * print the full Perfmon report — the "pfmon" of this repository.
 *
 * Usage:
 *   epiclab_run --list | --help
 *   epiclab_run <benchmark>|--all [--config GCC|O-NS|ILP-NS|ILP-CS]
 *               [--jobs N] [--pass-stats]
 *               [--json <path>] [--trace <path>]
 *               [--spec general|sentinel] [--profile-on-ref]
 *               [--no-peel] [--no-pointer-analysis] [--conservative-hb]
 *               [--inject <seed>] [--inject-rate <p>] [--inject-sim]
 *               [--deadline-ms N] [--max-instrs N] [--max-cycles N]
 *               [--max-depth N] [--max-mem-pages N] [--retries N]
 *               [--no-ladder] [--checkpoint-every N] [--resume]
 *               [--only <substr[,substr...]>]
 *               [--sample-every N] [--samples <path>]
 *               [--ear-latency-min N] [--btb-depth N] [--profile]
 *               [--sim-mode detailed|sampled]
 *               [--ff-functional M] [--detail-window W]
 *
 * Fidelity mode (DESIGN.md §18): --sim-mode=sampled alternates
 * functional fast-forward phases (M ops, architected semantics only)
 * with detailed timing windows (W ops), extrapolating per-category
 * cycle estimates from window coverage. Estimates land under
 * sim.sampled.est.* in the --json record — never under sim.cycles.* —
 * and every sample line is tagged mode=sampled with its scale factors.
 * Sampled runs are deterministic and --jobs invariant like detailed
 * ones, but cannot --resume (the extrapolation basis would differ).
 *
 * PMU sampling (DESIGN.md §17): --sample-every arms the interval
 * sampler whose per-category sums reconcile exactly with the end-of-run
 * Perfmon totals (declared invariants in the --json record); --samples
 * writes the epiclab.samples.v1 time-series, byte-identical for any
 * --jobs. --ear-latency-min / --btb-depth arm the event address
 * registers and branch trace buffer; --profile (single-run only)
 * prints the hot-region cycle-category breakdown.
 *
 * The --all report is byte-identical for every --jobs value (parallel
 * results merge in workload/config order), so `--all --jobs 1` vs
 * `--all --jobs 4` diffing clean is the determinism check CI runs. The
 * same holds for the --json artifact: records are serialized post-join
 * in suite × config index order and carry no wall times. The --trace
 * timeline is made of wall times and is therefore never part of any
 * byte-identity check.
 *
 * Fleet supervision (--all + any supervision flag): SIGINT/SIGTERM
 * request a cooperative stop — in-flight simulations wind down at
 * their next poll site, completed records are already durable in the
 * `<json>.manifest` sidecar (each append fsync'd), and the process
 * exits 130 without writing a final artifact. A later run with
 * --resume skips every manifest-recorded task and reassembles a final
 * artifact byte-identical to an uninterrupted run.
 *
 * Unknown flags and malformed numeric values are fatal: a typo must
 * kill the run at the parser, not silently select a benchmark or a
 * zero job count.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "driver/experiment.h"
#include "support/arena.h"
#include "support/cli.h"
#include "support/faultinject.h"
#include "support/io.h"
#include "support/logging.h"
#include "support/supervision/manifest.h"
#include "support/supervision/supervise.h"
#include "support/telemetry/artifact.h"
#include "support/telemetry/trace.h"
#include "support/threadpool.h"

using namespace epic;

namespace {

void
usage()
{
    printf("usage: epiclab_run <benchmark> [options]\n"
           "       epiclab_run --all [options]\n"
           "       epiclab_run --list\n"
           "       epiclab_run --help\n\n"
           "options:\n"
           "  --config <GCC|O-NS|ILP-NS|ILP-CS|ILP-CS-DS>\n"
           "                                      (default ILP-CS)\n"
           "  --with-ds                           add ILP-CS-DS (data\n"
           "                                      speculation) to --all\n"
           "  --alat-entries <N>                  ALAT entries "
           "(default 32)\n"
           "  --alat-assoc <N>                    ALAT associativity; 0 "
           "=\n"
           "                                      fully associative "
           "(default 2)\n"
           "  --jobs <N>                          parallel workers "
           "(default 1);\n"
           "                                      output is identical "
           "for any N\n"
           "  --pass-stats                        per-pass compile-time "
           "attribution\n"
           "  --json <path>                       write one JSONL run "
           "record per\n"
           "                                      workload x config "
           "(schema\n"
           "                                      epiclab.run.v1, "
           "deterministic)\n"
           "  --trace <path>                      write a Chrome "
           "trace-event\n"
           "                                      timeline (Perfetto / "
           "about:tracing)\n"
           "  --spec <general|sentinel>           OS deferral policy for\n"
           "                                      wild speculative loads\n"
           "  --profile-on-ref                    train on the ref input\n"
           "  --no-peel --no-pointer-analysis --conservative-hb\n"
           "  --inject <seed>                     corrupt IR at pass\n"
           "                                      boundaries (firewall "
           "demo)\n"
           "  --inject-rate <p>                   fire probability "
           "(default 1.0)\n"
           "  --inject-analysis                   admit spurious-"
           "invalidate\n"
           "                                      faults into the "
           "rotation\n"
           "  --analysis-mode <m>                 cached|recompute|"
           "stale-check\n"
           "                                      (default "
           "$EPICLAB_ANALYSIS_MODE\n"
           "                                      or cached)\n"
           "\nsupervision (any of these arms the run-supervision "
           "layer):\n"
           "  --deadline-ms <N>                   per-attempt wall "
           "deadline\n"
           "  --max-instrs <N> --max-cycles <N>   dynamic budgets\n"
           "  --max-depth <N> --max-mem-pages <N>\n"
           "  --retries <N>                       detailed-sim attempts "
           "(default 2)\n"
           "  --no-ladder                         no functional-only/"
           "skip fallback\n"
           "  --checkpoint-every <N>              sim checkpoint "
           "interval (ops)\n"
           "  --inject-sim                        sim-layer chaos "
           "(with --inject)\n"
           "  --resume                            skip tasks recorded "
           "in the\n"
           "                                      <json>.manifest "
           "sidecar\n"
           "  --only <substr[,substr...]>         restrict --all to "
           "matching\n"
           "                                      workloads\n"
           "\nfidelity mode (DESIGN.md §18):\n"
           "  --sim-mode <detailed|sampled>       sampled alternates\n"
           "                                      functional fast-forward\n"
           "                                      with detailed windows\n"
           "  --ff-functional <M>                 ops fast-forwarded per\n"
           "                                      phase (sampled only)\n"
           "  --detail-window <W>                 ops simulated in detail\n"
           "                                      per window (sampled "
           "only)\n"
           "\nPMU sampling (deterministic; off = zero sim overhead):\n"
           "  --sample-every <N>                  interval sampler "
           "stride in\n"
           "                                      cycles (sums "
           "reconcile with\n"
           "                                      end-of-run totals)\n"
           "  --samples <path>                    write the interval "
           "time-series\n"
           "                                      (schema "
           "epiclab.samples.v1);\n"
           "                                      needs --sample-every\n"
           "  --ear-latency-min <N>               capture D/I-cache "
           "misses with\n"
           "                                      latency >= N cycles "
           "(EARs)\n"
           "  --btb-depth <N>                     branch-trace-buffer "
           "depth +\n"
           "                                      per-branch mispredict "
           "profile\n"
           "  --profile                           hot-region cycle-"
           "category\n"
           "                                      report (single-run "
           "only)\n");
}

/**
 * Process-wide arena summary for --pass-stats (human-facing; totals are
 * aggregated across every arena the process created, compile and sim
 * side alike).
 */
void
printArenaStats()
{
    const ArenaGlobalCounters &ac = arenaGlobalCounters();
    printf("\narena: %llu bytes allocated across %llu chunk(s); "
           "%llu rollback(s) reclaimed %llu bytes\n",
           (unsigned long long)ac.bytes_allocated.load(),
           (unsigned long long)ac.chunks.load(),
           (unsigned long long)ac.rollbacks.load(),
           (unsigned long long)ac.bytes_reclaimed.load());
}

/**
 * Check every run record's declared invariants; prints violations to
 * stderr and returns false if any fired.
 */
bool
reportViolations(const std::vector<std::string> &violations)
{
    for (const std::string &v : violations)
        epic_warn("telemetry ", v);
    return violations.empty();
}

/**
 * Full-suite report: every workload under the standard four
 * configurations. Prints only deterministic quantities (checksums,
 * cycle counts, compile counters), never wall times, so the bytes are
 * invariant under --jobs.
 */
int
runAll(RunOptions &opts, bool supervise, const std::vector<Config> &configs,
       bool pass_stats, const std::string &json_path,
       const std::string &samples_path)
{
    const auto t0 = std::chrono::steady_clock::now();

    // Fleet supervision: durable manifest sidecar + cooperative stop.
    RunManifest manifest;
    if (supervise && !json_path.empty()) {
        const std::string mpath = json_path + ".manifest";
        const size_t loaded = manifest.open(mpath);
        if (opts.resume && loaded)
            fprintf(stderr,
                    "resume: %zu completed record(s) in %s\n", loaded,
                    mpath.c_str());
        opts.manifest = &manifest;
    }
    if (supervise)
        installStopSignalHandlers();

    std::vector<WorkloadRuns> suite = runSuite(configs, opts);
    if (suite.empty())
        epic_fatal("--only matched no workloads (see --list)");

    if (supervisionActive() && stopRequested()) {
        // Completed records are already durable (fsync'd appends); a
        // partial final artifact would only shadow them. Exit like an
        // interrupted shell command.
        fprintf(stderr,
                "interrupted: %zu record(s) durable in manifest; rerun "
                "with --resume\n",
                manifest.size());
        return 130;
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    int mismatched = 0;
    PipelineStats pipe;
    for (const WorkloadRuns &runs : suite) {
        printf("%-12s source checksum %lld  %s\n", runs.name.c_str(),
               (long long)runs.source_checksum,
               !runs.error.empty()
                   ? runs.error.c_str()
                   : (runs.all_match ? "[all match]" : "[MISMATCH]"));
        if (!runs.all_match)
            ++mismatched;
        for (Config cfg : configs) {
            auto it = runs.by_config.find(cfg);
            if (it == runs.by_config.end())
                continue;
            const ConfigRun &r = it->second;
            if (!r.ok) {
                printf("  %-8s failed: %s\n", configName(cfg),
                       r.error.c_str());
                continue;
            }
            printf("  %-8s cycles %12llu  useful IPC %.2f  instrs %6d  "
                   "fallbacks %zu\n",
                   configName(cfg), (unsigned long long)r.pm.total(),
                   r.pm.usefulIpc(), r.instrs_final,
                   r.fallback.events.size());
        }
        if (!runs.fallback.clean())
            printf("%s", runs.fallback.str().c_str());
        pipe.merge(runs.pipeline);
    }
    if (pass_stats) {
        printf("\n%s", pipe.str().c_str());
        printArenaStats();
    }

    bool invariants_ok = true;
    if (!json_path.empty()) {
        // Serialized post-join in suite x config index order: the
        // artifact bytes are identical for any --jobs value.
        std::vector<std::string> violations;
        const std::string doc =
            suiteArtifact(suite, configs, &violations);
        atomicWriteFileOrDie(json_path, doc);
        invariants_ok = reportViolations(violations);
    }
    if (!samples_path.empty() &&
        !writeSamplesArtifact(samples_path, suite, configs))
        invariants_ok = false;

    // Wall clock goes to stderr: it varies run to run, and stdout must
    // stay byte-identical across --jobs values.
    fprintf(stderr, "suite wall clock: %.1f s (jobs=%d)\n", wall_s,
            opts.jobs);
    if (ThreadPool::exceptionsDropped() || ThreadPool::hungTasks())
        fprintf(stderr,
                "pool: %llu exception(s) dropped, %llu hung task(s)\n",
                (unsigned long long)ThreadPool::exceptionsDropped(),
                (unsigned long long)ThreadPool::hungTasks());
    return mismatched == 0 && invariants_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string mode = argv[1];
    if (mode == "--help" || mode == "-h") {
        usage();
        return 0;
    }
    if (mode == "--list") {
        for (const Workload &w : allWorkloads())
            printf("%-12s %s\n", w.name.c_str(), w.signature.c_str());
        return 0;
    }
    if (mode != "--all" && mode[0] == '-')
        epic_fatal("unknown option '", mode, "' (see --help)");

    std::string bench = mode;
    Config cfg = Config::IlpCs;
    RunOptions opts;
    bool with_ds = false;
    bool no_peel = false, no_ptr = false, cons_hb = false;
    bool inject = false, inject_analysis = false, pass_stats = false;
    bool inject_sim = false;
    uint64_t inject_seed = 0;
    double inject_rate = 1.0;
    AnalysisMode analysis_mode = envAnalysisMode();
    std::string json_path, trace_path, samples_path;
    // Any supervision flag arms the fleet supervisor's policy, with the
    // flags applied on top of it.
    bool supervise = false;
    SupervisionOptions sup = SupervisionOptions::supervised();

    // Option values are parsed strictly (support/cli.h): a flag typo or
    // a non-numeric value is fatal, never a silent benchmark name or a
    // zeroed parameter.
    auto value_of = [&](int &i, const std::string &flag) -> const char * {
        if (i + 1 >= argc)
            epic_fatal(flag, " requires a value (see --help)");
        return argv[++i];
    };
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--jobs") {
            opts.jobs = static_cast<int>(
                parseIntFlag("--jobs", value_of(i, a), 1, 4096));
        } else if (a == "--pass-stats") {
            pass_stats = true;
        } else if (a == "--json") {
            json_path = value_of(i, a);
        } else if (a == "--trace") {
            trace_path = value_of(i, a);
        } else if (a == "--config") {
            std::string c = value_of(i, a);
            if (c == "GCC")
                cfg = Config::Gcc;
            else if (c == "O-NS")
                cfg = Config::ONS;
            else if (c == "ILP-NS")
                cfg = Config::IlpNs;
            else if (c == "ILP-CS")
                cfg = Config::IlpCs;
            else if (c == "ILP-CS-DS")
                cfg = Config::IlpCsDs;
            else
                epic_fatal("--config: unknown configuration '", c, "'");
        } else if (a == "--with-ds") {
            with_ds = true;
        } else if (a == "--alat-entries") {
            opts.alat_entries = static_cast<int>(parseIntFlag(
                "--alat-entries", value_of(i, a), 1, 4096));
        } else if (a == "--alat-assoc") {
            // 0 selects a fully-associative ALAT (see sim/alat.h).
            opts.alat_assoc = static_cast<int>(
                parseIntFlag("--alat-assoc", value_of(i, a), 0, 4096));
        } else if (a == "--spec") {
            std::string m = value_of(i, a);
            if (m == "sentinel")
                opts.deferral = DeferralPolicy::Sentinel;
            else if (m == "general")
                opts.deferral = DeferralPolicy::General;
            else
                epic_fatal("--spec: unknown policy '", m, "'");
        } else if (a == "--profile-on-ref") {
            opts.profile_input = InputKind::Ref;
        } else if (a == "--no-peel") {
            no_peel = true;
        } else if (a == "--no-pointer-analysis") {
            no_ptr = true;
        } else if (a == "--conservative-hb") {
            cons_hb = true;
        } else if (a == "--inject") {
            inject = true;
            inject_seed = static_cast<uint64_t>(parseIntFlag(
                "--inject", value_of(i, a), 0, INT64_MAX));
        } else if (a == "--inject-rate") {
            inject_rate =
                parseFloatFlag("--inject-rate", value_of(i, a), 0.0, 1.0);
        } else if (a == "--inject-analysis") {
            inject_analysis = true;
        } else if (a == "--inject-sim") {
            inject_sim = true;
            supervise = true;
        } else if (a == "--deadline-ms") {
            sup.deadline_ms = parseIntFlag("--deadline-ms", value_of(i, a),
                                           1, INT64_MAX);
            supervise = true;
        } else if (a == "--max-instrs") {
            sup.max_instrs = static_cast<uint64_t>(parseIntFlag(
                "--max-instrs", value_of(i, a), 1, INT64_MAX));
            supervise = true;
        } else if (a == "--max-cycles") {
            sup.max_cycles = static_cast<uint64_t>(parseIntFlag(
                "--max-cycles", value_of(i, a), 1, INT64_MAX));
            supervise = true;
        } else if (a == "--max-depth") {
            sup.max_depth = static_cast<int>(parseIntFlag(
                "--max-depth", value_of(i, a), 1, 1 << 20));
            supervise = true;
        } else if (a == "--max-mem-pages") {
            sup.max_mem_pages = static_cast<uint64_t>(parseIntFlag(
                "--max-mem-pages", value_of(i, a), 1, INT64_MAX));
            supervise = true;
        } else if (a == "--retries") {
            sup.max_attempts = static_cast<int>(
                parseIntFlag("--retries", value_of(i, a), 1, 100));
            supervise = true;
        } else if (a == "--no-ladder") {
            sup.ladder = false;
            supervise = true;
        } else if (a == "--checkpoint-every") {
            sup.checkpoint_every = static_cast<uint64_t>(parseIntFlag(
                "--checkpoint-every", value_of(i, a), 1, INT64_MAX));
            supervise = true;
        } else if (a == "--resume") {
            opts.resume = true;
            supervise = true;
        } else if (a == "--only") {
            std::string list = value_of(i, a);
            size_t pos = 0;
            while (pos <= list.size()) {
                const size_t comma = list.find(',', pos);
                const std::string pat =
                    list.substr(pos, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - pos);
                if (!pat.empty())
                    opts.only.push_back(pat);
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
            if (opts.only.empty())
                epic_fatal("--only requires at least one non-empty "
                           "workload substring");
        } else if (a == "--sim-mode") {
            std::string m = value_of(i, a);
            if (m == "sampled")
                opts.sim_mode = SimMode::Sampled;
            else if (m == "detailed")
                opts.sim_mode = SimMode::Detailed;
            else
                epic_fatal("--sim-mode: unknown mode '", m,
                           "' (detailed|sampled)");
        } else if (a == "--ff-functional") {
            opts.ff_functional = static_cast<uint64_t>(parseIntFlag(
                "--ff-functional", value_of(i, a), 1, INT64_MAX));
        } else if (a == "--detail-window") {
            opts.detail_window = static_cast<uint64_t>(parseIntFlag(
                "--detail-window", value_of(i, a), 1, INT64_MAX));
        } else if (a == "--sample-every") {
            opts.pmu.sample_every = static_cast<uint64_t>(parseIntFlag(
                "--sample-every", value_of(i, a), 1, INT64_MAX));
        } else if (a == "--samples") {
            samples_path = value_of(i, a);
        } else if (a == "--ear-latency-min") {
            opts.pmu.ear_latency_min = static_cast<int>(parseIntFlag(
                "--ear-latency-min", value_of(i, a), 1, 1 << 20));
        } else if (a == "--btb-depth") {
            opts.pmu.btb_depth = static_cast<int>(parseIntFlag(
                "--btb-depth", value_of(i, a), 1, 1 << 20));
        } else if (a == "--profile") {
            opts.pmu.regions = true;
        } else if (a == "--analysis-mode") {
            std::string m = value_of(i, a);
            if (!parseAnalysisMode(m, &analysis_mode))
                epic_fatal("--analysis-mode: unknown mode '", m,
                           "' (cached|recompute|stale-check)");
        } else {
            epic_fatal("unknown option '", a, "' (see --help)");
        }
    }
    if (supervise)
        opts.supervision = sup;
    FaultInjector injector(inject_seed, inject_rate);
    if (inject_analysis)
        injector.enableAnalysisFaults(true);
    if (inject_sim) {
        if (!inject)
            epic_fatal("--inject-sim needs --inject <seed> for the "
                       "deterministic fault plan");
        injector.enableSimFaults(true);
        opts.sim_inject = &injector;
    }
    FaultInjector *inj = inject ? &injector : nullptr;
    opts.tweak = [=](CompileOptions &o) {
        if (no_peel)
            o.enable_peel = false;
        if (no_ptr)
            o.enable_pointer_analysis = false;
        if (cons_hb)
            o.hb_opts.conservative = true;
        o.analysis_mode = analysis_mode;
        o.firewall.inject = inj;
    };

    if (opts.resume && json_path.empty())
        epic_fatal("--resume needs --json <path> (the manifest lives "
                   "in <path>.manifest)");
    if (!samples_path.empty() && opts.pmu.sample_every == 0)
        epic_fatal("--samples needs --sample-every <N> (nothing would "
                   "be sampled)");
    if (opts.pmu.regions && bench == "--all")
        epic_fatal("--profile reports one run; use it without --all "
                   "(pick a benchmark and --config)");
    if (opts.pmu.enabled() && opts.resume)
        epic_fatal("--resume cannot replay PMU sample streams; rerun "
                   "the fleet without --resume when sampling");
    if (opts.sim_mode == SimMode::Sampled) {
        if (opts.ff_functional == 0 || opts.detail_window == 0)
            epic_fatal("--sim-mode=sampled requires --ff-functional <M> "
                       "and --detail-window <W>");
        if (opts.resume)
            epic_fatal("--resume cannot extend a sampled run (the "
                       "extrapolation basis would differ); rerun the "
                       "fleet without --resume");
    } else if (opts.ff_functional != 0 || opts.detail_window != 0) {
        epic_fatal("--ff-functional/--detail-window only apply to "
                   "--sim-mode=sampled");
    }
    // Pool-side hung-task watchdog: the safety net behind the
    // cooperative deadline poll. Warn at 10x the per-attempt deadline
    // (min 1 s) — cooperative reclaim should long since have fired.
    if (opts.supervision.deadline_ms > 0)
        ThreadPool::setHungTaskThresholdMs(
            std::max<int64_t>(1000, 10 * opts.supervision.deadline_ms));

    if (!trace_path.empty())
        TraceRecorder::global().enable();
    auto finish = [&](int rc) {
        if (!trace_path.empty()) {
            TraceRecorder::global().disable();
            if (!TraceRecorder::global().writeFile(trace_path))
                epic_fatal("cannot write trace to '", trace_path, "'");
        }
        flushSuppressedWarnings();
        return rc;
    };

    if (bench == "--all") {
        // The legacy four-configuration sweep is the byte-stable
        // artifact contract; ILP-CS-DS rides along only on request.
        std::vector<Config> cfgs = standardConfigs();
        if (with_ds)
            cfgs.push_back(Config::IlpCsDs);
        return finish(
            runAll(opts, supervise, cfgs, pass_stats, json_path,
                   samples_path));
    }

    const Workload *w = findWorkload(bench);
    if (!w) {
        for (const Workload &cand : allWorkloads())
            if (cand.name.find(bench) != std::string::npos)
                w = &cand;
    }
    if (!w) {
        printf("unknown benchmark '%s' (try --list)\n", bench.c_str());
        return finish(1);
    }

    ConfigRun r;
    if (supervise) {
        installStopSignalHandlers();
        // The prepare step's source-truth checksum lets the supervisor's
        // validation-aware retry catch silent corruption in single-run
        // mode too, as it does on the suite path.
        const ProfiledSource src = prepareWorkload(*w, opts);
        if (src.source_checksum)
            opts.expected_checksum = *src.source_checksum;
        r = runConfig(*w, src, cfg, opts);
    } else {
        r = runConfig(*w, cfg, opts);
    }
    if (!r.fallback.clean())
        printf("%s\n", r.fallback.str().c_str());
    if (supervise && r.sim_attempts > 0)
        printf("supervision: %s after %d attempt(s), status %s%s\n",
               r.sim_rung, r.sim_attempts, runStatusName(r.sim_status),
               r.ckpt_instrs
                   ? (" (checkpoint @ op " +
                      std::to_string(r.ckpt_instrs) + ", " +
                      std::to_string(r.ckpt_bytes) + " bytes)")
                         .c_str()
                   : "");
    if (inj && injector.fired()) {
        printf("fault injection: %d fired, %d escaped a gate\n",
               injector.fired(), injector.escaped());
        for (const FaultRecord &fr : injector.records())
            printf("  %-10s %s @ %s [%s]: %s\n",
                   fr.caught ? "caught" : "ESCAPED",
                   fr.function.c_str(), fr.pass.c_str(), fr.rung.c_str(),
                   fr.detail.c_str());
        printf("\n");
    }
    if (!json_path.empty()) {
        // Single-run record: unsupervised runs skip the source-truth
        // interpretation, so source_checksum is recorded as 0 there.
        std::vector<std::string> violations;
        StatsRegistry reg = buildRunRegistry(r);
        for (const std::string &v : reg.checkInvariants())
            violations.push_back(w->name + " [" +
                                 configName(r.config) + "]: " + v);
        atomicWriteFileOrDie(
            json_path,
            runRecordJson(w->name, opts.expected_checksum.value_or(0),
                          r) +
                "\n");
        if (!reportViolations(violations))
            return finish(1);
    }
    if (!samples_path.empty()) {
        // Reuse the suite serializer for the single run: same record
        // shape, same reconciliation check.
        WorkloadRuns single;
        single.name = w->name;
        single.by_config.emplace(r.config, r);
        if (!writeSamplesArtifact(samples_path, {single}, {r.config}))
            return finish(1);
    }
    if (!r.ok) {
        printf("run failed: %s\n", r.error.c_str());
        return finish(1);
    }

    printf("%s  [%s]\n", w->name.c_str(), configName(cfg));
    printf("  checksum            %lld\n", (long long)r.checksum);
    printf("  cycles              %llu\n",
           (unsigned long long)r.pm.total());
    printf("  useful IPC          %.2f (planned %.2f)\n",
           r.pm.usefulIpc(), r.pm.plannedIpc());
    printf("\ncycle accounting:\n");
    for (int c = 0; c < Perfmon::kNumCats; ++c) {
        if (!r.pm.cycles[c])
            continue;
        printf("  %-22s %10llu  %5.1f%%\n",
               cycleCatName(static_cast<CycleCat>(c)),
               (unsigned long long)r.pm.cycles[c],
               100.0 * r.pm.cycles[c] / r.pm.total());
    }
    if (r.sampled.enabled) {
        printf("\nsampled-mode extrapolation (%llu window(s), %llu of "
               "%llu ops in detail):\n",
               (unsigned long long)r.sampled.windows,
               (unsigned long long)r.sampled.detail_ops,
               (unsigned long long)r.sampled.total_ops);
        for (int c = 0; c < Perfmon::kNumCats; ++c) {
            if (!r.sampled.est_cycles[c])
                continue;
            printf("  est %-18s %10llu\n",
                   cycleCatName(static_cast<CycleCat>(c)),
                   (unsigned long long)r.sampled.est_cycles[c]);
        }
        printf("  est total             %10llu\n",
               (unsigned long long)r.sampled.est_total);
    }
    printf("\nevents:\n");
    printf("  ops useful/squashed/nop  %llu / %llu / %llu\n",
           (unsigned long long)r.pm.useful_ops,
           (unsigned long long)r.pm.squashed_ops,
           (unsigned long long)r.pm.nop_ops);
    printf("  branches %llu (mispred %llu, rate %.4f)\n",
           (unsigned long long)r.pm.branches,
           (unsigned long long)r.pm.mispredictions,
           r.pm.predictionRate());
    printf("  L1D acc/miss  %llu / %llu    L1I acc/miss  %llu / %llu\n",
           (unsigned long long)r.pm.l1d_accesses,
           (unsigned long long)r.pm.l1d_misses,
           (unsigned long long)r.pm.l1i_accesses,
           (unsigned long long)r.pm.l1i_misses);
    printf("  DTLB miss %llu   wild loads %llu   STLF conflicts %llu   "
           "RSE regs %llu\n",
           (unsigned long long)r.pm.dtlb_misses,
           (unsigned long long)r.pm.wild_loads,
           (unsigned long long)r.pm.stlf_conflicts,
           (unsigned long long)(r.pm.rse_spill_regs +
                                r.pm.rse_fill_regs));
    printf("\ncompilation:\n");
    printf("  instrs %d -> %d (classical) -> %d (regions) -> %d\n",
           r.instrs_source, r.stats.instrs_after_classical,
           r.stats.instrs_after_regions, r.instrs_final);
    printf("  inlined %d  promoted icalls %d  superblocks %d  "
           "hyperblocks %d  peeled %d\n",
           r.stats.inl.inlined, r.stats.inl.promoted, r.stats.sb.traces,
           r.stats.hb.regions, r.stats.peel.peeled);
    printf("  spec moved %d  promoted %d  spec loads %d  stacked regs "
           "%d  spilled %d\n",
           r.stats.spec.moved, r.stats.spec.promoted,
           r.stats.spec.spec_loads, r.stats.ra.gr_used,
           r.stats.ra.spilled);
    if (pass_stats) {
        printf("\n%s", r.pipeline.str().c_str());
        printArenaStats();
    }

    printf("\nhottest functions:\n");
    std::vector<std::pair<uint64_t, int>> hot;
    for (auto &[fid, cyc] : r.pm.func_cycles)
        hot.push_back({cyc, fid});
    std::sort(hot.rbegin(), hot.rend());
    for (size_t i = 0; i < hot.size() && i < 8; ++i) {
        const Function *f = r.prog->func(hot[i].second);
        printf("  %-24s %10llu  %5.1f%%%s\n",
               f ? f->name.c_str() : "?",
               (unsigned long long)hot[i].first,
               100.0 * hot[i].first / r.pm.total(),
               f && (f->attr & kFuncLibrary) ? "  [library]" : "");
    }

    if (opts.pmu.regions && r.pmu) {
        // Hot-region report: per-(function, block) cycle-category
        // breakdown, every number reconciling with the totals above.
        printf("\nhot regions (function/block, cycle categories):\n");
        struct HotRegion
        {
            uint64_t total;
            uint64_t key;
            const PmuData::RegionCycles *cyc;
        };
        std::vector<HotRegion> regions;
        for (const auto &[key, cyc] : r.pmu->regions()) {
            uint64_t t = 0;
            for (int c = 0; c < Perfmon::kNumCats; ++c)
                t += cyc[c];
            if (t)
                regions.push_back({t, key, &cyc});
        }
        std::sort(regions.begin(), regions.end(),
                  [](const HotRegion &a, const HotRegion &b) {
                      if (a.total != b.total)
                          return a.total > b.total;
                      return a.key < b.key; // cycles desc, region asc
                  });
        for (size_t i = 0; i < regions.size() && i < 16; ++i) {
            const HotRegion &hr = regions[i];
            const int fid = static_cast<int>(hr.key >> 32);
            const int bid = static_cast<int>(hr.key & 0xffffffffu);
            const Function *f = r.prog->func(fid);
            char label[64];
            snprintf(label, sizeof label, "%s bb%d",
                     f ? f->name.c_str() : "?", bid);
            printf("  %-28s %10llu  %5.1f%% ", label,
                   (unsigned long long)hr.total,
                   100.0 * hr.total / r.pm.total());
            for (int c = 0; c < Perfmon::kNumCats; ++c)
                if ((*hr.cyc)[c])
                    printf(" %s:%.1f%%",
                           cycleCatKey(static_cast<CycleCat>(c)),
                           100.0 * (*hr.cyc)[c] / hr.total);
            printf("\n");
        }
        if (r.pmu->options().ear_latency_min != 0 &&
            (!r.pmu->dearSites().empty() ||
             !r.pmu->iearSites().empty())) {
            printf("\nEAR miss sites (>= %d cycles):\n",
                   r.pmu->options().ear_latency_min);
            auto print_sites =
                [&](const char *tag,
                    const std::map<uint64_t, PmuData::EarSite> &sites) {
                    // Top sites by event count (desc, region asc).
                    std::vector<std::pair<uint64_t, uint64_t>> order;
                    for (const auto &[key, site] : sites)
                        order.push_back({site.events, key});
                    std::sort(order.begin(), order.end(),
                              [](const auto &a, const auto &b) {
                                  if (a.first != b.first)
                                      return a.first > b.first;
                                  return a.second < b.second;
                              });
                    for (size_t i = 0; i < order.size() && i < 8; ++i) {
                        const PmuData::EarSite &site =
                            sites.at(order[i].second);
                        const int fid =
                            static_cast<int>(order[i].second >> 32);
                        const int bid = static_cast<int>(
                            order[i].second & 0xffffffffu);
                        const Function *f = r.prog->func(fid);
                        printf("  %s %-24s bb%-4d %8llu ev  avg lat "
                               "%5.1f%s%s\n",
                               tag, f ? f->name.c_str() : "?", bid,
                               (unsigned long long)site.events,
                               static_cast<double>(site.total_latency) /
                                   static_cast<double>(site.events),
                               site.attr_union & kAttrTailDup
                                   ? "  [tail-dup]"
                                   : "",
                               site.attr_union &
                                       (kAttrPeelCopy | kAttrRemainder)
                                   ? "  [peel/remainder]"
                                   : "");
                    }
                };
            print_sites("D-EAR", r.pmu->dearSites());
            print_sites("I-EAR", r.pmu->iearSites());
        }
    }
    return finish(0);
}
