#include "driver/experiment.h"

#include <cstdlib>
#include <cstring>

#include "sim/checkpoint.h"
#include "sim/pmu/pmu.h"
#include "support/faultinject.h"
#include "support/logging.h"
#include "support/supervision/manifest.h"
#include "support/telemetry/artifact.h"
#include "support/telemetry/trace.h"
#include "support/threadpool.h"

namespace epic {

void
CompileVariant::apply(CompileOptions &o) const
{
    if (no_peel)
        o.enable_peel = false;
    if (no_pointer_analysis)
        o.enable_pointer_analysis = false;
    if (conservative_hb) {
        o.hb_opts.conservative = true;
        o.sb_opts.allow_tail_dup = false;
        o.enable_peel = false;
    }
    o.inline_opts.growth_budget = inline_budget;
}

const std::vector<Config> &
standardConfigs()
{
    static const std::vector<Config> kConfigs = {
        Config::Gcc, Config::ONS, Config::IlpNs, Config::IlpCs};
    return kConfigs;
}

namespace {

/**
 * Label of a coarse experiment phase on the trace timeline, naming the
 * workload and (for per-config phases) the configuration. "" when
 * tracing is off, so composing the label is skipped too.
 */
std::string
phaseLabel(const char *phase, const Workload &w, const Config *cfg = nullptr)
{
    if (!TraceRecorder::global().enabled())
        return {};
    std::string label = std::string(phase) + " " + w.name;
    if (cfg)
        label += std::string(" [") + configName(*cfg) + "]";
    return label;
}

/** The workload's source program, built and laid out, unprofiled. */
std::unique_ptr<Program>
buildSource(const Workload &w)
{
    auto prog = w.build();
    prog->layoutData();
    return prog;
}

/** Profile `prog` on `input`; on success it becomes `out.prog`. */
void
profileInto(const Workload &w, std::unique_ptr<Program> prog,
            InputKind input, ProfiledSource &out)
{
    Memory mem;
    mem.initFromProgram(*prog);
    w.write_input(*prog, mem, input);
    auto prof = profileRun(*prog, mem);
    if (!prof.ok) {
        out.error = "profile run failed: " + prof.error;
        return;
    }
    out.prog = std::move(prog);
}

/** RAII arm/disarm for the per-task deadline poll. */
struct SupervisionScope
{
    explicit SupervisionScope(bool on) : on_(on)
    {
        if (on_)
            armSupervision();
    }
    ~SupervisionScope()
    {
        if (on_)
            disarmSupervision();
    }
    SupervisionScope(const SupervisionScope &) = delete;
    SupervisionScope &operator=(const SupervisionScope &) = delete;
    bool on_;
};

/** A stop request observable at this poll site? */
bool
stopped()
{
    return supervisionActive() && stopRequested();
}

/**
 * Manifest key for one (workload x config) task: human-readable prefix
 * plus a fingerprint of everything that determines the record bytes —
 * the workload's content signature, the configuration, the input/spec
 * model choices, the compile variant and the artifact schema version.
 * A record is only reused when all of them match.
 */
std::string
manifestKey(const Workload &w, Config cfg, const RunOptions &o)
{
    uint64_t h = fnv1a(kRunSchemaVersion);
    h = fnv1a(w.signature, h);
    h = fnv1a(o.deferral == DeferralPolicy::Sentinel ? "sentinel"
                                                      : "general",
              h);
    h = fnv1a(std::to_string(static_cast<int>(o.profile_input)), h);
    h = fnv1a(std::to_string(static_cast<int>(o.run_input)), h);
    if (o.pmu.enabled()) {
        // PMU configuration changes the record bytes (pmu.* keys), so
        // sampled and unsampled fleets never reuse each other's records.
        h = fnv1a("pmu:" + std::to_string(o.pmu.sample_every) + "," +
                      std::to_string(o.pmu.ear_latency_min) + "," +
                      std::to_string(o.pmu.branch_profile ? 1 : 0) + "," +
                      std::to_string(o.pmu.regions ? 1 : 0),
                  h);
    }
    if (o.sim_mode == SimMode::Sampled) {
        // Sampled runs extrapolate (different record bytes): never let
        // a resumed fleet reuse a detailed record or vice versa.
        h = fnv1a("sampled:" + std::to_string(o.ff_functional) + "," +
                      std::to_string(o.detail_window),
                  h);
    }
    if (o.variant != CompileVariant{}) {
        // A compile variant changes the compiled code. The default
        // variant adds nothing, so default fleets keep their keys.
        const CompileVariant &v = o.variant;
        h = fnv1a("variant:" + std::to_string(v.no_peel) + "," +
                      std::to_string(v.no_pointer_analysis) + "," +
                      std::to_string(v.conservative_hb) + "," +
                      std::to_string(v.inline_budget),
                  h);
    }
    if (o.alat_entries || o.alat_assoc) {
        // ALAT geometry changes recovery-cycle record bytes.
        h = fnv1a("alat:" + std::to_string(o.alat_entries.value_or(-1)) +
                      "," + std::to_string(o.alat_assoc.value_or(-1)),
                  h);
    }
    return w.name + "|" + std::string(configName(cfg)) + "|" +
           hashHex(h);
}

/** Did a stored manifest record complete successfully? */
bool
recordSaysOk(const std::string &rec)
{
    return rec.find("\"ok\":true") != std::string::npos;
}

/** Integer field `key` of a stored manifest record (0 when absent). */
int64_t
recordInt(const std::string &rec, const std::string &key)
{
    const std::string tag = "\"" + key + "\":";
    const size_t p = rec.find(tag);
    if (p == std::string::npos)
        return 0;
    return std::strtoll(rec.c_str() + p + tag.size(), nullptr, 10);
}

/** String field `key` of a stored manifest record, its jsonEscape()
 *  undone ("" when absent). */
std::string
recordString(const std::string &rec, const std::string &key)
{
    const std::string tag = "\"" + key + "\":\"";
    size_t p = rec.find(tag);
    std::string out;
    if (p == std::string::npos)
        return out;
    for (p += tag.size(); p < rec.size() && rec[p] != '"'; ++p) {
        if (rec[p] != '\\' || p + 1 == rec.size()) {
            out += rec[p];
            continue;
        }
        switch (rec[++p]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u':
            out += static_cast<char>(
                std::strtol(rec.substr(p + 1, 4).c_str(), nullptr, 16));
            p += 4;
            break;
          default: out += rec[p]; break; // \" and \\ stand for themselves
        }
    }
    return out;
}

/** Fresh input image for the compiled program. */
void
buildImage(const Workload &w, const Program &prog, Memory &mem,
           const RunOptions &opts)
{
    mem.initFromProgram(prog);
    w.write_input(prog, mem, opts.run_input);
}

/** A task replayed from its stored manifest record. */
ConfigRun
resumedRun(Config cfg, const std::string &rec)
{
    ConfigRun r;
    r.config = cfg;
    r.resumed = true;
    r.record_json = rec;
    r.ok = recordSaysOk(rec);
    r.checksum = recordInt(rec, "checksum");
    r.error = recordString(rec, "error");
    // What the fleet report prints of a run.
    for (int c = 0; c < Perfmon::kNumCats; ++c)
        r.pm.cycles[c] = static_cast<uint64_t>(recordInt(
            rec, std::string("sim.cycles.") +
                     cycleCatKey(static_cast<CycleCat>(c))));
    r.pm.useful_ops =
        static_cast<uint64_t>(recordInt(rec, "sim.ops.useful"));
    r.instrs_final =
        static_cast<int>(recordInt(rec, "compile.instrs_final"));
    FallbackReport &fb = r.fallback;
    fb.functions_total = static_cast<int>(
        recordInt(rec, "firewall.functions_total"));
    fb.functions_degraded = static_cast<int>(
        recordInt(rec, "firewall.functions_degraded"));
    fb.clean_retries =
        static_cast<int>(recordInt(rec, "firewall.clean_retries"));
    fb.faults_injected =
        static_cast<int>(recordInt(rec, "firewall.faults.injected"));
    fb.faults_caught =
        static_cast<int>(recordInt(rec, "firewall.faults.caught"));
    // Of each fallback the record keeps only the rung it attempted.
    for (int c = 0; c <= static_cast<int>(Config::IlpCsDs); ++c) {
        FallbackEvent e;
        e.function = "(resumed task)";
        e.attempted = static_cast<Config>(c);
        e.failing_pass = "?";
        e.error = "gate, error and landing rung not kept in the manifest";
        const int64_t n = recordInt(
            rec, std::string("firewall.fallback_rung.") +
                     configName(e.attempted));
        fb.events.insert(fb.events.end(), n, e);
    }
    return r;
}

/**
 * The one simulation path of a compiled program, run under the task's
 * supervision policy: budgets + deadline, validation-aware bounded
 * retry of the detailed sim, then the degradation ladder
 * (functional-only, then skip-with-record) — mirroring the compile
 * firewall's rung discipline at the sim layer. The default policy
 * (one attempt, no ladder) is a plain detailed run.
 */
void
superviseSim(const Workload &w, Config cfg, const RunOptions &opts,
             Program &prog, ConfigRun &out)
{
    const SupervisionOptions &sup = opts.supervision;
    SupervisionScope scope(sup.deadline_ms > 0);

    TimingOptions base;
    base.deferral = opts.deferral;
    if (sup.max_cycles)
        base.max_cycles = sup.max_cycles;
    if (sup.max_depth)
        base.max_depth = sup.max_depth;
    base.max_mem_pages = sup.max_mem_pages;
    base.checkpoint_every = sup.checkpoint_every;
    base.pmu = opts.pmu;
    base.sim_mode = opts.sim_mode;
    base.ff_functional = opts.ff_functional;
    base.detail_window = opts.detail_window;
    if (opts.alat_entries)
        base.mach.alat_entries = *opts.alat_entries;
    if (opts.alat_assoc)
        base.mach.alat_assoc = *opts.alat_assoc;

    // Sim-layer chaos: the plan (and whether it fires) is a pure
    // function of (seed, workload, rung); it corrupts the *first*
    // attempt only — all three kinds model transient faults.
    SimFaultPlan plan;
    if (opts.sim_inject)
        plan = opts.sim_inject->simPlan(w.name, configName(cfg));

    const int max_attempts = std::max(1, sup.max_attempts);
    TimingResult r;
    SimCheckpoint ckpt;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        Memory mem;
        buildImage(w, prog, mem, opts);
        TimingOptions topts = base;
        topts.deadline_ns = deadlineFromNowMs(sup.deadline_ms);
        if (sup.checkpoint_every)
            topts.checkpoint_out = &ckpt;
        if (attempt == 0 && plan.fire) {
            switch (plan.kind) {
              case FaultKind::SimDecodeCorrupt:
                topts.corrupt_decode = true;
                break;
              case FaultKind::SimMemBitFlip:
                mem.flipBit(plan.mem_bit_sel);
                break;
              case FaultKind::SimAlatCorrupt:
                topts.corrupt_alat = plan.alat_corrupt;
                break;
              default: // SimHang
                topts.hang_at_instr = plan.hang_at_instr;
                topts.hang_ms = plan.hang_ms;
                break;
            }
        }
        r = simulate(prog, mem, topts);
        out.sim_attempts = attempt + 1;
        // Validation-aware retry: a detailed sim that "succeeds" with
        // the wrong architected result is a silent fault.
        if (r.ok && opts.expected_checksum &&
            r.ret_value != *opts.expected_checksum)
            r.fail(RunStatus::Faulted,
                   "checksum mismatch (" + std::to_string(r.ret_value) +
                       " vs " +
                       std::to_string(*opts.expected_checksum) + ")");
        if (r.ok || stopped())
            break;
        if (r.status == RunStatus::BudgetExceeded)
            break; // deterministic exhaustion: a retry cannot help
    }
    if (ckpt.valid()) {
        out.ckpt_instrs = ckpt.instrs;
        out.ckpt_bytes = ckpt.data.size();
    }

    if (r.ok) {
        out.ok = true;
        out.checksum = r.ret_value;
        out.pm = std::move(r.pm);
        out.pmu = std::move(r.pmu);
        out.sampled = r.sampled;
        out.sim_status = RunStatus::Ok;
    } else if (sup.ladder && !stopped()) {
        // Rung 2: functional-only. Execute the compiled program in
        // scheduled order through the interpreter — architected result
        // (checksum) without the timing model that failed.
        Memory mem;
        buildImage(w, prog, mem, opts);
        InterpOptions io;
        io.scheduled_order = true;
        if (sup.max_instrs)
            io.max_instrs = sup.max_instrs;
        if (sup.max_depth)
            io.max_depth = sup.max_depth;
        io.max_mem_pages = sup.max_mem_pages;
        io.deadline_ns = deadlineFromNowMs(sup.deadline_ms);
        auto fr = interpret(prog, mem, io);
        if (fr.ok) {
            out.ok = true;
            out.checksum = fr.ret_value;
            out.pm = Perfmon{};
            out.sim_rung = "functional";
            out.sim_status = RunStatus::Ok;
            out.error = std::string(configName(cfg)) +
                        " detailed sim quarantined after " +
                        std::to_string(out.sim_attempts) +
                        " attempt(s): " + r.error +
                        " (functional-only result)";
        } else {
            // Rung 3: skip with a structured record.
            out.ok = false;
            out.sim_rung = "skipped";
            out.sim_status = fr.status;
            out.error = std::string(configName(cfg)) +
                        " quarantined after " +
                        std::to_string(out.sim_attempts) +
                        " attempt(s): detailed (" + r.error +
                        "); functional (" + fr.error + ")";
        }
    } else {
        out.ok = false;
        out.sim_status = r.status;
        out.error = std::string(configName(cfg)) +
                    " simulation failed: " + r.error;
    }

    // Containment accounting for the injected fault: caught when the
    // supervisor *detected* it (retry/degrade/structured failure) or
    // validation proves the accepted result correct anyway. A fault
    // that yields an accepted wrong result would stay uncaught —
    // escaped — which is exactly what the chaos suite asserts against.
    if (plan.record >= 0) {
        const bool detected = out.sim_attempts > 1 ||
                              std::strcmp(out.sim_rung, "detailed") !=
                                  0 ||
                              !out.ok;
        const bool proven = out.ok && opts.expected_checksum &&
                            out.checksum == *opts.expected_checksum;
        if (detected || proven)
            opts.sim_inject->markCaught(plan.record);
    }
}

} // namespace

ProfiledSource
prepareWorkload(const Workload &w, const RunOptions &opts, bool profile)
{
    ProfiledSource out;
    out.profile_input = opts.profile_input;
    std::unique_ptr<Program> prog;
    {
        // Source truth: functional run of the unoptimized program on
        // the measurement input.
        TraceSpan span("experiment.phase", phaseLabel("source-run", w));
        prog = buildSource(w);
        Memory mem;
        mem.initFromProgram(*prog);
        w.write_input(*prog, mem, opts.run_input);
        auto r = interpret(*prog, mem);
        if (!r.ok) {
            out.error = "source program failed: " + r.error;
            return out;
        }
        out.source_checksum = r.ret_value;
    }
    // Only a profile run writes to the program, so the build the
    // source run used is still pristine.
    if (profile) {
        TraceSpan span("experiment.phase", phaseLabel("profile", w));
        profileInto(w, std::move(prog), opts.profile_input, out);
    }
    return out;
}

ProfiledSource
profileWorkload(const Workload &w, const ProfiledSource &prepared,
                InputKind input)
{
    ProfiledSource out;
    out.profile_input = input;
    out.source_checksum = prepared.source_checksum;
    if (!prepared.source_checksum) {
        out.error = prepared.error;
        return out;
    }
    TraceSpan span("experiment.phase", phaseLabel("profile", w));
    profileInto(w, buildSource(w), input, out);
    return out;
}

ConfigRun
runConfig(const Workload &w, const ProfiledSource &src, Config cfg,
          const RunOptions &opts)
{
    epic_assert(src.profile_input == opts.profile_input, w.name,
                ": shared source was profiled on another input than "
                "opts.profile_input");
    ConfigRun out;
    out.config = cfg;
    TraceSpan run_span("experiment", phaseLabel("run", w, &cfg));
    if (!src.prog) {
        out.error = src.error;
        out.sim_status = RunStatus::Faulted;
        return out;
    }

    CompileOptions copts = CompileOptions::forConfig(cfg);
    copts.jobs = opts.jobs;
    // --max-mem-pages covers compile-side arenas like sim heap pages.
    copts.max_arena_pages = opts.supervision.max_mem_pages;
    opts.variant.apply(copts);
    if (opts.tweak)
        opts.tweak(copts);
    Compiled c;
    try {
        c = compileProgram(*src.prog, copts);
    } catch (const ArenaBudgetExceeded &e) {
        out.ok = false;
        out.sim_status = RunStatus::BudgetExceeded;
        out.error = std::string(configName(cfg)) +
                    " compilation exceeded the arena budget: " + e.what();
        return out;
    }

    out.fallback = c.fallback;
    out.stats = c.stats;
    out.pipeline = c.pipeline;
    out.instrs_source = c.instrs_source;
    out.instrs_final = c.instrs_final;

    TraceSpan sim_span("experiment.phase", phaseLabel("simulate", w, &cfg));
    superviseSim(w, cfg, opts, *c.prog, out);
    out.prog = std::shared_ptr<Program>(std::move(c.prog));
    return out;
}

ConfigRun
runConfig(const Workload &w, Config cfg, const RunOptions &opts)
{
    // Build and profile, with no source-truth run.
    ProfiledSource src;
    src.profile_input = opts.profile_input;
    {
        TraceSpan span("experiment.phase", phaseLabel("build+profile", w));
        profileInto(w, buildSource(w), opts.profile_input, src);
    }
    return runConfig(w, src, cfg, opts);
}

std::vector<WorkloadRuns>
runSuite(const std::vector<Config> &configs, const RunOptions &opts,
         const std::function<void(const WorkloadRuns &)> &progress)
{
    const std::vector<const Workload *> suite = selectWorkloads(opts.only);

    std::vector<WorkloadRuns> out(suite.size());
    // Workloads fan out over the pool; results land in suite order, so
    // the report is byte-identical to a serial run. Progress feedback
    // streams per workload when serial, after the join when parallel.
    parallelFor(opts.jobs, static_cast<int>(suite.size()), [&](int i) {
        if (stopped()) {
            out[i].name = suite[i]->name;
            out[i].error = "interrupted by stop request";
            return;
        }
        out[i] = runWorkload(*suite[i], configs, opts);
        if (progress && opts.jobs <= 1)
            progress(out[i]);
    });
    if (progress && opts.jobs > 1)
        for (const WorkloadRuns &r : out)
            progress(r);
    return out;
}

WorkloadRuns
runWorkload(const Workload &w, const std::vector<Config> &configs,
            const RunOptions &opts)
{
    WorkloadRuns out;
    out.name = w.name;

    if (stopped()) {
        out.error = "interrupted by stop request";
        return out;
    }

    // Tasks whose key already has a durable record replay it; the rest
    // are pending. Deciding this first lets a workload with nothing
    // pending skip its profile run.
    std::vector<ConfigRun> results(configs.size());
    std::vector<std::string> keys(configs.size());
    std::vector<int> pending;
    for (size_t i = 0; i < configs.size(); ++i) {
        if (opts.manifest)
            keys[i] = manifestKey(w, configs[i], opts);
        const std::string *rec = opts.manifest && opts.resume
                                     ? opts.manifest->find(keys[i])
                                     : nullptr;
        if (rec)
            results[i] = resumedRun(configs[i], *rec);
        else
            pending.push_back(static_cast<int>(i));
    }

    const ProfiledSource src = prepareWorkload(w, opts, !pending.empty());
    if (!src.source_checksum) {
        // Recoverable: the harness reports the workload as failed
        // instead of killing the whole suite.
        out.error = src.error;
        epic_warn(w.name, ": ", out.error);
        return out;
    }
    out.source_checksum = *src.source_checksum;

    // Validating runs check every accepted result against the source
    // truth (silent-corruption detection drives retry).
    RunOptions wopts = opts;
    if (opts.supervision.validate)
        wopts.expected_checksum = out.source_checksum;

    // The pending configurations compile from the one shared profiled
    // source (read-only), so they are independent; fan them out, then
    // merge and report in `configs` order so the aggregate — and even
    // the warning stream — is identical to a serial run.
    parallelFor(
        opts.jobs, static_cast<int>(pending.size()), [&](int k) {
            const int i = pending[k];
            if (stopped()) {
                results[i].config = configs[i];
                results[i].sim_status = RunStatus::Deadline;
                results[i].error = "interrupted by stop request";
                return;
            }
            results[i] = runConfig(w, src, configs[i], wopts);
            // Durable completion record — appended (and fsync'd) the
            // moment the task finishes, so a later kill -9 cannot lose
            // it. Results produced after a stop request are not
            // recorded: they may be partial (Deadline) and will simply
            // re-run on resume.
            if (opts.manifest && !(stopped() && !results[i].ok))
                opts.manifest->record(
                    keys[i], runRecordJson(w.name, out.source_checksum,
                                           results[i]));
        });

    out.all_match = true;
    for (size_t i = 0; i < configs.size(); ++i) {
        const Config cfg = configs[i];
        ConfigRun &r = results[i];
        out.fallback.merge(r.fallback);
        out.pipeline.merge(r.pipeline);
        if (!r.ok) {
            epic_warn(w.name, " [", configName(cfg), "]: ", r.error);
            out.all_match = false;
        } else if (r.checksum != out.source_checksum) {
            epic_warn(w.name, " [", configName(cfg),
                      "]: checksum mismatch (", r.checksum, " vs ",
                      out.source_checksum, ")");
            out.all_match = false;
        }
        out.by_config.emplace(cfg, std::move(r));
    }
    return out;
}

} // namespace epic
