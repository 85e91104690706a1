/**
 * @file
 * EpicLab end-to-end benchmark (README.md in this directory).
 *
 * Three closed-loop workloads drive the library's public entry points
 * from outside — Workload::build, interpret/profileRun, compileProgram,
 * runSuite and suiteArtifact — and print every metric by name with its
 * unit. The last line of stdout is one JSON object
 *
 *   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end ones, measured with
 * tracing off. With --trace 1 they are the per-layer ones: untraced and
 * traced passes alternate, and the traced passes are read back from the
 * program's own in-memory TraceRecorder timeline. Every run checks its
 * outputs (checksums, fallbacks, artifact digests, exact simulated
 * counts) and exits non-zero when any of them is wrong.
 *
 * Usage:
 *   epiclab_perfbench --workload fleet-detailed|fleet-sampled-serial|
 *                     compile-sweep --seed N --seconds S --trace 0|1
 *                     --out-dir DIR
 */
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "driver/experiment.h"
#include "sim/interp.h"
#include "support/io.h"
#include "support/supervision/manifest.h"
#include "support/telemetry/artifact.h"
#include "support/telemetry/trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unspecified"
#endif

using namespace epic;

namespace {

using Clock = std::chrono::steady_clock;

/// Setup is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 3;
/// Phase-sum slack: in a traced pass the layer times must cover the
/// task busy time to within this many percent (README, "phase sum").
constexpr double kPhaseSumSlackPct = 10.0;
/// Sampled-mode operating point of the sampled-validation CI job.
constexpr uint64_t kFfFunctional = 400000;
constexpr uint64_t kDetailWindow = 200000;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process CPU time (all threads, user + system), nanosecond clock. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // Linux reports KiB
}

/** Element-wise minimum of `best` and `v` (steps repeat every pass). */
void
keepBest(std::vector<double> &best, const std::vector<double> &v)
{
    if (best.empty())
        best = v;
    for (size_t k = 0; k < best.size() && k < v.size(); ++k)
        best[k] = std::min(best[k], v[k]);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Nearest-rank percentile, p in (0, 1]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// ---------------------------------------------------------------- CLI

enum class Kind { FleetDetailed, FleetSampled, CompileSweep };

struct Args
{
    Kind kind = Kind::FleetDetailed;
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string out_dir;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: epiclab_perfbench --workload "
                 "fleet-detailed|fleet-sampled-serial|compile-sweep "
                 "--seed N --seconds S --trace 0|1 --out-dir DIR\n",
                 why.c_str());
    std::exit(2);
}

uint64_t
parseUnsigned(const std::string &flag, const char *s)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (!*s || *end || errno || s[0] == '-')
        usage("bad value for " + flag + ": " + s);
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have[4] = {};
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
            if (a.workload == "fleet-detailed")
                a.kind = Kind::FleetDetailed;
            else if (a.workload == "fleet-sampled-serial")
                a.kind = Kind::FleetSampled;
            else if (a.workload == "compile-sweep")
                a.kind = Kind::CompileSweep;
            else
                usage("unknown workload " + a.workload);
            have[0] = true;
        } else if (flag == "--seed") {
            a.seed = parseUnsigned(flag, v);
            have[1] = true;
        } else if (flag == "--seconds") {
            a.seconds = static_cast<double>(parseUnsigned(flag, v));
            if (a.seconds < 1)
                usage("--seconds must be at least 1");
            have[2] = true;
        } else if (flag == "--trace") {
            const uint64_t t = parseUnsigned(flag, v);
            if (t > 1)
                usage("--trace takes 0 or 1");
            a.trace = t == 1;
            have[3] = true;
        } else if (flag == "--out-dir") {
            a.out_dir = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have[0] || !have[1] || !have[2] || !have[3] || a.out_dir.empty())
        usage("--workload, --seed, --seconds, --trace and --out-dir are "
              "all required");
    return a;
}

// -------------------------------------------------------------- checks

/** Failure bookkeeping: every miss is printed and counted. */
struct Checks
{
    int attempted = 0;
    int failed = 0;

    void
    fail(const std::string &why)
    {
        ++failed;
        std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
    }
};

// --------------------------------------------------------------- setup

/** What setup learns about one stand-in program. */
struct SourceFacts
{
    const Workload *w = nullptr;
    int64_t checksum = 0;      ///< source-truth result on the ref input
    uint64_t ref_instrs = 0;   ///< dynamic instrs of that source run
    uint64_t train_instrs = 0; ///< dynamic instrs of the profile run
    int ir_instrs = 0;         ///< static instrs as built
    /// Built, laid out and profiled on the train input: what
    /// compile-sweep compiles.
    std::unique_ptr<Program> profiled;
};

struct Setup
{
    std::vector<SourceFacts> facts;
    double total_s = 0, build_s = 0, source_s = 0, profile_s = 0;
};

/**
 * Build every stand-in, run it on the ref input for its source-truth
 * checksum, and profile it on the train input. Each workload checks its
 * outputs against these checksums; compile-sweep compiles the profiled
 * programs.
 */
Setup
runSetup(Checks &chk)
{
    Setup s;
    const auto t0 = Clock::now();
    for (const Workload &w : allWorkloads()) {
        SourceFacts f;
        f.w = &w;
        auto t = Clock::now();
        f.profiled = w.build();
        s.build_s += since(t);
        f.profiled->layoutData();
        f.ir_instrs = f.profiled->staticInstrCount();

        Memory ref;
        ref.initFromProgram(*f.profiled);
        w.write_input(*f.profiled, ref, InputKind::Ref);
        t = Clock::now();
        const InterpResult src = interpret(*f.profiled, ref);
        s.source_s += since(t);

        Memory train;
        train.initFromProgram(*f.profiled);
        w.write_input(*f.profiled, train, InputKind::Train);
        t = Clock::now();
        const InterpResult prof = profileRun(*f.profiled, train);
        s.profile_s += since(t);

        if (!src.ok || !prof.ok)
            chk.fail(w.name + ": setup run failed: " + src.error +
                     prof.error);
        f.checksum = src.ret_value;
        f.ref_instrs = src.dyn_instrs;
        f.train_instrs = prof.dyn_instrs;
        s.facts.push_back(std::move(f));
    }
    s.total_s = since(t0);
    return s;
}

// ---------------------------------------------------------------- pass

/** Exact counts of one pass: every pass of a run must repeat them. */
struct Totals
{
    uint64_t cycles_total = 0; ///< simulated (sampled: window cycles)
    uint64_t useful_ops = 0;
    uint64_t est_total = 0;    ///< sampled-mode cycle estimates
    uint64_t instrs_final = 0; ///< code size over every compilation
    uint64_t digest = 0;       ///< FNV-1a of the suiteArtifact bytes

    bool operator==(const Totals &) const = default;
};

/** Everything one timed pass over a workload's tasks produced. */
struct Pass
{
    double wall_s = 0, cpu_s = 0;
    /// The pass split into the serial steps it is made of, in the same
    /// order every pass: wall_s/cpu_s of the run sum each step's best.
    std::vector<double> step_wall, step_cpu;
    double suite_s = 0;    ///< the runSuite call alone (fleets)
    double artifact_s = 0; ///< suiteArtifact + its atomic write
    uint64_t artifact_bytes = 0;
    std::vector<double> compile_ms; ///< one per compileProgram call
    Totals totals;
    int64_t analysis_hits = 0, analysis_misses = 0;
    uint64_t arena_bytes = 0, fallbacks = 0;
    uint64_t detail_ops = 0, total_ops = 0; ///< sampled mode
    /// Per (workload, standard config) task in canonical order:
    /// detailed cycles, or the sampled estimate.
    std::vector<uint64_t> task_cycles;
    /// compile-sweep: each call's output, in call order.
    std::vector<std::unique_ptr<Program>> compiled;
};

/** Times a pass step by step: each lap() closes one step. */
class StepTimer
{
  public:
    explicit StepTimer(Pass &p) : p_(p) {}

    void
    lap()
    {
        const auto t = Clock::now();
        const double c = cpuSeconds();
        p_.step_wall.push_back(std::chrono::duration<double>(t - t_).count());
        p_.step_cpu.push_back(c - c_);
        p_.wall_s += p_.step_wall.back();
        p_.cpu_s += p_.step_cpu.back();
        t_ = t;
        c_ = c;
    }

  private:
    Pass &p_;
    Clock::time_point t_ = Clock::now();
    double c_ = cpuSeconds();
};

void
addCompile(Pass &p, const PipelineStats &pipe, const CompileStats &stats,
           const FallbackReport &fb, int instrs_final)
{
    for (const PassStat &s : pipe.passes) {
        p.analysis_hits += s.analysis.totalHits();
        p.analysis_misses += s.analysis.totalMisses();
    }
    p.arena_bytes += stats.arena.bytes_allocated;
    p.fallbacks += fb.events.size();
    p.totals.instrs_final += static_cast<uint64_t>(instrs_final);
}

/** A workload bound to its inputs and task order. */
struct Bench
{
    Kind kind = Kind::FleetDetailed;
    int jobs = 1;
    const Setup *setup = nullptr;
    std::vector<Config> configs;                  ///< fleets, seed order
    std::vector<std::pair<int, Config>> calls;    ///< sweep, seed order
    std::string artifact_path;
};

RunOptions
fleetOptions(Kind kind, int jobs)
{
    RunOptions o;
    o.jobs = jobs;
    if (kind == Kind::FleetSampled) {
        o.sim_mode = SimMode::Sampled;
        o.ff_functional = kFfFunctional;
        o.detail_window = kDetailWindow;
    }
    return o;
}

/** Check a fleet's results task by task against the source truth. */
void
collectFleet(Pass &p, const std::vector<WorkloadRuns> &suite,
             const Setup &s, bool sampled, Checks &chk)
{
    if (suite.size() != s.facts.size())
        chk.fail("fleet returned " + std::to_string(suite.size()) +
                 " workloads, expected " +
                 std::to_string(s.facts.size()));
    for (size_t i = 0; i < s.facts.size(); ++i) {
        const SourceFacts &f = s.facts[i];
        for (Config cfg : standardConfigs()) {
            ++chk.attempted;
            const std::string task =
                f.w->name + " [" + configName(cfg) + "]";
            const ConfigRun *r = nullptr;
            if (i < suite.size()) {
                auto it = suite[i].by_config.find(cfg);
                if (it != suite[i].by_config.end())
                    r = &it->second;
            }
            if (!r) {
                p.task_cycles.push_back(0);
                chk.fail(task + ": no result");
                continue;
            }
            addCompile(p, r->pipeline, r->stats, r->fallback,
                       r->instrs_final);
            p.compile_ms.push_back(r->pipeline.totalMs());
            p.totals.cycles_total += r->pm.total();
            p.totals.useful_ops += r->pm.useful_ops;
            p.totals.est_total += r->sampled.est_total;
            p.detail_ops += r->sampled.detail_ops;
            p.total_ops += r->sampled.total_ops;
            p.task_cycles.push_back(sampled ? r->sampled.est_total
                                            : r->pm.total());
            if (!suite[i].error.empty() || suite[i].name != f.w->name ||
                suite[i].source_checksum != f.checksum)
                chk.fail(task + ": source run disagrees with setup");
            else if (!r->ok || std::strcmp(r->sim_rung, "detailed") != 0)
                chk.fail(task + ": " + r->error);
            else if (r->checksum != f.checksum)
                chk.fail(task + ": checksum " +
                         std::to_string(r->checksum) + " != source " +
                         std::to_string(f.checksum));
            else if (!r->fallback.clean())
                chk.fail(task + ": compile fell back:\n" +
                         r->fallback.str());
        }
    }
}

Pass
fleetPass(const Bench &b, Checks &chk)
{
    Pass p;
    StepTimer steps(p);
    // At jobs 1 runSuite reports each workload as it finishes, so every
    // workload is a step; in parallel the reports come after the join.
    const auto t0 = Clock::now();
    const std::vector<WorkloadRuns> suite =
        runSuite(b.configs, fleetOptions(b.kind, b.jobs),
                 [&](const WorkloadRuns &) { steps.lap(); });
    steps.lap();
    p.suite_s = since(t0);

    // The artifact lists configs in the standard order whatever order
    // they ran in, so its bytes (and digest) do not depend on the seed.
    const auto ta = Clock::now();
    std::vector<std::string> violations;
    const std::string doc =
        suiteArtifact(suite, standardConfigs(), &violations);
    std::string err;
    if (!atomicWriteFile(b.artifact_path, doc, &err))
        chk.fail("artifact write: " + err);
    p.artifact_s = since(ta);
    steps.lap();

    p.artifact_bytes = doc.size();
    p.totals.digest = fnv1a(doc);
    for (const std::string &v : violations)
        chk.fail("artifact invariant: " + v);
    collectFleet(p, suite, *b.setup, b.kind == Kind::FleetSampled, chk);
    return p;
}

Pass
sweepPass(const Bench &b, Checks &chk)
{
    Pass p;
    p.compiled.resize(b.calls.size());
    StepTimer steps(p);
    for (size_t k = 0; k < b.calls.size(); ++k) {
        const auto [i, cfg] = b.calls[k];
        CompileOptions o = CompileOptions::forConfig(cfg);
        o.jobs = 1;
        Compiled c = compileProgram(*b.setup->facts[i].profiled, o);
        steps.lap();
        p.compile_ms.push_back(p.step_wall.back() * 1e3);
        addCompile(p, c.pipeline, c.stats, c.fallback, c.instrs_final);
        p.compiled[k] = std::move(c.prog);
        ++chk.attempted;
        if (!c.fallback.clean())
            chk.fail(b.setup->facts[i].w->name + " [" +
                     configName(cfg) + "]: compile fell back:\n" +
                     c.fallback.str());
    }
    steps.lap();
    p.suite_s = p.wall_s;
    return p;
}

/** compile-sweep, after timing: run each compiled program once in
 *  scheduled order and compare with the source checksum. */
void
checkCompiled(const Bench &b, const Pass &p, Checks &chk)
{
    for (size_t k = 0; k < b.calls.size(); ++k) {
        const auto [i, cfg] = b.calls[k];
        const SourceFacts &f = b.setup->facts[i];
        Program &prog = *p.compiled[k];
        Memory mem;
        mem.initFromProgram(prog);
        f.w->write_input(prog, mem, InputKind::Ref);
        InterpOptions io;
        io.scheduled_order = true;
        const InterpResult r = interpret(prog, mem, io);
        ++chk.attempted;
        if (!r.ok || r.ret_value != f.checksum)
            chk.fail(f.w->name + " [" + configName(cfg) +
                     "]: scheduled-order run gave " +
                     std::to_string(r.ret_value) + " (" + r.error +
                     "), source " + std::to_string(f.checksum));
    }
}

// --------------------------------------------------------------- trace

/** Layer times of one traced pass, read from the TraceRecorder. */
struct Layers
{
    double busy_s = 0; ///< task busy time the layers must add up to
    double compile_s = 0, pass_s = 0, verify_s = 0;
    std::map<std::string, double> pass_ms;
    double profile_s = 0, source_s = 0, timing_s = 0;
    int profile_runs = 0, source_runs = 0;
    double utilization = 0, tail_s = 0;
};

/** Metric key of a compile.pass span: the second region-formation round
 *  folds onto the first, "post-region classical" onto "post-region". */
std::string
passKey(std::string name)
{
    if (name == "post-region classical")
        return "post-region";
    if (name.size() > 2 && name.compare(name.size() - 2, 2, "-2") == 0)
        name.resize(name.size() - 2);
    return name;
}

/**
 * Attribute a traced pass to its layers. Task busy time is the sum of
 * the pool's task spans when the pass fanned out, else the wall time of
 * the call that did the work (`work_s`: runSuite, or the sweep loop).
 */
Layers
readTrace(const std::vector<TraceRecorder::Event> &events, double work_s,
          int jobs)
{
    Layers l;
    std::map<int, double> last_end; // pool worker -> its last task end
    double pool_busy = 0, first_start = std::numeric_limits<double>::max();
    double join = 0;
    for (const TraceRecorder::Event &e : events) {
        if (e.ph != 'X')
            continue;
        const double d = e.dur_us * 1e-6;
        if (e.cat == "pool") {
            pool_busy += d;
            const double end = (e.ts_us + e.dur_us) * 1e-6;
            last_end[e.tid] = std::max(last_end[e.tid], end);
            first_start = std::min(first_start, e.ts_us * 1e-6);
            join = std::max(join, end);
        } else if (e.cat == "compile") {
            l.compile_s += d;
        } else if (e.cat == "compile.pass") {
            l.pass_s += d;
            l.pass_ms[passKey(e.name)] += d * 1e3;
        } else if (e.cat == "compile.verify") {
            l.verify_s += d;
        } else if (e.cat == "sim" && e.name == "profile-run") {
            l.profile_s += d;
            ++l.profile_runs;
        } else if (e.cat == "sim" && e.name == "functional-run") {
            l.source_s += d;
            ++l.source_runs;
        } else if (e.cat == "sim" && e.name == "timing-run") {
            l.timing_s += d;
        }
    }
    if (last_end.empty()) {
        l.busy_s = work_s;
        l.utilization = 1;
        return l;
    }
    l.busy_s = pool_busy;
    l.utilization = pool_busy / (work_s * jobs);
    // A worker that never ran a task was idle from the first start.
    double first_idle = first_start;
    if (static_cast<int>(last_end.size()) >= jobs) {
        first_idle = join;
        for (const auto &[tid, end] : last_end)
            first_idle = std::min(first_idle, end);
    }
    l.tail_s = join - first_idle;
    return l;
}

// ------------------------------------------------------------- metrics

struct MetricDef
{
    const char *name;
    const char *unit;
};

/// End-to-end metrics (--trace 0), as declared in BENCHMARK.json.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_s", "s"},
    {"cpu_s", "s"},            {"compile_ms.p50", "ms"},
    {"compile_ms.p90", "ms"},  {"peak_rss_mb", "MB"},
};

/// Per-layer metrics (--trace 1), as declared in BENCHMARK.json.
const MetricDef kPerLayer[] = {
    {"experiment.profile_runs", "count"},
    {"experiment.profile_reuse", "ratio"},
    {"experiment.unattributed_pct", "%"},
    {"workloads.build_ms", "ms"},
    {"workloads.ir_instrs", "count"},
    {"interp.profile_s", "s"},
    {"interp.source_s", "s"},
    {"interp.mips", "Minstr/s"},
    {"compile.self_s", "s"},
    {"compile.pass.schedule_ms", "ms"},
    {"compile.pass.classical_ms", "ms"},
    {"compile.pass.post-region_ms", "ms"},
    {"compile.pass.regalloc_ms", "ms"},
    {"compile.pass.superblock_ms", "ms"},
    {"compile.pass.inline_ms", "ms"},
    {"compile.pass.speculate_ms", "ms"},
    {"compile.pass.hyperblock_ms", "ms"},
    {"compile.pass.peel_ms", "ms"},
    {"compile.pass.dataspec_ms", "ms"},
    {"compile.verify_ms", "ms"},
    {"compile.analysis.hit_ratio", "ratio"},
    {"compile.arena_bytes", "B"},
    {"compile.instrs_final", "count"},
    {"compile.fallbacks", "count"},
    {"timing.detailed_s", "s"},
    {"timing.detailed_mops", "Mops/s"},
    {"timing.cycles_total", "count"},
    {"timing.useful_ops", "count"},
    {"timing.sampled_s", "s"},
    {"timing.sampled_mops", "Mops/s"},
    {"timing.sampled.coverage", "ratio"},
    {"timing.sampled.est_error_pct", "%"},
    {"timing.sampled.est_total", "count"},
    {"pool.utilization", "ratio"},
    {"pool.tail_s", "s"},
    {"artifact.write_s", "s"},
    {"artifact.bytes", "B"},
    {"trace.overhead_pct", "%"},
};

using Metrics = std::map<std::string, double>;

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Time-derived per-layer metrics of one traced pass. */
Metrics
layerTimes(Kind kind, const Pass &p, const Layers &l)
{
    Metrics m;
    const bool sampled = kind == Kind::FleetSampled;
    const double attributed =
        l.compile_s + l.profile_s + l.source_s + l.timing_s;
    m["experiment.unattributed_pct"] =
        ratio(l.busy_s - attributed, l.busy_s) * 100;
    if (kind != Kind::CompileSweep) {
        m["interp.profile_s"] = l.profile_s;
        m["interp.source_s"] = l.source_s;
    }
    m["compile.self_s"] = l.compile_s - l.pass_s - l.verify_s;
    for (const char *pass :
         {"schedule", "classical", "post-region", "regalloc", "superblock",
          "inline", "speculate", "hyperblock", "peel", "dataspec"}) {
        auto it = l.pass_ms.find(pass);
        m[std::string("compile.pass.") + pass + "_ms"] =
            it == l.pass_ms.end() ? 0 : it->second;
    }
    m["compile.verify_ms"] = l.verify_s * 1e3;
    m[sampled ? "timing.sampled_s" : "timing.detailed_s"] = l.timing_s;
    m[sampled ? "timing.sampled_mops" : "timing.detailed_mops"] =
        ratio(sampled ? p.total_ops : p.totals.useful_ops, l.timing_s) /
        1e6;
    m["pool.utilization"] = l.utilization;
    m["pool.tail_s"] = l.tail_s;
    m["artifact.write_s"] = p.artifact_s;
    return m;
}

/** Render a metric value with every digit it has. */
std::string
num(double v)
{
    char buf[64];
    if (v == std::floor(v) && std::fabs(v) < 1e15)
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Counts file of the previous run of this binary on this workload. */
std::map<std::string, std::string>
readCounts(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string k, v;
    while (in >> k >> v)
        out[k] = v;
    return out;
}

/** FNV-1a of this executable, so a rebuilt binary starts afresh. */
std::string
fileHash(const char *path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return hashHex(fnv1a(os.str()));
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);

    // Build-type guard: timings from an unoptimized tree are
    // meaningless, so refuse to emit any.
    bool optimized = std::strcmp(PERFBENCH_BUILD_TYPE, "release") == 0;
#ifndef __OPTIMIZE__
    optimized = false;
#endif
    if (!optimized) {
        std::fprintf(stderr,
                     "perfbench: refusing to time a '%s' build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }

    const int max_jobs = static_cast<int>(std::clamp<unsigned>(
        std::thread::hardware_concurrency(), 1, 4));
    Checks chk;

    // ---- Setup, repeated: setup_s is the median ----
    std::vector<double> setup_s, build_s, source_s, profile_s;
    Setup setup;
    for (int k = 0; k < kSetupRepeats; ++k) {
        setup = runSetup(chk);
        setup_s.push_back(setup.total_s);
        build_s.push_back(setup.build_s);
        source_s.push_back(setup.source_s);
        profile_s.push_back(setup.profile_s);
    }
    double train_instrs = 0, ref_instrs = 0, ir_instrs = 0;
    for (const SourceFacts &f : setup.facts) {
        train_instrs += f.train_instrs;
        ref_instrs += f.ref_instrs;
        ir_instrs += f.ir_instrs;
    }
    const double nprogs = static_cast<double>(setup.facts.size());

    // ---- The seed permutes task order, nothing else ----
    std::mt19937_64 rng(a.seed);
    Bench b;
    b.kind = a.kind;
    b.jobs = a.kind == Kind::FleetDetailed ? max_jobs : 1;
    b.setup = &setup;
    b.configs = standardConfigs();
    std::shuffle(b.configs.begin(), b.configs.end(), rng);
    for (int i = 0; i < static_cast<int>(setup.facts.size()); ++i)
        for (Config c : {Config::Gcc, Config::ONS, Config::IlpNs,
                         Config::IlpCs, Config::IlpCsDs})
            b.calls.emplace_back(i, c);
    std::shuffle(b.calls.begin(), b.calls.end(), rng);
    b.artifact_path = a.out_dir + "/" + a.workload + ".jsonl";
    auto runPass = [&] {
        return a.kind == Kind::CompileSweep ? sweepPass(b, chk)
                                            : fleetPass(b, chk);
    };

    // ---- Detailed reference for the sampled estimate's error ----
    std::vector<uint64_t> ref_cycles;
    if (a.trace && a.kind == Kind::FleetSampled) {
        Bench ref = b;
        ref.kind = Kind::FleetDetailed;
        ref.jobs = max_jobs;
        ref.artifact_path = a.out_dir + "/" + a.workload + ".ref.jsonl";
        ref_cycles = fleetPass(ref, chk).task_cycles;
    }

    // ---- Timed passes (traced ones interleaved under --trace 1) ----
    std::vector<double> wall, traced_wall;
    // Per step and per compileProgram call: its best over the passes.
    std::vector<double> step_wall, step_cpu, compile_ms;
    std::vector<Metrics> layer_runs;
    std::vector<int> profile_runs;
    Totals first_totals;
    Pass last;
    double peak_rss_mb = 0; ///< through setup and the first pass
    int passes = 0;
    double next_s = 0; // expected length of the next pass
    const auto t_start = Clock::now();
    while (passes < (a.trace ? 2 : 1) ||
           since(t_start) + next_s <= a.seconds) {
        const bool traced = a.trace && passes % 2 == 1;
        if (traced)
            TraceRecorder::global().enable();
        Pass p = runPass();
        if (traced) {
            TraceRecorder::global().disable();
            const Layers l = readTrace(TraceRecorder::global().events(),
                                       p.suite_s, b.jobs);
            layer_runs.push_back(layerTimes(a.kind, p, l));
            profile_runs.push_back(l.profile_runs);
            if (a.kind != Kind::CompileSweep) {
                // Interpreter throughput: the fleet's profile and source
                // runs repeat setup's runs, whose dynamic instruction
                // counts are known.
                layer_runs.back()["interp.mips"] =
                    ratio(l.profile_runs / nprogs * train_instrs +
                              l.source_runs / nprogs * ref_instrs,
                          l.profile_s + l.source_s) /
                    1e6;
            }
            traced_wall.push_back(p.wall_s);
        } else {
            wall.push_back(p.wall_s);
            keepBest(step_wall, p.step_wall);
            keepBest(step_cpu, p.step_cpu);
            keepBest(compile_ms, p.compile_ms);
        }
        if (passes == 0) {
            // Later passes only add allocator fragmentation on top of
            // what one fleet run needs, so the peak is read here.
            peak_rss_mb = peakRssMb();
            first_totals = p.totals;
        } else if (!(p.totals == first_totals)) {
            chk.fail("exact counts differ between passes " +
                     std::to_string(passes) + " and 0");
        }
        std::printf("pass %d%s wall %.4f s cpu %.4f s\n", passes,
                    traced ? " (traced)" : "", p.wall_s, p.cpu_s);
        next_s = p.wall_s;
        last = std::move(p);
        ++passes;
    }
    if (a.kind == Kind::CompileSweep)
        checkCompiled(b, last, chk);

    // ---- Exact counts: identical across passes and across runs ----
    std::map<std::string, std::string> counts = {
        {"compile.instrs_final", std::to_string(last.totals.instrs_final)},
    };
    if (a.kind != Kind::CompileSweep) {
        counts["timing.cycles_total"] =
            std::to_string(last.totals.cycles_total);
        counts["timing.useful_ops"] =
            std::to_string(last.totals.useful_ops);
        counts["artifact.digest"] = hashHex(last.totals.digest);
    }
    if (a.kind == Kind::FleetSampled)
        counts["timing.sampled.est_total"] =
            std::to_string(last.totals.est_total);
    const int profiled =
        a.kind == Kind::CompileSweep
            ? static_cast<int>(setup.facts.size())
            : (profile_runs.empty() ? -1 : profile_runs.front());
    for (int n : profile_runs)
        if (a.kind != Kind::CompileSweep && n != profiled)
            chk.fail("profile-run count differs between traced passes");
    if (profiled >= 0)
        counts["experiment.profile_runs"] = std::to_string(profiled);
    const std::string counts_path =
        a.out_dir + "/counts-" + a.workload + ".txt";
    std::map<std::string, std::string> prev = readCounts(counts_path);
    const std::string exe = fileHash(argv[0]);
    if (prev["exe"] == exe) {
        for (const auto &[k, v] : counts)
            if (prev.count(k) && prev[k] != v)
                chk.fail("exact count " + k + " = " + v +
                         " differs from the previous run's " + prev[k]);
        for (const auto &[k, v] : prev)
            if (!counts.count(k))
                counts[k] = v;
    }
    counts["exe"] = exe;
    std::string counts_doc;
    for (const auto &[k, v] : counts)
        counts_doc += k + " " + v + "\n";
    atomicWriteFile(counts_path, counts_doc);

    // ---- Report ----
    std::printf("perfbench workload=%s seed=%llu build_type=%s jobs=%d "
                "passes=%d (%zu untraced, %zu traced) setups=%d\n",
                a.workload.c_str(),
                static_cast<unsigned long long>(a.seed),
                PERFBENCH_BUILD_TYPE, b.jobs, passes, wall.size(),
                traced_wall.size(), kSetupRepeats);
    for (const auto &[k, v] : counts)
        if (k != "exe")
            std::printf("count %-30s %s\n", k.c_str(), v.c_str());

    Metrics m;
    if (!a.trace) {
        m["setup_s"] = median(setup_s);
        m["wall_s"] = std::accumulate(step_wall.begin(), step_wall.end(), 0.0);
        m["cpu_s"] = std::accumulate(step_cpu.begin(), step_cpu.end(), 0.0);
        m["compile_ms.p50"] = percentile(compile_ms, 0.50);
        m["compile_ms.p90"] = percentile(compile_ms, 0.90);
        m["peak_rss_mb"] = peak_rss_mb;
    } else {
        for (const MetricDef &d : kPerLayer) {
            std::vector<double> v;
            for (const Metrics &r : layer_runs)
                if (r.count(d.name))
                    v.push_back(r.at(d.name));
            m[d.name] = median(v);
        }
        m["experiment.profile_runs"] = std::max(profiled, 0);
        m["experiment.profile_reuse"] = ratio(nprogs, profiled);
        m["workloads.build_ms"] = median(build_s) * 1e3;
        m["workloads.ir_instrs"] = ir_instrs;
        if (a.kind == Kind::CompileSweep) {
            // compile-sweep interprets only in setup.
            m["interp.profile_s"] = median(profile_s);
            m["interp.source_s"] = median(source_s);
            m["interp.mips"] =
                ratio(train_instrs + ref_instrs,
                      median(profile_s) + median(source_s)) /
                1e6;
        }
        m["compile.analysis.hit_ratio"] =
            ratio(static_cast<double>(last.analysis_hits),
                  static_cast<double>(last.analysis_hits +
                                      last.analysis_misses));
        m["compile.arena_bytes"] = static_cast<double>(last.arena_bytes);
        m["compile.instrs_final"] =
            static_cast<double>(last.totals.instrs_final);
        m["compile.fallbacks"] = static_cast<double>(last.fallbacks);
        m["timing.cycles_total"] =
            static_cast<double>(last.totals.cycles_total);
        m["timing.useful_ops"] = static_cast<double>(last.totals.useful_ops);
        m["timing.sampled.est_total"] =
            static_cast<double>(last.totals.est_total);
        m["timing.sampled.coverage"] =
            ratio(static_cast<double>(last.detail_ops),
                  static_cast<double>(last.total_ops));
        double worst = 0;
        for (size_t t = 0; t < ref_cycles.size() &&
                           t < last.task_cycles.size();
             ++t) {
            const double r = static_cast<double>(ref_cycles[t]);
            const double e = static_cast<double>(last.task_cycles[t]);
            worst = std::max(worst, std::fabs(e - r) / r * 100);
        }
        m["timing.sampled.est_error_pct"] = worst;
        m["artifact.bytes"] = static_cast<double>(last.artifact_bytes);
        m["trace.overhead_pct"] =
            (ratio(*std::min_element(traced_wall.begin(),
                                     traced_wall.end()),
                   *std::min_element(wall.begin(), wall.end())) -
             1) *
            100;

        const double residual = m["experiment.unattributed_pct"];
        std::printf("phase sum: layers cover %.2f%% of task busy time "
                    "(residual %.2f%%, slack %.0f%%)\n",
                    100 - residual, residual, kPhaseSumSlackPct);
        if (std::fabs(residual) > kPhaseSumSlackPct)
            chk.fail("phase sum: unattributed " + num(residual) +
                     "% exceeds the " + num(kPhaseSumSlackPct) +
                     "% slack");
    }

    const std::string failed_ratio =
        num(ratio(chk.failed, std::max(1, chk.attempted)));
    std::printf("%-34s %s (%d of %d tasks and checks)\n", "failed_ratio",
                failed_ratio.c_str(), chk.failed, chk.attempted);
    std::string json = "{\"correct\": " +
                       std::string(chk.failed ? "false" : "true") +
                       ", \"attempted\": " +
                       std::to_string(std::max(1, chk.attempted)) +
                       ", \"failed\": " + std::to_string(chk.failed) +
                       ", \"metrics\": {";
    const std::span<const MetricDef> defs =
        a.trace ? std::span<const MetricDef>(kPerLayer)
                : std::span<const MetricDef>(kEndToEnd);
    for (const MetricDef &d : defs) {
        const std::string v = num(m[d.name]);
        std::printf("%-34s %s %s\n", d.name, v.c_str(), d.unit);
        json += std::string(&d == defs.data() ? "" : ", ") + "\"" + d.name +
                "\": {\"value\": " + v + ", \"unit\": \"" + d.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return chk.failed ? 1 : 0;
}
