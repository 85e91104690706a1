#include "driver/pipeline.h"

#include <algorithm>
#include <sstream>

#include "driver/compiler.h"
#include "ir/function.h"

namespace epic {

CompileStats &
CompileStats::operator+=(const CompileStats &o)
{
    inl += o.inl;
    classical += o.classical;
    sb += o.sb;
    hb += o.hb;
    peel += o.peel;
    spec += o.spec;
    ra += o.ra;
    sched += o.sched;
    instrs_after_classical += o.instrs_after_classical;
    instrs_after_regions += o.instrs_after_regions;
    arena += o.arena;
    return *this;
}

namespace {

/** Canonical ordering: registry order first, then rung descending
 *  (IlpCs before Gcc, matching the degradation ladder's attempt order). */
bool
statLess(const PassStat &a, const PassStat &b)
{
    const int ia = passOrderIndex(a.pass), ib = passOrderIndex(b.pass);
    if (ia != ib)
        return ia < ib;
    return static_cast<int>(a.rung) > static_cast<int>(b.rung);
}

} // namespace

PassStat &
PipelineStats::at(const std::string &pass, Config rung)
{
    for (PassStat &s : passes)
        if (s.pass == pass && s.rung == rung)
            return s;
    PassStat fresh;
    fresh.pass = pass;
    fresh.rung = rung;
    auto pos = std::lower_bound(passes.begin(), passes.end(), fresh,
                                statLess);
    return *passes.insert(pos, std::move(fresh));
}

void
PipelineStats::merge(const PipelineStats &o)
{
    for (const PassStat &s : o.passes) {
        PassStat &mine = at(s.pass, s.rung);
        mine.runs += s.runs;
        mine.instr_delta += s.instr_delta;
        mine.run_ms += s.run_ms;
        mine.verify_ms += s.verify_ms;
        mine.analysis += s.analysis;
    }
}

double
PipelineStats::totalMs() const
{
    double t = 0;
    for (const PassStat &s : passes)
        t += s.run_ms + s.verify_ms;
    return t;
}

std::string
PipelineStats::str() const
{
    std::ostringstream os;
    os << "per-pass pipeline statistics:\n";
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "  %-24s %-8s %6s %10s %10s %10s %8s %8s %8s\n", "pass",
                  "rung", "runs", "delta", "run ms", "verify ms", "a.hit",
                  "a.miss", "a.inval");
    os << buf;
    for (const PassStat &s : passes) {
        std::snprintf(buf, sizeof buf,
                      "  %-24s %-8s %6d %10lld %10.2f %10.2f %8lld "
                      "%8lld %8lld\n",
                      s.pass.c_str(), configName(s.rung), s.runs,
                      static_cast<long long>(s.instr_delta), s.run_ms,
                      s.verify_ms,
                      static_cast<long long>(s.analysis.totalHits()),
                      static_cast<long long>(s.analysis.totalMisses()),
                      static_cast<long long>(
                          s.analysis.totalInvalidations()));
        os << buf;
    }
    std::snprintf(buf, sizeof buf, "  %-24s %-8s %6s %10s %10.2f\n",
                  "total", "", "", "", totalMs());
    os << buf;
    return os.str();
}

namespace {

bool
isIlp(Config rung)
{
    return rung == Config::IlpNs || rung == Config::IlpCs ||
           rung == Config::IlpCsDs;
}

/** Build the one true pass list (paper Figure 4 order). */
std::vector<PassDesc>
makeRegistry()
{
    std::vector<PassDesc> reg;
    auto always = [](Config, const CompileOptions &) { return true; };
    auto ilp_only = [](Config rung, const CompileOptions &) {
        return isIlp(rung);
    };

    // The classical rounds and both region formers route every mid-pass
    // mutation through the manager, so the caches they leave behind
    // match the final IR by construction — they preserve whatever is
    // still cached, and the next pass's entry queries hit.
    reg.push_back({"classical", always,
                   [](Function &f, Config, const CompileOptions &,
                      AnalysisManager &am, CompileStats &s) {
                       s.classical += classicalOptimizeFunction(f, am);
                       s.instrs_after_classical = f.staticInstrCount();
                       s.instrs_after_regions = s.instrs_after_classical;
                   },
                   true, true, kPreserveAll});

    // Hyperblocks first, then superblock merging, then peeling, then a
    // second round to merge the peeled iterations with their
    // surroundings (the Figure 3(c) peel-and-merge effect).
    reg.push_back({"hyperblock", ilp_only,
                   [](Function &f, Config, const CompileOptions &opts,
                      AnalysisManager &am, CompileStats &s) {
                       s.hb += formHyperblocks(f, am, opts.hb_opts);
                   },
                   true, true, kPreserveAll});
    reg.push_back({"superblock", ilp_only,
                   [](Function &f, Config, const CompileOptions &opts,
                      AnalysisManager &am, CompileStats &s) {
                       s.sb += formSuperblocks(f, am, opts.sb_opts);
                   },
                   true, true, kPreserveAll});
    reg.push_back({"peel",
                   [](Config rung, const CompileOptions &opts) {
                       return isIlp(rung) && opts.enable_peel;
                   },
                   [](Function &f, Config, const CompileOptions &opts,
                      AnalysisManager &, CompileStats &s) {
                       PeelOptions peel = opts.peel_opts;
                       peel.enable_unroll = opts.enable_unroll;
                       s.peel += peelLoops(f, peel);
                   },
                   // Peel mutates behind the manager's back (it takes
                   // no manager), so nothing survives it.
                   true, true, kPreserveNone});
    reg.push_back({"hyperblock-2", ilp_only,
                   [](Function &f, Config, const CompileOptions &opts,
                      AnalysisManager &am, CompileStats &s) {
                       s.hb += formHyperblocks(f, am, opts.hb_opts);
                   },
                   true, true, kPreserveAll});
    reg.push_back({"superblock-2", ilp_only,
                   [](Function &f, Config, const CompileOptions &opts,
                      AnalysisManager &am, CompileStats &s) {
                       s.sb += formSuperblocks(f, am, opts.sb_opts);
                   },
                   true, true, kPreserveAll});
    // Region formation exposes new classical opportunities.
    reg.push_back({"post-region classical", ilp_only,
                   [](Function &f, Config, const CompileOptions &,
                      AnalysisManager &am, CompileStats &s) {
                       s.classical += classicalOptimizeFunction(f, am, 2);
                       s.instrs_after_regions = f.staticInstrCount();
                   },
                   true, true, kPreserveAll});

    // Speculation hoists loads and inserts check code but never adds
    // or removes an edge, so dominance and loop structure survive; the
    // Cfg object dies (insertions shift its per-edge branch indices).
    // Control speculation runs first, so it never sees ld.a/chk.a.
    reg.push_back({"speculate",
                   [](Config rung, const CompileOptions &) {
                       return rung == Config::IlpCs ||
                              rung == Config::IlpCsDs;
                   },
                   [](Function &f, Config, const CompileOptions &opts,
                      AnalysisManager &am, CompileStats &s) {
                       s.spec += speculateFunction(f, am, opts.spec_opts);
                   },
                   true, true, kPreserveGraphShape});
    reg.push_back({"dataspec",
                   [](Config rung, const CompileOptions &) {
                       return rung == Config::IlpCsDs;
                   },
                   [](Function &f, Config, const CompileOptions &opts,
                      AnalysisManager &am, CompileStats &s) {
                       s.spec +=
                           dataSpeculateFunction(f, am, opts.spec_opts);
                   },
                   true, true, kPreserveGraphShape});

    // Register allocation renames operands and inserts spill code:
    // instruction-level analyses die, and so does the Cfg (spill
    // insertion shifts branch indices) — but the edge shape, hence
    // dominance and loop nesting, is untouched.
    reg.push_back({"regalloc", always,
                   [](Function &f, Config, const CompileOptions &,
                      AnalysisManager &am, CompileStats &s) {
                       s.ra += allocateRegisters(f, am);
                   },
                   true, true, kPreserveGraphShape});
    // Scheduling only stamps sched_cycle and rebuilds bundles — it
    // never reorders b.instrs — so every analysis survives.
    reg.push_back({"schedule", always,
                   [](Function &f, Config rung, const CompileOptions &opts,
                      AnalysisManager &am, CompileStats &s) {
                       // Degraded (and library) functions are scheduled
                       // like gcc-compiled code: one-bundle issue groups.
                       const MachineConfig mach =
                           rung == Config::Gcc ? MachineConfig::gccStyle()
                                               : opts.mach;
                       s.sched += scheduleFunction(f, am, mach);
                   },
                   true, true, kPreserveAll});
    return reg;
}

} // namespace

const std::vector<PassDesc> &
passRegistry()
{
    static const std::vector<PassDesc> kRegistry = makeRegistry();
    return kRegistry;
}

std::vector<const PassDesc *>
buildPipeline(Config rung, const CompileOptions &opts)
{
    std::vector<const PassDesc *> out;
    for (const PassDesc &p : passRegistry())
        if (p.enabled(rung, opts))
            out.push_back(&p);
    return out;
}

int
passOrderIndex(const std::string &pass)
{
    if (pass == "inline")
        return 0;
    const std::vector<PassDesc> &reg = passRegistry();
    for (size_t i = 0; i < reg.size(); ++i)
        if (reg[i].name == pass)
            return static_cast<int>(i) + 1;
    return static_cast<int>(reg.size()) + 1;
}

} // namespace epic
