/**
 * @file
 * Telemetry-layer tests: the hierarchical stats registry enforces its
 * declared sum invariants at dump time; JSONL run artifacts are
 * byte-identical for any --jobs value; the Chrome trace timeline is
 * well-formed with monotonic, properly-nested spans; warn rate
 * limiting suppresses identical-message floods; and strict CLI numeric
 * parsing dies on malformed values instead of atoi-ing them to zero.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <vector>

#include "driver/experiment.h"
#include "support/cli.h"
#include "support/logging.h"
#include "support/telemetry/artifact.h"
#include "support/telemetry/registry.h"
#include "support/telemetry/trace.h"
#include "workloads/workload.h"

namespace epic {
namespace {

TEST(TelemetryTest, RegistryScalarsAndDump)
{
    StatsRegistry reg;
    reg.setInt("a.x", 3);
    reg.addInt("a.x", 4);
    reg.setInt("a.y", 10);
    EXPECT_EQ(reg.getInt("a.x"), 7);
    EXPECT_EQ(reg.getInt("a.y"), 10);
    EXPECT_EQ(reg.getInt("missing"), 0);
    EXPECT_EQ(reg.jsonObject().find("missing"), std::string::npos);
    EXPECT_EQ(reg.jsonObject(), "{\"a.x\":7,\"a.y\":10}");
}

TEST(TelemetryTest, RegistryDistribution)
{
    StatsRegistry reg;
    reg.addSample("d", 5);
    reg.addSample("d", -2);
    reg.addSample("d", 9);
    EXPECT_EQ(reg.getInt("d.count"), 3);
    EXPECT_EQ(reg.getInt("d.sum"), 12);
    EXPECT_EQ(reg.getInt("d.min"), -2);
    EXPECT_EQ(reg.getInt("d.max"), 9);
}

TEST(TelemetryTest, SumInvariantFiresOnMismatch)
{
    StatsRegistry reg;
    reg.setInt("sim.cycles.a", 60);
    reg.setInt("sim.cycles.b", 40);
    reg.setInt("sim.cycles_total", 100);
    reg.declareSum("cycle-categories-sum", "sim.cycles.",
                   "sim.cycles_total");
    EXPECT_TRUE(reg.checkInvariants().empty());

    // A counter drifting out of its category breaks the dump loudly.
    reg.addInt("sim.cycles.a", 1);
    std::vector<std::string> bad = reg.checkInvariants();
    ASSERT_EQ(bad.size(), 1u);
    EXPECT_NE(bad[0].find("cycle-categories-sum"), std::string::npos);
    EXPECT_NE(bad[0].find("101"), std::string::npos);

    reg.setInt("sim.cycles_total", 101);
    EXPECT_TRUE(reg.checkInvariants().empty());
}

TEST(TelemetryTest, SuffixFilteredInvariant)
{
    StatsRegistry reg;
    reg.setInt("compile.pass.classical.GCC.instr_delta", -5);
    reg.setInt("compile.pass.classical.GCC.runs", 3); // must not count
    reg.setInt("compile.pass.schedule.GCC.instr_delta", 8);
    reg.setInt("compile.instr_delta_total", 3);
    reg.declareSum("pass-deltas-sum", "compile.pass.",
                   "compile.instr_delta_total", ".instr_delta");
    EXPECT_TRUE(reg.checkInvariants().empty());
    reg.setInt("compile.instr_delta_total", 4);
    EXPECT_EQ(reg.checkInvariants().size(), 1u);
}

TEST(TelemetryTest, RunRegistryInvariantsHoldOnRealRun)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    RunOptions opts;
    opts.run_input = InputKind::Train;
    ConfigRun r = runConfig(*w, Config::IlpCs, opts);
    ASSERT_TRUE(r.ok) << r.error;

    StatsRegistry reg = buildRunRegistry(r);
    EXPECT_TRUE(reg.checkInvariants().empty());
    EXPECT_EQ(reg.getInt("sim.cycles_total"),
              static_cast<int64_t>(r.pm.total()));
    EXPECT_EQ(reg.getInt("compile.instrs_final"), r.instrs_final);

    // Tampering with one category (as a drifting counter would) is
    // caught by the declared cycle-accounting invariant.
    reg.addInt("sim.cycles.kernel", 7);
    EXPECT_FALSE(reg.checkInvariants().empty());
}

RunOptions
trainOpts(int jobs)
{
    RunOptions opts;
    opts.run_input = InputKind::Train;
    opts.jobs = jobs;
    return opts;
}

TEST(TelemetryTest, JsonlArtifactByteIdenticalAcrossJobs)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    std::vector<WorkloadRuns> serial = {
        runWorkload(*w, standardConfigs(), trainOpts(1))};
    std::vector<WorkloadRuns> parallel = {
        runWorkload(*w, standardConfigs(), trainOpts(4))};

    std::vector<std::string> v1, v4;
    const std::string a1 = suiteArtifact(serial, standardConfigs(), &v1);
    const std::string a4 =
        suiteArtifact(parallel, standardConfigs(), &v4);
    EXPECT_EQ(a1, a4); // wall times are volatile; counters are merged
                       // post-join in index order
    EXPECT_TRUE(v1.empty()) << v1.front();
    EXPECT_TRUE(v4.empty());

    // One record per (workload x config), schema tag on every line.
    size_t lines = 0, tags = 0;
    for (size_t pos = 0; (pos = a1.find('\n', pos)) != std::string::npos;
         ++pos)
        ++lines;
    for (size_t pos = 0;
         (pos = a1.find(kRunSchemaVersion, pos)) != std::string::npos;
         ++pos)
        ++tags;
    EXPECT_EQ(lines, standardConfigs().size());
    EXPECT_EQ(tags, standardConfigs().size());
}

/**
 * Minimal structural JSON check: balanced braces/brackets outside
 * string literals, no trailing garbage. Not a full parser — CI runs a
 * real one — but catches broken escaping and truncation.
 */
bool
structurallyValidJson(const std::string &doc)
{
    int depth = 0;
    bool in_str = false, esc = false, seen_any = false;
    for (char c : doc) {
        if (in_str) {
            if (esc)
                esc = false;
            else if (c == '\\')
                esc = true;
            else if (c == '"')
                in_str = false;
            continue;
        }
        switch (c) {
          case '"': in_str = true; break;
          case '{': case '[': ++depth; seen_any = true; break;
          case '}': case ']':
            if (--depth < 0)
                return false;
            break;
          default: break;
        }
        if (seen_any && depth == 0 && (c == '}' || c == ']')) {
            // Only whitespace may follow the closing root.
            continue;
        }
    }
    return seen_any && depth == 0 && !in_str;
}

TEST(TelemetryTest, TraceIsWellFormedMonotonicAndNested)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);

    TraceRecorder &rec = TraceRecorder::global();
    rec.enable();
    RunOptions opts;
    opts.run_input = InputKind::Train;
    opts.jobs = 2; // exercise pool task spans too
    ConfigRun r = runWorkload(*w, standardConfigs(), opts)
                      .by_config.at(Config::IlpCs);
    rec.disable();
    ASSERT_TRUE(r.ok) << r.error;

    const std::vector<TraceRecorder::Event> evs = rec.events();
    ASSERT_FALSE(evs.empty());

    // Every instrumented layer shows up.
    std::map<std::string, int> by_cat;
    for (const TraceRecorder::Event &e : evs)
        by_cat[e.cat]++;
    EXPECT_GT(by_cat["compile.pass"], 0);
    EXPECT_GT(by_cat["compile.verify"], 0);
    EXPECT_GT(by_cat["experiment.phase"], 0);
    EXPECT_GT(by_cat["sim"], 0);
    EXPECT_GT(by_cat["pool"], 0);

    // Spans are monotonic and properly nested per thread: events()
    // sorts by (tid, ts); a child must end no later than its parent.
    double prev_ts = -1;
    int prev_tid = -1;
    std::vector<double> open_ends; ///< enclosing spans' end times
    const double eps = 1e-3;       ///< clock read-order slack, us
    for (const TraceRecorder::Event &e : evs) {
        EXPECT_GE(e.ts_us, 0.0);
        EXPECT_GE(e.dur_us, 0.0);
        if (e.tid != prev_tid) {
            open_ends.clear();
            prev_tid = e.tid;
            prev_ts = -1;
        }
        EXPECT_GE(e.ts_us, prev_ts) << "timestamps must be monotonic";
        prev_ts = e.ts_us;
        while (!open_ends.empty() && open_ends.back() <= e.ts_us + eps)
            open_ends.pop_back();
        if (!open_ends.empty()) {
            EXPECT_LE(e.ts_us + e.dur_us, open_ends.back() + eps)
                << "span straddles its enclosing span";
        }
        open_ends.push_back(e.ts_us + e.dur_us);
    }

    // The serialized document is structurally sound JSON.
    const std::string doc = rec.json();
    EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_TRUE(structurallyValidJson(doc));
}

TEST(TelemetryTest, WarnRateLimitSuppressesRepeats)
{
    setWarnRepeatLimit(2);
    testing::internal::CaptureStderr();
    for (int i = 0; i < 6; ++i)
        epic_warn("telemetry-test repeated message");
    epic_warn("telemetry-test other message");
    flushSuppressedWarnings();
    const std::string err = testing::internal::GetCapturedStderr();
    setWarnRepeatLimit(5); // restore default for other tests

    size_t occurrences = 0;
    for (size_t pos = 0;
         (pos = err.find("telemetry-test repeated message", pos)) !=
         std::string::npos;
         ++pos)
        ++occurrences;
    // limit prints (the last tagged "further repeats suppressed") plus
    // exactly one summary line.
    EXPECT_EQ(occurrences, 3u) << err;
    EXPECT_NE(err.find("further repeats suppressed"), std::string::npos);
    EXPECT_NE(err.find("repeated 4 more time(s)"), std::string::npos);
    EXPECT_NE(err.find("telemetry-test other message"),
              std::string::npos);
}

TEST(TelemetryTest, CliParsesStrictNumbers)
{
    EXPECT_EQ(parseIntFlag("--jobs", "4", 1, 4096), 4);
    EXPECT_EQ(parseIntFlag("--inject", "0x10", 0, 100), 16);
    EXPECT_DOUBLE_EQ(parseFloatFlag("--inject-rate", "0.25", 0.0, 1.0),
                     0.25);
}

TEST(CliDeathTest, RejectsMalformedAndOutOfRange)
{
    EXPECT_EXIT(parseIntFlag("--jobs", "banana", 1, 4096),
                testing::ExitedWithCode(1), "not a number");
    EXPECT_EXIT(parseIntFlag("--jobs", "4x", 1, 4096),
                testing::ExitedWithCode(1), "not a number");
    EXPECT_EXIT(parseIntFlag("--jobs", "0", 1, 4096),
                testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(parseIntFlag("--jobs", "-3", 1, 4096),
                testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(parseFloatFlag("--inject-rate", "1.5", 0.0, 1.0),
                testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(parseFloatFlag("--inject-rate", "nan", 0.0, 1.0),
                testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(parseFloatFlag("--inject-rate", "", 0.0, 1.0),
                testing::ExitedWithCode(1), "requires a numeric value");
}

} // namespace
} // namespace epic
