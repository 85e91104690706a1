/**
 * @file
 * Run-supervision layer tests (DESIGN.md §15): structured budget
 * exhaustion, cooperative deadlines and stop requests, simulator
 * checkpoint/restore golden-counter identity, crash-safe artifact and
 * manifest I/O, and the thread pool's failure discipline.
 *
 * The overarching claim under test: a runaway, faulted or interrupted
 * task is a *categorized experiment outcome* — never a process abort,
 * never a truncated artifact.
 */
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "driver/compiler.h"
#include "driver/experiment.h"
#include "ir/builder.h"
#include "support/arena.h"
#include "sim/checkpoint.h"
#include "sim/interp.h"
#include "sim/perfmon.h"
#include "sim/timing.h"
#include "support/io.h"
#include "support/supervision/manifest.h"
#include "support/supervision/supervise.h"
#include "support/threadpool.h"
#include "workloads/workload.h"

namespace epic {
namespace {

/** RAII arm/disarm so a failing test cannot leave supervision armed. */
struct Armed
{
    Armed() { armSupervision(); }
    ~Armed() { disarmSupervision(); }
};

std::string
tempDir()
{
    char tmpl[] = "/tmp/epiclab_sup_test.XXXXXX";
    const char *d = ::mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    return d ? d : "/tmp";
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// ---------------------------------------------------------------------
// Budgets: every workload, exhausted budget -> structured status.
// ---------------------------------------------------------------------

/**
 * The satellite contract: run ALL twelve workloads against a budget
 * they must exhaust and require a structured BudgetExceeded outcome —
 * never a crash, never an epic_fatal, never a misclassified error.
 */
TEST(SupervisionTest, InstrBudgetExhaustionIsStructuredAcrossSuite)
{
    for (const Workload &w : allWorkloads()) {
        auto prog = w.build();
        prog->layoutData();
        Memory mem;
        mem.initFromProgram(*prog);
        w.write_input(*prog, mem, InputKind::Ref);
        InterpOptions io;
        io.max_instrs = 1000; // every workload runs far beyond this
        InterpResult r = interpret(*prog, mem, io);
        EXPECT_FALSE(r.ok) << w.name;
        EXPECT_EQ(r.status, RunStatus::BudgetExceeded) << w.name;
        EXPECT_NE(r.error.find("dynamic instruction budget exceeded"),
                  std::string::npos)
            << w.name << ": " << r.error;
    }
}

TEST(SupervisionTest, CycleBudgetExhaustionIsStructured)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    auto prog = w->build();
    prog->layoutData();
    {
        Memory mem;
        mem.initFromProgram(*prog);
        w->write_input(*prog, mem, InputKind::Train);
        ASSERT_TRUE(profileRun(*prog, mem).ok);
    }
    Compiled c = compileProgram(*prog, Config::Gcc);
    Memory mem;
    mem.initFromProgram(*c.prog);
    w->write_input(*c.prog, mem, InputKind::Ref);
    TimingOptions topts;
    topts.max_cycles = 1000;
    TimingResult r = simulate(*c.prog, mem, topts);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.status, RunStatus::BudgetExceeded);
    EXPECT_NE(r.error.find("cycle budget exceeded"), std::string::npos)
        << r.error;
}

TEST(SupervisionTest, CallDepthBudgetIsStructured)
{
    // Unbounded recursion: rec(n) = rec(n + 1).
    Program p;
    IRBuilder b(p);
    Function *rec = b.beginFunction("rec", 1);
    Reg n1 = b.addi(b.param(0), 1);
    b.ret(b.call(rec, {n1}));
    Function *mainf = b.beginFunction("main", 0);
    b.ret(b.call(rec, {b.movi(0)}));
    p.entry_func = mainf->id;
    p.layoutData();

    Memory mem;
    mem.initFromProgram(p);
    InterpOptions io;
    io.max_depth = 64;
    InterpResult r = interpret(p, mem, io);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.status, RunStatus::BudgetExceeded);
    EXPECT_NE(r.error.find("call depth limit exceeded"),
              std::string::npos)
        << r.error;
}

TEST(SupervisionTest, HeapPageBudgetIsStructured)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    auto prog = w->build();
    prog->layoutData();
    Memory mem;
    mem.initFromProgram(*prog);
    w->write_input(*prog, mem, InputKind::Ref);
    InterpOptions io;
    io.max_mem_pages = 1; // image alone maps more
    InterpResult r = interpret(*prog, mem, io);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.status, RunStatus::BudgetExceeded);
    EXPECT_NE(r.error.find("memory page budget exceeded"),
              std::string::npos)
        << r.error;
}

/**
 * Compile-side arena exhaustion is covered by the same page budget:
 * growth past --max-mem-pages throws the structured
 * ArenaBudgetExceeded (never bad_alloc), compileProgram surfaces it
 * deterministically (lowest function id first, any --jobs), and
 * runConfig maps it to RunStatus::BudgetExceeded like every other
 * budget in this file.
 */
TEST(SupervisionTest, ArenaBudgetExhaustionIsStructured)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    auto prog = w->build();
    prog->layoutData();
    {
        Memory mem;
        mem.initFromProgram(*prog);
        w->write_input(*prog, mem, InputKind::Train);
        ASSERT_TRUE(profileRun(*prog, mem).ok);
    }

    std::string serial_what;
    for (int jobs : {1, 4}) {
        CompileOptions copts = CompileOptions::forConfig(Config::IlpCs);
        copts.jobs = jobs;
        copts.max_arena_pages = 1; // 16K: any real function needs more
        std::string what;
        try {
            compileProgram(*prog, copts);
            FAIL() << "arena budget was not enforced (jobs=" << jobs
                   << ")";
        } catch (const ArenaBudgetExceeded &e) {
            EXPECT_EQ(e.budget(), uint64_t{16} << 10);
            what = e.what();
            EXPECT_NE(what.find("arena budget exceeded"),
                      std::string::npos);
        }
        // Deterministic surfacing: serial and parallel compiles report
        // the identical (lowest-function-id) exhaustion.
        if (jobs == 1)
            serial_what = what;
        else
            EXPECT_EQ(what, serial_what);
    }

    // End to end: the supervised experiment layer reports it as a
    // structured budget outcome, not a crash.
    RunOptions opts;
    opts.supervision = SupervisionOptions::supervised();
    opts.run_input = InputKind::Train;
    opts.tweak = [](CompileOptions &o) { o.max_arena_pages = 1; };
    ConfigRun r = runConfig(*w, Config::IlpCs, opts);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.sim_status, RunStatus::BudgetExceeded);
    EXPECT_NE(r.error.find("arena budget"), std::string::npos)
        << r.error;
}

// ---------------------------------------------------------------------
// Deadlines and stop requests.
// ---------------------------------------------------------------------

TEST(SupervisionTest, ExpiredDeadlineFiresOnFirstPoll)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    auto prog = w->build();
    prog->layoutData();
    Memory mem;
    mem.initFromProgram(*prog);
    w->write_input(*prog, mem, InputKind::Ref);

    Armed armed;
    InterpOptions io;
    io.deadline_ns = steadyNowNs() - 1; // already expired
    InterpResult r = interpret(*prog, mem, io);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.status, RunStatus::Deadline);
    EXPECT_NE(r.error.find("wall-clock deadline exceeded"),
              std::string::npos)
        << r.error;
    // The run was reclaimed almost immediately, not after the budget.
    EXPECT_LT(r.dyn_instrs, 100000u);
}

TEST(SupervisionTest, DeadlineIgnoredWhileDisarmed)
{
    // The one-relaxed-load contract: without an armed supervisor the
    // loops never consult the clock, so an expired deadline is inert.
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    auto prog = w->build();
    prog->layoutData();
    Memory mem;
    mem.initFromProgram(*prog);
    w->write_input(*prog, mem, InputKind::Ref);
    InterpOptions io;
    io.deadline_ns = steadyNowNs() - 1;
    InterpResult r = interpret(*prog, mem, io);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(SupervisionTest, StopRequestWindsDownRun)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    auto prog = w->build();
    prog->layoutData();
    Memory mem;
    mem.initFromProgram(*prog);
    w->write_input(*prog, mem, InputKind::Ref);

    Armed armed; // fleet mode arms via installStopSignalHandlers()
    requestStop();
    InterpResult r = interpret(*prog, mem, {});
    clearStopRequest();
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.status, RunStatus::Deadline);
    EXPECT_NE(r.error.find("interrupted by stop request"),
              std::string::npos)
        << r.error;
}

TEST(SupervisionTest, TimingDeadlineReclaimsInjectedHang)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    auto prog = w->build();
    prog->layoutData();
    {
        Memory mem;
        mem.initFromProgram(*prog);
        w->write_input(*prog, mem, InputKind::Train);
        ASSERT_TRUE(profileRun(*prog, mem).ok);
    }
    Compiled c = compileProgram(*prog, Config::Gcc);
    Memory mem;
    mem.initFromProgram(*c.prog);
    w->write_input(*c.prog, mem, InputKind::Ref);

    Armed armed;
    TimingOptions topts;
    topts.hang_at_instr = 1000;
    topts.hang_ms = 60'000; // would stall for a minute...
    topts.deadline_ns = deadlineFromNowMs(300);
    const int64_t t0 = steadyNowNs();
    TimingResult r = simulate(*c.prog, mem, topts);
    const int64_t elapsed_ms = (steadyNowNs() - t0) / 1'000'000;
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.status, RunStatus::Deadline);
    // ...but the watchdog deadline reclaimed it within ~300 ms.
    EXPECT_LT(elapsed_ms, 10'000);
}

// ---------------------------------------------------------------------
// Checkpoint/restore.
// ---------------------------------------------------------------------

/** Serialize a Perfmon to bytes (blob equality == counter equality). */
std::string
pmBlob(const Perfmon &pm)
{
    CkptWriter cw;
    saveState(cw, pm);
    return cw.take();
}

TEST(SupervisionTest, CheckpointRestoreGoldenCountersByteIdentical)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    auto prog = w->build();
    prog->layoutData();
    {
        Memory mem;
        mem.initFromProgram(*prog);
        w->write_input(*prog, mem, InputKind::Train);
        ASSERT_TRUE(profileRun(*prog, mem).ok);
    }
    Compiled c = compileProgram(*prog, Config::IlpCs);

    // Uninterrupted reference run, checkpointing along the way.
    SimCheckpoint ck;
    TimingResult full;
    {
        Memory mem;
        mem.initFromProgram(*c.prog);
        w->write_input(*c.prog, mem, InputKind::Ref);
        TimingOptions topts;
        topts.checkpoint_every = 200'000;
        topts.checkpoint_out = &ck;
        full = simulate(*c.prog, mem, topts);
        ASSERT_TRUE(full.ok) << full.error;
        ASSERT_TRUE(ck.valid());
        ASSERT_GT(ck.instrs, 0u);
    }

    // Restore-then-run must finish with byte-identical golden counters.
    Memory mem;
    mem.initFromProgram(*c.prog);
    w->write_input(*c.prog, mem, InputKind::Ref);
    TimingOptions topts;
    topts.resume_from = &ck;
    TimingResult resumed = simulate(*c.prog, mem, topts);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    EXPECT_EQ(resumed.ret_value, full.ret_value);
    EXPECT_EQ(pmBlob(resumed.pm), pmBlob(full.pm));
}

TEST(SupervisionDeathTest, CorruptCheckpointPanics)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    auto prog = w->build();
    prog->layoutData();
    {
        Memory mem;
        mem.initFromProgram(*prog);
        w->write_input(*prog, mem, InputKind::Train);
        ASSERT_TRUE(profileRun(*prog, mem).ok);
    }
    Compiled c = compileProgram(*prog, Config::Gcc);
    SimCheckpoint ck;
    {
        Memory mem;
        mem.initFromProgram(*c.prog);
        w->write_input(*c.prog, mem, InputKind::Ref);
        TimingOptions topts;
        topts.checkpoint_every = 200'000;
        topts.checkpoint_out = &ck;
        ASSERT_TRUE(simulate(*c.prog, mem, topts).ok);
        ASSERT_TRUE(ck.valid());
    }
    // Truncate the blob: restoring half a machine state must panic,
    // never silently poison downstream counters.
    ck.data.resize(ck.data.size() / 2);
    Memory mem;
    mem.initFromProgram(*c.prog);
    w->write_input(*c.prog, mem, InputKind::Ref);
    TimingOptions topts;
    topts.resume_from = &ck;
    EXPECT_DEATH(simulate(*c.prog, mem, topts), "checkpoint");
}

// ---------------------------------------------------------------------
// Crash-safe I/O: atomic artifact writes, durable manifest appends.
// ---------------------------------------------------------------------

TEST(SupervisionTest, AtomicWriteSurvivesKillMidWrite)
{
    const std::string dir = tempDir();
    const std::string path = dir + "/artifact.jsonl";
    const std::string oldc(64 * 1024, 'A');
    const std::string newc(64 * 1024, 'B');
    ASSERT_TRUE(atomicWriteFile(path, oldc));

    // A child rewrites the artifact in a tight loop; SIGKILL lands at
    // an arbitrary instant — possibly mid-write, mid-fsync or
    // mid-rename. The final path must hold a *complete* old or new
    // artifact afterwards, never a truncation.
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        for (;;)
            atomicWriteFile(path, newc);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    ASSERT_TRUE(WIFSIGNALED(status));

    const std::string got = slurp(path);
    EXPECT_TRUE(got == oldc || got == newc)
        << "torn artifact: " << got.size() << " bytes";
}

TEST(SupervisionTest, ManifestToleratesTornLastLine)
{
    const std::string dir = tempDir();
    const std::string path = dir + "/run.manifest";
    {
        RunManifest m;
        EXPECT_EQ(m.open(path, /*resume=*/true), 0u); // missing file = empty
        m.record("k1", "{\"ok\":true,\"checksum\":1}");
        m.record("k2", "{\"ok\":true,\"checksum\":2}");
        EXPECT_EQ(m.size(), 2u);
    }
    {
        // Simulate a kill -9 that tore the last append: a partial line
        // with no newline and unbalanced JSON.
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "{\"schema\":\"epiclab.manifest.v1\",\"key\":\"k3\",\"rec";
    }
    RunManifest m2;
    EXPECT_EQ(m2.open(path, /*resume=*/true), 2u); // torn line dropped
    ASSERT_NE(m2.find("k1"), nullptr);
    EXPECT_EQ(*m2.find("k1"), "{\"ok\":true,\"checksum\":1}");
    ASSERT_NE(m2.find("k2"), nullptr);
    EXPECT_EQ(m2.find("k3"), nullptr);
}

TEST(SupervisionTest, ManifestWithoutResumeStartsEmpty)
{
    const std::string dir = tempDir();
    const std::string path = dir + "/run.manifest";
    {
        RunManifest m;
        m.open(path, /*resume=*/false);
        m.record("k1", "{\"ok\":true,\"checksum\":1}");
    }
    // A run without --resume drops the earlier run's records, so a
    // later resume replays only what that run recorded.
    RunManifest fresh;
    EXPECT_EQ(fresh.open(path, /*resume=*/false), 0u);
    EXPECT_EQ(fresh.find("k1"), nullptr);
    fresh.record("k2", "{\"ok\":true,\"checksum\":2}");
    RunManifest resumed;
    EXPECT_EQ(resumed.open(path, /*resume=*/true), 1u);
    EXPECT_EQ(resumed.find("k1"), nullptr);
    ASSERT_NE(resumed.find("k2"), nullptr);
}

TEST(SupervisionTest, ManifestFirstWriteWinsAndUnknownKeyMisses)
{
    const std::string dir = tempDir();
    RunManifest m;
    m.open(dir + "/m.manifest", /*resume=*/false);
    m.record("k", "first");
    m.record("k", "second"); // resume replay: idempotent
    EXPECT_EQ(m.size(), 1u);
    ASSERT_NE(m.find("k"), nullptr);
    EXPECT_EQ(*m.find("k"), "first");
    // A key from a different binary/config/input never matches.
    EXPECT_EQ(m.find("other"), nullptr);
}

TEST(SupervisionTest, FnvHashIsStableAndSeedable)
{
    // The manifest key fingerprint must be stable across processes —
    // pin the reference value of the empty and a known string.
    EXPECT_EQ(fnv1a(""), kFnvBasis);
    EXPECT_EQ(hashHex(fnv1a("epic")).size(), 16u);
    EXPECT_NE(fnv1a("a", fnv1a("b")), fnv1a("b", fnv1a("a")));
    EXPECT_EQ(fnv1a("epic"), fnv1a("epic"));
}

// ---------------------------------------------------------------------
// Thread pool failure discipline.
// ---------------------------------------------------------------------

TEST(SupervisionTest, PoolTaskErrorCarriesTaskIndexAndDropCount)
{
    ThreadPool::resetSupervisionCounters();
    const uint64_t dropped_before = ThreadPool::exceptionsDropped();
    ThreadPool pool(4);
    for (int i = 0; i < 10; ++i)
        pool.submit([i] {
            if (i == 3 || i == 7)
                throw std::runtime_error("boom " + std::to_string(i));
        });
    try {
        pool.wait();
        FAIL() << "wait() must rethrow the first task failure";
    } catch (const PoolTaskError &e) {
        // Which of the two failures is "first" is schedule-dependent;
        // that it is one of them — and that the other is counted, not
        // lost — is not.
        EXPECT_TRUE(e.task() == 3 || e.task() == 7) << e.task();
        EXPECT_EQ(e.dropped(), 1u);
        EXPECT_NE(std::string(e.what()).find("pool task #"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(ThreadPool::exceptionsDropped(), dropped_before + 1);
}

TEST(SupervisionTest, ParallelForReportsFailingIndex)
{
    try {
        parallelFor(3, 8, [](int i) {
            if (i == 5)
                throw std::runtime_error("task five failed");
        });
        FAIL() << "parallelFor must propagate the failure";
    } catch (const PoolTaskError &e) {
        EXPECT_EQ(e.task(), 5);
        EXPECT_EQ(e.dropped(), 0u);
    }
}

TEST(SupervisionTest, HungTaskDetectionWarnsAndCounts)
{
    ThreadPool::resetSupervisionCounters();
    ThreadPool::setHungTaskThresholdMs(50);
    {
        ThreadPool pool(2);
        pool.submit([] {
            std::this_thread::sleep_for(std::chrono::milliseconds(250));
        });
        pool.wait();
    }
    ThreadPool::setHungTaskThresholdMs(0);
    EXPECT_GE(ThreadPool::hungTasks(), 1u);
}

} // namespace
} // namespace epic
