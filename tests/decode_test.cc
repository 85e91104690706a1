/**
 * @file
 * Predecode-layer tests (DESIGN.md §12): the DecodedProgram cache must
 * be a faithful, behavior-preserving view of the IR. Structure tests
 * check the flattened records against the program they decode; the
 * golden-counter tests pin the end-to-end simulation results of two
 * workloads under two configurations, so any drift in the decode layer
 * or the execution kernels shows up as an exact counter mismatch.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "driver/compiler.h"
#include "sim/decode.h"
#include "sim/interp.h"
#include "sim/timing.h"
#include "workloads/workload.h"

namespace epic {
namespace {

/** Build a workload program with profile annotations (train input),
 *  compiled at `cfg` — the same pipeline the driver runs. */
Compiled
compileWorkload(const Workload *w, Config cfg)
{
    auto prog = w->build();
    prog->layoutData();
    {
        Memory mem;
        mem.initFromProgram(*prog);
        w->write_input(*prog, mem, InputKind::Train);
        profileRun(*prog, mem);
    }
    return compileProgram(*prog, cfg);
}

InterpResult
interpretRef(const Workload *w, Program &prog, bool scheduled_order)
{
    Memory mem;
    mem.initFromProgram(prog);
    w->write_input(prog, mem, InputKind::Ref);
    InterpOptions opts;
    opts.scheduled_order = scheduled_order;
    return interpret(prog, mem, opts);
}

TimingResult
simulateRef(const Workload *w, Program &prog)
{
    Memory mem;
    mem.initFromProgram(prog);
    w->write_input(prog, mem, InputKind::Ref);
    return simulate(prog, mem, {});
}

// ---------------------------------------------------------------------
// Structure: decoded records mirror the IR they were built from.
// ---------------------------------------------------------------------

TEST(DecodeTest, DinstrsMirrorInstructions)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    Compiled c = compileWorkload(w, Config::IlpCs);
    const Program &prog = *c.prog;

    const DecodedProgram dec = DecodedProgram::forTiming(prog);
    for (const auto &f : prog.funcs) {
        if (!f)
            continue;
        const DecodedFunction &df = dec.func(f->id);
        for (const auto &b : f->blocks) {
            if (!b)
                continue;
            const DecodedBlock &db = df.block(b->id);
            ASSERT_NE(db.dinstrs, nullptr);
            for (size_t i = 0; i < b->instrs.size(); ++i) {
                const Instruction &inst = b->instrs[i];
                const DecodedInstr &d = db.dinstrs[i];
                EXPECT_EQ(d.op, inst.op);
                EXPECT_EQ(d.orig, &inst);
                EXPECT_EQ(d.guard.id, inst.guard.id);
                const OpcodeInfo &info = opcodeInfo(inst.op);
                EXPECT_EQ((d.flags & kDecLoad) != 0, info.is_load);
                EXPECT_EQ((d.flags & kDecStore) != 0, info.is_store);
                EXPECT_EQ((d.flags & kDecCall) != 0, info.is_call);
                EXPECT_EQ((d.flags & kDecRet) != 0, info.is_ret);
                EXPECT_EQ(d.latency, info.latency);
                if (inst.op == Opcode::BR_CALL) {
                    EXPECT_EQ(d.target, inst.callee);
                }
                if (!inst.dests.empty()) {
                    EXPECT_EQ(d.dest0.cls, inst.dests[0].cls);
                    EXPECT_EQ(d.dest0.id, inst.dests[0].id);
                }
            }
        }
    }
}

TEST(DecodeTest, ScheduledOrderMatchesBundleSlots)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    Compiled c = compileWorkload(w, Config::IlpCs);
    const Program &prog = *c.prog;

    const DecodedProgram dec = DecodedProgram::forInterp(prog, true);
    size_t scheduled_blocks = 0;
    for (const auto &f : prog.funcs) {
        if (!f)
            continue;
        const DecodedFunction &df = dec.func(f->id);
        for (const auto &b : f->blocks) {
            if (!b)
                continue;
            const DecodedBlock &db = df.block(b->id);
            if (!b->scheduled()) {
                // Unscheduled: identity order, represented implicitly.
                EXPECT_EQ(db.order, nullptr);
                EXPECT_EQ(db.order_len, b->instrs.size());
                continue;
            }
            ++scheduled_blocks;
            std::vector<int32_t> want;
            for (const Bundle &bun : b->bundles)
                for (int16_t s : bun.slots)
                    if (s != kSlotNop)
                        want.push_back(s);
            ASSERT_EQ(db.order_len, want.size());
            ASSERT_NE(db.order, nullptr);
            for (size_t i = 0; i < want.size(); ++i)
                EXPECT_EQ(db.order[i], want[i]);
        }
    }
    EXPECT_GT(scheduled_blocks, 0u);
}

/** Reference issue-group builder: one vector per member list, in slot
 *  order, with a group closed by each stop bit. The flattener fills
 *  the pools in one pass instead; this plain form is what it must
 *  match. */
struct RefGroup
{
    std::vector<int> ops;
    std::vector<uint64_t> addrs;
    std::vector<uint64_t> lines;
    int nops = 0;
    uint32_t attr_union = 0;
};

std::vector<RefGroup>
refGroups(const BasicBlock &b)
{
    std::vector<RefGroup> groups;
    RefGroup cur;
    for (const Bundle &bun : b.bundles) {
        uint64_t line = bun.addr & ~63ull;
        if (std::find(cur.lines.begin(), cur.lines.end(), line) ==
            cur.lines.end()) {
            cur.lines.push_back(line);
        }
        for (int slot = 0; slot < 3; ++slot) {
            int16_t s = bun.slots[slot];
            if (s == kSlotNop) {
                ++cur.nops;
            } else {
                cur.ops.push_back(s);
                cur.addrs.push_back(bun.addr +
                                    static_cast<uint64_t>(slot));
                cur.attr_union |= b.instrs[s].attr;
            }
        }
        if (bun.stop_after) {
            groups.push_back(std::move(cur));
            cur = RefGroup{};
        }
    }
    if (!cur.ops.empty() || cur.nops > 0)
        groups.push_back(std::move(cur));
    return groups;
}

TEST(DecodeTest, GroupsMatchBuilderOutput)
{
    const Workload *w = findWorkload("181.mcf");
    ASSERT_NE(w, nullptr);
    Compiled c = compileWorkload(w, Config::IlpCs);
    const Program &prog = *c.prog;

    const DecodedProgram dec = DecodedProgram::forTiming(prog);
    for (const auto &f : prog.funcs) {
        if (!f)
            continue;
        const DecodedFunction &df = dec.func(f->id);
        for (const auto &b : f->blocks) {
            if (!b)
                continue;
            const DecodedBlock &db = df.block(b->id);
            std::vector<RefGroup> want = refGroups(*b);
            ASSERT_EQ(db.ngroups, want.size());
            for (uint32_t g = 0; g < db.ngroups; ++g) {
                const DecodedGroup &dg = db.groups[g];
                const RefGroup &gi = want[g];
                ASSERT_EQ(dg.nops, gi.ops.size());
                ASSERT_EQ(dg.nlines, gi.lines.size());
                EXPECT_EQ(dg.nnops, gi.nops);
                EXPECT_EQ(dg.attr_union, gi.attr_union);
                for (uint16_t i = 0; i < dg.nops; ++i) {
                    EXPECT_EQ(df.gops()[dg.op_off + i], gi.ops[i]);
                    EXPECT_EQ(df.gaddrs()[dg.op_off + i], gi.addrs[i]);
                }
                for (uint16_t i = 0; i < dg.nlines; ++i)
                    EXPECT_EQ(df.glines()[dg.line_off + i],
                              gi.lines[i]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Semantics: scheduled-order execution is architecturally equivalent
// to source-order execution of the same scheduled program.
// ---------------------------------------------------------------------

TEST(DecodeTest, ScheduledVsSourceOrderEquivalent)
{
    for (const char *name : {"164.gzip", "181.mcf"}) {
        const Workload *w = findWorkload(name);
        ASSERT_NE(w, nullptr);
        Compiled c = compileWorkload(w, Config::IlpCs);

        InterpResult sched = interpretRef(w, *c.prog, true);
        InterpResult src = interpretRef(w, *c.prog, false);
        ASSERT_TRUE(sched.ok) << name << ": " << sched.error;
        ASSERT_TRUE(src.ok) << name << ": " << src.error;
        EXPECT_EQ(sched.ret_value, src.ret_value) << name;
        EXPECT_EQ(sched.dyn_instrs, src.dyn_instrs) << name;
        EXPECT_EQ(sched.dyn_executed, src.dyn_executed) << name;
        EXPECT_EQ(sched.dyn_loads, src.dyn_loads) << name;
        EXPECT_EQ(sched.dyn_stores, src.dyn_stores) << name;
    }
}

// ---------------------------------------------------------------------
// Golden counters: two workloads x {O-NS, ILP-CS}. The values pin the
// exact dynamic behavior of the predecoded simulators; regenerate them
// deliberately (never to silence a failure) if the workloads, the
// compiler pipeline, or the machine model intentionally change.
// ---------------------------------------------------------------------

struct Golden
{
    const char *workload;
    Config config;
    uint64_t dyn_instrs;   ///< functional interp, scheduled order
    uint64_t dyn_executed;
    uint64_t useful_ops;   ///< timing sim
    uint64_t squashed_ops;
    uint64_t total_cycles;
};

/** Print the parameter by value. Without this gtest dumps the raw bytes,
 *  which include the address of the workload-name literal, so the test
 *  names ctest lists would change with every link and every process. */
void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.workload << " " << configName(g.config);
}

class DecodeGoldenTest : public ::testing::TestWithParam<Golden>
{
};

TEST_P(DecodeGoldenTest, CountersMatch)
{
    const Golden &g = GetParam();
    const Workload *w = findWorkload(g.workload);
    ASSERT_NE(w, nullptr);
    Compiled c = compileWorkload(w, g.config);

    InterpResult ir = interpretRef(w, *c.prog, true);
    ASSERT_TRUE(ir.ok) << ir.error;
    EXPECT_EQ(ir.dyn_instrs, g.dyn_instrs);
    EXPECT_EQ(ir.dyn_executed, g.dyn_executed);

    TimingResult tr = simulateRef(w, *c.prog);
    ASSERT_TRUE(tr.ok) << tr.error;
    EXPECT_EQ(tr.pm.useful_ops, g.useful_ops);
    EXPECT_EQ(tr.pm.squashed_ops, g.squashed_ops);
    EXPECT_EQ(tr.pm.total(), g.total_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsByConfig, DecodeGoldenTest,
    ::testing::Values(
        Golden{"164.gzip", Config::ONS, 1337826, 1292110, 1292110,
               45716, 1180788},
        Golden{"164.gzip", Config::IlpCs, 1354280, 1236734, 1236734,
               117546, 992254},
        Golden{"181.mcf", Config::ONS, 3266313, 3153419, 3153419,
               112894, 27774939},
        Golden{"181.mcf", Config::IlpCs, 3041286, 2815752, 2815752,
               225534, 27770270}),
    [](const ::testing::TestParamInfo<Golden> &info) {
        std::string n = info.param.workload;
        for (char &ch : n)
            if (ch == '.')
                ch = '_';
        return n + (info.param.config == Config::ONS ? "_ONS"
                                                     : "_ILPCS");
    });

} // namespace
} // namespace epic
