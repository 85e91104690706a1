/**
 * @file
 * The simulators' exact fast paths against references kept here.
 *
 * Each fast path skips work the plain algorithm does, relying on an
 * invariant: the ALAT's valid-entry count (kept by every valid-bit
 * change, rebuilt on restore) and the register frames' architected
 * slot 0 (r0 reads zero, p0 reads true). The references below are the
 * plain algorithms. Each test drives both through the operations that
 * could break the invariant, checkpoint restore included, and requires
 * the same answers and the same serialized state.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/compiler.h"
#include "ir/builder.h"
#include "sim/alat.h"
#include "sim/checkpoint.h"
#include "sim/interp.h"
#include "sim/timing.h"
#include "support/rng.h"

namespace epic {
namespace {

// ---------------------------------------------------------------------
// ALAT: valid-entry count vs. a table that scans on every store/flush.
// ---------------------------------------------------------------------

/** The ALAT with no valid count: invalidate() and flushAll() always
 *  scan. Same placement and victim rules, same checkpoint layout. */
class ScanAlat
{
  public:
    ScanAlat(int entries, int assoc) : assoc_(assoc)
    {
        slots_.assign(static_cast<size_t>(entries), Entry{});
        rr_.assign(static_cast<size_t>(entries / assoc), 0);
    }

    void
    allocate(int32_t reg, uint64_t addr, uint8_t size)
    {
        Entry *set = setOf(reg);
        for (int i = 0; i < assoc_; ++i) {
            if (set[i].valid && set[i].reg == reg) {
                set[i] = Entry{addr, reg, size, true};
                return;
            }
        }
        for (int i = 0; i < assoc_; ++i) {
            if (!set[i].valid) {
                set[i] = Entry{addr, reg, size, true};
                return;
            }
        }
        uint32_t &rr = rr_[static_cast<size_t>(reg) % rr_.size()];
        set[rr] = Entry{addr, reg, size, true};
        rr = (rr + 1) % static_cast<uint32_t>(assoc_);
    }

    bool
    check(int32_t reg, uint64_t addr, uint8_t size)
    {
        const Entry *set = setOf(reg);
        for (int i = 0; i < assoc_; ++i)
            if (set[i].valid && set[i].reg == reg &&
                set[i].addr == addr && set[i].size == size)
                return true;
        return false;
    }

    void
    invalidate(uint64_t addr, uint8_t size)
    {
        for (Entry &e : slots_)
            if (e.valid && e.addr < addr + size && addr < e.addr + e.size)
                e.valid = false;
    }

    void
    flushAll()
    {
        for (Entry &e : slots_)
            e.valid = false;
    }

    void
    corruptOne()
    {
        for (Entry &e : slots_) {
            if (e.valid) {
                e.addr ^= 0x40;
                return;
            }
        }
    }

    /** The bytes Alat::saveState writes for this state. */
    std::string
    blob() const
    {
        CkptWriter w;
        w.u64(slots_.size());
        for (const Entry &e : slots_) {
            w.u8(e.valid ? 1 : 0);
            w.i64(e.reg);
            w.u64(e.addr);
            w.u8(e.size);
        }
        w.u64(rr_.size());
        for (const uint32_t rc : rr_)
            w.u32(rc);
        return w.take();
    }

  private:
    struct Entry
    {
        uint64_t addr = 0;
        int32_t reg = -1;
        uint8_t size = 0;
        bool valid = false;
    };

    Entry *
    setOf(int32_t reg)
    {
        return slots_.data() +
               (static_cast<size_t>(reg) % rr_.size()) *
                   static_cast<size_t>(assoc_);
    }

    int assoc_;
    std::vector<Entry> slots_;
    std::vector<uint32_t> rr_;
};

std::string
alatBlob(const Alat &a)
{
    CkptWriter w;
    a.saveState(w);
    return w.take();
}

TEST(FastPathTest, AlatValidCountMatchesBruteForce)
{
    Alat alat(8, 2); // 4 sets x 2 ways: sets fill and evict
    ScanAlat ref(8, 2);
    Rng rng(5);
    std::string saved = alatBlob(alat);
    ScanAlat ref_saved = ref;

    auto restore = [&]() {
        CkptReader r(saved);
        alat.loadState(r);
        ref = ref_saved;
    };

    for (int i = 0; i < 20000; ++i) {
        const auto reg = static_cast<int32_t>(rng.nextRange(1, 12));
        const uint64_t addr = 0x1000 + rng.nextBelow(32) * 4;
        const auto size = static_cast<uint8_t>(1u << rng.nextBelow(4));
        const uint64_t op = rng.nextBelow(16);
        if (op < 6) {
            alat.allocate(reg, addr, size);
            ref.allocate(reg, addr, size);
        } else if (op < 10) {
            alat.invalidate(addr, size);
            ref.invalidate(addr, size);
        } else if (op < 12) {
            ASSERT_EQ(alat.check(reg, addr, size),
                      ref.check(reg, addr, size))
                << "op " << i;
        } else if (op == 12) {
            alat.flushAll();
            ref.flushAll();
        } else if (op == 13) {
            alat.corruptOne();
            ref.corruptOne();
        } else if (op == 14) {
            saved = alatBlob(alat);
            ref_saved = ref;
        } else {
            restore();
        }
        ASSERT_EQ(alatBlob(alat), ref.blob()) << "op " << i;
    }

    // Directed: restore a full table into an empty one. A stale count
    // of zero would let the next store skip an entry it must drop.
    alat.flushAll();
    ref.flushAll();
    for (int32_t reg = 1; reg <= 8; ++reg) {
        alat.allocate(reg, 0x2000 + 8 * reg, 8);
        ref.allocate(reg, 0x2000 + 8 * reg, 8);
    }
    saved = alatBlob(alat);
    ref_saved = ref;
    alat.flushAll();
    ref.flushAll();
    restore();
    EXPECT_TRUE(alat.check(3, 0x2018, 8));
    alat.invalidate(0x2018, 8);
    ref.invalidate(0x2018, 8);
    EXPECT_FALSE(alat.check(3, 0x2018, 8));
    EXPECT_EQ(alatBlob(alat), ref.blob());
}

// ---------------------------------------------------------------------
// Frames: r0 and p0 stay architected without a read-side test.
// ---------------------------------------------------------------------

void
expectSlotZero(const Frame &f)
{
    EXPECT_EQ(f.gr[0].v, 0);
    EXPECT_FALSE(f.gr[0].nat);
    EXPECT_EQ(f.pr[0], 1);
    EXPECT_EQ(f.readGr(kGrZero).v, 0);
    EXPECT_FALSE(f.readGr(kGrZero).nat);
    EXPECT_TRUE(f.readPr(kPrTrue));
}

TEST(FastPathTest, FrameSlotZeroSurvivesResetAndPooledReuse)
{
    Program p;
    IRBuilder b(p);
    Function *small = b.beginFunction("small", 0);
    b.ret(b.movi(1));
    Function *big = b.beginFunction("big", 0);
    Reg acc = b.movi(0);
    for (int i = 0; i < 300; ++i) // virtual registers past the phys file
        acc = b.addi(acc, i);
    b.ret(acc);

    Frame f(small, 0x1000);
    expectSlotZero(f);
    // Writes to r0/p0 are discarded; other registers take them.
    f.writeGr(kGrZero, GrVal{5, true});
    f.writePr(kPrTrue, false);
    f.writeGr(Reg(RegClass::Gr, 1), GrVal{7, true});
    f.writePr(Reg(RegClass::Pr, 1), true);
    expectSlotZero(f);
    EXPECT_EQ(f.readGr(Reg(RegClass::Gr, 1)).v, 7);

    // Pooled reuse: the simulators move a frame to a pool on return and
    // reset it for the next call, possibly of a larger function.
    std::vector<Frame> pool;
    pool.push_back(std::move(f));
    Frame g = std::move(pool.back());
    pool.pop_back();
    g.reset(big, 0x2000);
    expectSlotZero(g);
    EXPECT_GT(g.gr.size(), 300u);
    EXPECT_EQ(g.readGr(Reg(RegClass::Gr, 1)).v, 0);
    EXPECT_FALSE(g.readPr(Reg(RegClass::Pr, 1)));
    g.reset(small, 0x1000);
    expectSlotZero(g);
}

/**
 * sum(n) = n == 0 ? 0 : n + sum(n - 1), written so every activation
 * tries to write p0 (and, with `write_r0`, r0) and then reads both:
 * the sum only comes out right when each recycled frame still reads r0
 * as 0 and p0 as true. (The compiler folds a constant written to r0
 * into r0's readers, so only the interpreter runs the r0 write.)
 */
Program
slotZeroProgram(bool write_r0)
{
    Program p;
    IRBuilder b(p);
    Function *sum = b.beginFunction("sum", 1);
    const Reg n = b.param(0);
    BasicBlock *base = b.newBlock();
    BasicBlock *rec = b.newBlock();
    if (write_r0)
        b.moviTo(kGrZero, 77);
    b.movp(kPrTrue, false);
    const Reg n0 = b.add(n, kGrZero); // n + r0, guarded by p0
    b.br(b.cmpi(CmpCond::EQ, n0, 0).first, base);
    b.fallthrough(rec);
    b.setBlock(rec);
    const Reg sub = b.call(sum, {b.subi(n0, 1)});
    b.ret(b.add(sub, n0));
    b.setBlock(base);
    b.ret(kGrZero);

    Function *main = b.beginFunction("main", 0);
    b.ret(b.call(sum, {b.movi(200)}));
    p.entry_func = main->id;
    p.layoutData();
    return p;
}

TEST(FastPathTest, SlotZeroHoldsThroughCallsAndCheckpointRestore)
{
    constexpr int64_t kWant = 200 * 201 / 2;
    {
        Program p = slotZeroProgram(true);
        Memory mem;
        mem.initFromProgram(p);
        const InterpResult r = interpret(p, mem);
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.ret_value, kWant);
    }

    // Timing sim of the compiled program: uninterrupted with
    // checkpoints, then resumed from the last one (frames rebuilt from
    // the blob mid-recursion).
    Compiled c = compileProgram(slotZeroProgram(false), Config::Gcc);
    ASSERT_TRUE(c.fallback.clean());
    SimCheckpoint ck;
    TimingResult full;
    {
        Memory mem;
        mem.initFromProgram(*c.prog);
        TimingOptions topts;
        topts.checkpoint_every = 500;
        topts.checkpoint_out = &ck;
        full = simulate(*c.prog, mem, topts);
    }
    ASSERT_TRUE(full.ok) << full.error;
    EXPECT_EQ(full.ret_value, kWant);
    ASSERT_TRUE(ck.valid());

    Memory mem;
    mem.initFromProgram(*c.prog);
    TimingOptions topts;
    topts.resume_from = &ck;
    const TimingResult resumed = simulate(*c.prog, mem, topts);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    EXPECT_EQ(resumed.ret_value, kWant);
    CkptWriter wf, wr;
    saveState(wf, full.pm);
    saveState(wr, resumed.pm);
    EXPECT_EQ(wr.take(), wf.take());
}

} // namespace
} // namespace epic
