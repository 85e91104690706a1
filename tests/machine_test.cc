/**
 * @file
 * Unit tests for the machine-side components: set-associative cache,
 * memory hierarchy, branch predictor, sparse memory, bundle templates,
 * and the support utilities (stats, RNG).
 */
#include <gtest/gtest.h>

#include "mach/machine.h"
#include "sim/caches.h"
#include "sim/memory.h"
#include "sim/predictor.h"
#include "support/rng.h"
#include "support/stats.h"

namespace epic {
namespace {

TEST(CacheTest, HitsAfterFill)
{
    Cache c(CacheConfig{1024, 2, 64, 1});
    EXPECT_FALSE(c.access(0x1000)); // cold miss
    EXPECT_TRUE(c.access(0x1000));  // hit
    EXPECT_TRUE(c.access(0x103f));  // same line
    EXPECT_FALSE(c.access(0x1040)); // next line
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.accesses(), 4u);
}

TEST(CacheTest, LruEviction)
{
    // 2-way, 64B lines, 1024B total => 8 sets. Three lines mapping to
    // one set: the least-recently-used one is evicted.
    Cache c(CacheConfig{1024, 2, 64, 1});
    uint64_t a = 0x0, b = 0x200, d = 0x400; // same set (stride 512)
    c.access(a);
    c.access(b);
    c.access(a);   // a now MRU
    c.access(d);   // evicts b
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
}

TEST(CacheTest, AssociativityRespected)
{
    Cache c(CacheConfig{4096, 4, 64, 1}); // 16 sets, 4 ways
    // 4 lines in one set all fit.
    for (int i = 0; i < 4; ++i)
        c.access(0x1000 * i);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(c.contains(0x1000 * i)) << i;
}

TEST(MemHierarchyTest, LoadLatenciesEscalate)
{
    MachineConfig m;
    MemHierarchy h(m);
    auto first = h.load(0x10000);
    EXPECT_FALSE(first.l1_hit);
    EXPECT_EQ(first.latency, m.mem_latency); // cold: memory
    auto second = h.load(0x10000);
    EXPECT_TRUE(second.l1_hit);
    EXPECT_EQ(second.latency, m.l1d.latency);
}

TEST(MemHierarchyTest, InstructionFetchWarmsL1I)
{
    MachineConfig m;
    MemHierarchy h(m);
    EXPECT_FALSE(h.fetch(0x4000000).l1_hit);
    EXPECT_TRUE(h.fetch(0x4000000).l1_hit);
    EXPECT_EQ(h.fetch(0x4000000).latency, m.l1i.latency);
}

TEST(PredictorTest, LearnsBias)
{
    // gshare indexes through the global history register, so training
    // must run long enough for the history to reach steady state and
    // the steady-state entry to saturate.
    BranchPredictor p(10);
    uint64_t addr = 0x4000010;
    for (int i = 0; i < 50; ++i)
        p.update(addr, true);
    EXPECT_TRUE(p.predict(addr));
    for (int i = 0; i < 50; ++i)
        p.update(addr, false);
    EXPECT_FALSE(p.predict(addr));
}

TEST(PredictorTest, IndirectTargetBtb)
{
    BranchPredictor p(10);
    EXPECT_EQ(p.predictTarget(0x500), -1);
    p.updateTarget(0x500, 7);
    EXPECT_EQ(p.predictTarget(0x500), 7);
    p.updateTarget(0x500, 9);
    EXPECT_EQ(p.predictTarget(0x500), 9);
}

/** tryRead that must succeed; returns the value read. */
uint64_t
mustRead(const Memory &m, uint64_t addr, int size)
{
    uint64_t v = 0;
    EXPECT_TRUE(m.tryRead(addr, size, v)) << std::hex << addr;
    return v;
}

TEST(MemoryTest, ReadWriteRoundTrip)
{
    Memory m;
    m.mapRange(0x10000, 64);
    ASSERT_TRUE(m.tryWrite(0x10000, 0x1122334455667788ull, 8));
    EXPECT_EQ(mustRead(m, 0x10000, 8), 0x1122334455667788ull);
    EXPECT_EQ(mustRead(m, 0x10000, 4), 0x55667788ull);
    EXPECT_EQ(mustRead(m, 0x10004, 4), 0x11223344ull);
    EXPECT_EQ(mustRead(m, 0x10007, 1), 0x11ull);
    ASSERT_TRUE(m.tryWrite(0x10002, 0xabcd, 2));
    EXPECT_EQ(mustRead(m, 0x10000, 8), 0x11223344abcd7788ull);

    // An unmapped page: the read leaves `out` alone, the write fails.
    uint64_t v = 42;
    EXPECT_FALSE(m.tryRead(0x10000 + Memory::kPageSize, 8, v));
    EXPECT_EQ(v, 42u);
    EXPECT_FALSE(m.tryWrite(0x10000 + Memory::kPageSize, 1, 8));
}

TEST(MemoryTest, CrossPageAccess)
{
    Memory m;
    const uint64_t boundary = Memory::kPageSize;
    m.mapRange(boundary - 8, 16); // maps both pages
    ASSERT_TRUE(m.tryWrite(boundary - 4, 0xaabbccdd99887766ull, 8));
    EXPECT_EQ(mustRead(m, boundary - 4, 8), 0xaabbccdd99887766ull);
    EXPECT_EQ(mustRead(m, boundary, 4), 0xaabbccddull);

    // Only the first page mapped: an access that crosses into the
    // second fails, and the failed write changes no byte of the first.
    Memory h;
    h.mapRange(boundary - 8, 8);
    ASSERT_TRUE(h.tryWrite(boundary - 8, 0x0123456789abcdefull, 8));
    EXPECT_FALSE(h.tryWrite(boundary - 4, 0xffffffffffffffffull, 8));
    EXPECT_EQ(mustRead(h, boundary - 8, 8), 0x0123456789abcdefull);
    uint64_t v = 42;
    EXPECT_FALSE(h.tryRead(boundary - 4, 8, v));
    EXPECT_EQ(v, 42u);
}

TEST(MemoryTest, MappedQueries)
{
    Memory m;
    m.mapRange(0x40000, 1);
    EXPECT_TRUE(m.isMapped(0x40000));
    EXPECT_TRUE(m.isMapped(0x40000 + Memory::kPageSize - 1));
    EXPECT_FALSE(m.isMapped(0x40000 + Memory::kPageSize));
    EXPECT_FALSE(m.isMapped(0));
}

TEST(TemplateTest, SlotCompatibility)
{
    EXPECT_TRUE(fuFitsSlot(FuClass::A, SlotKind::M));
    EXPECT_TRUE(fuFitsSlot(FuClass::A, SlotKind::I));
    EXPECT_FALSE(fuFitsSlot(FuClass::A, SlotKind::F));
    EXPECT_TRUE(fuFitsSlot(FuClass::B, SlotKind::B));
    EXPECT_FALSE(fuFitsSlot(FuClass::M, SlotKind::I));
    // Every template's branch slots are trailing (required by the
    // group packer's branch-placement rule).
    for (int t = 0; t < kNumTemplates; ++t) {
        bool seen_b = false;
        for (int s = 0; s < 3; ++s) {
            if (kTemplates[t].slots[s] == SlotKind::B)
                seen_b = true;
            else
                EXPECT_FALSE(seen_b) << kTemplates[t].name;
        }
    }
}

TEST(StatsTest, GeomeanAndMean)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(geomean({5.0}), 5.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(StatsTest, TableRenders)
{
    Table t({"name", "value"});
    t.row().cell("alpha").cell(1.5, 2);
    t.row().cell("b").cell(static_cast<long long>(42));
    std::string s = t.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.50"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(RngTest, DeterministicAndBounded)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(Rng(42).next(), c.next());
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.nextBelow(10), 10u);
        int64_t v = r.nextRange(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

} // namespace
} // namespace epic
