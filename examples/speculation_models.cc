/**
 * @file
 * The paper's §4.3 wild-load phenomenon as a minimal example: a
 * pointer/integer union dereferenced under a tag guard. Under ILP-CS
 * the guard is promoted, so the load executes on every iteration — and
 * whenever the union held an integer, the "address" points into
 * unmapped space. The example compiles once and simulates under both
 * OS speculation models (Figure 9): the general model walks the kernel
 * page tables on every wild execution; the sentinel model defers
 * cheaply as NaT at the DTLB.
 */
#include <cstdio>

#include "driver/compiler.h"
#include "ir/builder.h"
#include "sim/interp.h"
#include "sim/timing.h"
#include "support/rng.h"

using namespace epic;

namespace {

constexpr int kNodes = 2048;
constexpr int kIters = 40000;

Program
buildUnionChase()
{
    Program p;
    // node[i] = { tag, value }: tag==1 -> value is a pointer.
    int nodes = p.addSymbol("nodes", kNodes * 16);
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    BasicBlock *loop = b.newBlock();
    BasicBlock *done = b.newBlock();
    Reg i = b.gr(), acc = b.gr();
    b.moviTo(i, 0);
    b.moviTo(acc, 0);
    Reg base = b.mova(nodes);
    b.fallthrough(loop);

    b.setBlock(loop);
    Reg na = b.add(base, b.shli(b.andi(i, kNodes - 1), 4));
    Reg tag = b.ld(na, 8, MemHint{nodes, -1});
    Reg val = b.ld(b.addi(na, 8), 8, MemHint{nodes, -1});
    auto [p_ptr, p_int] = b.cmpi(CmpCond::EQ, tag, 1);
    Reg deref = b.gr();
    b.ldTo(deref, val, 8, MemHint{-1, -1}, p_ptr); // guarded deref
    b.addTo(acc, acc, deref, p_ptr);
    b.addTo(acc, acc, tag, p_int);
    b.movTo(acc, b.andi(acc, 0xffffffffll));
    b.addiTo(i, i, 1);
    auto [pl, pge] = b.cmpi(CmpCond::LT, i, kIters);
    (void)pge;
    b.br(pl, loop);
    b.fallthrough(done);
    b.setBlock(done);
    b.ret(acc);
    p.entry_func = f->id;
    return p;
}

void
writeNodes(Program &p, Memory &mem, double int_fraction)
{
    int nodes = 0;
    for (const DataSymbol &s : p.symbols)
        if (s.name == "nodes")
            nodes = s.id;
    uint64_t base = p.symbolAddr(nodes);
    Rng rng(7);
    for (int i = 0; i < kNodes; ++i) {
        bool is_int = rng.nextDouble() < int_fraction;
        uint64_t tag = is_int ? 0 : 1;
        uint64_t val = is_int
                           ? 0x610000000ull + rng.nextBelow(1 << 26) * 8
                           : base + rng.nextBelow(kNodes) * 16;
        mem.writeBytes(base + static_cast<uint64_t>(i) * 16,
                       reinterpret_cast<const uint8_t *>(&tag), 8);
        mem.writeBytes(base + static_cast<uint64_t>(i) * 16 + 8,
                       reinterpret_cast<const uint8_t *>(&val), 8);
    }
}

} // namespace

int
main()
{
    printf("Wild loads under the two IA-64 speculation models "
           "(paper Fig. 9 / sec. 4.3)\n\n");
    printf("%-14s %-10s %-12s %-12s %-10s\n", "int fraction", "model",
           "wild loads", "kernel cyc", "total cyc");

    for (double frac : {0.0, 0.05, 0.25, 0.60}) {
        Program src = buildUnionChase();
        src.layoutData();
        {
            Memory mem;
            mem.initFromProgram(src);
            writeNodes(src, mem, frac);
            profileRun(src, mem);
        }
        Compiled c = compileProgram(src, Config::IlpCs);
        for (DeferralPolicy policy :
             {DeferralPolicy::General, DeferralPolicy::Sentinel}) {
            Memory mem;
            mem.initFromProgram(*c.prog);
            writeNodes(*c.prog, mem, frac);
            TimingOptions topts;
            topts.deferral = policy;
            auto r = simulate(*c.prog, mem, topts);
            if (!r.ok) {
                printf("simulation failed: %s\n", r.error.c_str());
                return 1;
            }
            printf("%-14.2f %-10s %-12llu %-12llu %-10llu\n", frac,
                   policy == DeferralPolicy::General ? "general"
                                                     : "sentinel",
                   (unsigned long long)r.pm.wild_loads,
                   (unsigned long long)r.pm.get(CycleCat::Kernel),
                   (unsigned long long)r.pm.total());
        }
    }
    printf("\nThe general model's cost scales with the wild-execution "
           "rate (no caching of\nfailed walks); sentinel stays flat — "
           "the trade the paper's %s discusses.\n", "section 4.3");
    return 0;
}
