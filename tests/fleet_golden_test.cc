/**
 * @file
 * Golden simulated statistics for the whole fleet: every workload under
 * every rung (GCC .. ILP-CS-DS), in detailed and in sampled timing mode,
 * plus the source-truth and profile runs that precede them.
 *
 * Each timing sim is pinned by an FNV-1a digest of its serialized
 * Perfmon (every cycle category, every counter, the per-function
 * cycles); the sampled digest also covers the SampledStats estimate.
 * The functional runs are pinned by their checksum and a digest of
 * their dyn_* counters. A change meant to make the simulators faster
 * must leave every value here unchanged; a deliberate change to what
 * they compute re-pins them (the failure message prints the new row).
 *
 * One test per workload, so `ctest -j` spreads the fleet over the CPUs.
 */
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>

#include "driver/compiler.h"
#include "sim/checkpoint.h"
#include "sim/interp.h"
#include "sim/timing.h"
#include "support/supervision/manifest.h"
#include "workloads/workload.h"

namespace epic {
namespace {

constexpr int kRungs = 5;
constexpr Config kRungConfigs[kRungs] = {Config::Gcc, Config::ONS,
                                         Config::IlpNs, Config::IlpCs,
                                         Config::IlpCsDs};

struct FleetGolden
{
    const char *workload;
    int64_t checksum;       ///< source-truth result on the ref input
    const char *functional; ///< source-truth + profile run counters
    std::array<const char *, kRungs> detailed; ///< Perfmon digests
    std::array<const char *, kRungs> sampled;  ///< Perfmon + estimate
};

/** Print the parameter by value (stable test names, see decode_test). */
void
PrintTo(const FleetGolden &g, std::ostream *os)
{
    *os << g.workload;
}

/** Checksum and dyn_* counters of one functional run. */
std::string
interpCounters(const InterpResult &r)
{
    std::ostringstream os;
    os << r.ret_value << ' ' << r.dyn_instrs << ' ' << r.dyn_executed
       << ' ' << r.dyn_squashed << ' ' << r.dyn_loads << ' '
       << r.dyn_stores << ' ' << r.dyn_branches << ' ' << r.dyn_calls
       << ' ' << r.wild_loads << ' ' << r.null_page_loads << ' '
       << r.deferred_loads << ';';
    return os.str();
}

/** Digest of a timing run: the Perfmon blob, plus the sampled-mode
 *  estimate when the run was sampled. */
std::string
timingDigest(const TimingResult &r)
{
    CkptWriter w;
    saveState(w, r.pm);
    if (r.sampled.enabled) {
        const SampledStats &s = r.sampled;
        w.u64(s.windows);
        w.u64(s.head_ops);
        w.u64(s.detail_ops);
        w.u64(s.detail_cycles);
        w.u64(s.total_ops);
        for (const uint64_t c : s.est_cycles)
            w.u64(c);
        w.u64(s.est_total);
    }
    return hashHex(fnv1a(w.take()));
}

TimingResult
simulateRef(const Workload &w, Program &prog, const TimingOptions &topts)
{
    Memory mem;
    mem.initFromProgram(prog);
    w.write_input(prog, mem, InputKind::Ref);
    return simulate(prog, mem, topts);
}

/** A golden-table row, laid out the way the table below spells it. */
template <typename Digest>
std::string
goldenRow(const std::string &workload, int64_t checksum,
          const std::string &functional,
          const std::array<Digest, kRungs> &detailed,
          const std::array<Digest, kRungs> &sampled)
{
    std::ostringstream os;
    os << "FleetGolden{\n    \"" << workload << "\", " << checksum
       << ", \"" << functional << "\",";
    for (const auto *digests : {&detailed, &sampled}) {
        os << "\n    {";
        for (int i = 0; i < kRungs; ++i)
            os << (i == 0 ? "" : i == 3 ? ",\n     " : ", ") << '"'
               << (*digests)[i] << '"';
        os << '}';
    }
    os << "},";
    return os.str();
}

class FleetGoldenTest : public ::testing::TestWithParam<FleetGolden>
{
};

TEST_P(FleetGoldenTest, SimulatedStatsMatch)
{
    const FleetGolden &g = GetParam();
    const Workload *w = findWorkload(g.workload);
    ASSERT_NE(w, nullptr);

    // Source truth (ref input), then the profile run (train input) on
    // the same build, as prepareWorkload() does.
    auto prog = w->build();
    prog->layoutData();
    std::string functional;
    int64_t checksum = 0;
    {
        Memory mem;
        mem.initFromProgram(*prog);
        w->write_input(*prog, mem, InputKind::Ref);
        const InterpResult r = interpret(*prog, mem);
        ASSERT_TRUE(r.ok) << r.error;
        checksum = r.ret_value;
        functional += interpCounters(r);
    }
    {
        Memory mem;
        mem.initFromProgram(*prog);
        w->write_input(*prog, mem, InputKind::Train);
        const InterpResult r = profileRun(*prog, mem);
        ASSERT_TRUE(r.ok) << r.error;
        functional += interpCounters(r);
    }

    TimingOptions sampled;
    sampled.sim_mode = SimMode::Sampled;
    sampled.ff_functional = 400000;
    sampled.detail_window = 200000;

    std::array<std::string, kRungs> det, smp;
    for (int i = 0; i < kRungs; ++i) {
        const char *rung = configName(kRungConfigs[i]);
        Compiled c = compileProgram(*prog, kRungConfigs[i]);
        ASSERT_TRUE(c.fallback.clean()) << rung;
        const TimingResult d = simulateRef(*w, *c.prog, {});
        ASSERT_TRUE(d.ok) << rung << ": " << d.error;
        EXPECT_EQ(d.ret_value, checksum) << rung << " detailed";
        det[i] = timingDigest(d);
        const TimingResult s = simulateRef(*w, *c.prog, sampled);
        ASSERT_TRUE(s.ok) << rung << ": " << s.error;
        EXPECT_EQ(s.ret_value, checksum) << rung << " sampled";
        smp[i] = timingDigest(s);
    }

    // One row per workload, in the table's own syntax: a mismatch
    // shows which digest moved, and a deliberate re-pin pastes `got`.
    const std::string got = goldenRow(g.workload, checksum,
                                      hashHex(fnv1a(functional)), det, smp);
    const std::string want = goldenRow(g.workload, g.checksum,
                                       g.functional, g.detailed, g.sampled);
    EXPECT_EQ(got, want);
}

// Pinned from a Release build. Regenerate deliberately (never to
// silence a failure) when the workloads, the compiler or the machine
// model change what is simulated.
INSTANTIATE_TEST_SUITE_P(
    Fleet, FleetGoldenTest,
    ::testing::Values(
        FleetGolden{
            "164.gzip", 58958737, "3f45a7c7d2112419",
            {"9e28ece421f7c986", "18ff0bb67d56b6fd", "f67ac6ce49e73643",
             "3293e3e049219c54", "2ace36a03350f422"},
            {"7f508c857ad8f7ad", "2938e4c2687bae2e", "84f81a83f820511c",
             "02762b31ccffa537", "e8427622526d86bd"}},
        FleetGolden{
            "175.vpr", 190226661, "b36d852a1e03a546",
            {"1f0eb15047fb7b04", "f0119c95b3226baf", "0fd28790470f33b3",
             "0fd28790470f33b3", "0fd28790470f33b3"},
            {"e30e3d540c866d50", "0e5659c062211acd", "9d487ec5fedbdf4d",
             "9d487ec5fedbdf4d", "9d487ec5fedbdf4d"}},
        FleetGolden{
            "176.gcc", 1704135950, "8b01a704dfff7a81",
            {"ee74075be2ad6f05", "d2238e30df2fcd6d", "3374c0c26002c41b",
             "d9e13d4fdfdbf488", "d9e13d4fdfdbf488"},
            {"e18fb735a80fc71b", "3e0a7f488800923a", "8a6a0a1ea4bbd6a9",
             "c06e48def7e61a4c", "c06e48def7e61a4c"}},
        FleetGolden{
            "181.mcf", 621452, "d4edfa2c8549c981",
            {"9d91963f50b0d834", "604535a2ab99c018", "cddf7d2da642019a",
             "4b0789ff495c101b", "4b0789ff495c101b"},
            {"72681aeb3551646a", "453370413ccfae52", "cbd9569d26f5bd76",
             "503c66c748ee4080", "503c66c748ee4080"}},
        FleetGolden{
            "186.crafty", 2727869172, "887ab5e184221a4d",
            {"4a05ad5ff0e59261", "8b2e98c0bb0ddc72", "a68a8a3bc4dc757a",
             "8b549956fbc01038", "8b549956fbc01038"},
            {"199ec936b8b013c9", "53437f7d088594a6", "b3a65a7dee8549f3",
             "bfe77e55e9f03a39", "bfe77e55e9f03a39"}},
        FleetGolden{
            "197.parser", 1991044872, "f99a9e1c264544bc",
            {"493685a29cfac869", "f67ff2e968602b47", "d3db5bde0e879c0d",
             "64ec6e68484455e4", "64ec6e68484455e4"},
            {"c7186638e8c61827", "67b5c0576cbae7b6", "5af0945234022beb",
             "31820bd0d9ce3695", "31820bd0d9ce3695"}},
        FleetGolden{
            "252.eon", 4253680559, "d45ebce30e619e26",
            {"0bd2dd55ff7b516b", "6962512fc9727d78", "1e3b62a28b82b067",
             "35d6894d82b73a9e", "35d6894d82b73a9e"},
            {"0a39231875d1ab3c", "b323af4b30b29ae3", "b8d46dd9a5745daa",
             "5e8ffe20595ddbc1", "5e8ffe20595ddbc1"}},
        FleetGolden{
            "253.perlbmk", 2023462672, "fdf20fe2c34e2c7f",
            {"45d06791bf064750", "49e791a89916de1f", "e778c9a4c3df3877",
             "abc978feb9c715c0", "abc978feb9c715c0"},
            {"ae5c80327bb0cf05", "6fa86d95779d33b0", "1cb7cb01f12ca51f",
             "5b11c9939a89ade2", "5b11c9939a89ade2"}},
        FleetGolden{
            "254.gap", 2403946232, "32410de2d9d42a99",
            {"c41755d18c89f4d2", "d44a490b52fce23a", "5eb0a78b6a9e3763",
             "394320700fe182d2", "6bd8b2578e6542ee"},
            {"cbcbf4df6776f9f8", "19deaae2638c96ad", "2fd4cdb2fa5e9743",
             "725caf93f268c4c5", "27797e5584a8395a"}},
        FleetGolden{
            "255.vortex", 3759600883, "67265734d484ab70",
            {"97b62cdd1b70dcd1", "cbc6c6b616919949", "a21a2a9c310a0759",
             "1c9c61c3b91b4793", "1c9c61c3b91b4793"},
            {"446ce9911c5fc1b8", "3af8792df46e9b23", "cf1acc1915f2aff7",
             "8a5e4d2998da36a8", "8a5e4d2998da36a8"}},
        FleetGolden{
            "256.bzip2", 1641615149, "77c7bf54eb021840",
            {"b47230f6443e13c1", "e909a75f315f82e0", "e5f0b00bd715fa78",
             "6ee5dc8f1bca6a6c", "fc45a365e213ee82"},
            {"3596ff0540f4ea01", "d6bc750bf4ab6ecb", "6518df60b26613e4",
             "1f42d0f1b5710643", "9dae71222f5b9e08"}},
        FleetGolden{
            "300.twolf", 356501205, "dbaf851d4680bca3",
            {"bf997d78e37ca7fb", "becc2e081219b934", "307f95633c210b64",
             "2f80393049d9ad23", "2f80393049d9ad23"},
            {"0df4f16ab4d4f040", "e41b8232467cd232", "f9493d0a9e563459",
             "c0ba40e2410643c1", "c0ba40e2410643c1"}}),
    [](const ::testing::TestParamInfo<FleetGolden> &info) {
        std::string n = info.param.workload;
        for (char &ch : n)
            if (ch == '.')
                ch = '_';
        return n;
    });

} // namespace
} // namespace epic
