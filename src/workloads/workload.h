/**
 * @file
 * The synthetic SPECint2000 stand-in suite (DESIGN.md §5).
 *
 * Each workload builds an IR program engineered to exhibit the specific
 * behaviour the paper attributes to its SPEC counterpart (mcf's pointer
 * chasing, gcc's wild loads and code footprint, crafty's serial low-trip
 * loops, vortex's library calls, bzip2's store-to-load conflicts, ...).
 * Programs read their inputs from data symbols that are filled into the
 * memory image by writeInput() — with distinct *train* and *ref*
 * variants, so profile feedback is collected on a different input than
 * the measured run (SPEC methodology, and the §4.6 profile-variation
 * experiment).
 */
#ifndef EPIC_WORKLOADS_WORKLOAD_H
#define EPIC_WORKLOADS_WORKLOAD_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/program.h"
#include "sim/memory.h"

namespace epic {

/** Which input set to install. */
enum class InputKind { Train, Ref };

/** One synthetic benchmark. */
struct Workload
{
    std::string name;        ///< e.g. "164.gzip"
    std::string signature;   ///< one-line behavioural description

    /// SPEC reference-time stand-in used to scale ratios in Table 1
    /// (arbitrary units; larger = longer nominal reference run).
    double ref_time = 1.0;

    /// Build the (unoptimized, unprofiled) program.
    std::function<std::unique_ptr<Program>()> build;

    /// Install an input set into an initialized memory image.
    std::function<void(const Program &, Memory &, InputKind)> write_input;
};

/** The whole suite, in SPEC order. */
const std::vector<Workload> &allWorkloads();

/** Lookup by (exact) name; null when absent. */
const Workload *findWorkload(const std::string &name);

/**
 * The workloads whose name contains any of `patterns`, in suite order;
 * the whole suite when `patterns` is empty (`--only`).
 */
std::vector<const Workload *>
selectWorkloads(const std::vector<std::string> &patterns);

// Individual constructors (one per translation unit).
Workload makeGzip();
Workload makeVpr();
Workload makeGcc();
Workload makeMcf();
Workload makeCrafty();
Workload makeParser();
Workload makeEon();
Workload makePerlbmk();
Workload makeGap();
Workload makeVortex();
Workload makeBzip2();
Workload makeTwolf();

} // namespace epic

#endif // EPIC_WORKLOADS_WORKLOAD_H
