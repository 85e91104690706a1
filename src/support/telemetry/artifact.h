/**
 * @file
 * Structured run artifacts: the bridge from EpicLab's existing stat
 * structs (Perfmon, CompileStats, PipelineStats, FallbackReport) onto
 * the hierarchical StatsRegistry, and the schema-versioned JSONL
 * records that `epiclab_run --json` emits.
 *
 * One JSONL record describes one (workload × config) run and carries
 * the full deterministic registry snapshot; the configuration-rung axis
 * of the compile pipeline appears inside the snapshot as the per-pass
 * paths `compile.pass.<pass>.<rung>.*` (every rung a degrading function
 * attempted is present). Wall times are registered volatile and never
 * reach the artifact, so the bytes are identical for any `--jobs N`:
 * records are produced post-join, in suite × config index order.
 *
 * Declared invariants travel with the registry and are checked when an
 * artifact is built:
 *  - cycle-categories-sum: Figure 5 categories sum to sim.cycles_total
 *  - operation-accounting-sum: Figure 6 op classes sum to sim.ops_total
 *  - pass-deltas-sum (clean compilations): per-pass instruction deltas,
 *    inline included, sum to compile.instr_delta_total = final − source
 *  - fallback-rung-sum: per-rung fallback counts sum to
 *    firewall.fallbacks_total
 *  - pmu-* (PMU-enabled runs only): every PMU stream reconciles exactly
 *    with its end-of-run total — per-category interval-sample sums with
 *    sim.cycles.<cat>, sampled counter sums with their sim.* totals,
 *    branch-profile sums with sim.branch.*, per-category region sums
 *    with sim.cycles.<cat> (DESIGN.md §17)
 *
 * PMU-enabled runs additionally emit a second artifact: the
 * `epiclab.samples.v1` JSONL time-series (one line per interval sample
 * per workload × config, same post-join index order, --jobs invariant).
 */
#ifndef EPIC_SUPPORT_TELEMETRY_ARTIFACT_H
#define EPIC_SUPPORT_TELEMETRY_ARTIFACT_H

#include <string>
#include <vector>

#include "support/telemetry/registry.h"

namespace epic {

struct Perfmon;
struct CompileStats;
struct PipelineStats;
struct FallbackReport;
struct ConfigRun;
struct WorkloadRuns;
struct SampledStats;
enum class Config;

class PmuData;

/** Schema tag carried by every JSONL run record. */
extern const char *const kRunSchemaVersion;

/** Schema tag carried by every JSONL interval-sample record. */
extern const char *const kSamplesSchemaVersion;

/** Register every Perfmon counter under `sim.*` (+ sum invariants). */
void recordPerfmon(StatsRegistry &reg, const Perfmon &pm);

/**
 * Register PMU streams under `pmu.*` with one declared equality
 * invariant per stream×category reconciling sampled sums against the
 * end-of-run Perfmon totals (requires recordPerfmon to have registered
 * the `sim.*` totals in the same registry).
 */
void recordPmu(StatsRegistry &reg, const PmuData &pmu);

/**
 * Register compile counters under `compile.*`: headline transform
 * stats, per-(pass, rung) pipeline instrumentation (wall times
 * volatile), and — when the compilation was clean (no abandoned
 * rungs) — the pass-deltas-sum invariant.
 */
void recordCompile(StatsRegistry &reg, const CompileStats &stats,
                   const PipelineStats &pipe, int instrs_source,
                   int instrs_final, bool clean);

/**
 * Register sampled-mode extrapolation under `sim.sampled.*` — only for
 * sampled runs (detailed-mode artifacts keep their legacy bytes). The
 * estimates live in their own namespace, never under sim.cycles.*, so
 * an extrapolation can't be mistaken for a measured total; the declared
 * invariant checks the estimate's internal cross-foot.
 */
void recordSampled(StatsRegistry &reg, const SampledStats &s);

/** Register firewall outcome under `firewall.*` (+ rung invariant). */
void recordFallback(StatsRegistry &reg, const FallbackReport &fb);

/**
 * Register supervision outcome under `supervision.*` — only when the
 * run was eventful (retried, degraded, failed, or checkpointed), so
 * quiet runs keep their legacy artifact bytes.
 */
void recordSupervision(StatsRegistry &reg, const ConfigRun &r);

/** Full registry for one configuration run (all of the above). */
StatsRegistry buildRunRegistry(const ConfigRun &r);

/** One JSONL record (no trailing newline) for one configuration run. */
std::string runRecordJson(const std::string &workload,
                          int64_t source_checksum, const ConfigRun &r);

/**
 * All records for a suite result, one line per (workload × config) in
 * index order — deterministic and byte-identical for any --jobs value.
 * Invariant violations (prefixed with the offending workload/config)
 * are appended to `violations` when non-null.
 */
std::string suiteArtifact(const std::vector<WorkloadRuns> &suite,
                          const std::vector<Config> &configs,
                          std::vector<std::string> *violations);

/**
 * The `epiclab.samples.v1` interval time-series for a suite result:
 * one JSONL line per retained sample of every PMU-enabled (workload ×
 * config) run, in the same index order as suiteArtifact — byte-identical
 * for any --jobs value. Runs without PMU data contribute no lines.
 * Reconciliation violations (sample sums vs Perfmon totals) are
 * appended to `violations` when non-null.
 */
std::string samplesArtifact(const std::vector<WorkloadRuns> &suite,
                            const std::vector<Config> &configs,
                            std::vector<std::string> *violations);

/** Write samplesArtifact to `path` atomically (fatal on I/O error),
 *  epic_warn each reconciliation violation; true when all reconcile. */
bool writeSamplesArtifact(const std::string &path,
                          const std::vector<WorkloadRuns> &suite,
                          const std::vector<Config> &configs);

} // namespace epic

#endif // EPIC_SUPPORT_TELEMETRY_ARTIFACT_H
