/**
 * @file
 * Hierarchical statistics registry (gem5-style stats discipline).
 *
 * Counters and scalars are registered under dotted paths —
 * `sim.cycles.front_end_bubble`, `compile.pass.hyperblock.ILP-CS.runs`,
 * `firewall.fallbacks.ILP-NS` — in one flat, canonically-ordered
 * namespace. Alongside the values, a registry carries *declared
 * invariants*: sum constraints ("every stat under `sim.cycles.` sums to
 * `sim.cycles_total`", "per-pass instruction deltas sum to
 * `compile.instr_delta_total`") that are checked at serialization
 * time, so a counter that silently drifts out of its category breaks
 * the run loudly instead of skewing a figure quietly.
 *
 * Every value is a deterministic integer: the JSONL run artifacts carry
 * them, and byte-identity across --jobs is checked on them. Measured
 * wall times stay in PipelineStats and the trace timeline.
 *
 * The registry is a value type: experiment code builds one per run
 * record from the existing stat structs (Perfmon, PipelineStats,
 * FallbackReport, CompileStats — see telemetry/artifact.h), which keep
 * their public accessors unchanged.
 */
#ifndef EPIC_SUPPORT_TELEMETRY_REGISTRY_H
#define EPIC_SUPPORT_TELEMETRY_REGISTRY_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace epic {

/** Named counters/scalars plus declared invariants. */
class StatsRegistry
{
  public:
    /**
     * Declared sum constraint: every integer stat whose path starts
     * with `addend_prefix` (and, when non-empty, ends with
     * `addend_suffix`) must sum to the value at `total_path`.
     */
    struct SumInvariant
    {
        std::string name;
        std::string addend_prefix;
        std::string addend_suffix;
        std::string total_path;
    };

    // ---- Registration / update ----
    void setInt(const std::string &path, int64_t v);
    void addInt(const std::string &path, int64_t delta);

    /**
     * Distribution sample over an integer domain: maintains
     * `path.count`, `path.sum`, `path.min`, `path.max` sub-stats.
     */
    void addSample(const std::string &path, int64_t v);

    // ---- Lookup ----
    /** Integer value at `path`; 0 when absent (like a zero counter). */
    int64_t getInt(const std::string &path) const;

    // ---- Invariants ----
    void declareSum(const std::string &name,
                    const std::string &addend_prefix,
                    const std::string &total_path,
                    const std::string &addend_suffix = "");

    /**
     * Check every declared invariant; returns one human-readable
     * violation string per failure (empty = all hold). Called by the
     * artifact writers.
     */
    std::vector<std::string> checkInvariants() const;

    // ---- Serialization / reset ----
    /**
     * Deterministic flat JSON object of the registry:
     * `{"a.b":1,"a.c":2}` in canonical path order.
     */
    std::string jsonObject() const;

    /** Zero every value; registrations and invariants survive. */
    void reset();

  private:
    std::map<std::string, int64_t> stats_;
    std::vector<SumInvariant> invariants_;
};

} // namespace epic

#endif // EPIC_SUPPORT_TELEMETRY_REGISTRY_H
