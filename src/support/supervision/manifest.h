/**
 * @file
 * Crash-safe fleet-run manifest (schema `epiclab.manifest.v1`).
 *
 * A fleet run (suite x config matrix) appends one manifest line per
 * completed workload x config record, fsync'd before the task is
 * considered done (appendLineSync). Each line carries the *verbatim*
 * run-record JSON keyed by (workload, config, content hash, pipeline
 * fingerprint), so `--resume` can skip completed tasks and still
 * assemble a final artifact byte-identical to an uninterrupted run:
 * the record is replayed from the manifest, not recomputed.
 *
 * Line format (one JSON object per line):
 *
 *     {"schema":"epiclab.manifest.v1","key":"<k>","record":<json>}
 *
 * Durability contract: because every append is fsync'd, a crash (kill
 * -9 included) can tear at most the *last* line. load() therefore
 * tolerates — silently drops — a final line that does not parse; every
 * record it returns was durably complete. Keys embed a content hash of
 * the workload and a fingerprint of the pass pipeline + run options,
 * so a manifest from a different binary, config or input never
 * satisfies a resume lookup: the task simply reruns.
 */
#ifndef EPIC_SUPPORT_SUPERVISION_MANIFEST_H
#define EPIC_SUPPORT_SUPERVISION_MANIFEST_H

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace epic {

/** FNV-1a 64-bit. Seedable so hashes chain: h = fnv1a(b, fnv1a(a)). */
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
uint64_t fnv1a(const std::string &s, uint64_t seed = kFnvBasis);

/** Lowercase-hex rendering of a 64-bit hash (16 chars, for keys). */
std::string hashHex(uint64_t h);

/** The manifest schema tag written into (and required of) each line. */
extern const char *const kManifestSchemaVersion;

/**
 * One fleet run's manifest: an in-memory key -> record map mirrored to
 * an append-only JSONL file. Thread-safe — worker threads complete
 * tasks concurrently and append as they finish; on-disk line order is
 * therefore schedule-dependent, which is fine because the *artifact*
 * assembly orders records canonically, not by manifest order.
 */
class RunManifest
{
  public:
    /**
     * Bind to `path`. With `resume`, load the records already there:
     * unparseable lines are dropped (see durability contract above),
     * and a missing file is an empty manifest, not an error. Without
     * it, start an empty manifest: an existing file is removed, so no
     * earlier run's record outlives this run for a later resume to
     * replay. Returns the number of records loaded.
     */
    size_t open(const std::string &path, bool resume);

    /** Record JSON for `key`, or nullptr if not completed. */
    const std::string *find(const std::string &key) const;

    /**
     * Mark `key` complete with its verbatim record JSON: append the
     * manifest line (fsync'd — durable once this returns) and remember
     * it. A key recorded twice keeps the first record (replays during
     * resume are idempotent). Append failures are fatal: a fleet run
     * that cannot persist progress must not pretend it can.
     */
    void record(const std::string &key, const std::string &record_json);

    size_t size() const;
    const std::string &path() const { return path_; }

  private:
    mutable std::mutex mu_;
    std::string path_;
    std::unordered_map<std::string, std::string> records_;
};

} // namespace epic

#endif // EPIC_SUPPORT_SUPERVISION_MANIFEST_H
