#include "support/supervision/manifest.h"

#include <cstdio>
#include <fstream>

#include "support/io.h"
#include "support/logging.h"
#include "support/telemetry/trace.h"

namespace epic {

const char *const kManifestSchemaVersion = "epiclab.manifest.v1";

uint64_t
fnv1a(const std::string &s, uint64_t seed)
{
    uint64_t h = seed;
    for (const char c : s) {
        h ^= static_cast<uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hashHex(uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

namespace {

/**
 * Parse one manifest line into (key, record). Returns false for
 * anything malformed — the torn final line of a crashed run, a foreign
 * schema, hand-edited garbage. Keys are written through jsonEscape but
 * are generated from [A-Za-z0-9|._-] only, so reading them back needs
 * no unescaping; a key containing a backslash is rejected as foreign.
 */
bool
parseManifestLine(const std::string &line, std::string *key,
                  std::string *record)
{
    const std::string prefix = std::string("{\"schema\":\"") +
                               kManifestSchemaVersion + "\",\"key\":\"";
    if (line.size() < prefix.size() + 2 ||
        line.compare(0, prefix.size(), prefix) != 0)
        return false;
    const size_t key_begin = prefix.size();
    const size_t key_end = line.find('"', key_begin);
    if (key_end == std::string::npos)
        return false;
    *key = line.substr(key_begin, key_end - key_begin);
    if (key->find('\\') != std::string::npos)
        return false;
    const std::string rec_tag = "\",\"record\":";
    if (line.compare(key_end, rec_tag.size(), rec_tag) != 0)
        return false;
    const size_t rec_begin = key_end + rec_tag.size();
    if (line.empty() || line.back() != '}' || rec_begin >= line.size() - 1)
        return false;
    *record = line.substr(rec_begin, line.size() - 1 - rec_begin);
    return true;
}

} // namespace

size_t
RunManifest::open(const std::string &path, bool resume)
{
    std::lock_guard<std::mutex> lk(mu_);
    path_ = path;
    records_.clear();
    if (!resume) {
        std::remove(path.c_str()); // created again on the first record
        return 0;
    }
    std::ifstream in(path);
    if (!in)
        return 0; // fresh run: manifest file created on first record
    std::string line, key, record;
    size_t dropped = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (parseManifestLine(line, &key, &record))
            records_.emplace(std::move(key), std::move(record));
        else
            ++dropped;
    }
    if (dropped > 0)
        epic_warn("manifest '", path, "': dropped ", dropped,
                  " incomplete line(s)");
    return records_.size();
}

const std::string *
RunManifest::find(const std::string &key) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = records_.find(key);
    return it == records_.end() ? nullptr : &it->second;
}

void
RunManifest::record(const std::string &key, const std::string &record_json)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!records_.emplace(key, record_json).second)
        return; // resume replay: already durable
    const std::string line = std::string("{\"schema\":\"") +
                             kManifestSchemaVersion + "\",\"key\":\"" +
                             jsonEscape(key) +
                             "\",\"record\":" + record_json + "}\n";
    std::string err;
    if (!appendLineSync(path_, line, &err))
        epic_fatal("manifest append failed: ", err);
}

size_t
RunManifest::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return records_.size();
}

} // namespace epic
