#include "support/telemetry/registry.h"

#include <sstream>

namespace epic {

void
StatsRegistry::setInt(const std::string &path, int64_t v)
{
    stats_[path] = v;
}

void
StatsRegistry::addInt(const std::string &path, int64_t delta)
{
    stats_[path] += delta;
}

void
StatsRegistry::addSample(const std::string &path, int64_t v)
{
    int64_t &count = stats_[path + ".count"];
    const bool first = count == 0;
    count += 1;
    addInt(path + ".sum", v);
    int64_t &mn = stats_[path + ".min"];
    int64_t &mx = stats_[path + ".max"];
    if (first || v < mn)
        mn = v;
    if (first || v > mx)
        mx = v;
}

int64_t
StatsRegistry::getInt(const std::string &path) const
{
    auto it = stats_.find(path);
    return it == stats_.end() ? 0 : it->second;
}

void
StatsRegistry::declareSum(const std::string &name,
                          const std::string &addend_prefix,
                          const std::string &total_path,
                          const std::string &addend_suffix)
{
    invariants_.push_back({name, addend_prefix, addend_suffix, total_path});
}

namespace {

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return suffix.empty() ||
           (s.size() >= suffix.size() &&
            s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
                0);
}

} // namespace

std::vector<std::string>
StatsRegistry::checkInvariants() const
{
    std::vector<std::string> violations;
    for (const SumInvariant &inv : invariants_) {
        int64_t sum = 0;
        int matched = 0;
        // std::map is path-ordered, so the prefix range is contiguous.
        for (auto it = stats_.lower_bound(inv.addend_prefix);
             it != stats_.end() &&
             it->first.compare(0, inv.addend_prefix.size(),
                               inv.addend_prefix) == 0;
             ++it) {
            if (!endsWith(it->first, inv.addend_suffix))
                continue;
            sum += it->second;
            ++matched;
        }
        const int64_t total = getInt(inv.total_path);
        if (sum != total) {
            std::ostringstream os;
            os << "invariant '" << inv.name << "' violated: sum of "
               << matched << " stat(s) under '" << inv.addend_prefix
               << "'";
            if (!inv.addend_suffix.empty())
                os << " ending '" << inv.addend_suffix << "'";
            os << " is " << sum << ", expected " << inv.total_path
               << " = " << total;
            violations.push_back(os.str());
        }
    }
    return violations;
}

std::string
StatsRegistry::jsonObject() const
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[path, v] : stats_) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << path << "\":" << v;
    }
    os << "}";
    return os.str();
}

} // namespace epic
