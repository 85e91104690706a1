#include "support/telemetry/registry.h"

#include <cinttypes>
#include <cstdio>
#include <limits>
#include <sstream>

namespace epic {

void
StatsRegistry::setInt(const std::string &path, int64_t v, unsigned flags)
{
    Stat &s = stats_[path];
    s.is_float = false;
    s.i = v;
    s.flags = flags;
}

void
StatsRegistry::addInt(const std::string &path, int64_t delta,
                      unsigned flags)
{
    Stat &s = stats_[path];
    s.is_float = false;
    s.i += delta;
    s.flags = flags;
}

void
StatsRegistry::setFloat(const std::string &path, double v, unsigned flags)
{
    Stat &s = stats_[path];
    s.is_float = true;
    s.f = v;
    s.flags = flags;
}

void
StatsRegistry::addSample(const std::string &path, int64_t v,
                         unsigned flags)
{
    Stat &count = stats_[path + ".count"];
    const bool first = !count.is_float && count.i == 0;
    count.i += 1;
    count.flags = flags;
    addInt(path + ".sum", v, flags);
    Stat &mn = stats_[path + ".min"];
    Stat &mx = stats_[path + ".max"];
    if (first || v < mn.i)
        mn.i = v;
    if (first || v > mx.i)
        mx.i = v;
    mn.flags = mx.flags = flags;
}

int64_t
StatsRegistry::getInt(const std::string &path) const
{
    auto it = stats_.find(path);
    return it == stats_.end() ? 0 : it->second.i;
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
            if (it->second.is_float ||
                !endsWith(it->first, inv.addend_suffix))
                continue;
            sum += it->second.i;
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
StatsRegistry::jsonObject(bool include_volatile) const
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[path, s] : stats_) {
        if ((s.flags & kStatVolatile) && !include_volatile)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "\"" << path << "\":";
        if (s.is_float) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", s.f);
            os << buf;
        } else {
            os << s.i;
        }
    }
    os << "}";
    return os.str();
}

void
StatsRegistry::reset()
{
    for (auto &[path, s] : stats_) {
        s.i = 0;
        s.f = 0.0;
    }
}

} // namespace epic
