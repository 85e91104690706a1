/**
 * @file
 * Workload registry (SPEC order).
 */
#include "workloads/workload.h"

namespace epic {

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> kSuite = [] {
        std::vector<Workload> v;
        v.push_back(makeGzip());
        v.push_back(makeVpr());
        v.push_back(makeGcc());
        v.push_back(makeMcf());
        v.push_back(makeCrafty());
        v.push_back(makeParser());
        v.push_back(makeEon());
        v.push_back(makePerlbmk());
        v.push_back(makeGap());
        v.push_back(makeVortex());
        v.push_back(makeBzip2());
        v.push_back(makeTwolf());
        return v;
    }();
    return kSuite;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : allWorkloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::vector<const Workload *>
selectWorkloads(const std::vector<std::string> &patterns)
{
    std::vector<const Workload *> out;
    for (const Workload &w : allWorkloads()) {
        bool take = patterns.empty();
        for (const std::string &pat : patterns)
            if (w.name.find(pat) != std::string::npos)
                take = true;
        if (take)
            out.push_back(&w);
    }
    return out;
}

} // namespace epic
