#include "sched/listsched.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "analysis/manager.h"
#include "sched/dag.h"
#include "support/logging.h"

namespace epic {

namespace {

/// Most ops one issue group can hold: two bundles of three slots.
constexpr int kMaxGroupOps = 6;
constexpr int kNumFuClasses = 5;
/// FU-class sequences of 0..kMaxGroupOps ops (sum of 5^k: 19,531).
constexpr int kNumFuSeqs = [] {
    int n = 0;
    for (int k = 0, seqs = 1; k <= kMaxGroupOps; ++k, seqs *= kNumFuClasses)
        n += seqs;
    return n;
}();

/**
 * A packing choice: how many bundles (0: infeasible) and their
 * templates. Encoded as 1 | bundles << 1 | t1 << 3 | t2 << 7 so that 0
 * marks a cache slot not filled yet.
 */
struct PackChoice
{
    int bundles = 0;
    int tmpl[2] = {0, 0};

    uint16_t
    encode() const
    {
        return static_cast<uint16_t>(1 | bundles << 1 | tmpl[0] << 3 |
                                     tmpl[1] << 7);
    }
    static PackChoice
    decode(uint16_t v)
    {
        return {(v >> 1) & 3, {(v >> 3) & 15, (v >> 7) & 15}};
    }
};
static_assert(kNumTemplates <= 16, "template index needs 4 bits");

/**
 * Greedy in-order matcher: place `fu[0..n)` into the bundles of `c` in
 * slot order, each op in the first slot it fits from where the previous
 * one went. Calls place(bundle, slot, op) per filled slot; true when
 * every op found a slot.
 */
template <typename Place>
bool
matchSlots(const FuClass *fu, int n, const PackChoice &c, Place place)
{
    int next = 0;
    for (int k = 0; k < c.bundles; ++k)
        for (int s = 0; s < 3; ++s)
            if (next < n &&
                fuFitsSlot(fu[next], kTemplates[c.tmpl[k]].slots[s]))
                place(k, s, next++);
    return next == n;
}

/**
 * The template search: every one-bundle template, then (when two
 * bundles are allowed and there are two or more ops) every two-bundle
 * pair, keeping the fewest bundles and then the fewest NOPs. A packing
 * that fits leaves 3 * bundles - n NOPs, so the first fit of the
 * smallest bundle count wins.
 */
PackChoice
searchPacking(const FuClass *fu, int n, bool two_bundles)
{
    auto nothing = [](int, int, int) {};
    for (int t1 = 0; t1 < kNumTemplates; ++t1) {
        PackChoice c{1, {t1, 0}};
        if (matchSlots(fu, n, c, nothing))
            return c;
    }
    if (two_bundles && n > 1) {
        for (int t1 = 0; t1 < kNumTemplates; ++t1)
            for (int t2 = 0; t2 < kNumTemplates; ++t2) {
                PackChoice c{2, {t1, t2}};
                if (matchSlots(fu, n, c, nothing))
                    return c;
            }
    }
    return {};
}

/**
 * searchPacking() memoized per (FU-class sequence, one or two bundles).
 * Slots fill on first use: filling all 39,062 up front would cost a
 * search per key in every process, and most keys never occur. Each slot
 * is an atomic that concurrent compiles may fill twice, always with the
 * same value.
 */
PackChoice
cachedPacking(const FuClass *fu, int n, int max_bundles)
{
    if (n > kMaxGroupOps)
        return {};
    static std::atomic<uint16_t> cache[2][kNumFuSeqs];
    int key = 0, base = 0, pow = 1;
    for (int k = 0; k < n; ++k) {
        key += static_cast<int>(fu[k]) * pow;
        base += pow;
        pow *= kNumFuClasses;
    }
    const bool two = max_bundles >= 2;
    std::atomic<uint16_t> &slot = cache[two][base + key];
    uint16_t v = slot.load();
    if (v == 0) {
        v = searchPacking(fu, n, two).encode();
        slot.store(v);
    }
    return PackChoice::decode(v);
}

/** The FU classes of `ops`, or false when there are too many to pack. */
bool
fuClassesOf(const BasicBlock &b, const std::vector<int> &ops,
            FuClass (&fu)[kMaxGroupOps])
{
    if (ops.size() > static_cast<size_t>(kMaxGroupOps))
        return false;
    for (size_t k = 0; k < ops.size(); ++k)
        fu[k] = b.instrs[ops[k]].info().fu;
    return true;
}

/** Does packGroup() find a packing for `ops`? */
bool
packs(const BasicBlock &b, const std::vector<int> &ops, int max_bundles)
{
    FuClass fu[kMaxGroupOps];
    return fuClassesOf(b, ops, fu) &&
           cachedPacking(fu, static_cast<int>(ops.size()), max_bundles)
                   .bundles > 0;
}

/** Dispersal counters for group feasibility. */
struct GroupRes
{
    int loads = 0, stores = 0, m_only = 0, i_only = 0, f = 0, br = 0,
        a = 0, total = 0;

    bool
    feasible(const MachineConfig &m) const
    {
        if (total > m.issue_width || total > m.max_ops_per_group)
            return false;
        if (loads > m.max_loads || stores > m.max_stores)
            return false;
        if (m_only > m.m_ports || i_only > m.i_ports)
            return false;
        if (f > m.f_ports || br > m.b_ports)
            return false;
        // A-type ops take leftover I then M ports.
        int i_free = m.i_ports - i_only;
        int m_free = m.m_ports - m_only;
        if (a > i_free + m_free)
            return false;
        return true;
    }

    void
    add(const Instruction &inst)
    {
        ++total;
        const OpcodeInfo &info = inst.info();
        if (info.is_load)
            ++loads;
        if (info.is_store)
            ++stores;
        switch (info.fu) {
          case FuClass::M: ++m_only; break;
          case FuClass::I: ++i_only; break;
          case FuClass::F: ++f; break;
          case FuClass::B: ++br; break;
          case FuClass::A: ++a; break;
        }
    }
};

SchedStats
scheduleBlock(const Function &f, BasicBlock &b, AnalysisManager &am,
              const MachineConfig &mach)
{
    SchedStats stats;
    stats.blocks = 1;
    b.bundles.clear();
    int n = static_cast<int>(b.instrs.size());
    if (n == 0)
        return stats;

    const PredRelations &prel = am.predRelations(b.id);
    DepDag dag(f, b, am.alias(), mach, prel);

    std::vector<int> ready_cycle(n, 0);  ///< earliest legal cycle
    std::vector<int> unsched_preds(n, 0);
    for (int i = 0; i < n; ++i)
        unsched_preds[i] = static_cast<int>(dag.predEdges(i).size());

    std::vector<int> ready;
    for (int i = 0; i < n; ++i)
        if (unsched_preds[i] == 0)
            ready.push_back(i);

    // Slot order within a group: non-branches before branches, both in
    // source order.
    auto slot_order = [&](int x, int y) {
        bool bx = b.instrs[x].isBranch();
        bool by = b.instrs[y].isBranch();
        if (bx != by)
            return !bx;
        return x < y;
    };

    int scheduled = 0;
    int cycle = 0;
    std::vector<std::vector<int>> groups;
    std::vector<int> cands, trial_group;

    while (scheduled < n) {
        std::vector<int> group;
        GroupRes res;

        // Fill the group greedily; committing an op can make a zero-
        // latency successor (e.g. the branch guarded by a just-placed
        // compare) ready in the same cycle, so iterate to a fixpoint.
        bool progress = true;
        while (progress) {
            progress = false;
            cands.clear();
            for (int i : ready)
                if (ready_cycle[i] <= cycle)
                    cands.push_back(i);
            if (mach.source_order_scheduling) {
                std::sort(cands.begin(), cands.end());
            } else {
                std::sort(cands.begin(), cands.end(), [&](int x, int y) {
                    if (dag.height(x) != dag.height(y))
                        return dag.height(x) > dag.height(y);
                    return x < y;
                });
            }
            for (int i : cands) {
                GroupRes trial = res;
                trial.add(b.instrs[i]);
                if (!trial.feasible(mach)) {
                    if (mach.source_order_scheduling)
                        break; // strict in-order fill: no skipping ahead
                    continue;
                }
                // Tentative pack check (branch placement, templates).
                trial_group = group;
                trial_group.insert(std::lower_bound(trial_group.begin(),
                                                    trial_group.end(), i,
                                                    slot_order),
                                   i);
                if (!packs(b, trial_group, mach.max_bundles_per_group)) {
                    if (mach.source_order_scheduling)
                        break;
                    continue;
                }
                group.swap(trial_group);
                res = trial;
                // Commit the op so its successors can become ready.
                b.instrs[i].sched_cycle = cycle;
                ++scheduled;
                ready.erase(std::find(ready.begin(), ready.end(), i));
                for (int ei : dag.succEdges(i)) {
                    const DagEdge &e = dag.edges()[ei];
                    ready_cycle[e.to] = std::max(ready_cycle[e.to],
                                                 cycle + e.latency);
                    if (--unsched_preds[e.to] == 0)
                        ready.push_back(e.to);
                }
                progress = true;
                break; // re-gather candidates
            }
        }

        if (!group.empty()) {
            groups.push_back(std::move(group));
            ++stats.groups;
        } else {
            // Nothing issued: latency gap. The gap still costs a planned
            // cycle (the machine will stall on use), so count it.
            ++stats.groups;
        }
        ++cycle;
        epic_assert(cycle < 100000, "scheduler livelock in ", f.name);
    }

    // Emit bundles.
    for (const std::vector<int> &group : groups) {
        auto packed = packGroup(b, group, mach.max_bundles_per_group);
        epic_assert(packed.has_value(), "group unpackable post-hoc");
        for (Bundle &bun : *packed) {
            for (int16_t s : bun.slots) {
                if (s == kSlotNop)
                    ++stats.nops;
                else
                    ++stats.ops;
            }
            ++stats.bundles;
            b.bundles.push_back(bun);
        }
    }

    stats.weighted_groups =
        static_cast<long long>(stats.groups * std::max(b.weight, 0.0));
    stats.weighted_ops =
        static_cast<long long>(stats.ops * std::max(b.weight, 0.0));
    return stats;
}

} // namespace

std::optional<std::vector<Bundle>>
packGroup(const BasicBlock &b, const std::vector<int> &ops, int max_bundles)
{
    FuClass fu[kMaxGroupOps];
    if (!fuClassesOf(b, ops, fu))
        return std::nullopt;
    const int n = static_cast<int>(ops.size());
    const PackChoice c = cachedPacking(fu, n, max_bundles);
    if (c.bundles == 0)
        return std::nullopt;
    std::vector<Bundle> out(c.bundles);
    for (int k = 0; k < c.bundles; ++k)
        out[k].tmpl = static_cast<uint8_t>(c.tmpl[k]);
    matchSlots(fu, n, c, [&](int k, int s, int op) {
        out[k].slots[s] = static_cast<int16_t>(ops[op]);
    });
    out.back().stop_after = true;
    return out;
}

SchedStats
scheduleFunction(Function &f, AnalysisManager &am, const MachineConfig &mach)
{
    SchedStats total;
    for (auto &bp : f.blocks)
        if (bp)
            total += scheduleBlock(f, *bp, am, mach);
    return total;
}

} // namespace epic
