#include "sched/dag.h"

#include <algorithm>
#include <array>
#include <utility>

#include "analysis/liveness.h"
#include "support/logging.h"

namespace epic {

namespace {

/**
 * Guard used for disjointness filtering. An unc-type compare writes its
 * destinations even when its guard is false, so for dependence purposes
 * it behaves as unconditional.
 */
Reg
effectiveGuard(const Instruction &inst)
{
    if ((inst.op == Opcode::CMP || inst.op == Opcode::CMPI) &&
        inst.ctype == CmpType::Unc) {
        return kPrTrue;
    }
    return inst.guard;
}

bool
isCmpOp(const Instruction &inst)
{
    return inst.op == Opcode::CMP || inst.op == Opcode::CMPI;
}

} // namespace

DepDag::DepDag(const Function &f, const BasicBlock &b,
               const AliasAnalysis &aa, const MachineConfig &mach,
               const PredRelations &prel)
    : n_(static_cast<int>(b.instrs.size()))
{
    pred_off_.assign(n_ + 1, 0);
    heights_.assign(n_, 0);

    // Each instruction's defs and uses, computed once: instruction k's
    // are [off[k], off[k + 1]) of the flat arrays, and occurrence o of
    // `defs` belongs to instruction def_at[o] (likewise for `uses`).
    std::vector<Reg> defs, uses, tmp;
    std::vector<int> def_off(n_ + 1, 0), use_off(n_ + 1, 0), def_at, use_at;
    for (int k = 0; k < n_; ++k) {
        instrDefs(b.instrs[k], tmp);
        defs.insert(defs.end(), tmp.begin(), tmp.end());
        def_at.insert(def_at.end(), tmp.size(), k);
        def_off[k + 1] = static_cast<int>(defs.size());
        instrUses(b.instrs[k], tmp);
        uses.insert(uses.end(), tmp.begin(), tmp.end());
        use_at.insert(use_at.end(), tmp.size(), k);
        use_off[k + 1] = static_cast<int>(uses.size());
    }
    auto span = [](const std::vector<Reg> &v, const std::vector<int> &off,
                   int k) {
        return Span<const Reg>{v.data() + off[k],
                               static_cast<uint32_t>(off[k + 1] - off[k])};
    };

    // Earlier occurrences of each register, newest first: a register's
    // slot (dense, per class) holds its latest def and latest use
    // occurrence so far, and each occurrence links to the previous one
    // of the same register and kind (-1 ends a chain).
    std::array<int, kNumRegClasses + 1> slot_base{};
    for (const std::vector<Reg> *v : {&defs, &uses})
        for (Reg r : *v) {
            int &top = slot_base[static_cast<int>(r.cls) + 1];
            top = std::max(top, r.id + 1);
        }
    for (int c = 0; c < kNumRegClasses; ++c)
        slot_base[c + 1] += slot_base[c];
    auto slot = [&](Reg r) {
        return slot_base[static_cast<int>(r.cls)] + r.id;
    };
    std::vector<int> last_def(slot_base.back(), -1);
    std::vector<int> last_use(slot_base.back(), -1);
    std::vector<int> prev_def(defs.size()), prev_use(uses.size());
    // Where each register's chains may stop (see the walk below): the
    // nearest def of it whose effective guard is p0 (-1: none yet), and
    // the earliest def of it with a latency above 1 (n_: none).
    std::vector<int> cut_at(slot_base.back(), -1);
    std::vector<int> slow_from(slot_base.back(), n_);
    // One chain cursor per register i names: the next occurrence to
    // visit (-1: none), whether it is a use, and the nearest instruction
    // the walk still visits.
    struct Cursor
    {
        int occ;
        bool is_use;
        int stop;
    };
    std::vector<Cursor> chains;
    // The instruction of c's next occurrence; -1 once c is done.
    auto next_at = [&](const Cursor &c) {
        if (c.occ < 0)
            return -1;
        const int k = c.is_use ? use_at[c.occ] : def_at[c.occ];
        return k >= c.stop ? k : -1;
    };

    // Every edge into `to` is added while `to` is the instruction being
    // processed, so the id of the edge from each earlier op (-1: none
    // yet) coalesces in O(1); it is reset from to's edge range once
    // `to` is done.
    std::vector<int> edge_from(n_, -1);
    auto add_edge = [&](int from, int to, int lat) {
        // Coalesce: keep only the strongest (max-latency) edge per pair.
        if (int ei = edge_from[from]; ei >= 0) {
            edges_[ei].latency = std::max(edges_[ei].latency, lat);
            return;
        }
        edge_from[from] = static_cast<int>(edges_.size());
        edges_.push_back(DagEdge{from, to, lat});
    };

    auto disjoint = [&](int i, int j) {
        Reg gi = effectiveGuard(b.instrs[i]);
        Reg gj = effectiveGuard(b.instrs[j]);
        if (gi == kPrTrue || gj == kPrTrue)
            return false;
        return prel.disjointAt(i, gi, gj) && prel.disjointAt(j, gi, gj);
    };

    int last_branch = -1;
    std::vector<int> mem_ops; // earlier memory ops and calls, ascending

    for (int i = 0; i < n_; ++i) {
        pred_off_[i] = static_cast<int>(edges_.size());
        const Instruction &ii = b.instrs[i];
        const Span<const Reg> defs_i = span(defs, def_off, i);
        const Span<const Reg> uses_i = span(uses, use_off, i);

        // Only an earlier op that defines a register i uses (RAW) or
        // names one i defines (WAR, WAW) can gain a register edge. Visit
        // them nearest first, which is the order the edges are added in:
        // merge the register chains, each newest first.
        //
        // A register's chains stop at its nearest def k whose effective
        // guard is p0 (k itself is visited). Every edge from an earlier
        // j on that register is implied by a path through k that is at
        // least as long: k is disjoint from nothing, so the DAG holds
        // j -> k (WAW 1 from a def of j, WAR 0 from a use) and k -> i
        // (RAW from k's latency or 0, WAW 1). So a WAW j -> i (1) has
        // j -> k -> i of 2, a WAR (0) has at least 1, and a RAW from a
        // def of latency 1 has at least 1 + 0. Only a RAW from a slower
        // def (mul, div, rem) can outweigh its path, so a register's
        // RAW chain runs on down to its earliest such def.
        chains.clear();
        for (int o = use_off[i]; o < use_off[i + 1]; ++o) {
            const int s = slot(uses[o]);
            chains.push_back(
                {last_def[s], false, std::min(cut_at[s], slow_from[s])});
        }
        for (int o = def_off[i]; o < def_off[i + 1]; ++o) {
            const int s = slot(defs[o]);
            chains.push_back({last_use[s], true, cut_at[s]});
            chains.push_back({last_def[s], false, cut_at[s]});
        }
        for (int prev_j = -1;;) {
            int best = -1, j = -1;
            for (int c = 0; c < static_cast<int>(chains.size()); ++c) {
                if (const int k = next_at(chains[c]); k > j) {
                    j = k;
                    best = c;
                }
            }
            if (best < 0)
                break;
            Cursor &cur = chains[best];
            cur.occ = cur.is_use ? prev_use[cur.occ] : prev_def[cur.occ];
            if (j == prev_j)
                continue;
            prev_j = j;
            const Instruction &ij = b.instrs[j];
            const Span<const Reg> defs_j = span(defs, def_off, j);
            const Span<const Reg> uses_j = span(uses, use_off, j);
            bool dj = disjoint(i, j);

            // Register RAW: j defines something i reads.
            for (const Reg &d : defs_j) {
                bool reads = false;
                bool guard_read = false;
                for (const Reg &u : uses_i) {
                    if (u == d) {
                        reads = true;
                        if (u == ii.guard && u.cls == RegClass::Pr)
                            guard_read = true;
                    }
                }
                if (!reads)
                    continue;
                // Flow is impossible between disjointly-guarded ops, but
                // only when the *producer* is guarded (a squashed
                // producer leaves the old value).
                if (dj && effectiveGuard(ij) != kPrTrue)
                    continue;
                int lat = opLatency(mach, ij.op);
                // chk.a validates a value the paired ld.a already
                // delivered: on the scheduler's hit assumption the
                // consumer may share the check's issue group (a miss is
                // charged dynamically as ALAT recovery, not planned
                // here).
                if (ij.op == Opcode::CHK_A)
                    lat = 0;
                // IA-64 special case: a compare may feed the guard of a
                // branch in the same issue group.
                bool guard_only = guard_read;
                for (const Operand &o : ii.srcs)
                    if (o.isReg() && o.reg == d)
                        guard_only = false;
                if (isCmpOp(ij) && ii.isBranch() && guard_only)
                    lat = 0;
                add_edge(j, i, lat);
            }

            // Register WAR: j reads something i writes.
            for (const Reg &d : defs_i) {
                for (const Reg &u : uses_j) {
                    if (u == d) {
                        if (!dj)
                            add_edge(j, i, 0);
                    }
                }
            }

            // Register WAW.
            for (const Reg &d : defs_i) {
                for (const Reg &d2 : defs_j) {
                    if (d == d2 && !dj)
                        add_edge(j, i, 1);
                }
            }
        }

        const bool cuts = effectiveGuard(ii) == kPrTrue;
        const bool slow = opLatency(mach, ii.op) > 1;
        for (int o = def_off[i]; o < def_off[i + 1]; ++o) {
            const int s = slot(defs[o]);
            prev_def[o] = std::exchange(last_def[s], o);
            if (cuts)
                cut_at[s] = i;
            if (slow)
                slow_from[s] = std::min(slow_from[s], i);
        }
        for (int o = use_off[i]; o < use_off[i + 1]; ++o)
            prev_use[o] = std::exchange(last_use[slot(uses[o])], o);

        // Memory dependences: scan prior memory ops / calls, nearest
        // first (no other op can conflict).
        if (ii.isMem() || ii.isCall()) {
            for (auto it = mem_ops.rbegin(); it != mem_ops.rend(); ++it) {
                const int j = *it;
                const Instruction &ij = b.instrs[j];
                bool conflict = false;
                if (ii.isCall() || ij.isCall()) {
                    if (ii.isCall() && ij.isCall()) {
                        conflict = true;
                    } else {
                        const Instruction &call = ii.isCall() ? ii : ij;
                        const Instruction &memop = ii.isCall() ? ij : ii;
                        if (memop.isMem())
                            conflict = aa.callMayTouch(call, memop);
                    }
                } else if (ii.isMem() && ij.isMem()) {
                    if (ii.isLoad() && ij.isLoad()) {
                        conflict = false;
                    } else if (ii.op == Opcode::LD_A && ij.isStore()) {
                        // Advanced load: the store→load dependence is the
                        // one ld.a exists to break; the trailing chk.a
                        // (an ordinary load for aliasing purposes) keeps
                        // the store→check ordering and re-executes the
                        // access if the ALAT entry was invalidated.
                        conflict = false;
                    } else {
                        conflict = aa.mayAlias(f, ii, ij);
                    }
                }
                if (conflict && !disjoint(i, j))
                    add_edge(j, i, 1);
            }
            mem_ops.push_back(i);
        }

        // Control dependences.
        if (ii.op == Opcode::ALLOC) {
            for (int j = 0; j < i; ++j)
                add_edge(j, i, 1);
        }
        if (ii.isBranch()) {
            // Nothing before the branch may sink below it (latency 0
            // keeps same-group placement legal; the packer orders
            // non-branches first). Ops before the previous branch are
            // already transitively ordered through it.
            int j0 = last_branch >= 0 ? last_branch : 0;
            for (int j = j0; j < i; ++j)
                add_edge(j, i, j == last_branch ? 1 : 0);
            last_branch = i;
        } else if (last_branch >= 0) {
            // Nothing after a branch may hoist above it.
            add_edge(last_branch, i, 1);
        }
        if (last_branch >= 0 && ii.op == Opcode::ALLOC) {
            add_edge(last_branch, i, 1);
        }
        for (size_t ei = pred_off_[i]; ei < edges_.size(); ++ei)
            edge_from[edges_[ei].from] = -1;
    }
    pred_off_[n_] = static_cast<int>(edges_.size());

    // Successors: a counting sort of the edges by source, in edge-id
    // order.
    succ_off_.assign(n_ + 1, 0);
    for (const DagEdge &e : edges_)
        ++succ_off_[e.from + 1];
    for (int i = 0; i < n_; ++i)
        succ_off_[i + 1] += succ_off_[i];
    succ_ids_.resize(edges_.size());
    std::vector<int> fill(succ_off_.begin(), succ_off_.end() - 1);
    for (size_t ei = 0; ei < edges_.size(); ++ei)
        succ_ids_[fill[edges_[ei].from]++] = static_cast<int>(ei);

    // Heights (reverse topological order = reverse index order, since all
    // edges go forward).
    for (int i = n_ - 1; i >= 0; --i) {
        int h = 0;
        for (int ei : succEdges(i))
            h = std::max(h, edges_[ei].latency + heights_[edges_[ei].to]);
        heights_[i] = h;
    }
}

} // namespace epic
