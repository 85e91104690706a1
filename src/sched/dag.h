/**
 * @file
 * Intra-block dependence DAG for scheduling.
 *
 * Encodes register RAW/WAR/WAW, memory dependences (filtered by alias
 * analysis and by predicate disjointness), and control dependences
 * (instructions never move above or below a branch; the explicit code
 * motion that *does* cross branches is the ILP-CS control-speculation
 * transform, which runs before scheduling and reorders the instruction
 * list itself).
 *
 * Register edges that a path through a nearer unguarded def of the
 * same register implies are left out (see DepDag's constructor): every
 * longest path and every height is the full DAG's, which is all the
 * list scheduler reads besides each op's predecessor count.
 *
 * Latency semantics of an edge (from -> to, lat):
 *   cycle(to) >= cycle(from) + lat. A latency of 0 permits same-group
 * placement (used for op->branch ordering and the IA-64
 * compare-to-dependent-branch special case); the bundle packer preserves
 * intra-group order (non-branches before branches).
 */
#ifndef EPIC_SCHED_DAG_H
#define EPIC_SCHED_DAG_H

#include <vector>

#include "analysis/alias.h"
#include "analysis/predrel.h"
#include "ir/function.h"
#include "mach/machine.h"

namespace epic {

/** One DAG edge. */
struct DagEdge
{
    int from;
    int to;
    int latency;
};

/** The edge ids [first, last). */
struct EdgeIdRange
{
    int first;
    int last;

    int size() const { return last - first; }
};

/** Dependence DAG over one block's instructions. */
class DepDag
{
  public:
    /** The block's predicate relations are supplied by the caller
     *  (typically the AnalysisManager's per-block cache). */
    DepDag(const Function &f, const BasicBlock &b, const AliasAnalysis &aa,
           const MachineConfig &mach, const PredRelations &prel);

    int size() const { return n_; }
    const std::vector<DagEdge> &edges() const { return edges_; }
    /** Edges entering instruction i: every edge into i is appended
     *  while i is processed, so they are one contiguous id range. */
    EdgeIdRange
    predEdges(int i) const
    {
        return {pred_off_[i], pred_off_[i + 1]};
    }
    /** Edge ids leaving instruction i, ascending. */
    Span<const int>
    succEdges(int i) const
    {
        return {succ_ids_.data() + succ_off_[i],
                static_cast<uint32_t>(succ_off_[i + 1] - succ_off_[i])};
    }

    /** Critical-path height (longest latency path from i to any sink). */
    int height(int i) const { return heights_[i]; }

  private:
    int n_;
    std::vector<DagEdge> edges_;
    /// preds: instruction i's edges are ids [pred_off_[i], pred_off_[i+1]);
    /// succs: CSR, i's are succ_ids_[succ_off_[i], succ_off_[i + 1]).
    std::vector<int> pred_off_, succ_off_, succ_ids_;
    std::vector<int> heights_;
};

} // namespace epic

#endif // EPIC_SCHED_DAG_H
