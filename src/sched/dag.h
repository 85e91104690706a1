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
    /** Edge indices entering instruction i. */
    const std::vector<int> &predEdges(int i) const { return preds_[i]; }
    /** Edge indices leaving instruction i. */
    const std::vector<int> &succEdges(int i) const { return succs_[i]; }

    /** Critical-path height (longest latency path from i to any sink). */
    int height(int i) const { return heights_[i]; }

  private:
    int n_;
    std::vector<DagEdge> edges_;
    std::vector<std::vector<int>> preds_, succs_;
    std::vector<int> heights_;
};

} // namespace epic

#endif // EPIC_SCHED_DAG_H
