#include "analysis/manager.h"

#include <cstdlib>

#include "support/logging.h"

namespace epic {

const char *
analysisKindName(AnalysisKind k)
{
    switch (k) {
      case AnalysisKind::Cfg: return "cfg";
      case AnalysisKind::Dom: return "dom";
      case AnalysisKind::Liveness: return "liveness";
      case AnalysisKind::Loops: return "loops";
      case AnalysisKind::PredRel: return "predrel";
    }
    return "?";
}

AnalysisMode
envAnalysisMode()
{
    static const AnalysisMode kMode = [] {
        const char *e = std::getenv("EPICLAB_ANALYSIS_MODE");
        if (!e || !*e)
            return AnalysisMode::Cached;
        const std::string s = e;
        if (s == "cached")
            return AnalysisMode::Cached;
        if (s == "stale-check" || s == "stalecheck")
            return AnalysisMode::StaleCheck;
        epic_fatal("EPICLAB_ANALYSIS_MODE: unknown mode '", s,
                   "' (cached|stale-check)");
    }();
    return kMode;
}

AnalysisCounters &
AnalysisCounters::operator+=(const AnalysisCounters &o)
{
    for (int i = 0; i < kNumAnalysisKinds; ++i) {
        hits[i] += o.hits[i];
        misses[i] += o.misses[i];
        invalidations[i] += o.invalidations[i];
    }
    return *this;
}

int64_t
AnalysisCounters::totalHits() const
{
    int64_t t = 0;
    for (int64_t v : hits)
        t += v;
    return t;
}

int64_t
AnalysisCounters::totalMisses() const
{
    int64_t t = 0;
    for (int64_t v : misses)
        t += v;
    return t;
}

int64_t
AnalysisCounters::totalInvalidations() const
{
    int64_t t = 0;
    for (int64_t v : invalidations)
        t += v;
    return t;
}

AnalysisCounters
operator-(AnalysisCounters a, const AnalysisCounters &b)
{
    for (int i = 0; i < kNumAnalysisKinds; ++i) {
        a.hits[i] -= b.hits[i];
        a.misses[i] -= b.misses[i];
        a.invalidations[i] -= b.invalidations[i];
    }
    return a;
}

namespace {

// ---- Structural equality for the stale checker ----
// Exact comparisons (doubles included): a fresh recompute of unchanged
// IR is deterministic, so any difference at all means the cache is
// stale.

bool
sameEdge(const CfgEdge &a, const CfgEdge &b)
{
    return a.from == b.from && a.to == b.to && a.weight == b.weight &&
           a.is_fallthrough == b.is_fallthrough &&
           a.branch_idx == b.branch_idx;
}

bool
sameSpan(Span<const int32_t> a, Span<const int32_t> b)
{
    if (a.size() != b.size())
        return false;
    for (uint32_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i])
            return false;
    return true;
}

bool
sameCfg(const Cfg &a, const Cfg &b)
{
    if (a.maxBlockId() != b.maxBlockId() || !sameSpan(a.rpo(), b.rpo()))
        return false;
    for (int bid = 0; bid < a.maxBlockId(); ++bid) {
        if (a.reachable(bid) != b.reachable(bid))
            return false;
        if (!sameSpan(a.succs(bid), b.succs(bid)) ||
            !sameSpan(a.preds(bid), b.preds(bid)))
            return false;
        const auto ea = a.outEdges(bid), eb = b.outEdges(bid);
        if (ea.size() != eb.size())
            return false;
        for (size_t i = 0; i < ea.size(); ++i)
            if (!sameEdge(ea[i], eb[i]))
                return false;
    }
    return true;
}

bool
sameDom(const DomTree &a, const DomTree &b, int nblocks)
{
    // idom() fully determines the tree (dominates() walks idom chains).
    for (int bid = 0; bid < nblocks; ++bid)
        if (a.idom(bid) != b.idom(bid))
            return false;
    return true;
}

/** Caller guarantees both were computed over same-sized CFGs. */
bool
sameLiveness(const Liveness &a, const Liveness &b, int nblocks)
{
    for (int bid = 0; bid < nblocks; ++bid)
        if (a.liveIn(bid) != b.liveIn(bid) ||
            a.liveOut(bid) != b.liveOut(bid))
            return false;
    return true;
}

bool
sameLoop(const Loop &a, const Loop &b)
{
    return a.header == b.header && a.blocks == b.blocks &&
           a.latches == b.latches && a.exits == b.exits &&
           a.avg_trip == b.avg_trip &&
           a.header_weight == b.header_weight && a.parent == b.parent;
}

bool
sameLoops(const LoopForest &a, const LoopForest &b)
{
    if (a.loops().size() != b.loops().size())
        return false;
    for (size_t i = 0; i < a.loops().size(); ++i)
        if (!sameLoop(a.loops()[i], b.loops()[i]))
            return false;
    return true;
}

} // namespace

AnalysisManager::AnalysisManager(const Function &f,
                                 const AliasAnalysis *aa,
                                 AnalysisMode mode)
    : f_(&f), aa_(aa), mode_(mode), arena_(size_t{32} << 10),
      base_(arena_.mark())
{
}

void
AnalysisManager::maybeRollbackArena()
{
    // Cfg and DomTree are the arena-resident analyses today; once both
    // are gone nothing points into the arena and a single watermark
    // rollback reclaims every table for the next compute cycle.
    if (!cfg_ && !dom_ && arena_.liveBytes() > base_.live)
        arena_.rollbackTo(base_);
}

const AliasAnalysis &
AnalysisManager::alias() const
{
    epic_assert(aa_, "AnalysisManager for ", f_->name,
                " was constructed without an alias analysis");
    return *aa_;
}

void
AnalysisManager::stalePanic(AnalysisKind k) const
{
    epic_panic("stale-analysis checker: cached ", analysisKindName(k),
               " for function '", f_->name,
               "' diverges from a fresh recompute",
               pass_.empty() ? "" : " at pass '",
               pass_.empty() ? "" : pass_.c_str(),
               pass_.empty() ? "" : "'",
               " — a transform mutated the IR without invalidating");
}

const Cfg &
AnalysisManager::cfg()
{
    const int idx = static_cast<int>(AnalysisKind::Cfg);
    if (!cfg_) {
        ++counters_.misses[idx];
        cfg_ = std::make_unique<Cfg>(*f_, &arena_);
        return *cfg_;
    }
    ++counters_.hits[idx];
    if (mode_ == AnalysisMode::StaleCheck) {
        Cfg fresh(*f_);
        if (!sameCfg(*cfg_, fresh))
            stalePanic(AnalysisKind::Cfg);
    }
    return *cfg_;
}

const DomTree &
AnalysisManager::domTree()
{
    const int idx = static_cast<int>(AnalysisKind::Dom);
    if (!dom_) {
        const Cfg &c = cfg(); // counted dependency query
        ++counters_.misses[idx];
        dom_ = std::make_unique<DomTree>(c, &arena_);
        return *dom_;
    }
    ++counters_.hits[idx];
    if (mode_ == AnalysisMode::StaleCheck) {
        Cfg scratch(*f_);
        DomTree fresh(scratch);
        if (!sameDom(*dom_, fresh, scratch.maxBlockId()))
            stalePanic(AnalysisKind::Dom);
    }
    return *dom_;
}

const Liveness &
AnalysisManager::liveness()
{
    const int idx = static_cast<int>(AnalysisKind::Liveness);
    if (!live_) {
        const Cfg &c = cfg(); // counted dependency query
        ++counters_.misses[idx];
        live_ = std::make_unique<Liveness>(c);
        return *live_;
    }
    ++counters_.hits[idx];
    // Invariant (by cascade): Liveness cached implies Cfg cached.
    epic_assert(cfg_, "cached Liveness without cached Cfg in ", f_->name);
    if (mode_ == AnalysisMode::StaleCheck) {
        Cfg scratch(*f_);
        if (!sameCfg(*cfg_, scratch))
            stalePanic(AnalysisKind::Cfg); // the dependency itself
        Liveness fresh(scratch);
        if (!sameLiveness(*live_, fresh, scratch.maxBlockId()))
            stalePanic(AnalysisKind::Liveness);
    }
    return *live_;
}

const LoopForest &
AnalysisManager::loopForest()
{
    const int idx = static_cast<int>(AnalysisKind::Loops);
    if (!loops_) {
        const Cfg &c = cfg();      // counted
        const DomTree &d = domTree(); // counted
        ++counters_.misses[idx];
        loops_ = std::make_unique<LoopForest>(c, d);
        return *loops_;
    }
    ++counters_.hits[idx];
    if (mode_ == AnalysisMode::StaleCheck) {
        Cfg scratch(*f_);
        DomTree sdom(scratch);
        LoopForest fresh(scratch, sdom);
        if (!sameLoops(*loops_, fresh))
            stalePanic(AnalysisKind::Loops);
    }
    return *loops_;
}

const PredRelations &
AnalysisManager::predRelations(int bid)
{
    const BasicBlock *b = f_->block(bid);
    epic_assert(b, "predRelations: no block ", bid, " in ", f_->name);
    const int idx = static_cast<int>(AnalysisKind::PredRel);
    auto it = predrel_.find(bid);
    if (it == predrel_.end()) {
        ++counters_.misses[idx];
        it = predrel_.emplace(bid, PredRelations(*b)).first;
        return it->second;
    }
    ++counters_.hits[idx];
    if (mode_ == AnalysisMode::StaleCheck) {
        PredRelations fresh(*b);
        if (!(it->second == fresh))
            stalePanic(AnalysisKind::PredRel);
    }
    return it->second;
}

void
AnalysisManager::dropKind(AnalysisKind k)
{
    const int idx = static_cast<int>(k);
    switch (k) {
      case AnalysisKind::Cfg:
        if (cfg_) {
            cfg_.reset();
            ++counters_.invalidations[idx];
            maybeRollbackArena();
        }
        break;
      case AnalysisKind::Dom:
        if (dom_) {
            dom_.reset();
            ++counters_.invalidations[idx];
            maybeRollbackArena();
        }
        break;
      case AnalysisKind::Liveness:
        if (live_) {
            live_.reset();
            ++counters_.invalidations[idx];
        }
        break;
      case AnalysisKind::Loops:
        if (loops_) {
            loops_.reset();
            ++counters_.invalidations[idx];
        }
        break;
      case AnalysisKind::PredRel:
        if (!predrel_.empty()) {
            counters_.invalidations[idx] +=
                static_cast<int64_t>(predrel_.size());
            predrel_.clear();
        }
        break;
    }
}

void
AnalysisManager::invalidateAll()
{
    dropKind(AnalysisKind::Liveness);
    dropKind(AnalysisKind::Loops);
    dropKind(AnalysisKind::Dom);
    dropKind(AnalysisKind::Cfg);
    dropKind(AnalysisKind::PredRel);
}

void
AnalysisManager::invalidateAllExcept(AnalysisSet preserved)
{
    if (!(preserved & analysisBit(AnalysisKind::Cfg)))
        preserved &= ~analysisBit(AnalysisKind::Liveness);
    for (int i = 0; i < kNumAnalysisKinds; ++i) {
        const AnalysisKind k = static_cast<AnalysisKind>(i);
        if (!(preserved & analysisBit(k)))
            dropKind(k);
    }
}

bool
AnalysisManager::isCached(AnalysisKind k) const
{
    switch (k) {
      case AnalysisKind::Cfg: return cfg_ != nullptr;
      case AnalysisKind::Dom: return dom_ != nullptr;
      case AnalysisKind::Liveness: return live_ != nullptr;
      case AnalysisKind::Loops: return loops_ != nullptr;
      case AnalysisKind::PredRel: return !predrel_.empty();
    }
    return false;
}

int
pruneUnreachableBlocks(Function &f, AnalysisManager &am)
{
    int removed = 0;
    {
        const Cfg &cfg = am.cfg();
        for (int bid = 0; bid < static_cast<int>(f.blocks.size());
             ++bid) {
            if (f.block(bid) && !cfg.reachable(bid)) {
                f.eraseBlock(bid);
                ++removed;
            }
        }
    }
    if (removed > 0)
        am.invalidateAll();
    return removed;
}

} // namespace epic
