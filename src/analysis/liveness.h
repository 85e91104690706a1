/**
 * @file
 * Predicate-aware backward liveness analysis.
 *
 * A guarded definition may not execute, so it does not kill its
 * destination (the classic conservative treatment for predicated code,
 * cf. predicate-aware dataflow in the paper's references [27][28]).
 * Liveness drives dead-code elimination and register allocation.
 */
#ifndef EPIC_ANALYSIS_LIVENESS_H
#define EPIC_ANALYSIS_LIVENESS_H

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "analysis/cfg.h"
#include "support/logging.h"

namespace epic {

/**
 * A set of registers: one bit vector per register class, indexed by
 * register id. Ids are dense (architected names, then virtual ones
 * from kFirstVirtual upward), so the dataflow merge is a word-wise OR
 * and iteration runs in (class, id) order — the order of Reg's `<`.
 * Vectors grow on demand; equality ignores trailing zero words, so two
 * sets with the same members compare equal however they were built.
 */
class RegSet
{
  public:
    bool
    count(Reg r) const
    {
        const std::vector<uint64_t> &w = words_[static_cast<int>(r.cls)];
        // An invalid id (-1) converts to a huge index: never a member.
        const size_t k = static_cast<size_t>(r.id) >> 6;
        return k < w.size() && (w[k] >> (r.id & 63) & 1);
    }

    void
    insert(Reg r)
    {
        epic_assert(r.valid(), "RegSet::insert of an invalid register");
        std::vector<uint64_t> &w = words_[static_cast<int>(r.cls)];
        const size_t k = static_cast<size_t>(r.id) >> 6;
        if (k >= w.size())
            w.resize(k + 1, 0);
        w[k] |= uint64_t{1} << (r.id & 63);
    }

    void
    erase(Reg r)
    {
        std::vector<uint64_t> &w = words_[static_cast<int>(r.cls)];
        const size_t k = static_cast<size_t>(r.id) >> 6;
        if (k < w.size())
            w[k] &= ~(uint64_t{1} << (r.id & 63));
    }

    /** Empty the set, keeping its storage. */
    void
    clear()
    {
        for (std::vector<uint64_t> &w : words_)
            std::fill(w.begin(), w.end(), 0);
    }

    /** Add every member of `o`. */
    RegSet &
    operator|=(const RegSet &o)
    {
        for (int c = 0; c < kNumRegClasses; ++c) {
            std::vector<uint64_t> &w = words_[c];
            const std::vector<uint64_t> &ow = o.words_[c];
            if (ow.size() > w.size())
                w.resize(ow.size(), 0);
            for (size_t k = 0; k < ow.size(); ++k)
                w[k] |= ow[k];
        }
        return *this;
    }

    bool
    operator==(const RegSet &o) const
    {
        for (int c = 0; c < kNumRegClasses; ++c) {
            const std::vector<uint64_t> &a = words_[c], &b = o.words_[c];
            const std::vector<uint64_t> &longer =
                a.size() > b.size() ? a : b;
            const size_t common = std::min(a.size(), b.size());
            if (!std::equal(a.begin(), a.begin() + common, b.begin()))
                return false;
            for (size_t k = common; k < longer.size(); ++k)
                if (longer[k])
                    return false;
        }
        return true;
    }

    /** Number of members. */
    size_t
    size() const
    {
        size_t n = 0;
        for (const std::vector<uint64_t> &w : words_)
            for (uint64_t x : w)
                n += std::popcount(x);
        return n;
    }

    /** Forward iterator over the members in (class, id) order. */
    class const_iterator
    {
      public:
        Reg operator*() const { return Reg(static_cast<RegClass>(cls_), id_); }
        const_iterator &
        operator++()
        {
            ++id_;
            seek();
            return *this;
        }
        bool
        operator!=(const const_iterator &o) const
        {
            return cls_ != o.cls_ || id_ != o.id_;
        }

      private:
        friend class RegSet;
        const_iterator(const RegSet *s, int cls) : s_(s), cls_(cls)
        {
            seek();
        }

        /** Move to the first member at or after (cls_, id_); past the
         *  last one, stop at (kNumRegClasses, 0), which is end(). */
        void
        seek()
        {
            for (; cls_ < kNumRegClasses; ++cls_, id_ = 0) {
                const std::vector<uint64_t> &w = s_->words_[cls_];
                size_t k = static_cast<size_t>(id_) >> 6;
                if (k >= w.size())
                    continue;
                uint64_t bits = w[k] & (~uint64_t{0} << (id_ & 63));
                for (;;) {
                    if (bits) {
                        id_ = static_cast<int32_t>(k * 64 +
                                                   std::countr_zero(bits));
                        return;
                    }
                    if (++k == w.size())
                        break;
                    bits = w[k];
                }
            }
            id_ = 0;
        }

        const RegSet *s_;
        int cls_;
        int32_t id_ = 0;
    };

    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, kNumRegClasses); }

  private:
    std::array<std::vector<uint64_t>, kNumRegClasses> words_;
};

/**
 * Per-instruction uses: all register sources plus the guard. And/or-type
 * parallel compares conditionally *merge* into their destinations (they
 * write only when the condition fires), so their destinations count as
 * uses as well.
 */
void instrUses(const Instruction &inst, std::vector<Reg> &out);
/** Per-instruction defs: the destinations. */
void instrDefs(const Instruction &inst, std::vector<Reg> &out);

/**
 * True when the instruction's destinations are written on every
 * execution of the instruction: an always-true guard (or an unc-type
 * compare, which clears its destinations even when squashed), and not
 * an and/or-type compare (which writes only when its condition fires).
 * Only such defs kill a live range.
 */
bool defsAreUnconditional(const Instruction &inst);

/** Block-level live-in/live-out sets. */
class Liveness
{
  public:
    explicit Liveness(const Cfg &cfg);

    const RegSet &liveIn(int bid) const { return live_in_[bid]; }
    const RegSet &liveOut(int bid) const { return live_out_[bid]; }

  private:
    std::vector<RegSet> live_in_;
    std::vector<RegSet> live_out_;
};

} // namespace epic

#endif // EPIC_ANALYSIS_LIVENESS_H
