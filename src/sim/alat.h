/**
 * @file
 * Advanced Load Address Table (ALAT): the hardware half of IA-64 data
 * speculation (ld.a / chk.a, DESIGN.md §19).
 *
 * An ld.a allocates an entry keyed by its destination register and
 * tagged with the accessed address; a committing store invalidates
 * every overlapping entry; a chk.a hits when its register's entry is
 * still intact and otherwise triggers recovery (the timing simulator
 * charges CycleCat::AlatRecovery).
 *
 * Timing-only state by construction: chk.a's architected semantics are
 * an idempotent reload of the same address into the same destination,
 * so ALAT contents influence cycle accounting, never architected
 * results — checksums are identical across every ALAT geometry.
 *
 * Set-associative on the destination register id (alat_assoc <= 0
 * selects fully-associative), round-robin victim per set: replacement
 * is deterministic and the whole table checkpoint-serializes, keeping
 * restore-then-run byte-identical to an uninterrupted run.
 */
#ifndef EPIC_SIM_ALAT_H
#define EPIC_SIM_ALAT_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/checkpoint.h"
#include "support/logging.h"

namespace epic {

class Alat
{
  public:
    Alat(int entries, int assoc)
    {
        entries = std::max(1, entries);
        if (assoc <= 0 || assoc > entries)
            assoc = entries; // fully associative
        assoc_ = assoc;
        nsets_ = std::max(1, entries / assoc);
        slots_.assign(static_cast<size_t>(nsets_) * assoc_, Entry{});
        rr_.assign(static_cast<size_t>(nsets_), 0);
    }

    /** ld.a executed: (re-)allocate the entry for its destination. */
    void
    allocate(int32_t reg_id, uint64_t addr, uint8_t size)
    {
        Entry *set = setOf(reg_id);
        for (int i = 0; i < assoc_; ++i) {
            if (set[i].valid && set[i].reg == reg_id) {
                set[i] = Entry{addr, reg_id, size, true};
                return;
            }
        }
        for (int i = 0; i < assoc_; ++i) {
            if (!set[i].valid) {
                set[i] = Entry{addr, reg_id, size, true};
                ++nvalid_;
                return;
            }
        }
        // Set full: the round-robin victim is valid, so the count holds.
        uint32_t &rr = rr_[static_cast<size_t>(setIndex(reg_id))];
        set[rr] = Entry{addr, reg_id, size, true};
        rr = (rr + 1) % static_cast<uint32_t>(assoc_);
    }

    /** chk.a: is the register's entry still intact for this access? */
    bool
    check(int32_t reg_id, uint64_t addr, uint8_t size) const
    {
        const Entry *set = setOf(reg_id);
        for (int i = 0; i < assoc_; ++i) {
            const Entry &e = set[i];
            if (e.valid && e.reg == reg_id && e.addr == addr &&
                e.size == size)
                return true;
        }
        return false;
    }

    /** Committing store: drop every overlapping entry. O(1) while the
     *  table is empty, as it is for the whole run of any code without
     *  ld.a. */
    void
    invalidate(uint64_t addr, uint8_t size)
    {
        if (nvalid_ == 0)
            return;
        const uint64_t hi = addr + size;
        for (Entry &e : slots_) {
            if (e.valid && e.addr < hi && addr < e.addr + e.size) {
                e.valid = false;
                --nvalid_;
            }
        }
    }

    /** Calls and returns flush the table (conservative IA-64 subset:
     *  the register-stack rename would remap every tag anyway). */
    void
    flushAll()
    {
        if (nvalid_ == 0)
            return;
        for (Entry &e : slots_)
            e.valid = false;
        nvalid_ = 0;
    }

    /** Chaos injection (SimAlatCorrupt): flip one valid entry's tag so
     *  its chk.a must recover. A no-op when the table is empty. */
    void
    corruptOne()
    {
        for (Entry &e : slots_) {
            if (e.valid) {
                e.addr ^= 0x40;
                return;
            }
        }
    }

    void
    saveState(CkptWriter &w) const
    {
        w.u64(slots_.size());
        for (const Entry &e : slots_) {
            w.u8(e.valid ? 1 : 0);
            w.i64(e.reg);
            w.u64(e.addr);
            w.u8(e.size);
        }
        w.u64(rr_.size());
        for (const uint32_t r : rr_)
            w.u32(r);
    }

    void
    loadState(CkptReader &r)
    {
        epic_assert(r.u64() == slots_.size(),
                    "checkpoint ALAT geometry mismatch");
        nvalid_ = 0;
        for (Entry &e : slots_) {
            e.valid = r.u8() != 0;
            e.reg = static_cast<int32_t>(r.i64());
            e.addr = r.u64();
            e.size = r.u8();
            nvalid_ += e.valid ? 1 : 0;
        }
        epic_assert(r.u64() == rr_.size(),
                    "checkpoint ALAT geometry mismatch");
        for (uint32_t &rc : rr_)
            rc = r.u32();
    }

  private:
    struct Entry
    {
        uint64_t addr = 0;
        int32_t reg = -1;
        uint8_t size = 0;
        bool valid = false;
    };

    int
    setIndex(int32_t reg_id) const
    {
        return static_cast<int>(static_cast<uint32_t>(reg_id) %
                                static_cast<uint32_t>(nsets_));
    }
    Entry *setOf(int32_t reg_id)
    {
        return slots_.data() +
               static_cast<size_t>(setIndex(reg_id)) * assoc_;
    }
    const Entry *
    setOf(int32_t reg_id) const
    {
        return slots_.data() +
               static_cast<size_t>(setIndex(reg_id)) * assoc_;
    }

    int assoc_ = 1;
    int nsets_ = 1;
    /// Count of valid slots, kept by every operation that sets or clears
    /// a valid bit and recounted by loadState(); the blob does not carry
    /// it.
    int nvalid_ = 0;
    std::vector<Entry> slots_;
    std::vector<uint32_t> rr_; ///< per-set round-robin victim cursor
};

} // namespace epic

#endif // EPIC_SIM_ALAT_H
