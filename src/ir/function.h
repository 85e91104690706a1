/**
 * @file
 * Function representation: an id-indexed collection of blocks, parameter
 * registers, virtual-register counters, and post-compilation artifacts
 * (register-stack frame size, spill bytes, code placement).
 */
#ifndef EPIC_IR_FUNCTION_H
#define EPIC_IR_FUNCTION_H

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "ir/basic_block.h"
#include "ir/handles.h"
#include "ir/reg.h"
#include "support/arena.h"

namespace epic {

/** Function attribute flags. */
enum FuncAttr : uint32_t {
    kFuncNone = 0,
    /// A "system library" function: always compiled at the weak (GCC-like)
    /// level regardless of configuration, reproducing the paper's
    /// gcc-compiled chunk_alloc/chunk_free/memcpy in vortex (Fig. 10).
    kFuncLibrary = 1u << 0,
    /// Pointer analysis disabled for this function (paper: eon, perlbmk).
    kFuncNoPointerAnalysis = 1u << 1,
    /// Never inline this function.
    kFuncNoInline = 1u << 2,
};

/**
 * A compiled or to-be-compiled function.
 *
 * Owns a bump arena holding every per-node IR object: the BasicBlock
 * objects, their instruction/bundle arrays, and instruction profile
 * spans (DESIGN.md §16). `blocks` stores plain arena pointers indexed
 * by BlockId; nothing in the IR graph is individually freed — storage
 * is reclaimed wholesale when the function dies or when the firewall
 * rolls the arena back to rebuild a failed attempt in place.
 */
class Function
{
    /// Declared first so it outlives (and constructs before) every
    /// arena-bound member below.
    Arena arena_;

  public:
    Function(int func_id, std::string func_name)
        : id(func_id), name(std::move(func_name)), blocks(&arena_)
    {
        next_virt_.fill(kFirstVirtual);
    }

    int id;
    std::string name;
    uint32_t attr = kFuncNone;

    /// Registers that receive the arguments on entry (virtual before
    /// register allocation; rewritten by the allocator).
    std::vector<Reg> params;

    BlockId entry = 0; ///< entry block id

    /// Blocks indexed by id; deleted blocks leave a null slot. The
    /// pointees live in arena().
    ArenaVec<BasicBlock *> blocks;

    /// Profile: number of invocations in the training run.
    double weight = 0.0;

    // ---- Post-register-allocation artifacts ----
    bool reg_allocated = false;
    int stacked_regs = 0;  ///< register-stack frame size (alloc)
    int spill_slots = 0;   ///< spill area size in 8-byte slots

    /** Allocate a fresh virtual register of the given class. */
    Reg
    makeReg(RegClass cls)
    {
        return Reg(cls, next_virt_[static_cast<int>(cls)]++);
    }

    /** First never-used virtual id for a class (for dense renaming). */
    int
    virtLimit(RegClass cls) const
    {
        return next_virt_[static_cast<int>(cls)];
    }

    /** Note that register ids up to (and including) `id` are in use. */
    void
    reserveVirt(RegClass cls, int reg_id)
    {
        auto &n = next_virt_[static_cast<int>(cls)];
        if (reg_id >= n)
            n = reg_id + 1;
    }

    /** The bump arena every IR node of this function lives in. */
    Arena &arena() { return arena_; }
    const Arena &arena() const { return arena_; }

    /** Create a new (empty) block; returns a non-owning pointer. */
    BasicBlock *
    newBlock()
    {
        BlockId bid = static_cast<BlockId>(blocks.size());
        blocks.push_back(arena_.create<BasicBlock>(bid, &arena_));
        return blocks[bid];
    }

    /** Access a block by id (null if deleted). */
    BasicBlock *
    block(BlockId bid)
    {
        return bid >= 0 && bid < static_cast<BlockId>(blocks.size())
                   ? blocks[bid]
                   : nullptr;
    }
    const BasicBlock *
    block(BlockId bid) const
    {
        return bid >= 0 && bid < static_cast<BlockId>(blocks.size())
                   ? blocks[bid]
                   : nullptr;
    }

    /** Total static instruction count over live blocks. */
    int staticInstrCount() const;

    /** Remove a block (slot becomes null; ids of others are stable). */
    void
    eraseBlock(BlockId bid)
    {
        if (bid >= 0 && bid < static_cast<BlockId>(blocks.size()))
            blocks[bid] = nullptr;
    }

    /**
     * Deep-copy this function (same id) into a fresh arena. The
     * compilation firewall transforms the copy and commits it back only
     * after every pass verifies; Program::clone also builds on this.
     * `arena_byte_budget` (0 = unlimited) caps the copy's arena so the
     * whole attempt — clone included — honors --max-mem-pages.
     */
    std::unique_ptr<Function> clone(uint64_t arena_byte_budget = 0) const;

    /**
     * Rebuild `dst` as a copy of this function, reusing dst's arena:
     * the arena is rolled back to empty (one O(1) watermark rollback,
     * retained chunks are reused) and the blocks are bulk-copied in.
     * This is the firewall's retry path — a failed attempt's storage is
     * recycled with zero frees and, once warm, zero mallocs.
     */
    void cloneInto(Function &dst) const;

  private:
    /// Next virtual register id per register class.
    std::array<int32_t, kNumRegClasses> next_virt_;
};

} // namespace epic

#endif // EPIC_IR_FUNCTION_H
