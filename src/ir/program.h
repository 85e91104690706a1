/**
 * @file
 * Whole-program container: functions, global data symbols, and the data
 * memory layout. Code layout (bundle addresses) is assigned separately by
 * the block-layout pass after scheduling.
 */
#ifndef EPIC_IR_PROGRAM_H
#define EPIC_IR_PROGRAM_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/function.h"

namespace epic {

/** Data symbol attribute flags. */
enum SymAttr : uint32_t {
    kSymNone = 0,
    kSymReadOnly = 1u << 0,
};

/** A global data object. */
struct DataSymbol
{
    int id = -1;
    std::string name;
    uint64_t size = 0;
    uint64_t align = 16;
    uint32_t attr = kSymNone;
    uint64_t addr = 0; ///< assigned by layoutData()
};

/** A whole program. */
class Program
{
  public:
    /// Base virtual address of the data segment.
    static constexpr uint64_t kDataBase = 0x100000;
    /// Base virtual address of the code segment.
    static constexpr uint64_t kTextBase = 0x4000000;
    /// Stack top (grows down) and reserved size.
    static constexpr uint64_t kStackTop = 0x7fff0000;
    static constexpr uint64_t kStackSize = 1 << 20;

    std::vector<std::unique_ptr<Function>> funcs;
    std::vector<DataSymbol> symbols;
    int entry_func = -1;

    /** Create a function; returns a non-owning pointer. */
    Function *
    newFunction(std::string name)
    {
        int fid = static_cast<int>(funcs.size());
        funcs.push_back(std::make_unique<Function>(fid, std::move(name)));
        return funcs[fid].get();
    }

    Function *
    func(int fid)
    {
        return fid >= 0 && fid < static_cast<int>(funcs.size())
                   ? funcs[fid].get()
                   : nullptr;
    }
    const Function *
    func(int fid) const
    {
        return fid >= 0 && fid < static_cast<int>(funcs.size())
                   ? funcs[fid].get()
                   : nullptr;
    }

    /** Create a zero-initialized data symbol; returns its id. */
    int addSymbol(std::string name, uint64_t size,
                  uint32_t attr = kSymNone);

    /** Assign data-segment addresses to all symbols. */
    void layoutData();

    /** Address of a symbol (layoutData must have run). */
    uint64_t symbolAddr(int sym_id) const;

    /** Total static instruction count across all functions. */
    int staticInstrCount() const;

    /** Deep-copy the whole program (used to compile one source program
     *  under several configurations). */
    std::unique_ptr<Program> clone() const;
};

} // namespace epic

#endif // EPIC_IR_PROGRAM_H
