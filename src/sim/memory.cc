#include "sim/memory.h"

#include <algorithm>
#include <cstring>

#include "ir/program.h"
#include "support/logging.h"

namespace epic {

uint8_t *
Memory::lookupPageSlow(uint64_t pn) const
{
    auto it = pages_.find(pn);
    if (it == pages_.end())
        return nullptr; // unmapped pages are never cached (may map later)
    const uint32_t slot = cache_mru_ ^ 1u;
    cache_pn_[slot] = pn;
    cache_page_[slot] = it->second.get();
    cache_mru_ = slot;
    return cache_page_[slot];
}

uint8_t *
Memory::pageFor(uint64_t addr)
{
    const uint64_t pn = addr >> kPageBits;
    if (uint8_t *p = lookupPage(pn))
        return p;
    auto page = std::make_unique<uint8_t[]>(kPageSize);
    std::memset(page.get(), 0, kPageSize);
    uint8_t *raw = page.get();
    pages_.emplace(pn, std::move(page));
    const uint32_t slot = cache_mru_ ^ 1u;
    cache_pn_[slot] = pn;
    cache_page_[slot] = raw;
    cache_mru_ = slot;
    return raw;
}

void
Memory::mapRange(uint64_t addr, uint64_t size)
{
    uint64_t first = addr >> kPageBits;
    uint64_t last = (addr + (size ? size - 1 : 0)) >> kPageBits;
    for (uint64_t pn = first; pn <= last; ++pn)
        pageFor(pn << kPageBits);
}

bool
Memory::tryReadCross(uint64_t addr, int size, uint64_t &out) const
{
    uint64_t v = 0;
    for (int i = 0; i < size; ++i) {
        const uint8_t *q = lookupPage((addr + i) >> kPageBits);
        if (!q)
            return false;
        v |= static_cast<uint64_t>(q[(addr + i) & kPageMask]) << (8 * i);
    }
    out = v;
    return true;
}

bool
Memory::tryWriteCross(uint64_t addr, uint64_t value, int size)
{
    // Verify every covered page before mutating anything.
    for (int i = 1; i < size; ++i)
        if (!lookupPage((addr + i) >> kPageBits))
            return false;
    for (int i = 0; i < size; ++i) {
        uint8_t *q = lookupPage((addr + i) >> kPageBits);
        q[(addr + i) & kPageMask] =
            static_cast<uint8_t>(value >> (8 * i));
    }
    return true;
}

void
Memory::writeBytes(uint64_t addr, const uint8_t *data, uint64_t len)
{
    // One page lookup + memcpy per covered page, not per byte.
    while (len > 0) {
        uint8_t *p = pageFor(addr);
        const uint64_t off = addr & kPageMask;
        const uint64_t chunk = std::min(len, kPageSize - off);
        std::memcpy(p + off, data, chunk);
        addr += chunk;
        data += chunk;
        len -= chunk;
    }
}

uint64_t
Memory::flipBit(uint64_t sel)
{
    epic_assert(!pages_.empty(), "flipBit on an empty memory image");
    std::vector<uint64_t> pns;
    pns.reserve(pages_.size());
    for (const auto &kv : pages_)
        pns.push_back(kv.first);
    std::sort(pns.begin(), pns.end());
    const uint64_t pn = pns[sel % pns.size()];
    // Knuth multiplicative spread keeps nearby selectors from landing
    // on the same byte of the same page.
    const uint64_t off = (sel * 2654435761ull) % kPageSize;
    const int bit = static_cast<int>(sel % 8);
    pages_.at(pn).get()[off] ^= static_cast<uint8_t>(1u << bit);
    return (pn << kPageBits) + off;
}

void
Memory::initFromProgram(const Program &prog)
{
    for (const DataSymbol &s : prog.symbols)
        mapRange(s.addr, std::max<uint64_t>(s.size, 1));
    mapRange(Program::kStackTop - Program::kStackSize, Program::kStackSize);
}

} // namespace epic
