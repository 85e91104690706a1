/**
 * @file
 * Bump-arena memory layer for the IR and the compiler passes
 * (DESIGN.md §16).
 *
 * An Arena is a chunked bump allocator: allocation is a pointer add, and
 * deallocation only ever happens wholesale — either by destroying the
 * arena or by rolling back to a previously captured watermark
 * (`Arena::Mark`). Everything the compiler allocates per function
 * (blocks, instruction arrays, bundle arrays, analysis tables) lives in
 * the owning function's arena, which turns the compilation firewall's
 * per-attempt teardown from thousands of `free()`s into one watermark
 * reset, and makes a whole-function clone a handful of chunk-sized
 * bumps instead of a per-node allocation storm.
 *
 * Three building blocks live here:
 *
 *  - Arena: the chunked allocator with watermark/rollback, per-arena
 *    counters (bytes, chunk mallocs, rollbacks, bytes reclaimed) and an
 *    optional hard byte budget that fails *structurally* —
 *    ArenaBudgetExceeded, never a bad_alloc abort — so `--max-mem-pages`
 *    covers compile-side memory exactly like sim heap pages.
 *  - Span<T>: a trivially copyable (pointer, length) view — the return
 *    type of every arena-backed table, so analyses stay relocatable
 *    PODs.
 *  - ArenaVec<T>: a std::vector-shaped container for trivially copyable
 *    element types whose storage comes from an Arena. Growth abandons
 *    the old storage *in place* (reclaimed by the next rollback or the
 *    arena's destruction) — which also means growth never invalidates
 *    concurrently-read old storage mid-operation, so self-referencing
 *    inserts are naturally safe.
 *
 * Counters are per-arena and therefore deterministic per compiled
 * function; the driver folds them in function-id order so JSONL
 * artifacts stay byte-identical for any --jobs value. A process-wide
 * mirror (arenaGlobalCounters) feeds the human-facing stats dump only.
 */
#ifndef EPIC_SUPPORT_ARENA_H
#define EPIC_SUPPORT_ARENA_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/logging.h"

namespace epic {

/**
 * Structured arena exhaustion: thrown when an allocation would push the
 * arena past its configured byte budget. The driver maps it to
 * RunStatus::BudgetExceeded; it intentionally does NOT derive from
 * CompileError so the firewall's degradation ladder cannot swallow it
 * (budget exhaustion is a resource outcome, not a verifier rejection).
 */
class ArenaBudgetExceeded : public std::runtime_error
{
  public:
    ArenaBudgetExceeded(uint64_t requested, uint64_t live,
                        uint64_t budget)
        : std::runtime_error(
              "arena budget exceeded: " + std::to_string(live) +
              " bytes live + " + std::to_string(requested) +
              " requested > " + std::to_string(budget) + " byte budget"),
          requested_(requested), budget_(budget)
    {
    }

    uint64_t requested() const { return requested_; }
    uint64_t budget() const { return budget_; }

  private:
    uint64_t requested_, budget_;
};

/**
 * Deterministic per-arena accounting (also aggregated process-wide for
 * the stats dump). Summed per function in id order by the driver, so
 * the derived artifact keys are --jobs invariant.
 */
struct ArenaCounters
{
    uint64_t bytes_allocated = 0; ///< cumulative bump-allocated bytes
    uint64_t chunks = 0;          ///< backing chunk mallocs
    uint64_t rollbacks = 0;       ///< watermark rollbacks taken
    uint64_t bytes_reclaimed = 0; ///< bytes released by rollbacks

    ArenaCounters &
    operator+=(const ArenaCounters &o)
    {
        bytes_allocated += o.bytes_allocated;
        chunks += o.chunks;
        rollbacks += o.rollbacks;
        bytes_reclaimed += o.bytes_reclaimed;
        return *this;
    }
};

/** Process-wide mirror of every arena's counters (stats dump only —
 *  values race across workers, so they never enter run artifacts). */
struct ArenaGlobalCounters
{
    std::atomic<uint64_t> bytes_allocated{0};
    std::atomic<uint64_t> chunks{0};
    std::atomic<uint64_t> rollbacks{0};
    std::atomic<uint64_t> bytes_reclaimed{0};
};

ArenaGlobalCounters &arenaGlobalCounters();

/** Chunked bump allocator with watermark rollback. */
class Arena
{
  public:
    /// Default size of the first malloc'd chunk; later chunks double up
    /// to kMaxChunkBytes. Sized so a typical workload function compiles
    /// inside one or two chunks.
    static constexpr size_t kDefaultChunkBytes = 64 << 10;
    static constexpr size_t kMaxChunkBytes = 8 << 20;

    explicit Arena(size_t first_chunk_bytes = kDefaultChunkBytes)
        : next_chunk_bytes_(
              first_chunk_bytes < kMinChunkBytes ? kMinChunkBytes
                                                 : first_chunk_bytes)
    {
    }

    ~Arena();

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Watermark: a position in the allocation stream. Rolling back to a
     * mark releases (for reuse) everything allocated after it in O(1)
     * allocator operations — no frees, chunks are retained.
     */
    struct Mark
    {
        void *chunk = nullptr; ///< chunk that was current at mark time
        size_t used = 0;       ///< bytes used in that chunk
        uint64_t live = 0;     ///< liveBytes() at mark time
    };

    /** Raw allocation. Size 0 is allowed (callers must not deref). */
    void *
    allocate(size_t bytes, size_t align = alignof(std::max_align_t))
    {
        epic_assert((align & (align - 1)) == 0,
                    "arena alignment must be a power of two");
        uintptr_t p =
            (cursor_ + (align - 1)) & ~static_cast<uintptr_t>(align - 1);
        if (p + bytes > limit_) [[unlikely]]
            return allocateSlow(bytes, align);
        counters_.bytes_allocated += (p + bytes) - cursor_;
        live_ += (p + bytes) - cursor_;
        cursor_ = p + bytes;
        return reinterpret_cast<void *>(p);
    }

    /** Typed array allocation (uninitialized for trivial T). */
    template <typename T>
    T *
    allocArray(size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "arena arrays hold trivially copyable types");
        return static_cast<T *>(allocate(n * sizeof(T), alignof(T)));
    }

    /** Construct one object of trivially destructible type T. */
    template <typename T, typename... Args>
    T *
    create(Args &&...args)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena objects never run destructors");
        return new (allocate(sizeof(T), alignof(T)))
            T(std::forward<Args>(args)...);
    }

    /** Current watermark. */
    Mark
    mark() const
    {
        Mark m;
        m.chunk = head_;
        m.used = head_ ? cursor_ - chunkBase(head_) : 0;
        m.live = live_;
        return m;
    }

    /**
     * Roll back to a previously captured mark. Chunks allocated after
     * the mark are retained for reuse (this is the firewall's hot
     * "discard the failed attempt" path: zero mallocs, zero frees).
     */
    void rollbackTo(const Mark &m);

    /** Roll back to empty (all chunks retained for reuse). */
    void reset();

    /** Bytes currently live (allocated minus rolled back). */
    uint64_t liveBytes() const { return live_; }

    /** Total bytes of malloc'd backing chunks (live + free list). */
    uint64_t chunkBytes() const { return chunk_bytes_; }

    const ArenaCounters &counters() const { return counters_; }

    /**
     * Hard budget on backing-store bytes (0 = unlimited). A chunk
     * allocation that would exceed it throws ArenaBudgetExceeded;
     * already-owned chunks are unaffected, so the arena stays usable
     * (e.g. for a rollback) after the throw.
     */
    void setByteBudget(uint64_t bytes) { budget_ = bytes; }

  private:
    struct Chunk
    {
        Chunk *next;
        size_t size; ///< usable bytes after the header
    };

    static constexpr size_t kMinChunkBytes = 1 << 10;

    static uintptr_t
    chunkBase(void *c)
    {
        return reinterpret_cast<uintptr_t>(c) + sizeof(Chunk);
    }

    void *allocateSlow(size_t bytes, size_t align);
    void releaseChunks(void *head);
    /// Push bytes-allocated delta since the last flush into the global
    /// mirror (amortized to slow-path / rollback / destructor calls so
    /// the bump fast path stays atomic-free).
    void flushGlobal();

    void *head_ = nullptr;  ///< newest chunk (allocation happens here)
    Chunk *free_ = nullptr; ///< rolled-back chunks kept for reuse
    uintptr_t cursor_ = 0;
    uintptr_t limit_ = 0;
    uint64_t live_ = 0;
    uint64_t chunk_bytes_ = 0;
    uint64_t budget_ = 0;
    uint64_t flushed_ = 0; ///< bytes_allocated already mirrored globally
    size_t next_chunk_bytes_;
    ArenaCounters counters_;
};

/** Trivially copyable (pointer, length) view of an arena array. */
template <typename T>
struct Span
{
    T *data = nullptr;
    uint32_t len = 0;

    Span() = default;
    Span(T *d, uint32_t n) : data(d), len(n) {}

    uint32_t size() const { return len; }
    bool empty() const { return len == 0; }
    T *begin() const { return data; }
    T *end() const { return data + len; }
    T &
    operator[](uint32_t i) const
    {
        return data[i];
    }
    T &front() const { return data[0]; }
    T &back() const { return data[len - 1]; }
};

/**
 * std::vector-shaped container backed by an Arena (see file comment).
 * Element type must be trivially copyable and destructible so growth is
 * a memcpy and teardown is the arena's problem. Size and capacity are
 * 32-bit: IR entities are addressed by 32-bit index handles throughout.
 */
template <typename T>
class ArenaVec
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "ArenaVec holds trivially copyable types");

  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    ArenaVec() = default;
    explicit ArenaVec(Arena *a) : a_(a) {}

    /// Copying requires a target arena; use operator= onto a bound
    /// vector (the LHS keeps its own arena) or assign().
    ArenaVec(const ArenaVec &) = delete;

    ArenaVec(ArenaVec &&o) noexcept
        : a_(o.a_), d_(o.d_), n_(o.n_), cap_(o.cap_)
    {
        o.d_ = nullptr;
        o.n_ = o.cap_ = 0;
    }

    ArenaVec &
    operator=(ArenaVec &&o) noexcept
    {
        a_ = o.a_;
        d_ = o.d_;
        n_ = o.n_;
        cap_ = o.cap_;
        o.d_ = nullptr;
        o.n_ = o.cap_ = 0;
        return *this;
    }

    /** Element-wise copy into this vector's own arena. */
    ArenaVec &
    operator=(const ArenaVec &o)
    {
        if (this != &o)
            assign(o.begin(), o.end());
        return *this;
    }

    /** Copy from a std::vector (scratch-buffer interop; the elements
     *  are copied into this vector's arena). */
    ArenaVec &
    operator=(const std::vector<T> &v)
    {
        assign(v.data(), v.data() + v.size());
        return *this;
    }

    /** Copy from any random-access range (std::vector interop). */
    template <typename It>
    void
    assign(It first, It last)
    {
        const size_t n = static_cast<size_t>(last - first);
        reserve(static_cast<uint32_t>(n));
        // Source may alias our abandoned-but-intact old storage; arena
        // growth never unmaps it, so a plain forward copy is safe.
        T *out = d_;
        for (It it = first; it != last; ++it, ++out)
            *out = *it;
        n_ = static_cast<uint32_t>(n);
    }

    void
    rebind(Arena *a)
    {
        a_ = a;
        d_ = nullptr;
        n_ = cap_ = 0;
    }
    Arena *arena() const { return a_; }

    uint32_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    uint32_t capacity() const { return cap_; }
    T *data() { return d_; }
    const T *data() const { return d_; }

    iterator begin() { return d_; }
    iterator end() { return d_ + n_; }
    const_iterator begin() const { return d_; }
    const_iterator end() const { return d_ + n_; }

    T &
    operator[](size_t i)
    {
        return d_[i];
    }
    const T &
    operator[](size_t i) const
    {
        return d_[i];
    }
    T &front() { return d_[0]; }
    const T &front() const { return d_[0]; }
    T &back() { return d_[n_ - 1]; }
    const T &back() const { return d_[n_ - 1]; }

    void clear() { n_ = 0; }

    void
    reserve(uint32_t cap)
    {
        if (cap <= cap_)
            return;
        grow(cap);
    }

    void
    resize(uint32_t n, const T &fill = T{})
    {
        reserve(n);
        for (uint32_t i = n_; i < n; ++i)
            d_[i] = fill;
        n_ = n;
    }

    void
    push_back(const T &v)
    {
        if (n_ == cap_) [[unlikely]] {
            // `v` may point into current storage; growth leaves the old
            // bytes intact in the arena, so copy-after-grow is safe.
            const T *src = &v;
            grow(n_ + 1);
            d_[n_++] = *src;
            return;
        }
        d_[n_++] = v;
    }

    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (n_ == cap_) [[unlikely]]
            grow(n_ + 1);
        d_[n_] = T(std::forward<Args>(args)...);
        return d_[n_++];
    }

    void pop_back() { --n_; }

    iterator
    insert(iterator pos, const T &v)
    {
        const size_t at = static_cast<size_t>(pos - d_);
        const T *src = &v; // survives growth (old storage stays intact)
        if (n_ == cap_) [[unlikely]]
            grow(n_ + 1);
        std::memmove(d_ + at + 1, d_ + at, (n_ - at) * sizeof(T));
        d_[at] = *src;
        ++n_;
        return d_ + at;
    }

    iterator
    erase(iterator first, iterator last)
    {
        const size_t at = static_cast<size_t>(first - d_);
        const size_t cnt = static_cast<size_t>(last - first);
        std::memmove(d_ + at, d_ + at + cnt,
                     (n_ - at - cnt) * sizeof(T));
        n_ -= static_cast<uint32_t>(cnt);
        return d_ + at;
    }

    iterator erase(iterator pos) { return erase(pos, pos + 1); }

    Span<const T> span() const { return {d_, n_}; }

  private:
    void
    grow(uint32_t need)
    {
        epic_assert(a_, "ArenaVec used without an arena binding");
        uint32_t cap = cap_ ? cap_ : 4;
        while (cap < need)
            cap *= 2;
        T *nd = a_->allocArray<T>(cap);
        if (n_)
            std::memcpy(nd, d_, n_ * sizeof(T));
        d_ = nd; // old storage abandoned in the arena (see file comment)
        cap_ = cap;
    }

    Arena *a_ = nullptr;
    T *d_ = nullptr;
    uint32_t n_ = 0;
    uint32_t cap_ = 0;
};

} // namespace epic

#endif // EPIC_SUPPORT_ARENA_H
