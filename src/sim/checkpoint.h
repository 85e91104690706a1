/**
 * @file
 * Simulator checkpoint/restore: serialize the complete architected +
 * microarchitectural state of a detailed timing run at a deterministic
 * instruction boundary, so a restored run replays the remaining
 * instructions and finishes with byte-identical golden counters.
 *
 * The blob is a flat binary stream (host endianness — checkpoints are
 * consumed by the same binary that produced them, never shipped).
 * Determinism matters more than compactness: every unordered container
 * is serialized in sorted key order, so the same machine state always
 * produces the same blob, and blob equality is state equality.
 *
 * CkptReader treats underflow or trailing garbage as corruption and
 * panics — a checkpoint that does not parse is an internal-invariant
 * violation (the writer and reader are the same code generation), not
 * a user error, and restoring half a machine state silently would
 * poison every downstream counter.
 *
 * This boundary machinery is also the groundwork for ROADMAP item 3's
 * sampled / fast-forward simulation: a sampler is checkpoint + restore
 * + bounded run, repeated.
 */
#ifndef EPIC_SIM_CHECKPOINT_H
#define EPIC_SIM_CHECKPOINT_H

#include <cstdint>
#include <cstring>
#include <string>

namespace epic {

struct Perfmon;

/** Append-only binary writer for checkpoint blobs. */
class CkptWriter
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }
    void
    u32(uint32_t v)
    {
        raw(&v, sizeof v);
    }
    void
    u64(uint64_t v)
    {
        raw(&v, sizeof v);
    }
    void
    i64(int64_t v)
    {
        raw(&v, sizeof v);
    }
    void
    raw(const void *p, size_t n)
    {
        buf_.append(static_cast<const char *>(p), n);
    }
    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.append(s);
    }

    const std::string &data() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/** Sequential reader; panics on underflow (corrupt checkpoint). */
class CkptReader
{
  public:
    explicit CkptReader(const std::string &data) : data_(data) {}

    uint8_t
    u8()
    {
        need(1);
        return static_cast<uint8_t>(data_[pos_++]);
    }
    uint32_t
    u32()
    {
        uint32_t v;
        raw(&v, sizeof v);
        return v;
    }
    uint64_t
    u64()
    {
        uint64_t v;
        raw(&v, sizeof v);
        return v;
    }
    int64_t
    i64()
    {
        int64_t v;
        raw(&v, sizeof v);
        return v;
    }
    void
    raw(void *p, size_t n)
    {
        need(n);
        std::memcpy(p, data_.data() + pos_, n);
        pos_ += n;
    }
    std::string
    str()
    {
        const uint64_t n = u64();
        need(n);
        std::string s(data_, pos_, n);
        pos_ += n;
        return s;
    }

    bool atEnd() const { return pos_ == data_.size(); }
    /** Panic unless the whole blob was consumed (trailing garbage). */
    void expectEnd() const;

  private:
    void need(size_t n) const; ///< panics when fewer than n bytes remain

    const std::string &data_;
    size_t pos_ = 0;
};

/**
 * One simulator checkpoint: the serialized machine + loop state and
 * the deterministic boundary (total retired ops) it was taken at.
 */
struct SimCheckpoint
{
    std::string data;   ///< blob (empty = no checkpoint taken)
    uint64_t instrs = 0; ///< retired-op count at the boundary

    bool valid() const { return !data.empty(); }
};

/** Perfmon counter serialization (func_cycles in sorted key order). */
void saveState(CkptWriter &w, const Perfmon &pm);
void loadState(CkptReader &r, Perfmon &pm);

} // namespace epic

#endif // EPIC_SIM_CHECKPOINT_H
