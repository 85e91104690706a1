#include "sim/timing.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "sim/alat.h"
#include "sim/caches.h"
#include "sim/checkpoint.h"
#include "sim/decode.h"
#include "sim/exec_core.h"
#include "sim/predictor.h"
#include "support/logging.h"
#include "support/supervision/supervise.h"
#include "support/telemetry/trace.h"

namespace epic {

namespace {

/** Scoreboard state of one register: ready/planned times and producer
 *  class, packed together so one scoreboard probe touches one record
 *  instead of four parallel arrays. */
struct RegT
{
    int64_t ready = 0;   ///< cycle the value is actually available
    int64_t planned = 0; ///< cycle the compiler planned it available
    uint8_t f_unit = 0;  ///< producer was the F-unit
    uint8_t load = 0;    ///< producer was a load
};

/** Per-frame timing state: register ready times and producer class. */
struct TFrame
{
    // Indexed like the architectural frame's register files.
    std::vector<RegT> gr;
    std::vector<int64_t> ready_pr;

    TFrame(size_t ngr, size_t npr)
    {
        reset(ngr, npr);
    }

    /** Re-zero for a new activation, reusing the vectors' capacity (the
     *  timing frames are pooled across call/return). */
    void
    reset(size_t ngr, size_t npr)
    {
        gr.assign(ngr, RegT{});
        ready_pr.assign(npr, 0);
    }
};

/**
 * Fully-associative exact-LRU DTLB.
 *
 * Same replacement decisions as the original timestamp map (unique
 * access ticks make LRU order identical to last-touch order, so the
 * miss/eviction stream is bit-identical), but O(1) per operation: a
 * fixed slot array threaded into an intrusive recency list plus a hash
 * index, with a head shortcut for the common touch-the-MRU-page case.
 * A set-associative clock array would be cheaper still, but it changes
 * dtlb_miss counts and therefore the deterministic run artifacts.
 */
class Dtlb
{
  public:
    explicit Dtlb(int entries) : cap_(std::max(1, entries))
    {
        slots_.reserve(static_cast<size_t>(cap_));
        index_.reserve(static_cast<size_t>(cap_) * 2);
    }

    bool
    access(uint64_t page)
    {
        if (head_ >= 0 && slots_[static_cast<size_t>(head_)].page == page)
            return true; // already most-recent: no reorder needed
        auto it = index_.find(page);
        if (it == index_.end())
            return false;
        unlink(it->second);
        linkFront(it->second);
        return true;
    }

    void
    insert(uint64_t page)
    {
        if (static_cast<int>(slots_.size()) < cap_) {
            int s = static_cast<int>(slots_.size());
            slots_.push_back(Slot{page, -1, -1});
            index_.emplace(page, s);
            linkFront(s);
            return;
        }
        int victim = tail_; // least-recently-touched entry
        index_.erase(slots_[static_cast<size_t>(victim)].page);
        unlink(victim);
        slots_[static_cast<size_t>(victim)].page = page;
        linkFront(victim);
        index_.emplace(page, victim);
    }

    /** Checkpoint the recency list LRU-first: replaying insert() in
     *  that order reconstructs the exact replacement state. */
    void
    saveState(CkptWriter &w) const
    {
        std::vector<uint64_t> pages;
        pages.reserve(slots_.size());
        for (int s = tail_; s >= 0;
             s = slots_[static_cast<size_t>(s)].prev)
            pages.push_back(slots_[static_cast<size_t>(s)].page);
        w.u64(pages.size());
        for (const uint64_t p : pages)
            w.u64(p);
    }

    void
    loadState(CkptReader &r)
    {
        slots_.clear();
        index_.clear();
        head_ = tail_ = -1;
        const uint64_t n = r.u64();
        epic_assert(n <= static_cast<uint64_t>(cap_),
                    "checkpoint DTLB geometry mismatch");
        for (uint64_t i = 0; i < n; ++i)
            insert(r.u64());
    }

  private:
    struct Slot
    {
        uint64_t page;
        int prev, next;
    };

    void
    linkFront(int s)
    {
        Slot &sl = slots_[static_cast<size_t>(s)];
        sl.prev = -1;
        sl.next = head_;
        if (head_ >= 0)
            slots_[static_cast<size_t>(head_)].prev = s;
        head_ = s;
        if (tail_ < 0)
            tail_ = s;
    }
    void
    unlink(int s)
    {
        Slot &sl = slots_[static_cast<size_t>(s)];
        if (sl.prev >= 0)
            slots_[static_cast<size_t>(sl.prev)].next = sl.next;
        else
            head_ = sl.next;
        if (sl.next >= 0)
            slots_[static_cast<size_t>(sl.next)].prev = sl.prev;
        else
            tail_ = sl.prev;
    }

    int cap_;
    int head_ = -1, tail_ = -1;
    std::vector<Slot> slots_;
    std::unordered_map<uint64_t, int> index_;
};

/** How one issue group left the per-group pipeline. */
enum class GroupExit { Next, Finished, Failed };

} // namespace

TimingResult
simulate(Program &prog, Memory &mem, const TimingOptions &opts)
{
    TimingResult res;
    TraceSpan span("sim", "timing-run");
    const MachineConfig &mach = opts.mach;

    Function *entry_fn = prog.func(prog.entry_func);
    if (!entry_fn) {
        res.fail(RunStatus::Faulted, "no entry function");
        return res;
    }

    // Sampled-mode preconditions (mirrors the CLI mutual-exclusion
    // rules so library callers get the same contract).
    if (opts.sim_mode == SimMode::Sampled) {
        if (opts.ff_functional == 0 || opts.detail_window == 0) {
            res.fail(RunStatus::Faulted,
                     "sampled mode requires ff_functional and "
                     "detail_window > 0");
            return res;
        }
        if (opts.resume_from) {
            res.fail(RunStatus::Faulted,
                     "sampled mode cannot resume from a checkpoint");
            return res;
        }
    }

    // Heap high-water budget: the image is fully mapped before the run
    // (pages are never mapped mid-simulation), so entry *is* the high
    // water mark.
    if (opts.max_mem_pages != 0 && mem.mappedPages() > opts.max_mem_pages) {
        res.fail(RunStatus::BudgetExceeded,
                 "memory page budget exceeded (" +
                     std::to_string(mem.mappedPages()) + " > " +
                     std::to_string(opts.max_mem_pages) + " pages)");
        return res;
    }

    // Predecode: per-block issue groups in dense per-function arrays,
    // built once for this run (DESIGN.md §12).
    DecodedProgram dec = DecodedProgram::forTiming(prog);

    // Injected decode corruption: poison the entry function's first
    // value-returning BR_RET in the decoded tables. The program then
    // runs to completion with a wrong architected result — exactly the
    // silent-corruption failure mode checksum validation must catch.
    if (opts.corrupt_decode) {
        bool done = false;
        for (auto &bp : entry_fn->blocks) {
            if (!bp || done)
                continue;
            for (size_t i = 0; i < bp->instrs.size() && !done; ++i) {
                if (bp->instrs[i].op != Opcode::BR_RET ||
                    bp->instrs[i].srcs.empty())
                    continue;
                auto poison = [](DecodedInstr &victim) {
                    victim.src[0].kind = DecodedOp::K::Imm;
                    victim.src[0].imm =
                        static_cast<int64_t>(0xDEADBEEFDEADBEEFull);
                };
                const DecodedFunction &dfc = dec.func(entry_fn->id);
                const DecodedBlock &dbc = dfc.block(bp->id);
                poison(const_cast<DecodedInstr &>(dbc.dinstrs[i]));
                // The execute path reads the dense group-ordered
                // copies, so the corruption must reach them too.
                for (uint32_t g = 0; g < dbc.ngroups; ++g) {
                    const DecodedGroup &dg = dbc.groups[g];
                    for (uint16_t mi = 0; mi < dg.nops; ++mi)
                        if (dfc.gops()[dg.op_off + mi] ==
                            static_cast<int32_t>(i))
                            poison(const_cast<DecodedInstr &>(
                                dfc.ginstrs()[dg.op_off + mi]));
                }
                done = true;
            }
        }
    }

    // Execution state (architected + timing), parallel stacks.
    std::deque<Frame> frames;
    std::deque<TFrame> tframes;
    std::deque<int> frame_stacked; ///< register-stack frame sizes
    std::vector<Frame> frame_pool;   ///< recycled architectural frames
    std::vector<TFrame> tframe_pool; ///< recycled timing frames

    const uint64_t stack_top = Program::kStackTop - 64;
    frames.emplace_back(entry_fn,
                        stack_top - Frame::frameBytes(*entry_fn));
    auto push_tframe = [&](const Frame &f) {
        if (tframe_pool.empty()) {
            tframes.emplace_back(f.gr.size(), f.pr.size());
        } else {
            tframes.push_back(std::move(tframe_pool.back()));
            tframe_pool.pop_back();
            tframes.back().reset(f.gr.size(), f.pr.size());
        }
    };
    push_tframe(frames.back());
    frame_stacked.push_back(entry_fn->stacked_regs);
    // Cached top-of-stack pointers (deque references are stable until
    // the element itself is popped): saves two deque::back() chases
    // per group; refreshed at call/return/restore.
    Frame *cur_frame = &frames.back();
    TFrame *cur_tf = &tframes.back();

    // Machine structures.
    MemHierarchy hier(mach);
    BranchPredictor pred(mach.predictor_bits);
    Dtlb dtlb(mach.dtlb_entries);
    Alat alat(mach.alat_entries, mach.alat_assoc);
    Perfmon &pm = res.pm;

    // ---- PMU sampling (sim/pmu/pmu.h) ----
    // Local mirrors keep every hook to one predictable branch when the
    // PMU is off: `pmu_next` is ~0 (the cycle counter never reaches
    // it), and the feature booleans are compile-visible loop constants.
    std::shared_ptr<PmuData> pmu;
    if (opts.pmu.enabled())
        pmu = std::make_shared<PmuData>(opts.pmu);
    res.pmu = pmu;
    PmuData *pmu_p = pmu.get();
    const bool pmu_ear = pmu_p && opts.pmu.ear_latency_min != 0;
    const int ear_latency_min = opts.pmu.ear_latency_min;
    const bool pmu_branches = pmu_p && opts.pmu.branch_profile;
    const bool pmu_regions = pmu_p && opts.pmu.regions;
    uint64_t pmu_next = pmu_p ? pmu_p->nextSampleAt() : ~0ull;
    // Cached hot-region attribution slot, same pattern as func_cyc:
    // (fn, bb) change only at control transfers.
    PmuData::RegionCycles *region_cyc = nullptr;
    int region_fid = -1, region_bid = -1;

    // Register-stack engine state.
    int64_t rse_logical = entry_fn->stacked_regs;
    int64_t rse_spilled = 0;

    // Store ring for micropipe: the 16 most recent stores (cycle,
    // address), a plain cyclic overwrite array. Stores enter it in
    // non-decreasing cycle order (a store records its group's issue
    // time, and issue times strictly increase), so a load scans it
    // newest first and stops at the first store outside the window.
    // Whether a load is charged does not depend on which in-window
    // entry matches.
    struct StoreRec
    {
        int64_t cyc;
        uint64_t addr;
    };
    StoreRec store_ring[16] = {}; ///< zeroed: checkpoints serialize it
    uint32_t store_count = 0;     ///< total stores pushed so far

    Function *fn = entry_fn;
    const DecodedFunction *dfn = &dec.func(fn->id);
    BasicBlock *bb = fn->block(fn->entry);
    if (!bb) {
        res.fail(RunStatus::Faulted, "entry block missing");
        return res;
    }
    const DecodedBlock *db = &dfn->block(bb->id);
    uint32_t gi = 0; ///< group index within bb

    // Pool bases for DecodedGroup spans; refreshed whenever `dfn`
    // changes (call/return only).
    const DecodedInstr *gdi_base = dfn->ginstrs();
    const uint64_t *gaddr_base = dfn->gaddrs();
    const uint64_t *gline_base = dfn->glines();

    int64_t t_prev = -1;   ///< issue time of the previous group
    int64_t fe_time = 0;   ///< fetch-pipeline clock
    // Recent group issue times (decoupling instruction buffer), as a
    // fixed ring: head is the oldest of the last `ib_groups` entries.
    const size_t ib_groups =
        std::max<size_t>(1, mach.instr_buffer_ops / mach.issue_width);
    std::vector<int64_t> issue_hist(ib_groups, 0);
    size_t hist_n = 0, hist_head = 0;

    uint64_t safety = 0;

    // Running total of all charged cycles: pm.total() maintained
    // incrementally so the per-group budget check is O(1) instead of a
    // sum over every cycle category (same trip point, same error).
    uint64_t cycles_total = 0;
    // Cache the per-function cycle-attribution slot: `fn` changes only
    // at call/return, so one hash lookup per charge is wasted work.
    uint64_t *func_cyc = nullptr;
    int func_cyc_id = -1;

    auto charge = [&](CycleCat c, int64_t n) {
        if (n <= 0)
            return;
        pm.addCycles(c, static_cast<uint64_t>(n));
        cycles_total += static_cast<uint64_t>(n);
        if (func_cyc_id != fn->id) {
            func_cyc = &pm.func_cycles[fn->id];
            func_cyc_id = fn->id;
        }
        *func_cyc += static_cast<uint64_t>(n);
        if (__builtin_expect(pmu_regions, 0)) {
            if (region_fid != fn->id || region_bid != bb->id) {
                region_cyc = pmu_p->regionSlot(fn->id, bb->id);
                region_fid = fn->id;
                region_bid = bb->id;
            }
            (*region_cyc)[static_cast<size_t>(c)] +=
                static_cast<uint64_t>(n);
        }
    };

    // Scratch for gathering call arguments (reused across calls).
    std::vector<GrVal> args;

    // Resume positions for returns: group index in caller's block.
    struct RetPos
    {
        int block;
        uint32_t group;
    };
    std::deque<RetPos> ret_stack;

    // ---- Sampled-mode phase state (SimMode::Sampled) ----
    // The run cycles warm-up -> measure -> fast-forward on an absolute
    // retired-op schedule. Micro-architectural state is left untouched
    // during fast-forward, but untouched is not warm: the caches are
    // stale by ff_functional ops when a window opens, and windows that
    // measure from their first op systematically over-observe miss
    // stalls (load-bubble error >2x on cache-friendly workloads). So
    // the first half of every detailed window re-warms the hierarchy,
    // predictor and DTLB in full detail while its cycles and ops are
    // excluded from the extrapolation basis; only the second half is
    // measured (DESIGN.md §18). In Detailed mode `in_detail` is
    // constant true and the flip check is one never-taken predicted
    // branch per group.
    const bool sampled = opts.sim_mode == SimMode::Sampled;
    const uint64_t warm_len = sampled ? opts.detail_window / 2 : 0;
    const uint64_t meas_len =
        sampled ? opts.detail_window - warm_len : 0;
    // The first window measures the full detail_window from op 0 with
    // no warm-up: run-entry state is genuinely cold in detailed mode
    // too, and discarding it would systematically drop the start-up
    // transient (compulsory misses) from the estimate. Its cycles form
    // their own stratum — counted once, never scaled — because the
    // transient happens exactly once; scaling it by coverage was
    // measured to overshoot the load-bubble category by ~19% on gzip.
    // Steady-state windows (warm-up discarded) extrapolate over the
    // remaining ops only.
    uint8_t sphase = 1;             ///< 0 warm, 1 measure, 2 ff
    bool in_detail = true;
    uint64_t next_switch = sampled ? opts.detail_window : ~0ull;
    uint64_t phase_start_ops = 0;   ///< retiredOps() at phase entry
    uint64_t sampled_windows = sampled ? 1 : 0;
    bool head_done = false;         ///< first (cold) window closed?
    uint64_t head_ops = 0;          ///< ops measured in the cold window
    uint64_t meas_ops_acc = 0;      ///< steady-state measured ops
    /// pm.cycles at measure-phase entry / head / steady-state deltas.
    std::array<uint64_t, Perfmon::kNumCats> meas_base{};
    std::array<uint64_t, Perfmon::kNumCats> head_cycles{};
    std::array<uint64_t, Perfmon::kNumCats> meas_cycles{};

    /// Close a measure phase at retired-op count `rops`: route the
    /// cycle deltas into the cold-head or steady-state stratum.
    auto close_measure = [&](uint64_t rops) {
        auto &ops = head_done ? meas_ops_acc : head_ops;
        auto &cyc = head_done ? meas_cycles : head_cycles;
        ops += rops - phase_start_ops;
        for (int c = 0; c < Perfmon::kNumCats; ++c)
            cyc[static_cast<size_t>(c)] +=
                pm.cycles[static_cast<size_t>(c)] -
                meas_base[static_cast<size_t>(c)];
        head_done = true;
    };

    // ---- Checkpoint/restore (sim/checkpoint.h) ----
    // The entire loop state above is serialized at a deterministic
    // retired-op boundary; restore rebuilds it exactly, so the resumed
    // run's counters finish byte-identical to an uninterrupted one.
    auto retiredOps = [&]() { return pm.useful_ops + pm.squashed_ops; };

    auto saveCheckpoint = [&](SimCheckpoint &ck) {
        CkptWriter w;
        mem.saveState(w);
        hier.saveState(w);
        pred.saveState(w);
        dtlb.saveState(w);
        alat.saveState(w);
        saveState(w, pm);
        w.u64(frames.size());
        for (const Frame &f : frames) {
            w.i64(f.fn->id);
            w.u64(f.gr.size());
            for (const GrVal &g : f.gr) {
                w.i64(g.v);
                w.u8(g.nat ? 1 : 0);
            }
            w.u64(f.pr.size());
            w.raw(f.pr.data(), f.pr.size());
            w.i64(f.ret_block);
            w.i64(f.ret_pos);
            w.u8(static_cast<uint8_t>(f.ret_dest.cls));
            w.i64(f.ret_dest.id);
            w.u64(f.sp);
        }
        w.u64(tframes.size());
        for (const TFrame &t : tframes) {
            auto put = [&w](const std::vector<RegT> &v) {
                w.u64(v.size());
                for (const RegT &rt : v) {
                    w.i64(rt.ready);
                    w.i64(rt.planned);
                    w.u8(rt.f_unit);
                    w.u8(rt.load);
                }
            };
            put(t.gr);
            w.u64(t.ready_pr.size());
            for (const int64_t p : t.ready_pr)
                w.i64(p);
        }
        w.u64(frame_stacked.size());
        for (const int s : frame_stacked)
            w.i64(s);
        w.u64(ret_stack.size());
        for (const RetPos &rp : ret_stack) {
            w.i64(rp.block);
            w.u64(rp.group);
        }
        w.i64(rse_logical);
        w.i64(rse_spilled);
        for (const StoreRec &sr : store_ring) {
            w.i64(sr.cyc);
            w.u64(sr.addr);
        }
        w.u32(store_count);
        w.u64(issue_hist.size());
        for (const int64_t t : issue_hist)
            w.i64(t);
        w.u64(hist_n);
        w.u64(hist_head);
        w.i64(fe_time);
        w.i64(t_prev);
        w.u64(safety);
        w.u64(cycles_total);
        w.i64(fn->id);
        w.i64(bb->id);
        w.u64(gi);
        w.u8(sampled ? 1 : 0);
        if (sampled) {
            w.u8(sphase);
            w.u8(head_done ? 1 : 0);
            w.u64(next_switch);
            w.u64(phase_start_ops);
            w.u64(sampled_windows);
            w.u64(head_ops);
            w.u64(meas_ops_acc);
            for (int c = 0; c < Perfmon::kNumCats; ++c) {
                w.u64(meas_base[static_cast<size_t>(c)]);
                w.u64(head_cycles[static_cast<size_t>(c)]);
                w.u64(meas_cycles[static_cast<size_t>(c)]);
            }
        }
        w.u8(pmu_p ? 1 : 0);
        if (pmu_p)
            pmu_p->saveState(w);
        ck.data = w.take();
        ck.instrs = retiredOps();
    };

    auto restoreCheckpoint = [&](const SimCheckpoint &ck) {
        CkptReader r(ck.data);
        mem.loadState(r);
        hier.loadState(r);
        pred.loadState(r);
        dtlb.loadState(r);
        alat.loadState(r);
        loadState(r, pm);
        frames.clear();
        const uint64_t nframes = r.u64();
        for (uint64_t i = 0; i < nframes; ++i) {
            Function *ffn = prog.func(static_cast<int>(r.i64()));
            epic_assert(ffn, "checkpoint frame for missing function");
            frames.emplace_back(ffn, 0);
            Frame &f = frames.back();
            f.gr.resize(r.u64());
            for (GrVal &g : f.gr) {
                g.v = r.i64();
                g.nat = r.u8() != 0;
            }
            f.pr.resize(r.u64());
            r.raw(f.pr.data(), f.pr.size());
            f.ret_block = static_cast<int>(r.i64());
            f.ret_pos = static_cast<int>(r.i64());
            f.ret_dest.cls = static_cast<RegClass>(r.u8());
            f.ret_dest.id = static_cast<int32_t>(r.i64());
            f.sp = r.u64();
        }
        tframes.clear();
        const uint64_t ntf = r.u64();
        for (uint64_t i = 0; i < ntf; ++i) {
            tframes.emplace_back(0, 0);
            TFrame &t = tframes.back();
            auto get = [&r](std::vector<RegT> &v) {
                v.resize(r.u64());
                for (RegT &rt : v) {
                    rt.ready = r.i64();
                    rt.planned = r.i64();
                    rt.f_unit = r.u8();
                    rt.load = r.u8();
                }
            };
            get(t.gr);
            t.ready_pr.resize(r.u64());
            for (int64_t &p : t.ready_pr)
                p = r.i64();
        }
        frame_stacked.clear();
        const uint64_t nstk = r.u64();
        for (uint64_t i = 0; i < nstk; ++i)
            frame_stacked.push_back(static_cast<int>(r.i64()));
        ret_stack.clear();
        const uint64_t nret = r.u64();
        for (uint64_t i = 0; i < nret; ++i) {
            RetPos rp;
            rp.block = static_cast<int>(r.i64());
            rp.group = static_cast<uint32_t>(r.u64());
            ret_stack.push_back(rp);
        }
        rse_logical = r.i64();
        rse_spilled = r.i64();
        for (StoreRec &sr : store_ring) {
            sr.cyc = r.i64();
            sr.addr = r.u64();
        }
        store_count = r.u32();
        const uint64_t nh = r.u64();
        epic_assert(nh == issue_hist.size(),
                    "checkpoint machine-config mismatch");
        for (int64_t &t : issue_hist)
            t = r.i64();
        hist_n = r.u64();
        hist_head = r.u64();
        fe_time = r.i64();
        t_prev = r.i64();
        safety = r.u64();
        cycles_total = r.u64();
        const int cur_fn = static_cast<int>(r.i64());
        const int cur_bb = static_cast<int>(r.i64());
        gi = static_cast<uint32_t>(r.u64());
        const bool had_sampled = r.u8() != 0;
        epic_assert(had_sampled == sampled,
                    "checkpoint sim-mode mismatch");
        if (sampled) {
            sphase = r.u8();
            in_detail = sphase != 2;
            head_done = r.u8() != 0;
            next_switch = r.u64();
            phase_start_ops = r.u64();
            sampled_windows = r.u64();
            head_ops = r.u64();
            meas_ops_acc = r.u64();
            for (int c = 0; c < Perfmon::kNumCats; ++c) {
                meas_base[static_cast<size_t>(c)] = r.u64();
                head_cycles[static_cast<size_t>(c)] = r.u64();
                meas_cycles[static_cast<size_t>(c)] = r.u64();
            }
        }
        const bool had_pmu = r.u8() != 0;
        epic_assert(had_pmu == (pmu_p != nullptr),
                    "checkpoint PMU-config mismatch");
        if (pmu_p)
            pmu_p->loadState(r);
        r.expectEnd();
        fn = prog.func(cur_fn);
        epic_assert(fn, "checkpoint resumes missing function");
        dfn = &dec.func(fn->id);
        gdi_base = dfn->ginstrs();
        gaddr_base = dfn->gaddrs();
        gline_base = dfn->glines();
        bb = fn->block(cur_bb);
        epic_assert(bb, "checkpoint resumes missing block");
        db = &dfn->block(bb->id);
        func_cyc = nullptr;
        func_cyc_id = -1;
        region_cyc = nullptr;
        region_fid = region_bid = -1;
        cur_frame = &frames.back();
        cur_tf = &tframes.back();
        pmu_next = pmu_p ? pmu_p->nextSampleAt() : ~0ull;
    };

    if (opts.resume_from && opts.resume_from->valid())
        restoreCheckpoint(*opts.resume_from);

    const bool ckpt_enabled =
        opts.checkpoint_every != 0 && opts.checkpoint_out != nullptr;
    uint64_t next_ckpt =
        ckpt_enabled ? (retiredOps() / opts.checkpoint_every + 1) *
                           opts.checkpoint_every
                     : ~0ull;
    bool hang_pending = opts.hang_at_instr != 0;
    bool alat_corrupt_pending = opts.corrupt_alat;
    uint32_t sup_poll = 0;

    // ---- The per-group pipeline (DESIGN.md §18) ----
    // One generic lambda, instantiated twice: detailed timing and the
    // functional fast-forward phase of sampled mode, where `if
    // constexpr` drops the fetch, scoreboard, hierarchy and predictor
    // models and keeps only architected execution and op accounting.
    // Supervision, checkpoint, PMU and sampled-phase boundaries all
    // remain in the caller: exactly one boundary poll per group.
    auto run_group = [&](auto detailed_c,
                         const DecodedGroup &group) -> GroupExit {
        /// Detailed timing vs functional fast-forward (sampled mode).
        constexpr bool kDetailed = decltype(detailed_c)::value;

        // Dense group-ordered member records: one linear stream for
        // both the scoreboard and execute walks.
        const DecodedInstr *gdi = gdi_base + group.op_off;
        const uint64_t *gaddrs = gaddr_base + group.op_off;
        Frame &frame = *cur_frame;
        TFrame &tf = *cur_tf;
        (void)gaddrs;
        (void)tf;

        int64_t issue = 0;
        int64_t post_penalty = 0; ///< serializing penalties after issue

        if constexpr (kDetailed) {
            const uint64_t *glines = gline_base + group.line_off;

            // ---- Front end: fetch this group's lines ----
            int64_t fetch_floor =
                hist_n >= ib_groups ? issue_hist[hist_head] : 0;
            fe_time = std::max(fe_time, fetch_floor);
            int fe_cost = 1;
            for (uint16_t li = 0; li < group.nlines; ++li) {
                uint64_t line = glines[li];
                MemAccessResult fr2 = hier.fetch(line);
                ++pm.l1i_accesses;
                if (!fr2.l1_hit) {
                    ++pm.l1i_misses;
                    if (group.attr_union & kAttrTailDup)
                        ++pm.l1i_miss_taildup;
                    if (group.attr_union &
                        (kAttrPeelCopy | kAttrRemainder))
                        ++pm.l1i_miss_peel_remainder;
                    if (!fr2.l2_hit) {
                        ++pm.l2i_misses;
                        if (group.attr_union & kAttrTailDup)
                            ++pm.l2i_miss_taildup;
                        if (group.attr_union &
                            (kAttrPeelCopy | kAttrRemainder))
                            ++pm.l2i_miss_peel_remainder;
                    }
                    if (__builtin_expect(pmu_ear, 0) &&
                        fr2.latency >= ear_latency_min)
                        pmu_p->recordIear(fn->id, bb->id, fr2.latency,
                                          group.attr_union);
                }
                fe_cost = std::max(fe_cost, fr2.latency);
            }
            fe_time += fe_cost;

            // ---- Scoreboard: earliest issue ----
            int64_t base = t_prev + 1;
            int64_t src_ready = base;
            int64_t src_planned = base;
            bool binding_is_f = false, binding_is_load = false;
            auto consider = [&](int64_t ready, int64_t planned,
                                bool is_f, bool is_load) {
                if (ready > src_ready) {
                    src_ready = ready;
                    src_planned = planned;
                    binding_is_f = is_f;
                    binding_is_load = is_load;
                }
            };
            auto consider_reg = [&](const Reg &r) {
                if (r.cls == RegClass::Gr && r.id != 0) {
                    const RegT &t = tf.gr[r.id];
                    consider(t.ready, t.planned, t.f_unit, t.load);
                } else if (r.cls == RegClass::Pr && r.id != 0) {
                    consider(tf.ready_pr[r.id], base, false, false);
                }
            };
            for (uint16_t mi = 0; mi < group.nops; ++mi) {
                const DecodedInstr &di = gdi[mi];
                if (di.guard.id != 0)
                    consider(tf.ready_pr[di.guard.id], base, false, false);
                if (!frame.readPr(di.guard))
                    continue; // squashed ops don't stall on operands
                if (di.flags & kDecCall) {
                    // Call argument lists live on the original
                    // instruction.
                    for (const Operand &o : di.orig->srcs)
                        if (o.isReg())
                            consider_reg(o.reg);
                    continue;
                }
                for (uint8_t si = 0; si < di.nsrcs; ++si)
                    if (di.src[si].kind == DecodedOp::K::Reg)
                        consider_reg(di.src[si].reg);
            }

            issue = std::max({base, fe_time, src_ready});

            // ---- Stall attribution ----
            int64_t src_stall = std::max<int64_t>(0, src_ready - base);
            int64_t fe_stall =
                std::max<int64_t>(0, std::min(issue, fe_time) - base -
                                         src_stall);
            if (src_stall > 0) {
                int64_t planned_part = std::clamp<int64_t>(
                    src_planned - base, 0, src_stall);
                int64_t dynamic_part = src_stall - planned_part;
                charge(binding_is_f ? CycleCat::FloatScoreboard
                                    : CycleCat::MiscScoreboard,
                       planned_part);
                charge(binding_is_load ? CycleCat::IntLoadBubble
                                       : CycleCat::MiscScoreboard,
                       dynamic_part);
            }
            charge(CycleCat::FrontEndBubble, fe_stall);
            charge(CycleCat::Unstalled, 1);
            pm.nop_ops += group.nnops;

            if (hist_n < ib_groups) {
                issue_hist[hist_n++] = issue; // head stays at oldest (0)
            } else {
                issue_hist[hist_head] = issue;
                if (++hist_head == ib_groups)
                    hist_head = 0;
            }
        } else {
            // Fast-forward: architected op accounting only; the fetch
            // pipeline, scoreboard and cycle clocks stay frozen.
            pm.nop_ops += group.nnops;
        }

        // ---- Execute ops in slot order ----
        enum class Ctl { None, Branch, Call, Ret } ctl = Ctl::None;
        int ctl_target = -1, ctl_callee = -1;
        const Instruction *ctl_inst = nullptr;
        Effect ctl_eff;

        for (uint16_t op_i = 0; op_i < group.nops; ++op_i) {
            const DecodedInstr &di = gdi[op_i];
            Effect eff = execDecoded(prog, di, frame, mem);
            if (eff.trap) {
                res.fail(RunStatus::Faulted,
                         "trap in " + fn->name + " at '" +
                             di.orig->str() + "': " + eff.trap_msg);
                return GroupExit::Failed;
            }
            if (eff.executed)
                ++pm.useful_ops;
            else
                ++pm.squashed_ops;

            if constexpr (kDetailed) {
                // Result timing for executed, non-memory ops.
                int actual_lat = di.latency;
                int planned_lat = di.latency;
                // chk.a on an ALAT hit delivers nothing: the dest keeps
                // the paired ld.a's ready time (a consumer still waits
                // out an in-flight ld.a cache miss).
                bool chk_validated = false;

                // ---- Memory behaviour ----
                if (eff.executed && eff.is_mem) {
                    if (eff.is_load) {
                        ++pm.loads;
                        uint64_t page = Memory::pageOf(eff.addr);
                        int tlb_extra = 0;
                        if (eff.mem_deferred) {
                            // Speculative load that deferred to NaT.
                            if (eff.mem_null_page) {
                                ++pm.null_page_loads;
                                post_penalty += mach.nat_page_cycles;
                                charge(CycleCat::IntLoadBubble,
                                       mach.nat_page_cycles);
                            } else {
                                ++pm.wild_loads;
                                if (opts.deferral ==
                                    DeferralPolicy::General) {
                                    // Kernel walks the page hierarchy
                                    // and does not cache the (absent)
                                    // result.
                                    post_penalty += mach.os_walk_cycles;
                                    charge(CycleCat::Kernel,
                                           mach.os_walk_cycles);
                                    pm.kernel_ops += static_cast<uint64_t>(
                                        mach.os_walk_cycles);
                                } else {
                                    // Sentinel: defer cheaply at the
                                    // DTLB; recovery cost is charged at
                                    // chk.s.
                                    post_penalty += mach.nat_page_cycles;
                                    charge(CycleCat::IntLoadBubble,
                                           mach.nat_page_cycles);
                                }
                            }
                        } else {
                            // ---- ALAT (data speculation) ----
                            // A chk.a whose entry survived retires like
                            // a NOP — no D-cache or TLB traffic, result
                            // at the planned (hit) latency; a miss
                            // re-executes the ordinary load path below
                            // plus the re-steer penalty, so
                            // AlatRecovery == alat_misses *
                            // alat_recovery_cycles exactly.
                            if (__builtin_expect(di.op == Opcode::CHK_A,
                                                 0)) {
                                if (alat.check(di.dest0.id, eff.addr,
                                               di.orig->size)) {
                                    ++pm.alat_hits;
                                    chk_validated = true;
                                } else {
                                    ++pm.alat_misses;
                                    post_penalty +=
                                        mach.alat_recovery_cycles;
                                    charge(CycleCat::AlatRecovery,
                                           mach.alat_recovery_cycles);
                                }
                            }
                            if (!chk_validated) {
                                if (!dtlb.access(page)) {
                                    ++pm.dtlb_misses;
                                    ++pm.vhpt_walks;
                                    tlb_extra = mach.vhpt_walk_cycles;
                                    dtlb.insert(page);
                                }
                                MemAccessResult mr = hier.load(eff.addr);
                                ++pm.l1d_accesses;
                                if (!mr.l1_hit)
                                    ++pm.l1d_misses;
                                actual_lat = std::max(planned_lat,
                                                      mr.latency + tlb_extra);
                                if (__builtin_expect(pmu_ear, 0) &&
                                    !mr.l1_hit &&
                                    mr.latency + tlb_extra >=
                                        ear_latency_min)
                                    pmu_p->recordDear(fn->id, bb->id,
                                                      mr.latency + tlb_extra,
                                                      group.attr_union);

                                // Micropipe: spurious store-to-load
                                // forwarding, newest store first.
                                const uint32_t nst =
                                    store_count < 16 ? store_count : 16;
                                for (uint32_t k = 1; k <= nst; ++k) {
                                    const StoreRec &sr =
                                        store_ring[(store_count - k) & 15u];
                                    const int64_t sc = sr.cyc;
                                    const uint64_t sa = sr.addr;
                                    if (issue - sc > mach.stlf_window)
                                        break; // all older ones too
                                    bool index_match =
                                        ((sa >> 3) & 0x7f) ==
                                        ((eff.addr >> 3) & 0x7f);
                                    bool same_word = (sa & ~7ull) ==
                                                     (eff.addr & ~7ull);
                                    if (index_match && !same_word) {
                                        ++pm.stlf_conflicts;
                                        post_penalty += mach.stlf_penalty;
                                        charge(CycleCat::Micropipe,
                                               mach.stlf_penalty);
                                        break;
                                    }
                                }

                                if (__builtin_expect(di.op == Opcode::LD_A,
                                                     0)) {
                                    ++pm.advanced_loads;
                                    alat.allocate(di.dest0.id, eff.addr,
                                                  di.orig->size);
                                }
                            }
                        }
                    } else {
                        ++pm.stores;
                        uint64_t page = Memory::pageOf(eff.addr);
                        if (!dtlb.access(page)) {
                            ++pm.dtlb_misses;
                            ++pm.vhpt_walks;
                            post_penalty += mach.vhpt_walk_cycles / 2;
                            charge(CycleCat::Micropipe,
                                   mach.vhpt_walk_cycles / 2);
                            dtlb.insert(page);
                        }
                        hier.store(eff.addr);
                        store_ring[store_count & 15u] =
                            StoreRec{issue, eff.addr};
                        ++store_count;
                        // Committing store: drop overlapping advanced-load
                        // entries (their chk.a must recover).
                        alat.invalidate(eff.addr, di.orig->size);
                    }
                }

                // ---- Result ready times ----
                if (eff.executed && !chk_validated) {
                    bool is_f =
                        di.fu == static_cast<uint8_t>(FuClass::F);
                    bool is_ld = (di.flags & kDecLoad) != 0;
                    auto mark_dest = [&](const Reg &d) {
                        if (d.cls == RegClass::Gr && d.id != 0) {
                            tf.gr[d.id] =
                                RegT{issue + actual_lat,
                                     issue + planned_lat,
                                     static_cast<uint8_t>(is_f),
                                     static_cast<uint8_t>(is_ld)};
                        } else if (d.cls == RegClass::Pr && d.id != 0) {
                            // Available to same-group branches and to
                            // all next-group consumers.
                            tf.ready_pr[d.id] = issue;
                        }
                    };
                    if (di.dest0.valid())
                        mark_dest(di.dest0);
                    if (di.dest1.valid())
                        mark_dest(di.dest1);
                } else if ((di.op == Opcode::CMP || di.op == Opcode::CMPI) &&
                           di.ctype == CmpType::Unc) {
                    // unc compares clear their destinations even when
                    // squashed; the predicates are ready at issue.
                    if (di.dest0.cls == RegClass::Pr && di.dest0.id != 0)
                        tf.ready_pr[di.dest0.id] = issue;
                    if (di.dest1.valid() && di.dest1.cls == RegClass::Pr &&
                        di.dest1.id != 0)
                        tf.ready_pr[di.dest1.id] = issue;
                }

                // ---- Control ----
                const uint64_t paddr = gaddrs[op_i];
                if (di.op == Opcode::BR && (di.flags & kDecHasGuard)) {
                    // Conditional branch: predict direction.
                    bool taken = eff.executed;
                    ++pm.branch_predictions;
                    bool predicted = pred.predict(paddr);
                    pred.update(paddr, taken);
                    if (predicted != taken) {
                        ++pm.mispredictions;
                        post_penalty += mach.mispredict_penalty;
                        charge(CycleCat::BrMispredFlush,
                               mach.mispredict_penalty);
                    }
                    if (__builtin_expect(pmu_branches, 0))
                        pmu_p->recordBranch(paddr, fn->id, bb->id, taken,
                                            predicted != taken);
                } else if (di.op == Opcode::CHK_S &&
                           eff.ctl == Effect::Ctl::Branch) {
                    // Speculation check fired: flush + recovery.
                    post_penalty += mach.mispredict_penalty +
                                    opts.sentinel_recovery_cycles;
                    charge(CycleCat::BrMispredFlush,
                           mach.mispredict_penalty);
                    charge(CycleCat::Kernel, opts.sentinel_recovery_cycles);
                } else if (di.op == Opcode::BR_ICALL && eff.executed) {
                    ++pm.branch_predictions;
                    int ptarget = pred.predictTarget(paddr);
                    pred.updateTarget(paddr, eff.callee);
                    if (ptarget != eff.callee) {
                        ++pm.mispredictions;
                        post_penalty += mach.mispredict_penalty;
                        charge(CycleCat::BrMispredFlush,
                               mach.mispredict_penalty);
                    }
                    if (__builtin_expect(pmu_branches, 0))
                        pmu_p->recordBranch(paddr, fn->id, bb->id, true,
                                            ptarget != eff.callee);
                }
            } else {
                // Fast-forward: architected memory counters only; no
                // hierarchy, DTLB, predictor or store-ring traffic, so
                // all micro-architectural state carries warm into the
                // next detailed window.
                if (eff.executed && eff.is_mem) {
                    if (eff.is_load) {
                        ++pm.loads;
                        if (eff.mem_deferred) {
                            if (eff.mem_null_page)
                                ++pm.null_page_loads;
                            else
                                ++pm.wild_loads;
                        }
                    } else {
                        ++pm.stores;
                    }
                }
            }

            if (eff.ctl != Effect::Ctl::Next && eff.executed) {
                ++pm.branches;
                if constexpr (kDetailed) {
                    if (di.flags & (kDecCall | kDecRet)) {
                        post_penalty += mach.call_redirect_cycles;
                        charge(CycleCat::FrontEndBubble,
                               mach.call_redirect_cycles);
                    }
                }
                ctl = eff.ctl == Effect::Ctl::Branch ? Ctl::Branch
                      : eff.ctl == Effect::Ctl::Call ? Ctl::Call
                                                     : Ctl::Ret;
                ctl_target = eff.branch_target;
                ctl_callee = eff.callee;
                ctl_inst = di.orig;
                ctl_eff = eff;
                break; // a taken transfer ends the group
            }
        }

        if constexpr (kDetailed)
            t_prev = issue + post_penalty;
        (void)post_penalty;

        // ---- Apply control transfer ----
        switch (ctl) {
          case Ctl::None:
            ++gi;
            break;

          case Ctl::Branch: {
            BasicBlock *nb = fn->block(ctl_target);
            if (!nb) {
                res.fail(RunStatus::Faulted, "branch to dead block");
                return GroupExit::Failed;
            }
            bb = nb;
            db = &dfn->block(bb->id);
            gi = 0;
            break;
          }

          case Ctl::Call: {
            if (static_cast<int>(frames.size()) >= opts.max_depth) {
                res.fail(RunStatus::BudgetExceeded,
                         "call depth limit exceeded (" +
                             std::to_string(opts.max_depth) + ")");
                return GroupExit::Failed;
            }
            Function *callee = prog.func(ctl_callee);
            epic_assert(callee, "call to missing function");
            size_t first_arg =
                ctl_inst->op == Opcode::BR_ICALL ? 1 : 0;
            size_t nargs = ctl_inst->srcs.size() - first_arg;
            if (nargs != callee->params.size()) {
                res.fail(RunStatus::Faulted,
                         "arity mismatch calling " + callee->name);
                return GroupExit::Failed;
            }
            args.resize(nargs);
            for (size_t i = 0; i < nargs; ++i)
                args[i] = detail::evalGr(prog, frame,
                                         ctl_inst->srcs[first_arg + i]);

            ret_stack.push_back(RetPos{bb->id, gi + 1});
            const uint64_t callee_sp =
                frame.sp - Frame::frameBytes(*callee);
            if (frame_pool.empty()) {
                frames.emplace_back(callee, callee_sp);
            } else {
                frames.push_back(std::move(frame_pool.back()));
                frame_pool.pop_back();
                frames.back().reset(callee, callee_sp);
            }
            Frame &nf = frames.back();
            nf.ret_dest = ctl_inst->dests.empty() ? Reg()
                                                  : ctl_inst->dests[0];
            for (size_t i = 0; i < nargs; ++i)
                nf.writeGr(callee->params[i], args[i]);
            push_tframe(nf);
            cur_frame = &nf;
            cur_tf = &tframes.back();
            if constexpr (kDetailed) {
                TFrame &ntf = *cur_tf;
                for (const Reg &p : callee->params)
                    if (p.cls == RegClass::Gr && p.id != 0)
                        ntf.gr[p.id].ready = issue + 1;
            }

            // Register stack engine.
            frame_stacked.push_back(callee->stacked_regs);
            rse_logical += callee->stacked_regs;
            int64_t resident = rse_logical - rse_spilled;
            int64_t over = resident - mach.stacked_phys_regs;
            if (over > 0) {
                rse_spilled += over;
                if constexpr (kDetailed) {
                    pm.rse_spill_regs += static_cast<uint64_t>(over);
                    int64_t cost =
                        (over + mach.rse_regs_per_cycle - 1) /
                        mach.rse_regs_per_cycle;
                    t_prev += cost;
                    charge(CycleCat::Rse, cost);
                }
            }

            // Calls flush the ALAT (timing-only state: frozen in
            // fast-forward, like the caches).
            if constexpr (kDetailed)
                alat.flushAll();

            fn = callee;
            dfn = &dec.func(fn->id);
            gdi_base = dfn->ginstrs();
            gaddr_base = dfn->gaddrs();
            gline_base = dfn->glines();
            bb = fn->block(fn->entry);
            if (!bb) {
                res.fail(RunStatus::Faulted,
                         "callee without entry block");
                return GroupExit::Failed;
            }
            db = &dfn->block(bb->id);
            gi = 0;
            break;
          }

          case Ctl::Ret: {
            const Reg ret_dest = cur_frame->ret_dest;
            frame_pool.push_back(std::move(frames.back()));
            frames.pop_back();
            tframe_pool.push_back(std::move(tframes.back()));
            tframes.pop_back();
            int my_stacked = frame_stacked.back();
            frame_stacked.pop_back();

            rse_logical -= my_stacked;
            if (frames.empty()) {
                // Flush the final partial PMU interval so sample
                // sums reconcile exactly with end-of-run totals.
                if (__builtin_expect(pmu_p != nullptr, 0))
                    pmu_p->finish(pm, cycles_total);
                res.succeed(ctl_eff.has_ret_val ? ctl_eff.ret_val.v
                                                : 0);
                return GroupExit::Finished;
            }
            // RSE fill: the caller's frame must be resident again.
            int64_t caller_frame = frame_stacked.back();
            int64_t resident = rse_logical - rse_spilled;
            if (resident < caller_frame && rse_spilled > 0) {
                int64_t fill = std::min<int64_t>(
                    caller_frame - resident, rse_spilled);
                rse_spilled -= fill;
                if constexpr (kDetailed) {
                    pm.rse_fill_regs += static_cast<uint64_t>(fill);
                    int64_t cost =
                        (fill + mach.rse_regs_per_cycle - 1) /
                        mach.rse_regs_per_cycle;
                    t_prev += cost;
                    charge(CycleCat::Rse, cost);
                }
            }

            if constexpr (kDetailed)
                alat.flushAll();

            RetPos rp = ret_stack.back();
            ret_stack.pop_back();
            Frame &caller = frames.back();
            cur_frame = &caller;
            cur_tf = &tframes.back();
            fn = const_cast<Function *>(caller.fn);
            dfn = &dec.func(fn->id);
            gdi_base = dfn->ginstrs();
            gaddr_base = dfn->gaddrs();
            gline_base = dfn->glines();
            if (ret_dest.valid()) {
                caller.writeGr(ret_dest,
                               ctl_eff.has_ret_val
                                   ? ctl_eff.ret_val
                                   : GrVal{0, false});
                if constexpr (kDetailed) {
                    TFrame &ctf = *cur_tf;
                    if (ret_dest.id != 0)
                        ctf.gr[ret_dest.id] =
                            RegT{t_prev + 1, t_prev + 1, 0, 0};
                }
            }
            bb = fn->block(rp.block);
            if (!bb) {
                res.fail(RunStatus::Faulted, "return to dead block");
                return GroupExit::Failed;
            }
            db = &dfn->block(bb->id);
            gi = rp.group;
            break;
          }
        }
        return GroupExit::Next;
    };

    while (true) {
        if (cycles_total > opts.max_cycles || ++safety > (1ull << 34)) {
            res.fail(RunStatus::BudgetExceeded,
                     "cycle budget exceeded (" +
                         std::to_string(opts.max_cycles) + " cycles)");
            return res;
        }

        // Supervision poll at the group boundary: one relaxed load when
        // disarmed; stop-request plus a strided clock check when armed.
        if (__builtin_expect(supervisionActive(), 0)) {
            if (stopRequested()) {
                res.fail(RunStatus::Deadline,
                         "interrupted by stop request");
                return res;
            }
            if (opts.deadline_ns != 0 && (sup_poll++ & 1023u) == 0 &&
                steadyNowNs() > opts.deadline_ns) {
                res.fail(RunStatus::Deadline,
                         "wall-clock deadline exceeded");
                return res;
            }
        }

        // Injected hang (chaos testing): stall at the boundary until
        // the watchdog (stop request / deadline) fires or it elapses.
        if (__builtin_expect(hang_pending, 0) &&
            retiredOps() >= opts.hang_at_instr) {
            hang_pending = false;
            const int64_t hang_end =
                steadyNowNs() + opts.hang_ms * 1000000;
            auto watchdog_fired = [&]() {
                return stopRequested() ||
                       (opts.deadline_ns != 0 &&
                        steadyNowNs() > opts.deadline_ns);
            };
            while (steadyNowNs() < hang_end && !watchdog_fired())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            if (watchdog_fired()) {
                res.fail(RunStatus::Deadline,
                         "wall-clock deadline exceeded (injected hang)");
                return res;
            }
        }

        // Injected ALAT corruption (chaos): poison one entry's tag at
        // a deterministic retired-op boundary. Timing-only state, so
        // the checksum stays provably correct — containment means the
        // supervised run still validates; at worst one extra chk.a
        // recovery is charged.
        if (__builtin_expect(alat_corrupt_pending, 0) &&
            retiredOps() >= 1000) {
            alat_corrupt_pending = false;
            alat.corruptOne();
        }

        // Deterministic checkpoint boundary (retired-op multiples).
        if (__builtin_expect(ckpt_enabled, 0) &&
            retiredOps() >= next_ckpt) {
            saveCheckpoint(*opts.checkpoint_out);
            next_ckpt = (retiredOps() / opts.checkpoint_every + 1) *
                        opts.checkpoint_every;
        }

        // PMU interval-sample boundary (cycle multiples; pmu_next is
        // ~0 with the sampler off, so this is one never-taken branch).
        if (__builtin_expect(cycles_total >= pmu_next, 0)) {
            pmu_p->sampleBoundary(pm, cycles_total);
            pmu_next = pmu_p->nextSampleAt();
            TraceRecorder &rec = TraceRecorder::global();
            if (__builtin_expect(rec.enabled(), 0)) {
                // Counter track: the trace is wall-clock and explicitly
                // non-deterministic; deltas already merged by earlier
                // ring compactions are not re-emitted.
                const PmuSample &s = pmu_p->samples().back();
                std::string args = "{";
                for (int c = 0; c < Perfmon::kNumCats; ++c) {
                    if (c)
                        args += ',';
                    args += '"';
                    args += cycleCatKey(static_cast<CycleCat>(c));
                    args += "\":";
                    args += std::to_string(s.cycles[static_cast<size_t>(c)]);
                }
                args += '}';
                rec.recordCounter("sim.cycles", "pmu", rec.nowUs(),
                                  std::move(args));
            }
        }

        // Sampled-mode phase boundary (retired-op schedule): advance
        // warm-up -> measure -> fast-forward -> warm-up. The schedule
        // is anchored at the actual flip point, so a group that
        // overshoots the boundary still gives the next phase its full
        // nominal length (deterministic in retired ops, hence
        // jobs-invariant). Measured cycles are accumulated as deltas
        // against the measure-entry snapshot, per category.
        if (__builtin_expect(sampled, 0) && retiredOps() >= next_switch) {
            const uint64_t rops = retiredOps();
            switch (sphase) {
              case 0: // warm-up done: start measuring
                sphase = 1;
                meas_base = pm.cycles;
                next_switch = rops + meas_len;
                break;
              case 1: // measure done: fast-forward
                close_measure(rops);
                sphase = 2;
                in_detail = false;
                next_switch = rops + opts.ff_functional;
                break;
              default: // fast-forward done: next window
                ++sampled_windows;
                in_detail = true;
                if (warm_len) {
                    sphase = 0;
                    next_switch = rops + warm_len;
                } else {
                    sphase = 1;
                    meas_base = pm.cycles;
                    next_switch = rops + meas_len;
                }
                break;
            }
            phase_start_ops = rops;
        }

        // End of block: fall through.
        if (gi >= db->ngroups) {
            if (bb->fallthrough < 0) {
                res.fail(RunStatus::Faulted,
                         "fell off block bb" + std::to_string(bb->id) +
                             " in " + fn->name);
                return res;
            }
            bb = fn->block(bb->fallthrough);
            if (!bb) {
                res.fail(RunStatus::Faulted, "fallthrough to dead block");
                return res;
            }
            db = &dfn->block(bb->id);
            gi = 0;
            continue;
        }
        const DecodedGroup &group = db->groups[gi];
        const GroupExit ge = __builtin_expect(in_detail, 1)
                                 ? run_group(std::true_type{}, group)
                                 : run_group(std::false_type{}, group);
        if (__builtin_expect(ge != GroupExit::Next, 0)) {
            if (ge == GroupExit::Finished && sampled) {
                // Close an open measure phase, then the stratified
                // estimate: the cold-head window's cycles count once,
                // unscaled; steady-state measured cycles (warm-up
                // excluded) are scaled over the remaining ops by
                // retired-op coverage, per category, summed exactly
                // (SampledStats doc).
                if (sphase == 1)
                    close_measure(retiredOps());
                SampledStats &ss = res.sampled;
                ss.enabled = true;
                ss.windows = sampled_windows;
                ss.head_ops = head_ops;
                ss.detail_ops = head_ops + meas_ops_acc;
                ss.total_ops = retiredOps();
                const uint64_t tail_ops = ss.total_ops - head_ops;
                for (int c = 0; c < Perfmon::kNumCats; ++c) {
                    const size_t ci = static_cast<size_t>(c);
                    ss.detail_cycles +=
                        head_cycles[ci] + meas_cycles[ci];
                    uint64_t tail_est;
                    if (meas_ops_acc != 0) {
                        tail_est = static_cast<uint64_t>(
                            static_cast<unsigned __int128>(
                                meas_cycles[ci]) *
                            tail_ops / meas_ops_acc);
                    } else if (head_ops != 0 && tail_ops != 0) {
                        // Run ended fast-forwarding before any steady
                        // window closed: the head is the only basis.
                        tail_est = static_cast<uint64_t>(
                            static_cast<unsigned __int128>(
                                head_cycles[ci]) *
                            tail_ops / head_ops);
                    } else {
                        tail_est = 0;
                    }
                    ss.est_cycles[ci] = head_cycles[ci] + tail_est;
                    ss.est_total += ss.est_cycles[ci];
                }
            }
            return res;
        }
    }
}

} // namespace epic
