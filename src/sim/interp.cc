#include "sim/interp.h"

#include <deque>
#include <unordered_map>
#include <vector>

#include "sim/decode.h"
#include "support/logging.h"
#include "support/supervision/supervise.h"
#include "support/telemetry/trace.h"

/*
 * The interpreter's hot loop is token-threaded: every opcode gets its
 * own handler (a computed-goto label) that inlines a per-opcode
 * specialization of the execution kernel (execDecodedImpl<op>) and then
 * dispatches directly to the next instruction's handler. Compared with
 * a switch loop, this (a) folds the kernel's opcode switch away per
 * handler, and (b) gives every handler its own indirect jump, so the
 * branch predictor can learn per-opcode successor patterns instead of
 * sharing one always-mispredicting dispatch site. Computed goto is a
 * GCC/Clang extension, the only compilers the build supports.
 */
#if !defined(__GNUC__) && !defined(__clang__)
#error "the threaded interpreter needs computed goto (GCC or Clang)"
#endif

namespace epic {

InterpResult
interpret(Program &prog, Memory &mem, const InterpOptions &opts)
{
    InterpResult res;
    TraceSpan span("sim", opts.collect_profile ? "profile-run"
                                               : "functional-run");
    Function *entry_fn = prog.func(prog.entry_func);
    if (!entry_fn) {
        res.fail(RunStatus::Faulted, "no entry function");
        return res;
    }

    // Heap high-water budget: the image is fully mapped before the run
    // (simulated stores never map new pages), so entry is the high water.
    if (opts.max_mem_pages != 0 && mem.mappedPages() > opts.max_mem_pages) {
        res.fail(RunStatus::BudgetExceeded,
                 "memory page budget exceeded (" +
                     std::to_string(mem.mappedPages()) + " > " +
                     std::to_string(opts.max_mem_pages) + " pages)");
        return res;
    }

    // Predecode: per-block execution orders, built once for this run
    // (DESIGN.md §12). `order == nullptr` means the identity order.
    const DecodedProgram dec =
        DecodedProgram::forInterp(prog, opts.scheduled_order);

    std::deque<Frame> stack;
    std::vector<Frame> frame_pool; ///< recycled activations
    const uint64_t stack_top = Program::kStackTop - 64;
    stack.emplace_back(entry_fn,
                       stack_top - Frame::frameBytes(*entry_fn));

    Function *fn = entry_fn;
    const DecodedFunction *dfn = &dec.func(fn->id);
    BasicBlock *bb = fn->block(fn->entry);
    epic_assert(bb, "entry block missing");
    const int32_t *order = dfn->block(fn->entry).order;
    uint32_t order_len = dfn->block(fn->entry).order_len;
    const DecodedInstr *dinstrs = dfn->block(fn->entry).dinstrs;
    uint32_t pos = 0;
    // Control-free prefix of the current block's execution order: ops
    // [0, straight) are fused into one tight span with the budget and
    // block-end checks hoisted out (see EPIC_FUSED_SPAN below).
    uint32_t straight = dfn->block(fn->entry).straight_len;

    if (opts.collect_profile) {
        entry_fn->weight += 1;
        bb->weight += 1;
    }

    // Supervision poll at block entry — the interpreter's group-boundary
    // equivalent: one relaxed load per block when disarmed; stop-request
    // plus a strided clock check when armed.
    uint32_t sup_poll = 0;
    auto enter_block = [&](int bid) -> bool {
        if (__builtin_expect(supervisionActive(), 0)) {
            if (stopRequested()) {
                res.fail(RunStatus::Deadline, "interrupted by stop request");
                return false;
            }
            if (opts.deadline_ns != 0 && (sup_poll++ & 1023u) == 0 &&
                steadyNowNs() > opts.deadline_ns) {
                res.fail(RunStatus::Deadline,
                         "wall-clock deadline exceeded");
                return false;
            }
        }
        bb = fn->block(bid);
        if (!bb) {
            res.fail(RunStatus::Faulted,
                     "jump to dead block in " + fn->name);
            return false;
        }
        const DecodedBlock &db = dfn->block(bid);
        order = db.order;
        order_len = db.order_len;
        dinstrs = db.dinstrs;
        straight = db.straight_len;
        pos = 0;
        if (opts.collect_profile)
            bb->weight += 1;
        return true;
    };

    // Scratch for gathering call arguments (reused across calls).
    std::vector<GrVal> args;

    // Per-run index over indirect-call profile entries: callee id ->
    // position in Instruction::prof_callees. Replaces the linear scan
    // per indirect call while keeping the profile vector in exactly the
    // insertion order the scan produced (deterministic output).
    std::unordered_map<Instruction *, std::unordered_map<int, size_t>>
        callee_ix;

    // The current activation. std::deque never relocates elements on
    // push_back/pop_back, so the pointer stays valid until the frame it
    // names is popped (it is refreshed on every call and return).
    Frame *frame = &stack.back();

    // Per-effect bookkeeping shared by every handler. Ordering matters
    // and is part of the observable semantics: instruction counters
    // first, then the trap check, then memory counters.
    auto count_instr = [&](const Effect &eff) {
        ++res.dyn_instrs;
        if (eff.executed)
            ++res.dyn_executed;
        else
            ++res.dyn_squashed;
    };
    auto count_mem = [&](const Effect &eff) {
        if (eff.is_mem && eff.executed) {
            if (eff.is_load) {
                ++res.dyn_loads;
                if (eff.mem_wild)
                    ++res.wild_loads;
                if (eff.mem_null_page)
                    ++res.null_page_loads;
                if (eff.mem_deferred)
                    ++res.deferred_loads;
            } else {
                ++res.dyn_stores;
            }
        }
    };
    // A call whose guard was false: falls through like any squashed op.
    auto do_call = [&](const Effect &eff,
                       const DecodedInstr &di) -> bool /* continue? */ {
        ++res.dyn_branches;
        ++res.dyn_calls;
        if (opts.collect_profile && di.op == Opcode::BR_ICALL) {
            // Profile annotations are the one mutable slice of the
            // program a live decode permits (see decode.h).
            Instruction &inst = *const_cast<Instruction *>(di.orig);
            auto &ix = callee_ix[&inst];
            if (ix.empty() && !inst.profCallees().empty()) {
                // Seed from pre-existing annotations so re-profiling
                // without clearProfile keeps accumulating in place.
                auto pcs = inst.profCallees();
                for (size_t k = 0; k < pcs.size(); ++k)
                    ix.emplace(pcs[k].callee, k);
            }
            auto [it, fresh] =
                ix.emplace(eff.callee, inst.profCallees().size());
            if (fresh)
                inst.addProfCallee(fn->arena(), eff.callee, 1.0);
            else
                inst.profCallees()[it->second].count += 1;
        }
        if (static_cast<int>(stack.size()) >= opts.max_depth) {
            res.fail(RunStatus::BudgetExceeded,
                     "call depth limit exceeded (" +
                         std::to_string(opts.max_depth) + ") in " +
                         fn->name);
            return false;
        }
        Function *callee = prog.func(eff.callee);
        epic_assert(callee, "call to missing function");
        // Gather argument values from the caller before pushing
        // (argument lists live on the original instruction).
        const Instruction &inst = *di.orig;
        size_t first_arg = di.op == Opcode::BR_ICALL ? 1 : 0;
        size_t nargs = inst.srcs.size() - first_arg;
        if (nargs != callee->params.size()) {
            res.fail(RunStatus::Faulted,
                     "arity mismatch calling " + callee->name);
            return false;
        }
        args.resize(nargs);
        for (size_t i = 0; i < nargs; ++i)
            args[i] =
                detail::evalGr(prog, *frame, inst.srcs[first_arg + i]);

        const uint64_t callee_sp =
            frame->sp - Frame::frameBytes(*callee);
        if (frame_pool.empty()) {
            stack.emplace_back(callee, callee_sp);
        } else {
            stack.push_back(std::move(frame_pool.back()));
            frame_pool.pop_back();
            stack.back().reset(callee, callee_sp);
        }
        Frame &nf = stack.back();
        nf.ret_block = bb->id;
        nf.ret_pos = static_cast<int>(pos) + 1;
        nf.ret_dest = di.dest0;
        for (size_t i = 0; i < nargs; ++i)
            nf.writeGr(callee->params[i], args[i]);
        frame = &nf;

        fn = callee;
        dfn = &dec.func(fn->id);
        if (opts.collect_profile)
            fn->weight += 1;
        return enter_block(fn->entry);
    };
    // Returns false when this was the outermost frame (run finished).
    auto do_ret = [&](const Effect &eff) -> bool {
        ++res.dyn_branches;
        const int ret_block = stack.back().ret_block;
        const int ret_pos = stack.back().ret_pos;
        const Reg ret_dest = stack.back().ret_dest;
        frame_pool.push_back(std::move(stack.back()));
        stack.pop_back();
        if (stack.empty()) {
            res.succeed(eff.has_ret_val ? eff.ret_val.v : 0);
            return false;
        }
        Frame &caller = stack.back();
        frame = &caller;
        fn = const_cast<Function *>(caller.fn);
        dfn = &dec.func(fn->id);
        if (ret_dest.valid() && eff.has_ret_val)
            caller.writeGr(ret_dest, eff.ret_val);
        else if (ret_dest.valid())
            caller.writeGr(ret_dest, GrVal{0, false});
        bb = fn->block(ret_block);
        epic_assert(bb, "return to dead block");
        const DecodedBlock &db = dfn->block(ret_block);
        order = db.order;
        order_len = db.order_len;
        dinstrs = db.dinstrs;
        straight = db.straight_len;
        pos = static_cast<uint32_t>(ret_pos);
        return true;
    };

    // Handler table, indexed by Opcode. Filled positionally below;
    // keep in enum order (the static_assert pins the count and a
    // mismatch is caught by the decode parity tests).
    static const void *const kJump[] = {
        &&h_MOV, &&h_MOVI, &&h_MOVA, &&h_MOVFN, &&h_MOVP,
        &&h_ADD, &&h_SUB, &&h_AND, &&h_OR, &&h_XOR,
        &&h_ADDI, &&h_SUBI, &&h_ANDI, &&h_ORI, &&h_XORI,
        &&h_CMP, &&h_CMPI,
        &&h_SHL, &&h_SHR, &&h_SAR, &&h_SHLI, &&h_SHRI, &&h_SARI,
        &&h_SXT, &&h_ZXT,
        &&h_MUL, &&h_DIV, &&h_REM,
        &&h_LD, &&h_ST,
        &&h_BR, &&h_BR_CALL, &&h_BR_ICALL, &&h_BR_RET, &&h_CHK_S,
        &&h_ALLOC, &&h_NOP,
        &&h_LD_A, &&h_CHK_A,
    };
    static_assert(sizeof(kJump) / sizeof(kJump[0]) ==
                      static_cast<size_t>(Opcode::NumOpcodes),
                  "dispatch table must cover every opcode");

    const DecodedInstr *di = nullptr;
    Effect ceff; ///< effect of the op that triggered a shared exit path

// Fetch the next instruction and jump to its handler.
#define EPIC_DISPATCH()                                                  \
    do {                                                                 \
        if (__builtin_expect(res.dyn_instrs >= opts.max_instrs, 0))      \
            goto budget_exhausted;                                       \
        if (__builtin_expect(pos >= order_len, 0))                       \
            goto block_end;                                              \
        di = &dinstrs[order ? static_cast<uint32_t>(order[pos]) : pos];  \
        goto *kJump[static_cast<size_t>(di->op)];                        \
    } while (0)

// Straight-line op: counters, trap check, advance.
#define EPIC_HANDLER(NAME)                                               \
    h_##NAME : {                                                         \
        Effect eff = execDecodedImpl<static_cast<int>(Opcode::NAME)>(    \
            prog, *di, *frame, mem);                                     \
        count_instr(eff);                                                \
        if (__builtin_expect(eff.trap, 0)) {                             \
            ceff = eff;                                                  \
            goto trap_exit;                                              \
        }                                                                \
        count_mem(eff);                                                  \
        ++pos;                                                           \
        EPIC_DISPATCH();                                                 \
    }

    // Fused straight-line span: ops [pos, straight) cannot transfer
    // control (decode.cc classifies the prefix), so the budget and
    // block-end checks hoist out of the per-op path — one clamp at
    // span entry instead of two compares per op. The span length is
    // clamped to the remaining instruction budget, so the budget trips
    // at exactly the same op as the unfused path. Returns true when an
    // op trapped (di/ceff identify it; caller takes trap_exit with the
    // same counters already applied). One lambda, not a macro body:
    // the kernel switch is instantiated once instead of once per
    // call site, which matters for I-cache footprint.
    auto run_span = [&]() -> bool /* trapped? */ {
        const uint64_t avail = opts.max_instrs - res.dyn_instrs;
        const uint32_t send = straight - pos <= avail
                                  ? straight
                                  : pos + static_cast<uint32_t>(avail);
        while (pos < send) {
            di = &dinstrs[order ? static_cast<uint32_t>(order[pos])
                                : pos];
            Effect eff = execDecoded(prog, *di, *frame, mem);
            count_instr(eff);
            if (__builtin_expect(eff.trap, 0)) {
                ceff = eff;
                return true;
            }
            count_mem(eff);
            ++pos;
        }
        return false;
    };

#define EPIC_FUSED_SPAN()                                                \
    do {                                                                 \
        if (pos < straight && run_span())                                \
            goto trap_exit;                                              \
    } while (0)

    EPIC_FUSED_SPAN();
    EPIC_DISPATCH();

    EPIC_HANDLER(MOV)
    EPIC_HANDLER(MOVI)
    EPIC_HANDLER(MOVA)
    EPIC_HANDLER(MOVFN)
    EPIC_HANDLER(MOVP)
    EPIC_HANDLER(ADD)
    EPIC_HANDLER(SUB)
    EPIC_HANDLER(AND)
    EPIC_HANDLER(OR)
    EPIC_HANDLER(XOR)
    EPIC_HANDLER(ADDI)
    EPIC_HANDLER(SUBI)
    EPIC_HANDLER(ANDI)
    EPIC_HANDLER(ORI)
    EPIC_HANDLER(XORI)
    EPIC_HANDLER(CMP)
    EPIC_HANDLER(CMPI)
    EPIC_HANDLER(SHL)
    EPIC_HANDLER(SHR)
    EPIC_HANDLER(SAR)
    EPIC_HANDLER(SHLI)
    EPIC_HANDLER(SHRI)
    EPIC_HANDLER(SARI)
    EPIC_HANDLER(SXT)
    EPIC_HANDLER(ZXT)
    EPIC_HANDLER(MUL)
    EPIC_HANDLER(DIV)
    EPIC_HANDLER(REM)
    EPIC_HANDLER(LD)
    EPIC_HANDLER(ST)
    EPIC_HANDLER(ALLOC)
    EPIC_HANDLER(NOP)
    EPIC_HANDLER(LD_A)
    EPIC_HANDLER(CHK_A)

    h_BR: {
        Effect eff = execDecodedImpl<static_cast<int>(Opcode::BR)>(
            prog, *di, *frame, mem);
        count_instr(eff);
        if (eff.ctl == Effect::Ctl::Branch) {
            ++res.dyn_branches;
            if (opts.collect_profile)
                const_cast<Instruction *>(di->orig)->prof_taken += 1;
            if (!enter_block(eff.branch_target))
                return res;
            EPIC_FUSED_SPAN();
        } else {
            ++pos; // squashed: falls through
        }
        EPIC_DISPATCH();
    }

    h_CHK_S: {
        Effect eff = execDecodedImpl<static_cast<int>(Opcode::CHK_S)>(
            prog, *di, *frame, mem);
        count_instr(eff);
        if (eff.ctl == Effect::Ctl::Branch) {
            ++res.dyn_branches;
            if (!enter_block(eff.branch_target))
                return res;
            EPIC_FUSED_SPAN();
        } else {
            ++pos;
        }
        EPIC_DISPATCH();
    }

    h_BR_CALL: {
        ceff = execDecodedImpl<static_cast<int>(Opcode::BR_CALL)>(
            prog, *di, *frame, mem);
        goto call_common;
    }

    h_BR_ICALL: {
        ceff = execDecodedImpl<static_cast<int>(Opcode::BR_ICALL)>(
            prog, *di, *frame, mem);
        goto call_common;
    }

    call_common: {
        count_instr(ceff);
        if (__builtin_expect(ceff.trap, 0))
            goto trap_exit;
        if (ceff.ctl == Effect::Ctl::Call) {
            if (!do_call(ceff, *di))
                return res;
            EPIC_FUSED_SPAN();
        } else {
            ++pos; // squashed call
        }
        EPIC_DISPATCH();
    }

    h_BR_RET: {
        ceff = execDecodedImpl<static_cast<int>(Opcode::BR_RET)>(
            prog, *di, *frame, mem);
        count_instr(ceff);
        if (ceff.ctl == Effect::Ctl::Ret) {
            if (!do_ret(ceff))
                return res; // outermost frame: run finished
            EPIC_FUSED_SPAN();
        } else {
            ++pos; // squashed return
        }
        EPIC_DISPATCH();
    }

    block_end: {
        if (bb->fallthrough < 0) {
            res.fail(RunStatus::Faulted,
                     "fell off block bb" + std::to_string(bb->id) +
                         " in " + fn->name);
            return res;
        }
        if (!enter_block(bb->fallthrough))
            return res;
        EPIC_FUSED_SPAN();
        EPIC_DISPATCH();
    }

    budget_exhausted: {
        res.fail(RunStatus::BudgetExceeded,
                 "dynamic instruction budget exceeded (" +
                     std::to_string(opts.max_instrs) + " instrs)");
        return res;
    }

    trap_exit: {
        res.fail(RunStatus::Faulted,
                 "trap in " + fn->name + " at '" + di->orig->str() +
                     "': " + ceff.trap_msg);
        return res;
    }

#undef EPIC_HANDLER
#undef EPIC_FUSED_SPAN
#undef EPIC_DISPATCH
}

InterpResult
profileRun(Program &prog, Memory &mem)
{
    clearProfile(prog);
    InterpOptions opts;
    opts.collect_profile = true;
    return interpret(prog, mem, opts);
}

void
clearProfile(Program &prog)
{
    for (auto &f : prog.funcs) {
        if (!f)
            continue;
        f->weight = 0;
        for (auto &b : f->blocks) {
            if (!b)
                continue;
            b->weight = 0;
            for (Instruction &inst : b->instrs) {
                inst.prof_taken = 0;
                inst.clearProfCallees();
            }
        }
    }
}

} // namespace epic
