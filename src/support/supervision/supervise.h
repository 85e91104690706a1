/**
 * @file
 * Run-supervision core: the cooperative stop/deadline machinery that
 * makes every workload x config task a bounded, recoverable unit.
 *
 * The contract mirrors TraceRecorder's: supervision costs the sim hot
 * loops exactly one relaxed atomic load per group/block boundary while
 * disarmed. Arming happens only when a supervisor is present — a
 * per-task deadline was set, or signal handlers were installed for a
 * fleet run — and only then do the loops consult their (per-run)
 * deadline and the process-wide stop flag.
 *
 * Two distinct mechanisms, one poll site:
 *  - requestStop(): process-wide, async-signal-safe. SIGINT/SIGTERM
 *    handlers call it; every sim loop then winds down with
 *    RunStatus::Deadline ("interrupted") at its next boundary, the
 *    fleet engine skips unstarted tasks, flushes the manifest (already
 *    durable — appends are fsync'd) and exits.
 *  - per-run deadlines: an absolute steady-clock time in the run's
 *    options. The loop checks the clock every 1024 boundaries while
 *    armed, so even a simulation stuck in a tight loop (an injected
 *    hang, a runaway workload) is reclaimed within microseconds of the
 *    deadline.
 *
 * Pool-side hung-task *detection* is the safety net behind the
 * cooperative poll: ThreadPool::wait() watches task ages and warns
 * (pool.hung_tasks) about tasks that exceed the configured threshold —
 * catching hangs in code that never reaches a poll site.
 */
#ifndef EPIC_SUPPORT_SUPERVISION_SUPERVISE_H
#define EPIC_SUPPORT_SUPERVISION_SUPERVISE_H

#include <atomic>
#include <cstdint>

namespace epic {

namespace detail {
extern std::atomic<uint32_t> g_supervision_armed;
extern std::atomic<uint32_t> g_stop_requested;
} // namespace detail

/** One relaxed load: is any supervisor active in this process? */
inline bool
supervisionActive()
{
    return detail::g_supervision_armed.load(std::memory_order_relaxed) !=
           0;
}

/** Arm/disarm supervision (nestable; every arm needs one disarm). */
void armSupervision();
void disarmSupervision();

/**
 * Request a cooperative stop. Async-signal-safe (a relaxed store);
 * also arms supervision permanently so poll sites observe it — call
 * installStopSignalHandlers() up front in fleet mode, which arms once.
 */
void requestStop();

/** True once requestStop() ran (relaxed load; poll under
 *  supervisionActive()). */
inline bool
stopRequested()
{
    return detail::g_stop_requested.load(std::memory_order_relaxed) != 0;
}

/** Clear a previous stop request (tests / repeated in-process runs). */
void clearStopRequest();

/**
 * Install SIGINT/SIGTERM handlers that requestStop(), and arm
 * supervision. Idempotent. The fleet engine finishes in-flight
 * manifest appends (each already fsync'd) and exits 130.
 */
void installStopSignalHandlers();

/** Steady-clock now in nanoseconds (for absolute deadlines). */
int64_t steadyNowNs();

/** Absolute steady-clock deadline `ms` from now (0 ms -> 0 = none). */
int64_t deadlineFromNowMs(int64_t ms);

/**
 * Supervisor policy for one workload x config task: budgets, wall
 * deadline, bounded retry, and the sim-side degradation ladder.
 * Zero-valued budgets mean "library default" (the generous limits in
 * InterpOptions/TimingOptions).
 *
 * Every task runs under a policy. The defaults are the plain run: one
 * attempt, no validation, no ladder — a failed detailed sim is
 * reported as-is. supervised() is the fleet supervisor's policy.
 */
struct SupervisionOptions
{
    uint64_t max_instrs = 0;  ///< functional dynamic-instr budget
    uint64_t max_cycles = 0;  ///< timing cycle budget
    int max_depth = 0;        ///< call-depth budget (both sims)
    uint64_t max_mem_pages = 0; ///< heap high-water (mapped 16K pages)
    int64_t deadline_ms = 0;  ///< per-attempt wall deadline (0 = none)
    /// Total attempts of the detailed simulation before degrading
    /// (first try included). Deterministic: same inputs, same ladder.
    int max_attempts = 1;
    /// Degradation ladder: detailed -> functional-only -> skip. When
    /// off, a failed detailed sim is reported as-is.
    bool ladder = false;
    /// Treat a detailed sim whose architected result disagrees with the
    /// source-truth checksum as Faulted (retried, then degraded), so
    /// silent corruption cannot be accepted.
    bool validate = false;
    /// Detailed-sim checkpoint interval in retired (useful+squashed)
    /// ops; 0 = no checkpointing.
    uint64_t checkpoint_every = 0;

    /** Validation-aware retry (two attempts) plus the ladder. */
    static SupervisionOptions
    supervised()
    {
        SupervisionOptions s;
        s.max_attempts = 2;
        s.ladder = true;
        s.validate = true;
        return s;
    }
};

} // namespace epic

#endif // EPIC_SUPPORT_SUPERVISION_SUPERVISE_H
