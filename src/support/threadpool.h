/**
 * @file
 * Work-queue thread pool driving EpicLab's two parallel tiers: the
 * per-function firewalled compilation inside compileProgram and the
 * prepare and run tasks of RunSet (driver/experiment.h).
 *
 * The design constraint is determinism, not raw throughput: parallel
 * runs must be *bit-identical* to serial ones. The pool therefore only
 * provides unordered execution of independent jobs; every caller
 * commits results into slots indexed by job id or run key, merged in
 * a fixed order after wait(): no output depends on the schedule.
 *
 * Nesting rule: parallelFor() or RunSet called inside a pool worker
 * runs serially inline. Tiers compose without thread explosion — the
 * outermost parallel tier owns the workers, inner tiers degrade to
 * loops — and the bound on live threads is exactly `jobs`.
 *
 * Failure discipline (run-supervision layer):
 *  - A task exception never vanishes. The first one is rethrown from
 *    wait() as a PoolTaskError carrying the submission index of the
 *    failing task; every later one is warned about and counted in the
 *    process-wide exceptionsDropped() counter.
 *  - Hung-task detection: with a nonzero threshold
 *    (setHungTaskThresholdMs), wait() watches the age of in-flight
 *    tasks and warns (counting hungTasks()) about any task that
 *    exceeds it — the safety net behind the cooperative deadline poll,
 *    catching hangs in code that never reaches a poll site.
 */
#ifndef EPIC_SUPPORT_THREADPOOL_H
#define EPIC_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace epic {

/**
 * Thrown by ThreadPool::wait() when a task failed. Derives from
 * std::runtime_error (callers that only care about "something threw"
 * keep working); carries which task failed and how many later task
 * exceptions had to be dropped while unwinding.
 */
class PoolTaskError : public std::runtime_error
{
  public:
    PoolTaskError(const std::string &what, int task, uint64_t dropped)
        : std::runtime_error(what), task_(task), dropped_(dropped)
    {
    }

    /** Submission index (FIFO order) of the first failing task. */
    int task() const { return task_; }
    /** Later task exceptions dropped after the first was captured. */
    uint64_t dropped() const { return dropped_; }

  private:
    int task_;
    uint64_t dropped_;
};

/** Fixed-size worker pool over a FIFO job queue. */
class ThreadPool
{
  public:
    /** Spawns `threads` workers (clamped to at least 1). */
    explicit ThreadPool(int threads);

    /** Drains outstanding jobs, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one job. Thread-safe. */
    void submit(std::function<void()> job);

    /**
     * Block until every submitted job has finished. Throws PoolTaskError
     * for the first exception a job raised (if any); remaining jobs
     * still ran, their exceptions were warned about and counted.
     */
    void wait();

    /** True when the calling thread is one of a pool's workers. */
    static bool insideWorker();

    // ---- Supervision knobs / counters (process-wide) ----
    /** Warn about in-flight tasks older than `ms` (0 disables). */
    static void setHungTaskThresholdMs(int64_t ms);
    static int64_t hungTaskThresholdMs();
    /** Task exceptions dropped because one was already captured. */
    static uint64_t exceptionsDropped();
    /** Tasks that exceeded the hung-task threshold (warned once each).
     *  Schedule-dependent by nature: kept out of run artifacts. */
    static uint64_t hungTasks();
    static void resetSupervisionCounters();

  private:
    struct Job
    {
        int id = 0;
        std::function<void()> fn;
    };
    struct Running
    {
        int id = 0;
        int64_t start_ns = 0;
        bool warned = false;
    };

    void workerLoop();
    void noteFailure(int id, const std::string &what);

    std::vector<std::thread> workers_;
    std::deque<Job> queue_;
    std::mutex mu_;
    std::condition_variable work_cv_; ///< signals workers: job or stop
    std::condition_variable idle_cv_; ///< signals wait(): all done
    std::vector<Running> running_;    ///< jobs currently executing
    int next_id_ = 0;                 ///< submission counter
    bool stop_ = false;
    int first_error_task_ = -1;
    std::string first_error_what_;
    uint64_t dropped_ = 0; ///< exceptions after the first (this pool)
};

/**
 * Run fn(0..n-1) on up to `jobs` worker threads and block until all
 * iterations finished. Serial (plain loop, exceptions propagate
 * directly) when jobs <= 1, n <= 1, or the caller is already a pool
 * worker; iteration order is then 0..n-1. The parallel path throws a
 * PoolTaskError for the first failure after every iteration ran.
 */
void parallelFor(int jobs, int n, const std::function<void(int)> &fn);

} // namespace epic

#endif // EPIC_SUPPORT_THREADPOOL_H
