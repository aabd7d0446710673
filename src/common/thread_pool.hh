/**
 * @file
 * Fixed-size thread pool powering LIBRA's parallel evaluation engine.
 *
 * One entry point, parallelFor(n, fn): run fn(0..n-1) across the
 * pool. The calling thread participates, so a pool sized 1 degenerates
 * to a plain serial loop with no queueing overhead. Nested calls (fn
 * itself calling parallelFor, e.g. a parallel study sweep whose points
 * run parallel multistart searches) execute inline in the calling
 * worker — the outer level already saturates the pool, and inlining
 * makes nesting deadlock-free by construction.
 *
 * Determinism contract: parallelFor imposes no ordering, so callers
 * must write results into per-index slots and reduce them in index
 * order afterwards. Every parallel site in LIBRA follows that pattern,
 * which is why optimizer results are bit-identical at any thread count.
 *
 * The global pool is sized by (in priority order) setGlobalThreads(),
 * the LIBRA_THREADS environment variable, then hardware concurrency.
 */

#ifndef LIBRA_COMMON_THREAD_POOL_HH
#define LIBRA_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace libra {

/** Fixed-size worker pool; see file comment for the usage contract. */
class ThreadPool
{
  public:
    /**
     * Create a pool providing @p threads-way parallelism. The calling
     * thread counts as one lane, so @p threads == 1 spawns no workers
     * and runs everything inline.
     */
    explicit ThreadPool(std::size_t threads = 1);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Parallelism degree (worker threads + the calling thread). */
    std::size_t threadCount() const { return workers_.size() + 1; }

    /**
     * Run fn(i) for every i in [0, n). Blocks until all indices have
     * executed. Every index runs even when some throw (coverage is
     * always complete); one of the thrown exceptions is rethrown here
     * (on the pooled path, whichever was captured first — not
     * necessarily the lowest index).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)>& fn);

    /** True when the current thread is executing pool work. */
    static bool insidePool();

    /** The process-wide pool used by all LIBRA parallel sites. */
    static ThreadPool& global();

    /**
     * Resize the global pool (the --threads / LIBRA_THREADS knob).
     * Must not be called from inside pool work. A replaced pool is
     * retired, not destroyed, so global() references held by other
     * threads stay valid across a resize (their work just keeps
     * running on the old pool's threads).
     */
    static void setGlobalThreads(std::size_t threads);

  private:
    struct ForJob;

    /** Queue @p task for a worker (parallelFor's helper lanes). */
    void enqueue(std::function<void()> task);
    void workerLoop();

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::queue<std::function<void()>> tasks_;
    bool stop_ = false;
};

/** parallelFor on the global pool. */
inline void
parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn)
{
    ThreadPool::global().parallelFor(n, fn);
}

} // namespace libra

#endif // LIBRA_COMMON_THREAD_POOL_HH
