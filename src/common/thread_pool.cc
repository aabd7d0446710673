#include "common/thread_pool.hh"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/logging.hh"
#include "common/parse_number.hh"

namespace libra {

namespace {

/** Depth of pool work on this thread (workers and parallelFor lanes). */
thread_local int tlsPoolDepth = 0;

/** RAII marker for a thread executing pool work. */
struct PoolWorkScope
{
    PoolWorkScope() { ++tlsPoolDepth; }
    ~PoolWorkScope() { --tlsPoolDepth; }
};

std::size_t
defaultThreadCount()
{
    if (const char* env = std::getenv("LIBRA_THREADS")) {
        // Same [1, 4096] bound as --threads and the THREADS study
        // line, so every entry point for the knob behaves alike.
        if (auto v = tryParseNumber<std::size_t>(env, 1, 4096))
            return *v;
        warn("ignoring malformed LIBRA_THREADS='", env,
             "' (expected 1..4096)");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace

/** Shared state of one parallelFor call. */
struct ThreadPool::ForJob
{
    std::atomic<std::size_t> next{0}; ///< Next index to claim.
    std::atomic<std::size_t> done{0}; ///< Indices fully executed.
    std::size_t n = 0;
    const std::function<void(std::size_t)>* fn = nullptr;

    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;

    /** Claim and run indices until none remain. */
    void
    drain()
    {
        PoolWorkScope scope;
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                (*fn)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (!error)
                    error = std::current_exception();
            }
            if (done.fetch_add(1) + 1 == n) {
                std::lock_guard<std::mutex> lock(mutex);
                cv.notify_all();
            }
        }
    }
};

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads == 0)
        threads = 1;
    workers_.reserve(threads - 1);
    for (std::size_t t = 0; t + 1 < threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stop_ set and queue drained.
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        PoolWorkScope scope;
        task();
    }
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    // Only parallelFor's pooled path queues, and it never runs nested
    // or on a worker-less pool, so the task always has a worker.
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    cv_.notify_one();
}

bool
ThreadPool::insidePool()
{
    return tlsPoolDepth > 0;
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)>& fn)
{
    if (n == 0)
        return;
    // Serial fast path: tiny trip counts, worker-less pools, and nested
    // calls (the outer parallel level already owns the threads). Same
    // exception contract as the pooled path: every index runs, the
    // first failure is rethrown at the end.
    if (n == 1 || workers_.empty() || insidePool()) {
        PoolWorkScope scope;
        std::exception_ptr error;
        for (std::size_t i = 0; i < n; ++i) {
            try {
                fn(i);
            } catch (...) {
                if (!error)
                    error = std::current_exception();
            }
        }
        if (error)
            std::rethrow_exception(error);
        return;
    }

    auto job = std::make_shared<ForJob>();
    job->n = n;
    job->fn = &fn;

    std::size_t helpers = std::min(workers_.size(), n - 1);
    for (std::size_t h = 0; h < helpers; ++h)
        enqueue([job] { job->drain(); });

    // The caller is a lane too; with all indices claimed it falls
    // through to the wait below.
    job->drain();

    std::unique_lock<std::mutex> lock(job->mutex);
    job->cv.wait(lock,
                 [&] { return job->done.load() == job->n; });
    if (job->error)
        std::rethrow_exception(job->error);
}

namespace {

std::mutex gGlobalMutex;
std::unique_ptr<ThreadPool> gGlobalPool;

/**
 * Pools replaced by setGlobalThreads. References returned by global()
 * may still be in use on other threads when a resize happens, so
 * retired pools stay alive (workers parked on their empty queues)
 * until process exit instead of being destroyed under a caller.
 */
std::vector<std::unique_ptr<ThreadPool>> gRetiredPools;

} // namespace

ThreadPool&
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(gGlobalMutex);
    if (!gGlobalPool)
        gGlobalPool = std::make_unique<ThreadPool>(defaultThreadCount());
    return *gGlobalPool;
}

void
ThreadPool::setGlobalThreads(std::size_t threads)
{
    if (insidePool())
        panic("setGlobalThreads called from inside pool work");
    std::size_t want = std::max<std::size_t>(threads, 1);
    std::lock_guard<std::mutex> lock(gGlobalMutex);
    if (gGlobalPool && gGlobalPool->threadCount() == want)
        return;
    if (gGlobalPool)
        gRetiredPools.push_back(std::move(gGlobalPool));
    // Reuse a retired pool of the right size before building a new
    // one, bounding growth at one pool per distinct size even when a
    // caller alternates thread counts.
    for (auto& retired : gRetiredPools) {
        if (retired && retired->threadCount() == want) {
            gGlobalPool = std::move(retired);
            return;
        }
    }
    // Build the replacement from the clamped size, not the raw
    // argument, so the early-return size check, the retired-pool reuse
    // scan, and the pool actually built can never disagree.
    gGlobalPool = std::make_unique<ThreadPool>(want);
}

} // namespace libra
