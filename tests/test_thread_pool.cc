/**
 * @file
 * Tests for the parallel evaluation engine's thread pool: full index
 * coverage, exception propagation, nesting, and the global
 * pool knob.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hh"

namespace libra {
namespace {

TEST(ThreadPool, ParallelForCoversAllIndicesOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 10'000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForWorksWithoutWorkers)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    std::vector<int> hits(100, 0);
    pool.parallelFor(hits.size(), [&](std::size_t i) { hits[i] = 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPool, ParallelForZeroAndOneTripCounts)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptionAndStillCovers)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 257;
    std::vector<std::atomic<int>> hits(n);
    EXPECT_THROW(
        pool.parallelFor(n,
                         [&](std::size_t i) {
                             hits[i].fetch_add(1);
                             if (i == 100)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The contract: every index still executes even when one throws.
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SerialPathExceptionStillCoversAllIndices)
{
    // Worker-less pools must honor the same contract as pooled runs:
    // every index executes, the first failure is rethrown.
    ThreadPool pool(1);
    constexpr std::size_t n = 64;
    std::vector<int> hits(n, 0);
    EXPECT_THROW(
        pool.parallelFor(n,
                         [&](std::size_t i) {
                             hits[i] = 1;
                             if (i == 3)
                                 throw std::runtime_error("early");
                         }),
        std::runtime_error);
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
              static_cast<int>(n));
}

TEST(ThreadPool, NestedParallelForRunsInlineAndCovers)
{
    ThreadPool pool(4);
    constexpr std::size_t outer = 8, inner = 64;
    std::vector<std::atomic<int>> hits(outer * inner);
    pool.parallelFor(outer, [&](std::size_t o) {
        pool.parallelFor(inner, [&](std::size_t i) {
            hits[o * inner + i].fetch_add(1);
        });
    });
    for (std::size_t k = 0; k < hits.size(); ++k)
        ASSERT_EQ(hits[k].load(), 1) << "slot " << k;
}

TEST(ThreadPool, GlobalKnobResizesPool)
{
    ThreadPool::setGlobalThreads(3);
    EXPECT_EQ(ThreadPool::global().threadCount(), 3u);
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(ThreadPool::global().threadCount(), 1u);
}

TEST(ThreadPool, GlobalKnobClampsZeroToOnePool)
{
    // A zero request clamps to one thread, and the clamped size must
    // govern everything: the pool actually built, the early-return
    // size check, and the retired-pool reuse scan. A pool built from
    // the raw argument would break that agreement.
    ThreadPool::setGlobalThreads(0);
    EXPECT_EQ(ThreadPool::global().threadCount(), 1u);
    // Asking again (0 or the clamped 1) is a no-op, not a rebuild.
    ThreadPool::setGlobalThreads(0);
    EXPECT_EQ(ThreadPool::global().threadCount(), 1u);
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(ThreadPool::global().threadCount(), 1u);
    // Alternating sizes lands back on the same clamped pool size.
    ThreadPool::setGlobalThreads(2);
    EXPECT_EQ(ThreadPool::global().threadCount(), 2u);
    ThreadPool::setGlobalThreads(0);
    EXPECT_EQ(ThreadPool::global().threadCount(), 1u);
}

TEST(ThreadPool, InsidePoolVisibleFromWork)
{
    ThreadPool pool(2);
    EXPECT_FALSE(ThreadPool::insidePool());
    std::atomic<bool> sawInside{false};
    pool.parallelFor(8, [&](std::size_t) {
        if (ThreadPool::insidePool())
            sawInside = true;
    });
    EXPECT_TRUE(sawInside.load());
    EXPECT_FALSE(ThreadPool::insidePool());
}

} // namespace
} // namespace libra
