/**
 * @file
 * Tests for the Themis-style greedy chunk scheduler integration.
 */

#include <gtest/gtest.h>

#include "core/estimator.hh"
#include "core/timing_backend.hh"
#include "runtime/themis.hh"
#include "sim/chunk_timeline.hh"
#include "topology/zoo.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

TEST(Themis, TimingIsBestOfGreedyAndFixed)
{
    std::vector<DimSpan> spans{{0, 4}, {1, 8}};
    BwConfig bw{20.0, 10.0};
    CollectiveTiming t = themisCollectiveTiming(
        2, CollectiveType::AllReduce, 1e9, spans, bw, 64);

    ChunkTimeline tl(2, bw);
    CollectiveJob job;
    job.type = CollectiveType::AllReduce;
    job.size = 1e9;
    job.spans = spans;
    job.numChunks = 64;
    job.policy = SchedulePolicy::Greedy;
    Seconds greedy = tl.run({job}).makespan;
    job.policy = SchedulePolicy::FixedAscending;
    Seconds fixed = tl.run({job}).makespan;
    EXPECT_NEAR(t.time, std::min(greedy, fixed), 1e-12);
}

TEST(Themis, NeverWorseThanCanonicalOrder)
{
    // The scheduler keeps the ascending order when greedy would hurt.
    std::vector<DimSpan> spans{{0, 4}, {1, 4}, {2, 4}};
    for (BwConfig bw : {BwConfig{761.9, 190.5, 47.6},
                        BwConfig{100.0, 100.0, 100.0},
                        BwConfig{10.0, 200.0, 90.0}}) {
        CollectiveTiming t = themisCollectiveTiming(
            3, CollectiveType::AllReduce, 1e9, spans, bw, 64);
        ChunkTimeline tl(3, bw);
        CollectiveJob job;
        job.type = CollectiveType::AllReduce;
        job.size = 1e9;
        job.spans = spans;
        job.numChunks = 64;
        EXPECT_LE(t.time, tl.run({job}).makespan + 1e-12);
    }
}

TEST(Themis, EmptySpanIsFree)
{
    CollectiveTiming t = themisCollectiveTiming(
        2, CollectiveType::AllReduce, 1e9, {}, {10.0, 10.0}, 64);
    EXPECT_DOUBLE_EQ(t.time, 0.0);
}

TEST(Themis, HelpsImbalancedAllocationMostly)
{
    // On an EqualBW 3D network (imbalanced relative to traffic) Themis
    // must not lose to the fixed order, and typically wins.
    std::vector<DimSpan> spans{{0, 4}, {1, 4}, {2, 4}};
    BwConfig bw{100.0, 100.0, 100.0};
    ChunkTimeline tl(3, bw);

    CollectiveJob fixed;
    fixed.type = CollectiveType::AllReduce;
    fixed.size = 4e9;
    fixed.spans = spans;
    fixed.numChunks = 64;
    CollectiveJob greedy = fixed;
    greedy.policy = SchedulePolicy::Greedy;

    Seconds tFixed = tl.run({fixed}).makespan;
    Seconds tGreedy = tl.run({greedy}).makespan;
    EXPECT_LE(tGreedy, tFixed * 1.001);
}

TEST(Themis, EstimatorIntegrationEndToEnd)
{
    Network net = topo::fourD4K();
    Workload w = wl::gpt3(net.npus());
    BwConfig bw = net.equalBw(1000.0);

    EstimatorOptions plain;
    EstimatorOptions themis;
    themis.timingBackend = kThemisTimingBackendName;

    Seconds tPlain = TrainingEstimator(net, plain).estimate(w, bw);
    Seconds tThemis = TrainingEstimator(net, themis).estimate(w, bw);
    EXPECT_GT(tThemis, 0.0);
    // Greedy scheduling on a pipelined collective cannot beat the
    // analytic bottleneck bound by definition, but should stay close
    // and must not blow up.
    EXPECT_LT(tThemis, tPlain * 2.0);
}

TEST(Themis, UtilizationNotLowerThanFixed)
{
    std::vector<DimSpan> spans{{0, 4}, {1, 4}, {2, 4}};
    BwConfig bw{50.0, 120.0, 130.0}; // Wrong-way allocation.
    ChunkTimeline tl(3, bw);

    CollectiveJob fixed;
    fixed.type = CollectiveType::AllReduce;
    fixed.size = 4e9;
    fixed.spans = spans;
    fixed.numChunks = 64;
    CollectiveJob greedy = fixed;
    greedy.policy = SchedulePolicy::Greedy;

    auto rFixed = tl.run({fixed});
    auto rGreedy = tl.run({greedy});
    EXPECT_GE(rGreedy.avgBwUtilization,
              rFixed.avgBwUtilization * 0.999);
}

} // namespace
} // namespace libra
