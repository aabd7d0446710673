/**
 * @file
 * Tests for the analytical multi-rail collective model against the
 * closed forms given in paper §IV-C.
 */

#include <gtest/gtest.h>

#include "collective/multi_rail.hh"
#include "common/logging.hh"

namespace libra {
namespace {

constexpr Bytes kM = 1e9; // 1 GB collective.

std::vector<DimSpan>
spans2D(int n1, int n2)
{
    return {{0, n1}, {1, n2}};
}

TEST(MultiRail, AllReduce2DMatchesPaperFormula)
{
    // Paper: traffic = 2m(n1-1)/n1 and 2m(n2-1)/(n1 n2).
    int n1 = 3, n2 = 2;
    auto traffic =
        multiRailTraffic(CollectiveType::AllReduce, kM, spans2D(n1, n2));
    ASSERT_EQ(traffic.size(), 2u);
    EXPECT_NEAR(traffic[0], 2.0 * kM * (n1 - 1) / n1, 1.0);
    EXPECT_NEAR(traffic[1], 2.0 * kM * (n2 - 1) / (n1 * n2), 1.0);
}

TEST(MultiRail, ReduceScatterIsHalfAllReduce)
{
    auto ar =
        multiRailTraffic(CollectiveType::AllReduce, kM, spans2D(4, 8));
    auto rs = multiRailTraffic(CollectiveType::ReduceScatter, kM,
                               spans2D(4, 8));
    auto ag =
        multiRailTraffic(CollectiveType::AllGather, kM, spans2D(4, 8));
    for (std::size_t i = 0; i < ar.size(); ++i) {
        EXPECT_NEAR(rs[i], ar[i] / 2.0, 1e-6);
        EXPECT_NEAR(ag[i], ar[i] / 2.0, 1e-6);
    }
}

TEST(MultiRail, AllToAllHasNoPrefixReduction)
{
    // Paper: max(m(n1-1)/(n1 B1), m(n2-1)/(n2 B2)).
    int n1 = 4, n2 = 8;
    auto traffic =
        multiRailTraffic(CollectiveType::AllToAll, kM, spans2D(n1, n2));
    EXPECT_NEAR(traffic[0], kM * (n1 - 1) / n1, 1.0);
    EXPECT_NEAR(traffic[1], kM * (n2 - 1) / n2, 1.0);
}

TEST(MultiRail, TimeIsBottleneckDimension)
{
    // Equal BW: dim 1 carries far more traffic and must bottleneck.
    BwConfig bw{100.0, 100.0};
    auto t = multiRailTime(CollectiveType::AllReduce, kM, spans2D(4, 8),
                           bw);
    EXPECT_EQ(t.bottleneckSpan, 0u);
    EXPECT_NEAR(t.time, t.timePerDim[0], 1e-15);
    EXPECT_GT(t.timePerDim[0], t.timePerDim[1]);
}

TEST(MultiRail, BalancedBwEqualizesDimTimes)
{
    // BW proportional to traffic makes all dims finish together —
    // the Fig. 9(c) ideal allocation.
    auto traffic =
        multiRailTraffic(CollectiveType::AllReduce, kM, spans2D(4, 8));
    BwConfig bw{traffic[0] / 1e9, traffic[1] / 1e9}; // 1 second each.
    auto t = multiRailTime(CollectiveType::AllReduce, kM, spans2D(4, 8),
                           bw);
    EXPECT_NEAR(t.timePerDim[0], t.timePerDim[1], 1e-9);
    EXPECT_NEAR(t.time, 1.0, 1e-9);
}

TEST(MultiRail, ThreeDimPrefixProducts)
{
    // Fig. 9's 3D case: traffic falls by the prefix product per dim.
    std::vector<DimSpan> spans{{0, 4}, {1, 4}, {2, 4}};
    auto traffic =
        multiRailTraffic(CollectiveType::AllReduce, kM, spans);
    EXPECT_NEAR(traffic[0], 2.0 * kM * 3 / 4, 1.0);
    EXPECT_NEAR(traffic[1], 2.0 * kM * 3 / 16, 1.0);
    EXPECT_NEAR(traffic[2], 2.0 * kM * 3 / 64, 1.0);
}

TEST(MultiRail, SpanDimsIndexIntoFullBwVector)
{
    // A collective on dims {1, 3} of a 4D network reads B2 and B4.
    std::vector<DimSpan> spans{{1, 2}, {3, 32}};
    BwConfig bw{1.0, 100.0, 1.0, 5.0};
    auto t = multiRailTime(CollectiveType::AllReduce, kM, spans, bw);
    EXPECT_NEAR(t.timePerDim[0], transferTime(2.0 * kM * 1 / 2, 100.0),
                1e-12);
    EXPECT_NEAR(t.timePerDim[1],
                transferTime(2.0 * kM * 31 / 64, 5.0), 1e-12);
}

TEST(MultiRail, InNetworkAllReduceDropsTraffic)
{
    std::vector<DimSpan> spans{{0, 4}, {1, 8}};
    BwConfig bw{100.0, 100.0};
    auto normal =
        multiRailTime(CollectiveType::AllReduce, kM, spans, bw, false);
    auto offload =
        multiRailTime(CollectiveType::AllReduce, kM, spans, bw, true);
    // Paper: in-network time of dim i is m / (prefix * Bi).
    EXPECT_NEAR(offload.trafficPerDim[0], kM, 1.0);
    EXPECT_NEAR(offload.trafficPerDim[1], kM / 4.0, 1.0);
    EXPECT_LT(offload.time, normal.time);
}

TEST(MultiRail, InNetworkLeavesOtherCollectivesAlone)
{
    std::vector<DimSpan> spans{{0, 4}};
    BwConfig bw{100.0};
    auto a = multiRailTime(CollectiveType::AllGather, kM, spans, bw,
                           false);
    auto b =
        multiRailTime(CollectiveType::AllGather, kM, spans, bw, true);
    EXPECT_DOUBLE_EQ(a.time, b.time);
}

TEST(MultiRail, EmptySpansMeanNoCommunication)
{
    BwConfig bw{100.0};
    auto t = multiRailTime(CollectiveType::AllReduce, kM, {}, bw);
    EXPECT_DOUBLE_EQ(t.time, 0.0);
}

TEST(MultiRail, NonPositiveBwThrows)
{
    std::vector<DimSpan> spans{{0, 4}};
    EXPECT_THROW(
        multiRailTime(CollectiveType::AllReduce, kM, spans, {0.0}),
        FatalError);
}

/**
 * Property: more chunks of reduction (bigger prefix) never increases
 * traffic on outer dims, and scaling every BW scales time inversely.
 */
class MultiRailScaling : public ::testing::TestWithParam<double>
{};

TEST_P(MultiRailScaling, TimeScalesInverselyWithBw)
{
    double k = GetParam();
    std::vector<DimSpan> spans{{0, 4}, {1, 8}, {2, 4}, {3, 32}};
    BwConfig bw{40.0, 30.0, 20.0, 10.0};
    BwConfig scaled = bw;
    for (auto& b : scaled)
        b *= k;
    auto t1 = multiRailTime(CollectiveType::AllReduce, kM, spans, bw);
    auto t2 =
        multiRailTime(CollectiveType::AllReduce, kM, spans, scaled);
    EXPECT_NEAR(t2.time, t1.time / k, t1.time * 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Factors, MultiRailScaling,
                         ::testing::Values(0.5, 2.0, 4.0, 10.0));

} // namespace
} // namespace libra
