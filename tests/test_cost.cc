/**
 * @file
 * Tests for the network dollar-cost model (Table I / Fig. 12).
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/logging.hh"
#include "cost/cost_model.hh"
#include "topology/zoo.hh"

namespace libra {
namespace {

TEST(CostModel, Figure12WorkedExample)
{
    // 3 NPUs on an inter-Pod switch at 10 GB/s:
    // links 7.8*10*3 = 234, switch 18*3*10 = 540, NICs 31.6*10*3 = 948,
    // total $1,722.
    Network net = Network::parse("SW(3)");
    CostModel m = CostModel::defaultModel();
    Dollars cost = m.networkCost(net, {10.0});
    EXPECT_NEAR(cost, 1722.0, 1e-6);

    auto breakdown = m.breakdown(net, {10.0});
    ASSERT_EQ(breakdown.size(), 1u);
    EXPECT_NEAR(breakdown[0].linkCost, 234.0, 1e-6);
    EXPECT_NEAR(breakdown[0].switchCost, 540.0, 1e-6);
    EXPECT_NEAR(breakdown[0].nicCost, 948.0, 1e-6);
    EXPECT_NEAR(breakdown[0].total(), 1722.0, 1e-6);
}

TEST(CostModel, DefaultTableOneRates)
{
    CostModel m = CostModel::defaultModel();
    EXPECT_DOUBLE_EQ(m.levelCost(PhysicalLevel::Chiplet).link, 2.0);
    EXPECT_DOUBLE_EQ(m.levelCost(PhysicalLevel::Package).link, 4.0);
    EXPECT_DOUBLE_EQ(m.levelCost(PhysicalLevel::Package).switch_, 13.0);
    EXPECT_DOUBLE_EQ(m.levelCost(PhysicalLevel::Pod).nic, 31.6);
}

TEST(CostModel, NicOnlyAtPodLevel)
{
    CostModel m = CostModel::defaultModel();
    Network net = Network::parse("SW(4)_SW(4)");
    // Dim 1 is Node level: link+switch; dim 2 is Pod: link+switch+NIC.
    EXPECT_DOUBLE_EQ(m.dollarPerGBps(net.dim(0)), 4.0 + 13.0);
    EXPECT_DOUBLE_EQ(m.dollarPerGBps(net.dim(1)), 7.8 + 18.0 + 31.6);
}

TEST(CostModel, ChipletNeverPaysSwitch)
{
    CostModel m = CostModel::defaultModel();
    // A 4D network whose innermost dim is SW notation: chiplets are
    // peer-to-peer by definition (paper §IV-D), so no switch dollars.
    Network net = Network::parse("SW(2)_RI(2)_RI(2)_SW(2)");
    EXPECT_DOUBLE_EQ(m.dollarPerGBps(net.dim(0)), 2.0);
}

TEST(CostModel, RingPaysNoSwitchAnywhere)
{
    CostModel m = CostModel::defaultModel();
    Network net = Network::parse("RI(4)_RI(4)_RI(4)");
    EXPECT_DOUBLE_EQ(m.dollarPerGBps(net.dim(0)), 4.0);  // Package link.
    EXPECT_DOUBLE_EQ(m.dollarPerGBps(net.dim(1)), 4.0);  // Node link.
    EXPECT_DOUBLE_EQ(m.dollarPerGBps(net.dim(2)), 7.8 + 31.6); // Pod.
}

TEST(CostModel, CostScalesLinearlyWithBw)
{
    CostModel m = CostModel::defaultModel();
    Network net = topo::fourD4K();
    BwConfig bw = net.equalBw(400.0);
    Dollars c1 = m.networkCost(net, bw);
    BwConfig bw2 = net.equalBw(800.0);
    Dollars c2 = m.networkCost(net, bw2);
    EXPECT_NEAR(c2, 2.0 * c1, 1e-6);
    EXPECT_GT(c1, 0.0);
}

TEST(CostModel, CheaperToPutBwOnInnerDims)
{
    CostModel m = CostModel::defaultModel();
    Network net = topo::fourD4K();
    BwConfig inner{700.0, 100.0, 100.0, 100.0};
    BwConfig outer{100.0, 100.0, 100.0, 700.0};
    EXPECT_LT(m.networkCost(net, inner), m.networkCost(net, outer));
}

TEST(CostModel, UserOverride)
{
    CostModel m = CostModel::defaultModel();
    m.setLevelCost(PhysicalLevel::Package, {1.0, 0.0, 0.0});
    Network net = Network::parse("RI(2)_RI(2)_RI(2)");
    EXPECT_DOUBLE_EQ(m.dollarPerGBps(net.dim(0)), 1.0);
}

TEST(CostModel, BreakdownSumsToTotal)
{
    CostModel m = CostModel::defaultModel();
    Network net = topo::fourD2K();
    BwConfig bw{100.0, 50.0, 25.0, 10.0};
    Dollars total = m.networkCost(net, bw);
    Dollars sum = 0.0;
    for (const auto& b : m.breakdown(net, bw))
        sum += b.total();
    EXPECT_NEAR(sum, total, total * 1e-12);
}

TEST(CostModel, SwitchHierarchyMultipliesSwitchDollars)
{
    // Fig. 4: the two topologies use the same three physical switches,
    // but SW(4:2) is one dimension with a 2-level hierarchy. Same
    // performance model, extra switch-port dollars.
    CostModel m = CostModel::defaultModel();
    Network flat = Network::parse("SW(4)");
    Network deep = Network::parse("SW(4:2)");
    auto flatBd = m.breakdown(flat, {10.0});
    auto deepBd = m.breakdown(deep, {10.0});
    EXPECT_NEAR(deepBd[0].switchCost, 2.0 * flatBd[0].switchCost, 1e-9);
    EXPECT_NEAR(deepBd[0].linkCost, flatBd[0].linkCost, 1e-9);
    EXPECT_NEAR(deepBd[0].nicCost, flatBd[0].nicCost, 1e-9);
    EXPECT_GT(m.networkCost(deep, {10.0}), m.networkCost(flat, {10.0}));
}

TEST(CostModel, EmptyModelIsFree)
{
    CostModel m;
    Network net = topo::threeDTorus();
    EXPECT_DOUBLE_EQ(m.networkCost(net, net.equalBw(300.0)), 0.0);
}

TEST(CostModel, NonFinitePricesAreFatal)
{
    CostModel m = CostModel::defaultModel();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(m.setLevelCost(PhysicalLevel::Pod, {nan, 18.0, 31.6}),
                 FatalError);
    EXPECT_THROW(m.setLevelCost(PhysicalLevel::Node, {4.0, inf, 0.0}),
                 FatalError);
    EXPECT_THROW(m.setLevelCost(PhysicalLevel::Pod, {7.8, 18.0, -inf}),
                 FatalError);
    // A rejected update leaves the previous prices in place.
    EXPECT_EQ(m.levelCost(PhysicalLevel::Pod).link, 7.8);
}

} // namespace
} // namespace libra
