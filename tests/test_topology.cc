/**
 * @file
 * Tests for building blocks, the network representation, and the zoo.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "topology/building_block.hh"
#include "topology/network.hh"
#include "topology/zoo.hh"

namespace libra {
namespace {

TEST(BuildingBlock, TokensRoundTrip)
{
    for (auto t : {UnitTopology::Ring, UnitTopology::FullyConnected,
                   UnitTopology::Switch})
        EXPECT_EQ(parseUnitTopology(unitTopologyToken(t)), t);
    EXPECT_THROW(parseUnitTopology("XX"), FatalError);
}

TEST(BuildingBlock, CanonicalAlgorithms)
{
    // Fig. 7(b): Ring->Ring, FC->Direct, SW->HalvingDoubling.
    EXPECT_EQ(canonicalAlgorithm(UnitTopology::Ring), DimAlgorithm::Ring);
    EXPECT_EQ(canonicalAlgorithm(UnitTopology::FullyConnected),
              DimAlgorithm::Direct);
    EXPECT_EQ(canonicalAlgorithm(UnitTopology::Switch),
              DimAlgorithm::HalvingDoubling);
}

TEST(BuildingBlock, SwitchNeeds)
{
    EXPECT_TRUE(needsSwitch(UnitTopology::Switch));
    EXPECT_FALSE(needsSwitch(UnitTopology::Ring));
}

TEST(Network, ParseNameRoundTrip)
{
    for (const char* name :
         {"RI(4)_FC(8)_RI(4)_SW(32)", "SW(16)_SW(8)_SW(4)", "RI(2)",
          "FC(8)_RI(16)_SW(8)"}) {
        Network n = Network::parse(name);
        EXPECT_EQ(n.name(), name);
    }
}

TEST(Network, NpusAndPrefix)
{
    Network n = Network::parse("RI(4)_FC(8)_RI(4)_SW(32)");
    EXPECT_EQ(n.npus(), 4096);
    EXPECT_EQ(n.prefixProduct(0), 1);
    EXPECT_EQ(n.prefixProduct(1), 4);
    EXPECT_EQ(n.prefixProduct(2), 32);
    EXPECT_EQ(n.prefixProduct(3), 128);
    EXPECT_EQ(n.prefixProduct(4), 4096);
}

TEST(Network, SwitchHierarchyNotation)
{
    // Fig. 4(b): a 2-level switch hierarchy within one dimension is
    // still a 1D topology — same connectivity, same name round-trip.
    Network n = Network::parse("SW(8:2)");
    EXPECT_EQ(n.numDims(), 1u);
    EXPECT_EQ(n.dim(0).size, 8);
    EXPECT_EQ(n.dim(0).switchLevels, 2);
    EXPECT_EQ(n.name(), "SW(8:2)");

    Network mixed = Network::parse("RI(4)_SW(16:3)");
    EXPECT_EQ(mixed.dim(1).switchLevels, 3);
    EXPECT_EQ(mixed.name(), "RI(4)_SW(16:3)");
}

TEST(Network, HierarchyDepthValidation)
{
    EXPECT_THROW(Network::parse("RI(4:2)"), FatalError); // Not SW.
    EXPECT_THROW(Network::parse("SW(4:)"), FatalError);
    EXPECT_THROW(Network::parse("SW(4:0)"), FatalError);
    EXPECT_THROW(Network::parse("SW(4:65)"), FatalError);
    EXPECT_THROW(Network::parse("SW(4:99999999999)"), FatalError);
    EXPECT_EQ(Network::parse("SW(4:64)").dim(0).switchLevels, 64);
}

TEST(Network, SizeAndNpuBounds)
{
    // Sizes past int range and NPU products past long range are
    // errors, not wrapped values.
    EXPECT_THROW(Network::parse("RI(99999999999999999999999)"),
                 FatalError);
    EXPECT_THROW(Network::parse("RI(4294967297)"), FatalError);
    EXPECT_THROW(Network::parse("RI(1073741825)"), FatalError);
    EXPECT_THROW(Network::parse("SW(65536)_SW(65536)_SW(65536)_SW(65536)"),
                 FatalError);
    EXPECT_THROW(Network::parse("SW(32768)_SW(32769)"), FatalError);
    EXPECT_EQ(Network::parse("RI(1073741824)").npus(), 1L << 30);
    EXPECT_EQ(Network::parse("SW(32768)_SW(32768)").npus(), 1L << 30);
    // The constructor holds the NPU bound for programmatic shapes too.
    EXPECT_THROW(Network({{UnitTopology::Switch, 65536},
                          {UnitTopology::Switch, 65536}}),
                 FatalError);
}

TEST(Network, ParseErrors)
{
    EXPECT_THROW(Network::parse(""), FatalError);
    EXPECT_THROW(Network::parse("RI"), FatalError);
    EXPECT_THROW(Network::parse("RI(4"), FatalError);
    EXPECT_THROW(Network::parse("RI(4)FC(8)"), FatalError);
    EXPECT_THROW(Network::parse("QQ(4)"), FatalError);
    EXPECT_THROW(Network::parse("RI(1)"), FatalError); // Size < 2.
}

TEST(Network, PhysicalLevelsOutsideIn)
{
    // 4D: Chiplet, Package, Node, Pod (Fig. 2b).
    Network n4 = Network::parse("RI(4)_FC(8)_RI(4)_SW(32)");
    EXPECT_EQ(n4.dim(0).level, PhysicalLevel::Chiplet);
    EXPECT_EQ(n4.dim(1).level, PhysicalLevel::Package);
    EXPECT_EQ(n4.dim(2).level, PhysicalLevel::Node);
    EXPECT_EQ(n4.dim(3).level, PhysicalLevel::Pod);

    // 2D: Node, Pod.
    Network n2 = Network::parse("RI(4)_SW(2)");
    EXPECT_EQ(n2.dim(0).level, PhysicalLevel::Node);
    EXPECT_EQ(n2.dim(1).level, PhysicalLevel::Pod);

    // 5D: two Chiplet dims inside.
    Network n5 = Network::parse("RI(2)_RI(2)_RI(2)_RI(2)_SW(2)");
    EXPECT_EQ(n5.dim(0).level, PhysicalLevel::Chiplet);
    EXPECT_EQ(n5.dim(1).level, PhysicalLevel::Chiplet);
    EXPECT_EQ(n5.dim(2).level, PhysicalLevel::Package);
}

TEST(Network, CoordinatesAreMixedRadix)
{
    // Dim 0 is fastest-varying (Fig. 8 placement): ids count through
    // the coordinates in this nesting order, every NPU exactly once.
    Network n = Network::parse("RI(3)_RI(2)_RI(4)");
    long id = 0;
    for (int c2 = 0; c2 < 4; ++c2)
        for (int c1 = 0; c1 < 2; ++c1)
            for (int c0 = 0; c0 < 3; ++c0)
                EXPECT_EQ(n.coordsOf(id++), (std::vector<int>{c0, c1, c2}));
    EXPECT_EQ(id, n.npus());
}

TEST(Network, EqualBw)
{
    Network n = Network::parse("RI(4)_SW(2)");
    BwConfig bw = n.equalBw(300.0);
    ASSERT_EQ(bw.size(), 2u);
    EXPECT_DOUBLE_EQ(bw[0], 150.0);
    EXPECT_DOUBLE_EQ(bw[1], 150.0);
}

TEST(Zoo, TableThreeShapes)
{
    EXPECT_EQ(topo::fourD4K().npus(), 4096);
    EXPECT_EQ(topo::threeD4K().npus(), 4096);
    EXPECT_EQ(topo::twoD4K().npus(), 4096);
    EXPECT_EQ(topo::threeD512().npus(), 512);
    EXPECT_EQ(topo::threeD1K().npus(), 1024);
    EXPECT_EQ(topo::fourD2K().npus(), 2048);
    EXPECT_EQ(topo::threeDTorus().npus(), 64);
    EXPECT_EQ(topo::tableThree().size(), 6u);
}

TEST(Zoo, FamilyConsistency)
{
    // 3D-4K merges the two ring dims of 4D-4K; 2D-4K merges once more.
    EXPECT_EQ(topo::threeD4K().name(), "RI(16)_FC(8)_SW(32)");
    EXPECT_EQ(topo::twoD4K().name(), "RI(128)_SW(32)");
}

TEST(Zoo, RealSystemsParse)
{
    auto systems = topo::realSystems();
    EXPECT_EQ(systems.size(), 5u);
    for (const auto& s : systems)
        EXPECT_GE(s.network.npus(), 4);
}

TEST(PhysicalLevelNames, AllDistinct)
{
    EXPECT_EQ(physicalLevelName(PhysicalLevel::Chiplet), "Chiplet");
    EXPECT_EQ(physicalLevelName(PhysicalLevel::Pod), "Pod");
}

} // namespace
} // namespace libra
