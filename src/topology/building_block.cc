#include "topology/building_block.hh"

#include "common/logging.hh"

namespace libra {

std::string
unitTopologyToken(UnitTopology t)
{
    switch (t) {
      case UnitTopology::Ring:
        return "RI";
      case UnitTopology::FullyConnected:
        return "FC";
      case UnitTopology::Switch:
        return "SW";
    }
    panic("unknown unit topology");
}

UnitTopology
parseUnitTopology(const std::string& token)
{
    if (token == "RI" || token == "ri")
        return UnitTopology::Ring;
    if (token == "FC" || token == "fc")
        return UnitTopology::FullyConnected;
    if (token == "SW" || token == "sw")
        return UnitTopology::Switch;
    fatal("unknown unit topology token '", token,
          "' (expected RI, FC, or SW)");
}

DimAlgorithm
canonicalAlgorithm(UnitTopology t)
{
    switch (t) {
      case UnitTopology::Ring:
        return DimAlgorithm::Ring;
      case UnitTopology::FullyConnected:
        return DimAlgorithm::Direct;
      case UnitTopology::Switch:
        return DimAlgorithm::HalvingDoubling;
    }
    panic("unknown unit topology");
}

bool
needsSwitch(UnitTopology t)
{
    return t == UnitTopology::Switch;
}

} // namespace libra
