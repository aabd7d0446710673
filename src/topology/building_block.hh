/**
 * @file
 * Unit network building blocks (paper Fig. 7).
 *
 * Each dimension of a multi-dimensional network instantiates one of three
 * unit topologies — Ring (RI), FullyConnected (FC), or Switch (SW) — and
 * runs that topology's contention-free collective algorithm (Ring, Direct,
 * Halving-Doubling) within the dimension.
 */

#ifndef LIBRA_TOPOLOGY_BUILDING_BLOCK_HH
#define LIBRA_TOPOLOGY_BUILDING_BLOCK_HH

#include <string>

namespace libra {

/** Unit topology of one network dimension. */
enum class UnitTopology { Ring, FullyConnected, Switch };

/** Topology-aware collective algorithm run within one dimension. */
enum class DimAlgorithm { Ring, Direct, HalvingDoubling };

/** Two-letter token used in the network notation ("RI"/"FC"/"SW"). */
std::string unitTopologyToken(UnitTopology t);

/**
 * Parse a notation token into a unit topology.
 * @throws FatalError on unknown tokens.
 */
UnitTopology parseUnitTopology(const std::string& token);

/** Canonical contention-free algorithm for a unit topology (Fig. 7b). */
DimAlgorithm canonicalAlgorithm(UnitTopology t);

/** True when the dimension needs a physical switch component. */
bool needsSwitch(UnitTopology t);

} // namespace libra

#endif // LIBRA_TOPOLOGY_BUILDING_BLOCK_HH
