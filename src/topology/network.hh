/**
 * @file
 * Multi-dimensional network representation (paper §IV-A).
 *
 * A network is an ordered stack of unit-topology dimensions, written
 * "RI(4)_FC(8)_RI(4)_SW(32)" — dim 1 innermost (closest to the NPU),
 * last dim the scale-out fabric. Each dimension carries a physical
 * connotation (Chiplet / Package / Node / Pod, Fig. 2b) assigned
 * outside-in: the outermost dimension is always the Pod (NIC-based
 * scale-out), the next ones inward are Node, Package, and any remaining
 * inner dimensions are Chiplet-level.
 */

#ifndef LIBRA_TOPOLOGY_NETWORK_HH
#define LIBRA_TOPOLOGY_NETWORK_HH

#include <string>
#include <vector>

#include "solver/matrix.hh"
#include "topology/building_block.hh"

namespace libra {

/** Physical packaging level a network dimension lives at (Fig. 2b). */
enum class PhysicalLevel { Chiplet, Package, Node, Pod };

/** Human-readable level name. */
std::string physicalLevelName(PhysicalLevel level);

/** One dimension of a multi-dimensional network. */
struct NetworkDim
{
    UnitTopology type = UnitTopology::Ring;
    int size = 1;                 ///< NPUs per group in this dimension.
    PhysicalLevel level = PhysicalLevel::Pod;

    /**
     * Switch levels *within* this dimension (paper Fig. 4): "SW(8:2)"
     * is one 8-NPU dimension implemented as a 2-level switch
     * hierarchy. Hierarchy is an implementation choice — it does not
     * add parallel connectivity, so the performance model is unchanged
     * — but every level adds a layer of switch ports to the bill.
     */
    int switchLevels = 1;
};

/** Per-dimension bandwidth configuration (GB/s per NPU per dim). */
using BwConfig = Vec;

/** An N-dimensional network of NPUs. */
class Network
{
  public:
    /**
     * Build from explicit dimensions (levels are re-derived).
     * @throws FatalError on sizes < 2 or more than 2^30 NPUs.
     */
    explicit Network(std::vector<NetworkDim> dims);

    /**
     * Parse the "RI(4)_FC(8)_RI(4)_SW(32)" notation. Switch dims may
     * carry a hierarchy depth in [1, 64], e.g. "SW(8:2)" (Fig. 4b).
     * @throws FatalError on malformed input, sizes < 2, or a size,
     * depth or NPU count out of range.
     */
    static Network parse(const std::string& text);

    /** Canonical name in the notation, e.g. "RI(4)_FC(8)_SW(32)". */
    std::string name() const;

    std::size_t numDims() const { return dims_.size(); }
    const NetworkDim& dim(std::size_t i) const { return dims_[i]; }
    const std::vector<NetworkDim>& dims() const { return dims_; }

    /** Total NPU count (product of dimension sizes). */
    long npus() const;

    /** Product of dimension sizes 0..i-1 (prefix product, p0 = 1). */
    long prefixProduct(std::size_t i) const;

    /**
     * NPU id -> mixed-radix coordinate, dim 0 fastest-varying
     * (matches Fig. 8: consecutive ids are neighbours in dim 1).
     */
    std::vector<int> coordsOf(long npu) const;

    /** EqualBW baseline: @p total split equally across dimensions. */
    BwConfig equalBw(double total) const;

  private:
    void assignLevels();

    std::vector<NetworkDim> dims_;
};

} // namespace libra

#endif // LIBRA_TOPOLOGY_NETWORK_HH
