/**
 * @file
 * Analytical multi-rail collective model (paper §IV-C).
 *
 * On a multi-dimensional network a collective executes as a sequence of
 * per-dimension stages (Reduce-Scatter ascending, then All-Gather
 * descending for All-Reduce). Because chunks pipeline through the stages,
 * the steady-state collective time is governed by the bottleneck
 * dimension:
 *
 *   t = max_i  traffic_i / B_i
 *
 * with per-NPU per-dimension traffic for a collective of m bytes over
 * span group sizes (g_1..g_k), prefix products q_i = g_1*...*g_i:
 *
 *   All-Reduce     : 2 m (g_i - 1) / q_i
 *   RS / AG        :   m (g_i - 1) / q_i
 *   All-to-All     :   m (g_i - 1) / g_i
 *   In-network AR  : time_i = m / (q_{i-1} B_i)   (switch offload)
 */

#ifndef LIBRA_COLLECTIVE_MULTI_RAIL_HH
#define LIBRA_COLLECTIVE_MULTI_RAIL_HH

#include <vector>

#include "collective/mapping.hh"
#include "common/units.hh"
#include "topology/network.hh"

namespace libra {

/**
 * Collective communication patterns (paper Fig. 6), plus the direct
 * NPU-to-NPU transfer pipeline parallelism issues between adjacent
 * stages (paper §IV-C: "captured in terms of network BW, e.g. m/B_i").
 * A PointToPoint op loads only the first spanned dimension — adjacent
 * pipeline stages differ in the lowest coordinate of the PP span.
 */
enum class CollectiveType
{
    AllReduce,
    ReduceScatter,
    AllGather,
    AllToAll,
    PointToPoint,
};

/** Timing detail of one collective under a bandwidth configuration. */
struct CollectiveTiming
{
    Seconds time = 0.0;                ///< Bottleneck (pipelined) time.
    std::vector<Bytes> trafficPerDim;  ///< Indexed like the span list.
    std::vector<Seconds> timePerDim;   ///< traffic_i / B_i.
    std::size_t bottleneckSpan = 0;    ///< Index into the span list.
};

/**
 * Per-NPU traffic each spanned dimension must carry (bytes).
 *
 * @param type  Collective pattern.
 * @param size  Collective payload m in bytes.
 * @param spans Dimension spans from mapGroupToDims().
 */
std::vector<Bytes> multiRailTraffic(CollectiveType type, Bytes size,
                                    const std::vector<DimSpan>& spans);

/**
 * Bottleneck-time model of one multi-rail collective.
 *
 * @param type       Collective pattern.
 * @param size       Payload in bytes.
 * @param spans      Dimension spans of the communicator group.
 * @param bw         Per-dimension bandwidth config of the whole network.
 * @param in_network Model switch-offloaded (in-network) execution:
 *                   All-Reduce traffic on dim i drops to m / q_{i-1}.
 */
CollectiveTiming multiRailTime(CollectiveType type, Bytes size,
                               const std::vector<DimSpan>& spans,
                               const BwConfig& bw,
                               bool in_network = false);

} // namespace libra

#endif // LIBRA_COLLECTIVE_MULTI_RAIL_HH
