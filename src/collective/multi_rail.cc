#include "collective/multi_rail.hh"

#include <algorithm>

#include "common/logging.hh"

namespace libra {

std::vector<Bytes>
multiRailTraffic(CollectiveType type, Bytes size,
                 const std::vector<DimSpan>& spans)
{
    std::vector<Bytes> traffic;
    traffic.reserve(spans.size());
    double prefix = 1.0;
    for (const auto& span : spans) {
        double g = static_cast<double>(span.groupSize);
        switch (type) {
          case CollectiveType::AllReduce:
            prefix *= g;
            traffic.push_back(2.0 * size * (g - 1.0) / prefix);
            break;
          case CollectiveType::ReduceScatter:
          case CollectiveType::AllGather:
            prefix *= g;
            traffic.push_back(size * (g - 1.0) / prefix);
            break;
          case CollectiveType::AllToAll:
            traffic.push_back(size * (g - 1.0) / g);
            break;
          case CollectiveType::PointToPoint:
            // One hop across the lowest spanned dimension (pipeline
            // stage boundary); upper dims are untouched.
            traffic.push_back(traffic.empty() ? size : 0.0);
            break;
        }
    }
    return traffic;
}

CollectiveTiming
multiRailTime(CollectiveType type, Bytes size,
              const std::vector<DimSpan>& spans, const BwConfig& bw,
              bool in_network)
{
    CollectiveTiming timing;
    if (spans.empty())
        return timing; // Single-NPU group: no communication.

    if (in_network && type == CollectiveType::AllReduce) {
        // Switch offload: each dimension forwards the (already locally
        // reduced) m / q_{i-1} payload once; the switch reduces in-fabric.
        double prefix = 1.0;
        for (const auto& span : spans) {
            timing.trafficPerDim.push_back(size / prefix);
            prefix *= static_cast<double>(span.groupSize);
        }
    } else {
        timing.trafficPerDim = multiRailTraffic(type, size, spans);
    }

    timing.timePerDim.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        double b = bw.at(spans[i].dim) * spans[i].efficiency;
        if (b <= 0.0)
            fatal("dimension ", spans[i].dim + 1, " has non-positive BW ",
                  b);
        timing.timePerDim.push_back(
            transferTime(timing.trafficPerDim[i], b));
    }

    auto it = std::max_element(timing.timePerDim.begin(),
                               timing.timePerDim.end());
    timing.bottleneckSpan =
        static_cast<std::size_t>(it - timing.timePerDim.begin());
    timing.time = *it;
    return timing;
}

} // namespace libra
