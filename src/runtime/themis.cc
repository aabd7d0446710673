#include "runtime/themis.hh"

#include "sim/chunk_timeline.hh"

namespace libra {

CollectiveTiming
themisCollectiveTiming(std::size_t num_dims, CollectiveType type,
                       Bytes size, const std::vector<DimSpan>& spans,
                       const BwConfig& bw, int chunks)
{
    CollectiveTiming timing;
    if (spans.empty())
        return timing;

    ChunkTimeline timeline(num_dims, bw);
    CollectiveJob job;
    job.type = type;
    job.size = size;
    job.spans = spans;
    job.numChunks = chunks;
    job.policy = SchedulePolicy::Greedy;
    TimelineResult result = timeline.run({job});

    // Themis rebalances only when it helps: on allocations that are
    // already matched to the traffic profile, the canonical ascending
    // order is optimal and the scheduler keeps it.
    job.policy = SchedulePolicy::FixedAscending;
    TimelineResult fixed = timeline.run({job});
    if (fixed.makespan < result.makespan)
        result = fixed;

    timing.time = result.makespan;
    timing.trafficPerDim.assign(spans.size(), 0.0);
    timing.timePerDim.assign(spans.size(), 0.0);
    for (std::size_t s = 0; s < spans.size(); ++s) {
        std::size_t d = spans[s].dim;
        timing.timePerDim[s] = result.dimBusy[d];
        timing.trafficPerDim[s] =
            result.dimBusy[d] * bw[d] * kGiga;
    }
    // Bottleneck = the busiest spanned dimension.
    std::size_t arg = 0;
    for (std::size_t s = 1; s < spans.size(); ++s) {
        if (timing.timePerDim[s] > timing.timePerDim[arg])
            arg = s;
    }
    timing.bottleneckSpan = arg;
    return timing;
}

} // namespace libra
