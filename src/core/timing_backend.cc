#include "core/timing_backend.hh"

#include "runtime/themis.hh"
#include "sim/chunk_timeline.hh"

namespace libra {

namespace {

/** The historical hard-wired path, now the default registry entry. */
class AnalyticalTimingBackend final : public TimingBackend
{
  public:
    std::string name() const override
    {
        return kAnalyticalTimingBackendName;
    }

    std::string
    description() const override
    {
        return "closed-form multi-rail bottleneck model (paper §IV-C; "
               "precompilable, the default)";
    }

    CollectiveTiming
    timing(CollectiveType type, Bytes size,
           const std::vector<DimSpan>& spans, const BwConfig& bw,
           bool in_network) const override
    {
        return multiRailTime(type, size, spans, bw, in_network);
    }
};

/**
 * Chunk-granularity pipeline simulation per collective. Each query is
 * an independent single-threaded discrete-event run with no state
 * outside the call, so the backend is trivially thread-safe and the
 * parallel multistart/sweep fan-out on the global pool batches many
 * simulations at once. Layered workloads issue the same collective
 * many times per evaluation; the estimator times each distinct one
 * once per call (TrainingEstimator::estimate), so the backend keeps
 * no cache of its own.
 */
class ChunkSimTimingBackend final : public TimingBackend
{
  public:
    std::string name() const override
    {
        return kChunkSimTimingBackendName;
    }

    std::string
    description() const override
    {
        return "chunk-level pipeline simulation (ChunkTimeline, 64 "
               "chunks; timed once per distinct collective per "
               "evaluation)";
    }

    /**
     * "/x1": optimized under the cross-fidelity search, whose designs
     * differ from the all-simulated search's in the last digits.
     */
    std::string
    cacheKeyTag() const override
    {
        return name() + "/" + std::to_string(kChunkSimNumChunks) + "/x1";
    }

    /**
     * Analytical agreement is bounded per collective by the pipeline
     * ramp (chunkSimRelTolerance), so the search runs analytically.
     */
    bool searchesAnalytically() const override { return true; }

    /** One chunk-pipelined collective through ChunkTimeline. */
    CollectiveTiming
    timing(CollectiveType type, Bytes size,
           const std::vector<DimSpan>& spans, const BwConfig& bw,
           bool in_network) const override
    {
        CollectiveTiming timing;
        if (spans.empty())
            return timing; // Single-NPU group: no communication.

        // The chunk simulator has no switch-reduction mode (the same
        // restriction CollectiveSim documents), so the in-network
        // All-Reduce keeps its analytical closed form m / q_{i-1}.
        if (in_network && type == CollectiveType::AllReduce)
            return multiRailTime(type, size, spans, bw, true);

        ChunkTimeline timeline(bw.size(), bw);
        CollectiveJob job;
        job.type = type;
        job.size = size;
        job.spans = spans;
        job.numChunks = kChunkSimNumChunks;
        job.policy = SchedulePolicy::FixedAscending;
        TimelineResult result = timeline.run({job});

        timing.time = result.makespan;
        timing.trafficPerDim = multiRailTraffic(type, size, spans);
        timing.timePerDim.assign(spans.size(), 0.0);
        for (std::size_t s = 0; s < spans.size(); ++s)
            timing.timePerDim[s] = result.dimBusy[spans[s].dim];
        std::size_t arg = 0;
        for (std::size_t s = 1; s < spans.size(); ++s) {
            if (timing.timePerDim[s] > timing.timePerDim[arg])
                arg = s;
        }
        timing.bottleneckSpan = arg;
        return timing;
    }
};

/**
 * Greedy Themis chunk scheduling per collective (paper Fig. 19). Like
 * chunk-sim, each query runs its own timelines (greedy and fixed
 * order), so the backend is thread-safe and keeps no cache. The
 * scheduler has no switch-reduction mode; it times in-network
 * All-Reduces like any other collective.
 */
class ThemisTimingBackend final : public TimingBackend
{
  public:
    std::string name() const override
    {
        return kThemisTimingBackendName;
    }

    std::string
    description() const override
    {
        return "Themis runtime scheduler (greedy chunk scheduling over "
               "ChunkTimeline, 64 chunks; paper Fig. 19)";
    }

    std::string
    cacheKeyTag() const override
    {
        return name() + "/" + std::to_string(kChunkSimNumChunks);
    }

    CollectiveTiming
    timing(CollectiveType type, Bytes size,
           const std::vector<DimSpan>& spans, const BwConfig& bw,
           bool /*in_network*/) const override
    {
        return themisCollectiveTiming(bw.size(), type, size, spans, bw,
                                      kChunkSimNumChunks);
    }
};

} // namespace

template <>
void
TimingBackendRegistry::registerBuiltins(TimingBackendRegistry& registry)
{
    registry.add(std::make_unique<AnalyticalTimingBackend>());
    registry.add(std::make_unique<ChunkSimTimingBackend>());
    registry.add(std::make_unique<ThemisTimingBackend>());
}

std::string
timingBackendOrDefault(const std::string& name)
{
    return name.empty() ? kAnalyticalTimingBackendName : name;
}

const TimingBackend*
resolveTimingBackend(const std::string& name)
{
    return &TimingBackendRegistry::global().resolve(
        timingBackendOrDefault(name));
}

double
chunkSimRelTolerance(const CollectiveTiming& analytical, int num_chunks)
{
    if (analytical.time <= 0.0 || num_chunks < 1)
        return 0.0;
    Seconds sum = 0.0;
    for (Seconds t : analytical.timePerDim)
        sum += t;
    // Ramp bound: one chunk's full trip through every stage, relative
    // to the steady-state bottleneck; plus headroom for the
    // simulator's picosecond event grid (a few hundred quantized
    // event times) and FP summation order.
    return sum / (analytical.time * static_cast<double>(num_chunks)) +
           1e-6;
}

} // namespace libra
