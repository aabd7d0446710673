/**
 * @file
 * Chunk-level multi-rail collective pipeline simulator (paper Fig. 9).
 *
 * Collectives split into chunks that flow through per-dimension stages:
 * Reduce-Scatter ascending then All-Gather descending for All-Reduce.
 * Each network dimension is a serial resource (one chunk-stage at a
 * time), so an under-provisioned dimension backs the pipeline up exactly
 * as in Fig. 9(a)/(b). The simulator supports two scheduling policies:
 *
 *  - FixedAscending: the canonical multi-rail order (dim 1..N for RS).
 *  - Greedy: a Themis-style scheduler [39] that picks, per chunk, the
 *    dimension with the earliest completion time for its next stage —
 *    traffic per dimension depends on the visit order (earlier stages
 *    carry bigger, less-reduced payloads), which is precisely the degree
 *    of freedom Themis exploits to rebalance load.
 *
 * Output is per-dimension busy time, the BW-weighted average network
 * utilization (the Fig. 10 metric) and, on request, the full op-level
 * timeline.
 */

#ifndef LIBRA_SIM_CHUNK_TIMELINE_HH
#define LIBRA_SIM_CHUNK_TIMELINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "collective/multi_rail.hh"
#include "topology/network.hh"

namespace libra {

/**
 * Simulation time in integer picoseconds, so event ordering is exact
 * and runs are bit-reproducible.
 */
using Tick = std::uint64_t;

constexpr double kTicksPerSecond = 1e12;

/**
 * Seconds -> ticks (rounded to the nearest picosecond).
 * @throws FatalError when @p s is negative, non-finite, or 2^63 ps
 *         (about 9.22e6 s) or more.
 */
Tick toTicks(Seconds s);

/** Ticks -> seconds. */
Seconds toSeconds(Tick t);

/** Chunk scheduling policy across dimensions. */
enum class SchedulePolicy { FixedAscending, Greedy };

/** One collective injected into the timeline. */
struct CollectiveJob
{
    CollectiveType type = CollectiveType::AllReduce;
    Bytes size = 0.0;            ///< Whole-collective payload.
    std::vector<DimSpan> spans;  ///< Dimensions the group occupies.
    int numChunks = 64;          ///< Pipelining granularity (§V-B).
    Seconds releaseTime = 0.0;   ///< Injection time.
    SchedulePolicy policy = SchedulePolicy::FixedAscending;
};

/** One executed chunk-stage, for timeline rendering. */
struct TimelineRecord
{
    int job = 0;
    int chunk = 0;
    std::size_t dim = 0;
    bool allGather = false; ///< False: RS (or the only phase); true: AG.
    Seconds start = 0.0;
    Seconds end = 0.0;
};

/** Aggregate result of a timeline run. */
struct TimelineResult
{
    Seconds makespan = 0.0;          ///< Last completion time.
    std::vector<Seconds> dimBusy;    ///< Busy seconds per network dim.
    std::vector<TimelineRecord> records; ///< Only when kept; see run().

    /**
     * BW-weighted average utilization over the makespan:
     * sum_d busy_d * B_d / (makespan * sum_d B_d).
     */
    double avgBwUtilization = 0.0;

    /** ASCII rendering of the per-dimension timeline (Fig. 9 style). */
    std::string render(std::size_t num_dims, int width = 72) const;
};

/**
 * Chunk-granularity simulator over one network's dimensions.
 *
 * A discrete-event run over two event kinds: a chunk's release at its
 * job's releaseTime, and the completion of a chunk-stage on a
 * dimension (which starts that dimension's next queued stage, then
 * moves the chunk on). Events fire in (tick, insertion order): ties
 * break first-in first-out, the convention of gem5 and ASTRA-sim.
 * Releases are inserted job by job, chunk by chunk, before the run
 * starts, and each dimension serves its queued stages in FIFO order.
 */
class ChunkTimeline
{
  public:
    ChunkTimeline(std::size_t num_dims, BwConfig bw);

    /**
     * Simulate all jobs to completion. TimelineResult::records is
     * filled only when @p keep_records is set (for render() and
     * callers that inspect the stage sequence); makespan, dimBusy and
     * avgBwUtilization are identical either way.
     */
    TimelineResult run(const std::vector<CollectiveJob>& jobs,
                       bool keep_records = false) const;

    /** Convenience: single job, returns its completion time. */
    Seconds collectiveTime(const CollectiveJob& job) const;

  private:
    std::size_t numDims_;
    BwConfig bw_;
};

} // namespace libra

#endif // LIBRA_SIM_CHUNK_TIMELINE_HH
