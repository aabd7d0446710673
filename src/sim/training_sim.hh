/**
 * @file
 * Event-driven training-loop simulator.
 *
 * Replays a workload's layers through the chunk-level network pipeline:
 * every collective becomes a ChunkTimeline job, and under the TP-DP
 * overlap loop the TP and DP collectives of a layer's backward pass run
 * *concurrently* in one timeline — so dimension contention between
 * overlapping collectives is simulated rather than max()-approximated.
 * This is the repo's ASTRA-sim stand-in for validating the analytical
 * estimator and producing utilization numbers (Fig. 10).
 */

#ifndef LIBRA_SIM_TRAINING_SIM_HH
#define LIBRA_SIM_TRAINING_SIM_HH

#include "core/estimator.hh"
#include "sim/chunk_timeline.hh"

namespace libra {

/** Simulator options. */
struct TrainingSimOptions
{
    TrainingLoop loop = TrainingLoop::NoOverlap;
    int chunksPerCollective = 64; ///< Paper §V-B: 64 chunks.
    SchedulePolicy policy = SchedulePolicy::FixedAscending;
    bool modelPartialDimEfficiency = true; ///< See DimSpan::efficiency.
};

/** Result of simulating one training iteration. */
struct TrainingSimResult
{
    Seconds total = 0.0;          ///< Iteration time.
    Seconds commTime = 0.0;       ///< Wall time with comm in flight.
    Seconds computeTotal = 0.0;
    std::vector<Seconds> dimBusy; ///< Busy seconds per dimension.
    double avgBwUtilization = 0.0;///< BW-weighted, over comm wall time.
};

/** Chunk-granularity training-iteration simulator. */
class TrainingSim
{
  public:
    TrainingSim(Network net, TrainingSimOptions options = {});

    /**
     * Simulate one iteration of @p w under @p bw. Repeated job lists
     * replay their first timeline run from a per-call memo, and a
     * layer whose collectives and weight-gradient compute equal the
     * previous layer's bit for bit reuses that layer's memo entries
     * without rebuilding its jobs, so the cost scales with the
     * workload's distinct layers.
     */
    TrainingSimResult simulate(const Workload& w, const BwConfig& bw) const;

  private:
    /** Build timeline jobs for a list of comm ops. */
    std::vector<CollectiveJob>
    jobsFor(const std::vector<CommOp>& ops, const Parallelization& strategy,
            Seconds release) const;

    Network net_;
    TrainingSimOptions options_;
};

} // namespace libra

#endif // LIBRA_SIM_TRAINING_SIM_HH
