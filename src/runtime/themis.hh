/**
 * @file
 * Themis-style runtime collective scheduler [39] (paper §VI-D).
 *
 * Themis raises network utilization by scheduling chunks across the
 * dimensions of a multi-dimensional network greedily instead of in the
 * fixed ascending multi-rail order: a chunk's next Reduce-Scatter stage
 * goes to the dimension that finishes it earliest (the All-Gather phase
 * mirrors each chunk's RS order). Since earlier stages carry larger,
 * less-reduced payloads, reordering shifts load toward whichever
 * dimensions have spare bandwidth — recovering utilization on networks
 * whose BW split is imbalanced for the workload.
 *
 * The scheduler itself lives in ChunkTimeline (SchedulePolicy::Greedy);
 * the "themis" timing backend (core/timing_backend.hh) plugs this
 * function into the TrainingEstimator so end-to-end training can be
 * estimated with Themis enabled (Fig. 19). Like the real scheduler, it
 * never does worse than the canonical ascending order: per collective
 * it keeps the better of the greedy and fixed schedules.
 */

#ifndef LIBRA_RUNTIME_THEMIS_HH
#define LIBRA_RUNTIME_THEMIS_HH

#include "collective/multi_rail.hh"

namespace libra {

/**
 * Collective time under the greedy Themis scheduler.
 *
 * @param num_dims Total network dimensions (for the timeline).
 * @param chunks   Chunks per collective (paper default: 64).
 */
CollectiveTiming themisCollectiveTiming(std::size_t num_dims,
                                        CollectiveType type, Bytes size,
                                        const std::vector<DimSpan>& spans,
                                        const BwConfig& bw, int chunks);

} // namespace libra

#endif // LIBRA_RUNTIME_THEMIS_HH
