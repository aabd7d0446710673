/**
 * @file
 * Closed-form bandwidth allocation for single-bottleneck objectives.
 *
 * When the objective is a single max-of-ratios term —
 * min max_i(a_i / B_i) s.t. sum B_i = T, B_i > 0 — the optimum
 * equalizes every ratio: B_i = T * a_i / sum(a). The optimizer seeds
 * its search with this split.
 */

#ifndef LIBRA_SOLVER_WATER_FILL_HH
#define LIBRA_SOLVER_WATER_FILL_HH

#include "solver/matrix.hh"

namespace libra {

/**
 * Allocation equalizing a_i / B_i under sum B = total.
 * Entries with a_i == 0 receive @p floor (they still need a link).
 *
 * @throws FatalError when total is non-positive or all a_i are zero.
 */
Vec proportionalAllocation(const Vec& a, double total,
                           double floor = 0.0);

} // namespace libra

#endif // LIBRA_SOLVER_WATER_FILL_HH
