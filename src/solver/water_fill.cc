#include "solver/water_fill.hh"

#include "common/logging.hh"

namespace libra {

Vec
proportionalAllocation(const Vec& weights, double total, double floor)
{
    if (total <= 0.0)
        fatal("allocation total must be positive, got ", total);
    double sum = 0.0;
    for (double w : weights) {
        if (w < 0.0)
            fatal("allocation weights must be non-negative");
        sum += w;
    }
    if (sum <= 0.0)
        fatal("allocation needs at least one positive weight");

    // Zero-weight entries take the floor; the rest shares what's left.
    double reserved = 0.0;
    for (double w : weights) {
        if (w == 0.0)
            reserved += floor;
    }
    if (reserved >= total)
        fatal("floor ", floor, " leaves no budget for active dims");

    Vec out(weights.size());
    for (std::size_t i = 0; i < weights.size(); ++i) {
        out[i] = weights[i] == 0.0
                     ? floor
                     : (total - reserved) * weights[i] / sum;
    }
    return out;
}

} // namespace libra
