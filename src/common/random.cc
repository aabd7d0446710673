#include "common/random.hh"

namespace libra {

std::vector<double>
Rng::simplexPoint(std::size_t n, double total)
{
    // Exponential spacings normalized to the simplex give a uniform
    // distribution over the scaled simplex.
    std::exponential_distribution<double> dist(1.0);
    std::vector<double> v(n);
    double sum = 0.0;
    for (auto& x : v) {
        x = dist(engine_);
        sum += x;
    }
    for (auto& x : v)
        x *= total / sum;
    return v;
}

} // namespace libra
