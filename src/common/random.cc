#include "common/random.hh"

#include <numeric>

namespace libra {

double
Rng::uniform(double lo, double hi)
{
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
}

int
Rng::uniformInt(int lo, int hi)
{
    std::uniform_int_distribution<int> dist(lo, hi);
    return dist(engine_);
}

double
Rng::normal()
{
    // A fresh distribution each call discards the Box-Muller spare,
    // trading one wasted draw for draw-count independence: the stream
    // position after n calls never depends on distribution state.
    std::normal_distribution<double> dist(0.0, 1.0);
    return dist(engine_);
}

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
